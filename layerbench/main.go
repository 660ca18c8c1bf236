// Command layerbench is the repository's benchmark. It drives one of three
// workloads through the same public entry points users hit, checks every
// output, and prints one JSON result line:
//
//	figures  the paper presets through sweep.Figure + Experiment.Run (batch)
//	serve    cache-hit, approx, result and status reads against a daemon
//	fleet    fresh sweeps through a coordinator and two in-process workers
//
// Usage (from the repository root; layerbench/run.sh builds and runs it):
//
//	layerbench --workload serve --seed 3 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics, measured from spans the benchmark
// records around each layer's public calls, and the spans are written under
// .bench_build/traces. Everything runs in this one process: daemons listen
// on 127.0.0.1:0 and keep their files in a fresh directory per run.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"prioritystar/internal/obs"
	"prioritystar/internal/sim"
)

// DefaultSeed keeps every workload's preset seeds unchanged; the figures
// digests are recorded for it.
const DefaultSeed = 1

// Metric is one named number in the result line.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Outcome is the result line's schema.
type Outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Options parameterise one run.
type Options struct {
	Seed    uint64
	Seconds float64
	Trace   bool
	Dir     string // fresh per-run scratch directory (daemon files)
	Logf    func(format string, args ...any)
}

// Report is what a workload hands back: operation counts, check verdicts,
// and the metrics of whichever mode ran.
type Report struct {
	Attempted, Failed int64
	Failures          []string // one line per failed operation or check
	E2E               map[string]Metric
	Layer             map[string]Metric
	Spans             []Span
}

// fail records one failed operation.
func (r *Report) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// set stores a metric in the given map, creating it.
func set(m *map[string]Metric, name, unit string, v float64) {
	if *m == nil {
		*m = make(map[string]Metric)
	}
	(*m)[name] = Metric{Value: v, Unit: unit}
}

// workloads maps --workload names to their runners.
var workloads = map[string]func(Options) (*Report, error){
	"figures": runFigures,
	"serve":   runServe,
	"fleet":   runFleet,
}

// endToEnd lists every end-to-end metric with its unit; each workload
// reports all of them (see README.md for what each one measures where).
var endToEnd = []struct{ name, unit string }{
	{"sim_slots_per_s", "1/s"},
	{"serve_rps", "1/s"},
	{"serve_p50_ms", "ms"},
	{"serve_p90_ms", "ms"},
	{"fleet_reps_per_s", "1/s"},
	{"job_p50_ms", "ms"},
	{"job_p90_ms", "ms"},
	{"setup_s", "s"},
	{"max_rss_mb", "MB"},
}

func main() {
	workload := flag.String("workload", "", "figures, serve or fleet")
	seed := flag.Uint64("seed", DefaultSeed, "workload seed")
	seconds := flag.Float64("seconds", 20, "measurement window in seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for run scratch files and traces")
	verbose := flag.Bool("v", false, "log progress to stderr")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "layerbench: need --workload figures|serve|fleet, --seconds > 0, --trace 0|1\n")
		os.Exit(2)
	}
	outcome, err := benchmark(*workload, run, *seed, *seconds, *trace == 1, *out, *verbose)
	if err != nil {
		fmt.Fprintln(os.Stderr, "layerbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(outcome)
	if err != nil {
		fmt.Fprintln(os.Stderr, "layerbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// benchmark runs one workload in a fresh scratch directory and assembles
// the result line.
func benchmark(name string, run func(Options) (*Report, error), seed uint64, seconds float64, trace bool, out string, verbose bool) (*Outcome, error) {
	runs := filepath.Join(out, "runs")
	if err := os.MkdirAll(runs, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(runs, name+"-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	opts := Options{Seed: seed, Seconds: seconds, Trace: trace, Dir: dir, Logf: func(string, ...any) {}}
	if verbose {
		opts.Logf = func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
	}
	stamp := NewStamp(name, seed, trace)
	stampLine, _ := json.Marshal(stamp)
	fmt.Printf("stamp %s\n", stampLine)

	rep, err := run(opts)
	if err != nil {
		return nil, err
	}
	for _, f := range rep.Failures {
		fmt.Printf("FAILED %s\n", f)
	}
	metrics := rep.E2E
	if trace {
		metrics = rep.Layer
		path, err := writeTrace(filepath.Join(out, "traces"), stamp, metrics, rep.Spans)
		if err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
		fmt.Printf("trace %s (%d spans)\n", path, len(rep.Spans))
	} else {
		set(&metrics, "max_rss_mb", "MB", maxRSSMB())
		for _, m := range endToEnd {
			if _, ok := metrics[m.name]; !ok {
				return nil, fmt.Errorf("workload %s produced no %s (no successful operation to measure)", name, m.name)
			}
		}
	}
	if rep.Attempted < 1 {
		return nil, fmt.Errorf("workload %s attempted no operations", name)
	}
	return &Outcome{
		Correct:   rep.Failed == 0,
		Attempted: rep.Attempted,
		Failed:    rep.Failed,
		Metrics:   metrics,
	}, nil
}

// Stamp describes the machine and build a result came from.
type Stamp struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Traced     bool   `json:"traced"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Engine     string `json:"engine_version"`
	GitRev     string `json:"git_rev"`
	// Validated is false: the repository holds no measured reference for
	// the simulated network, so no accuracy error is reported.
	Validated bool   `json:"model_validated"`
	Time      string `json:"time"`
}

// NewStamp fills a Stamp for this process.
func NewStamp(workload string, seed uint64, traced bool) Stamp {
	rev := obs.GitRevision()
	if rev == "" {
		rev = os.Getenv("LAYERBENCH_GIT_REV")
	}
	if rev == "" {
		rev = "unknown"
	}
	return Stamp{
		Workload: workload, Seed: seed, Traced: traced,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Engine:     sim.EngineVersion,
		GitRev:     rev,
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
}

// cpuModel reads the first "model name" from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// maxRSSMB is the process's peak resident set (VmHWM) in MiB.
func maxRSSMB() float64 { return procStatusMB("VmHWM:") }

// quantile is the nearest-rank q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// sum adds xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// timeSetup runs setup n times and returns the median wall time in
// seconds. Every call but the last is torn down at once; the last one's
// state is what the workload measures against.
func timeSetup[T any](n int, setup func() (T, error), teardown func(T)) (T, float64, error) {
	var (
		state T
		secs  []float64
	)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		s, err := setup()
		if err != nil {
			return state, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		if i < n-1 {
			teardown(s)
			continue
		}
		state = s
	}
	return state, quantile(secs, 0.5), nil
}

// mix64 is splitmix64: derives decorrelated seeds from the workload seed.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
