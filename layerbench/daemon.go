package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"prioritystar/internal/obs"
	"prioritystar/internal/serve"
	"prioritystar/internal/spec"
)

// maxConns caps the load client's connections to the daemon.
const maxConns = 2

// newClient builds a load client that never retries: a 429 or a transport
// error comes straight back and is counted as a failed operation, instead
// of being slept on. All clients of one transport share maxConns
// keep-alive connections.
func newClient(addr string, tr *http.Transport) *serve.Client {
	c := serve.NewClient(addr)
	c.HTTP = &http.Client{Transport: tr}
	c.Retry = serve.RetryPolicy{}
	return c
}

// newTransport is the capped keep-alive transport of one run's clients.
func newTransport() *http.Transport {
	return &http.Transport{
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		IdleConnTimeout:     time.Minute,
	}
}

// daemonConfig is starsimd's default configuration with the cache and the
// job WAL kept in dir.
func daemonConfig(dir string) serve.Config {
	return serve.Config{
		Addr:        "127.0.0.1:0",
		Workers:     2,
		QueueCap:    16,
		RetryBudget: 2,
		CachePath:   filepath.Join(dir, "cache.jsonl"),
		WALPath:     filepath.Join(dir, "wal.jsonl"),
	}
}

// shutdown drains a daemon, giving up after a minute.
func shutdown(s *serve.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	return s.Shutdown(ctx)
}

// sweepSpec describes one submitted experiment.
type sweepSpec struct {
	id                     string
	dims                   []int
	schemes                []string
	rhos                   []float64
	warmup, measure, drain int64
	reps                   int
	seed                   uint64
	approx                 bool
}

// doc renders the spec as the daemon's JSON submission body.
func (s sweepSpec) doc() spec.Experiment {
	e := spec.Experiment{
		ID: s.id, Dims: s.dims, Rhos: s.rhos, BroadcastFrac: 1,
		Warmup: s.warmup, Measure: s.measure, Drain: s.drain,
		Reps: s.reps, Seed: s.seed,
	}
	for _, name := range s.schemes {
		e.Schemes = append(e.Schemes, spec.Scheme{Name: name})
	}
	if s.approx {
		// A wide tolerance: approx queries inside the anchored family are
		// always answered by the surrogate, never simulated.
		e.Mode, e.ApproxTol = "approx", 2
	}
	return e
}

func (s sweepSpec) body() []byte {
	b, err := json.Marshal(s.doc())
	if err != nil {
		panic(err) // plain data: cannot fail
	}
	return b
}

// repCount is the number of replications the spec's result folds.
func (s sweepSpec) repCount() float64 { return float64(len(s.schemes) * len(s.rhos) * s.reps) }

// slots is the simulated slot count of the whole spec.
func (s sweepSpec) slots() float64 {
	return s.repCount() * float64(s.warmup+s.measure+s.drain)
}

// grid spreads n loads evenly over [lo, hi], rounded to 0.01.
func grid(n int, lo, hi float64) []float64 {
	if n == 1 {
		return []float64{math.Round((lo+hi)/2*100) / 100}
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Round((lo+(hi-lo)*float64(i)/float64(n-1))*100) / 100
	}
	return out
}

// runToDone submits a spec, follows it over SSE until it is terminal and
// fetches its result bytes.
func runToDone(ctx context.Context, c *serve.Client, body []byte) (*serve.JobStatus, []byte, error) {
	st, err := c.SubmitJSON(ctx, body)
	if err != nil {
		return nil, nil, fmt.Errorf("submit: %w", err)
	}
	final, err := c.Watch(ctx, st.ID, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("watch %s: %w", st.ID, err)
	}
	if final.State != serve.StateDone {
		return final, nil, fmt.Errorf("job %s ended %s: %s", st.ID, final.State, final.Error)
	}
	res, err := c.Result(ctx, st.ID)
	if err != nil {
		return final, nil, fmt.Errorf("result %s: %w", st.ID, err)
	}
	return final, res, nil
}

// rssMB is the process's current resident set (VmRSS) in MiB.
func rssMB() float64 { return procStatusMB("VmRSS:") }

// procStatusMB reads one kB field of /proc/self/status in MiB.
func procStatusMB(field string) float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, field); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

// histDelta subtracts two snapshots of one daemon histogram bucket-wise.
func histDelta(before, after map[string]obs.HistogramSnapshot, name string) obs.HistogramSnapshot {
	a, b := after[name], before[name]
	d := obs.HistogramSnapshot{Count: a.Count - b.Count, Buckets: append([]int64(nil), a.Buckets...)}
	for i, c := range b.Buckets {
		if i < len(d.Buckets) {
			d.Buckets[i] -= c
		}
	}
	return d
}
