// Command psload is the service-level load harness for starsimd: it drives
// a deterministic fleet of synthetic clients against a live daemon (or an
// in-process one with -boot), prints per-endpoint latency quantiles and the
// run's counts, and exits 1 when a scenario assertion or the cross-check
// against the daemon's own counters fails.
//
//	psload -boot -clients 200 -duration 10s -mix mixed
//	psload -boot -workers 2 -mix cache-hit        # daemon backed by a fleet
//	psload -addr 127.0.0.1:7077 -mix overload -duration 30s
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"prioritystar/internal/cluster"
	"prioritystar/internal/loadgen"
	"prioritystar/internal/serve"
)

func main() {
	var (
		addr     = flag.String("addr", "", "daemon address (host:port); empty requires -boot")
		boot     = flag.Bool("boot", false, "boot a dedicated in-process daemon for the run")
		workers  = flag.Int("boot-workers", 4, "worker pool size for -boot")
		fleetN   = flag.Int("workers", 0, "with -boot: back the daemon with N fleet worker daemons (0: single-node)")
		queueCap = flag.Int("boot-queue", 16, "queue capacity for -boot (modest, so overload bursts draw 429s)")
		clients  = flag.Int("clients", 200, "concurrent synthetic clients")
		duration = flag.Duration("duration", 10*time.Second, "load duration (after warmup)")
		mixFlag  = flag.String("mix", "mixed", "workload mix: a name or hit=N,miss=N,... weights")
		seed     = flag.Uint64("seed", 1, "fleet seed; same seed+mix+clients replays the same op sequences")
		rate     = flag.Float64("rate", 0, "per-client target ops/sec (0: closed loop)")
		quiet    = flag.Bool("q", false, "suppress progress logging")
	)
	flag.Parse()
	logger := log.New(os.Stderr, "psload: ", 0)
	logf := logger.Printf
	if *quiet {
		logf = func(string, ...any) {}
	}

	if *addr == "" && !*boot {
		logger.Fatalf("need -addr or -boot (known mixes: %v)", loadgen.MixNames())
	}
	mix, err := loadgen.ParseMix(*mixFlag)
	if err != nil {
		logger.Fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	target := *addr
	if *boot {
		cfg := serve.Config{
			Addr:        "127.0.0.1:0",
			Workers:     *workers,
			QueueCap:    *queueCap,
			SlotsPerJob: 1,
		}
		// -workers N swaps the execution engine for a fleet: a coordinator
		// scattering sub-jobs to N in-process worker daemons.
		var coord *cluster.Coordinator
		if *fleetN > 0 {
			var err error
			coord, err = cluster.NewCoordinator(cluster.CoordinatorConfig{
				Heartbeat: 200 * time.Millisecond,
			})
			if err != nil {
				logger.Fatal(err)
			}
			defer coord.Close()
			cfg.RunJob = coord.RunJob
		}
		s, err := serve.New(cfg)
		if err != nil {
			logger.Fatal(err)
		}
		if coord != nil {
			coord.Mount(s)
		}
		bound, err := s.Start()
		if err != nil {
			logger.Fatal(err)
		}
		defer func() {
			shCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			_ = s.Shutdown(shCtx)
		}()
		for i := 0; i < *fleetN; i++ {
			w := cluster.NewWorker(cluster.WorkerConfig{Slots: 2, SlotsPerSubjob: 1})
			mux := http.NewServeMux()
			w.Mount(mux)
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				logger.Fatal(err)
			}
			hs := &http.Server{Handler: mux}
			go hs.Serve(ln)
			defer hs.Close()
			agent := cluster.StartAgent(cluster.AgentConfig{
				Coordinator: bound,
				Advertise:   ln.Addr().String(),
				Name:        fmt.Sprintf("loadgen-w%d", i),
				Slots:       2,
				Depth:       w.Depth,
			})
			defer agent.Stop()
		}
		target = bound
		if *fleetN > 0 {
			logf("booted dedicated daemon on %s (coordinator + %d fleet workers, queue %d)", bound, *fleetN, *queueCap)
		} else {
			logf("booted dedicated daemon on %s (%d workers, queue %d)", bound, *workers, *queueCap)
		}
	}

	rep, err := loadgen.Run(ctx, loadgen.Config{
		Addr:     target,
		Clients:  *clients,
		Duration: *duration,
		Mix:      mix,
		Seed:     *seed,
		Rate:     *rate,
		Logf:     logf,
	})
	if err != nil {
		logger.Fatal(err)
	}
	printRecord(&rep.Record)

	exitCode := 0
	if len(rep.Failures) > 0 {
		fmt.Println("\nFAILURES:")
		for _, f := range rep.Failures {
			fmt.Printf("  %s\n", f)
		}
		exitCode = 1
	}
	os.Exit(exitCode)
}

// printRecord renders the run summary.
func printRecord(r *loadgen.Record) {
	fmt.Printf("run: %d clients, mix %s, %.1fs, seed %d\n", r.Clients, r.Mix, r.DurationSec, r.Seed)
	keys := make([]string, 0, len(r.Ops))
	for k := range r.Ops {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("%-16s %8s %6s %10s %10s %10s %10s\n", "op", "count", "errs", "p50", "p95", "p99", "max")
	for _, k := range keys {
		op := r.Ops[k]
		fmt.Printf("%-16s %8d %6d %10s %10s %10s %10s\n", k, op.Count, op.Errors,
			us(op.P50us), us(op.P95us), us(op.P99us), us(op.MaxUs))
	}
	fmt.Printf("throughput %.1f ops/s | errors %.2f%% | 429s %d | deduped %d | cache hits %d | approx hits %d | retries %d | reconnects %d\n",
		r.ThroughputOps, r.ErrorRate*100, r.Rejected429, r.Deduped, r.CacheHits, r.ApproxHits, r.Retries, r.Reconnects)
}

// us renders a microsecond latency human-readably.
func us(v int64) string {
	d := time.Duration(v) * time.Microsecond
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%dus", v)
	}
}
