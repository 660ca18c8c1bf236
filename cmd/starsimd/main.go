// Command starsimd is the simulation-as-a-service daemon: it accepts
// experiment specs over HTTP (the internal/spec JSON format), runs them on
// a bounded worker pool, and answers repeated submissions from a
// content-addressed result cache keyed by the spec fingerprint.
//
//	starsimd -addr 127.0.0.1:7077 -workers 4 -cache results.jsonl -wal jobs.wal
//
// Submissions with "mode": "approx" may be answered by the analytic
// surrogate — the closed-form model plus interpolation over the cached
// exact results — with explicit error bounds and zero simulation runs;
// -no-approx turns the fast path off.
//
// SIGINT/SIGTERM drain the daemon: intake stops, accepted jobs finish and
// land in the cache, then the process exits. A second signal aborts
// in-flight jobs. With -wal, even a SIGKILL is survivable: the restarted
// daemon replays the WAL, re-enqueues unfinished jobs under their original
// IDs, and resumes their sweeps from checkpoints so completed points are
// not re-simulated. See internal/serve for the HTTP API and cmd/psctl for
// the client.
//
// The daemon also speaks the fleet protocol (internal/cluster):
//
//	starsimd -coordinator -fleet-wal leases.jsonl ...   # scatter jobs to workers
//	starsimd -worker -join 127.0.0.1:7077 ...           # execute sub-jobs for one
//
// A coordinator decomposes every accepted job into replication-level
// sub-jobs and scatters them across registered workers under journaled
// leases; crashed workers are re-dispatched around, and a restarted
// coordinator re-adopts its in-flight leases. The merged result is
// byte-identical to a single-node run. "psctl workers" prints the roster.
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"

	"prioritystar/internal/cluster"
	"prioritystar/internal/obs"
	"prioritystar/internal/serve"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7077", "HTTP listen address (use :0 for a free port)")
		addrFile = flag.String("addr-file", "", "write the bound address to this file once listening (for scripts using :0)")
		workers  = flag.Int("workers", 2, "concurrently running jobs (or sub-jobs in -worker mode)")
		queueCap = flag.Int("queue", 16, "queued-but-unstarted job capacity; a full queue answers 429")
		slots    = flag.Int("slots-per-job", 0, "per-job sweep parallelism cap (0: sweep default, GOMAXPROCS)")
		cache    = flag.String("cache", "", "persist the result cache to this JSONL journal")
		wal      = flag.String("wal", "", "persist the job WAL here; a restarted daemon recovers and resumes unfinished jobs")
		budget   = flag.Int("retry-budget", 2, "retries before a failing job is quarantined (0: no retries, jobs fail outright)")
		backoff  = flag.Duration("retry-backoff", 0, "delay before a job's first retry, doubling per attempt (default 250ms)")
		jobTO    = flag.Duration("job-timeout", 0, "wall-clock guard for jobs that do not set their own (e.g. 5m)")
		drainTO  = flag.Duration("drain-timeout", 0, "cap on graceful drain at shutdown; 0 waits for every accepted job")
		quiet    = flag.Bool("quiet", false, "suppress per-job logging (load harnesses submit thousands of jobs)")

		noApprox  = flag.Bool("no-approx", false, "ignore approx mode: every submission runs the real simulation")
		approxTol = flag.Float64("approx-tol", 0, "default relative error tolerance for surrogate answers (0: built-in 5%)")

		coordMode = flag.Bool("coordinator", false, "scatter accepted jobs across registered fleet workers")
		fleetWAL  = flag.String("fleet-wal", "", "persist the coordinator's sub-job lease journal here (re-adopted on restart)")
		leaseTTL  = flag.Duration("lease-ttl", 0, "re-dispatch a sub-job after this long without a result (default 30s)")
		heartbeat = flag.Duration("heartbeat", 0, "worker heartbeat cadence the coordinator dictates (default 2s)")
		sjRetries = flag.Int("subjob-retries", 0, "dispatch attempts per sub-job before the job attempt fails (default 3)")
		sjTimeout = flag.Duration("subjob-timeout", 0, "hard deadline on one sub-job call to a worker; must be >= -heartbeat (default 20x lease TTL)")
		degradeTO = flag.Duration("degrade-after", 0, "run sub-jobs locally after this long with no eligible worker (default max(2x worker expiry, 5s))")
		noHedge   = flag.Bool("no-hedge", false, "disable speculative re-dispatch of straggler sub-jobs")
		hedgeQ    = flag.Float64("hedge-quantile", 0, "observed sub-job latency quantile that triggers a hedged dispatch (default 0.95)")
		brkThresh = flag.Int("breaker-threshold", 0, "consecutive failures that open a worker's circuit breaker (default 3)")
		brkCool   = flag.Duration("breaker-cooldown", 0, "open-breaker cooldown before a half-open probe (default 5s)")

		workerMode = flag.Bool("worker", false, "serve fleet sub-jobs (implied by -join)")
		join       = flag.String("join", "", "coordinator address to register with")
		advertise  = flag.String("advertise", "", "address the coordinator dials this worker at (default: the bound address)")
		name       = flag.String("name", "", "worker name on the fleet roster (default: hostname)")
	)
	flag.Parse()

	logger := log.New(os.Stderr, "starsimd: ", log.LstdFlags)
	logf := logger.Printf
	if *quiet {
		logf = nil
	}
	retryBudget := *budget
	if retryBudget <= 0 {
		retryBudget = -1 // flag 0 means "no retries", not the config default
	}

	// One metric set spans the daemon and its fleet role, so /metrics shows
	// queue, lease, and worker counters side by side.
	metrics := &obs.MetricSet{}
	var coord *cluster.Coordinator
	if *coordMode {
		var err error
		coord, err = cluster.NewCoordinator(cluster.CoordinatorConfig{
			LeaseTTL:         *leaseTTL,
			Heartbeat:        *heartbeat,
			SubjobRetries:    *sjRetries,
			SubjobTimeout:    *sjTimeout,
			DegradeAfter:     *degradeTO,
			HedgeDisabled:    *noHedge,
			HedgeQuantile:    *hedgeQ,
			BreakerThreshold: *brkThresh,
			BreakerCooldown:  *brkCool,
			JournalPath:      *fleetWAL,
			Metrics:          metrics,
			Logf:             logf,
		})
		if err != nil {
			logger.Fatal(err)
		}
		defer coord.Close()
	}

	cfg := serve.Config{
		Addr:         *addr,
		Workers:      *workers,
		QueueCap:     *queueCap,
		SlotsPerJob:  *slots,
		CachePath:    *cache,
		WALPath:      *wal,
		RetryBudget:  retryBudget,
		RetryBackoff: *backoff,
		JobTimeout:   *jobTO,
		NoApprox:     *noApprox,
		ApproxTol:    *approxTol,
		Metrics:      metrics,
		Logf:         logf,
	}
	if coord != nil {
		cfg.RunJob = coord.RunJob
		cfg.Degraded = coord.Degraded
	}
	s, err := serve.New(cfg)
	if err != nil {
		logger.Fatal(err)
	}
	if coord != nil {
		coord.Mount(s)
	}
	var wrk *cluster.Worker
	if *workerMode || *join != "" {
		wrk = cluster.NewWorker(cluster.WorkerConfig{
			Slots:          *workers,
			SlotsPerSubjob: *slots,
			Metrics:        metrics,
			Logf:           logf,
		})
		wrk.Mount(s)
	}

	bound, err := s.Start()
	if err != nil {
		logger.Fatal(err)
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			logger.Fatal(err)
		}
	}

	var agent *cluster.Agent
	if *join != "" {
		adv := *advertise
		if adv == "" {
			adv = bound
		}
		label := *name
		if label == "" {
			label, _ = os.Hostname()
		}
		agent = cluster.StartAgent(cluster.AgentConfig{
			Coordinator: *join,
			Advertise:   adv,
			Name:        label,
			Slots:       *workers,
			Depth:       wrk.Depth,
			Logf:        logf,
		})
	}

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	sig := <-sigs
	logger.Printf("received %s; draining (accepted jobs finish, intake stops)", sig)
	if agent != nil {
		agent.Stop() // go silent; the coordinator expires this worker
	}

	ctx, cancel := context.WithCancel(context.Background())
	if *drainTO > 0 {
		ctx, cancel = context.WithTimeout(context.Background(), *drainTO)
	}
	defer cancel()
	go func() {
		<-sigs
		logger.Printf("second signal; aborting in-flight jobs")
		cancel()
	}()

	if err := s.Shutdown(ctx); err != nil &&
		err != context.Canceled && err != context.DeadlineExceeded {
		logger.Printf("shutdown: %v", err)
		os.Exit(1)
	}
	logger.Printf("drained; bye")
}
