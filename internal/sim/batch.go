package sim

// Batched multi-replication execution: R same-shape, same-scheme
// replications of one operating point, sharing every immutable input
// (topology, LinkTables, scheme tables) while keeping all mutable
// per-replication state private. The batch is sharded across workers in
// contiguous rep stripes — replications never communicate, so the sharding
// is barrier-free — and each stripe runs its replications one after another
// on one reused Runner, so a stripe keeps one engine's buffers warm instead
// of one engine per replication.
//
// Determinism contract: every replication is bit-identical to a sequential
// Runner.Run with the same Config (Base with Seeds[i] substituted). This
// holds by construction — a batch is Runner.Run calls — and is enforced by
// the differential tests in batch_test.go. The contract keeps golden tests,
// checkpoints, fault schedules, guards, and probes working unchanged on top
// of the batched path.

import (
	"fmt"
	"runtime"
	"sync"
)

// Batch describes R replications of one operating point: a shared Config
// template and one seed per replication.
type Batch struct {
	// Base is the configuration every replication runs; Base.Seed is
	// ignored (each replication substitutes its entry from Seeds).
	// Base.OnDeliver and Base.Probe, when set, are invoked concurrently
	// from every worker stripe and must be safe for concurrent use; batch
	// callers normally leave them nil.
	Base Config

	// Seeds holds one RNG seed per replication; len(Seeds) is R.
	Seeds []uint64

	// Workers bounds the rep-stripe parallelism: the batch is split into
	// that many contiguous stripes, each run by its own goroutine.
	// 0 means GOMAXPROCS; 1 runs the whole batch on the calling goroutine.
	// A sweep pool of p goroutines passes its worker budget divided by p,
	// so rep stripes use only the parallelism the pool leaves over.
	Workers int
}

// RepResult is the outcome of one replication in a batch: exactly one of
// Result and Err is set. A replication that panics reports the recovered
// panic as its Err without disturbing the other replications.
type RepResult struct {
	Result *Result
	Err    error
}

// runStripe runs seeds one after another on r, writing each replication's
// outcome to the matching entry of out.
func runStripe(r *Runner, base Config, seeds []uint64, out []RepResult) {
	for i, seed := range seeds {
		cfg := base
		cfg.Seed = seed
		out[i] = runRep(r, cfg)
	}
}

// runRep runs one replication, converting a panic into its error. A panic
// can only interrupt the engine between statements, so its buffers keep
// their structural invariants; the run itself is unrecoverable, so the rep
// just ends, and the next reset rebuilds the stale contents for the
// stripe's next replication.
func runRep(r *Runner, cfg Config) (rr RepResult) {
	defer func() {
		if p := recover(); p != nil {
			rr = RepResult{Err: fmt.Errorf("sim: replication panicked: %v", p)}
		}
	}()
	res, err := r.Run(cfg)
	return RepResult{Result: res, Err: err}
}

// BatchRunner executes batches of replications while reusing one Runner per
// rep stripe across calls, the batched analogue of Runner. A sweep worker
// that dispatches many same-shape cells should reuse one BatchRunner: after
// the first batch the hot path is allocation-free. The zero value is ready
// to use. A BatchRunner is not safe for concurrent use; it owns its
// internal worker pool.
type BatchRunner struct {
	runners []*Runner
}

// Run executes len(batch.Seeds) replications of batch.Base and returns one
// RepResult per seed, in seed order. Replications are bit-identical to
// sequential Runner.Run calls with the same Config and seed. The error
// return covers only up-front validation; per-replication failures
// (panics, context cancellation mid-run) land in the matching RepResult.
func (b *BatchRunner) Run(batch Batch) ([]RepResult, error) {
	if len(batch.Seeds) == 0 {
		return nil, fmt.Errorf("sim: batch has no seeds")
	}
	if err := batch.Base.Validate(); err != nil {
		return nil, err
	}
	r := len(batch.Seeds)
	workers := batch.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > r {
		workers = r
	}
	for len(b.runners) < workers {
		b.runners = append(b.runners, &Runner{})
	}
	out := make([]RepResult, r)
	if workers == 1 {
		runStripe(b.runners[0], batch.Base, batch.Seeds, out)
		return out, nil
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*r/workers, (w+1)*r/workers
		wg.Add(1)
		go func(rn *Runner, lo, hi int) {
			defer wg.Done()
			runStripe(rn, batch.Base, batch.Seeds[lo:hi], out[lo:hi])
		}(b.runners[w], lo, hi)
	}
	wg.Wait()
	return out, nil
}
