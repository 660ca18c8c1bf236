package sim

// Batched multi-replication execution: advance R same-shape, same-scheme
// replications through one pass, sharing every immutable input (topology,
// LinkTables, scheme tables, compiled fault schedule source) while keeping
// all mutable per-replication state private. The batch is sharded across
// workers in contiguous rep stripes — replications never communicate, so
// the sharding is barrier-free — and within a stripe the replications
// advance in lockstep slot-by-slot, their bulk state (busy tables, inflight
// slots, ready bitmaps) carved from one contiguous struct-of-arrays arena
// so the sweep streams through adjacent memory instead of re-faulting a
// cold heap per run.
//
// Determinism contract: every replication is bit-identical to a sequential
// Runner.Run with the same Config (Base with Seeds[i] substituted). This
// holds by construction — both paths execute the same engine.step — and is
// enforced by the differential tests in batch_test.go. The contract keeps
// golden tests, checkpoints, fault schedules, guards, and probes working
// unchanged on top of the batched path.

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
	// that many contiguous stripes, each advanced by its own goroutine.
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

// batchArena hands out the bulk per-replication buffers from contiguous
// backing arrays, one arena per worker stripe, so the stripe's lockstep
// sweep over its replications walks adjacent memory. Exhausted (or nil)
// arenas fall back to plain make — the arena is a layout optimization,
// never a correctness requirement.
type batchArena struct {
	i64 []int64
	pkt []packet
	u64 []uint64
}

func (a *batchArena) int64s(n int) []int64 {
	if a != nil && n <= len(a.i64) {
		v := a.i64[:n:n]
		a.i64 = a.i64[n:]
		return v
	}
	return make([]int64, n)
}

func (a *batchArena) packets(n int) []packet {
	if a != nil && n <= len(a.pkt) {
		v := a.pkt[:n:n]
		a.pkt = a.pkt[n:]
		return v
	}
	return make([]packet, n)
}

func (a *batchArena) uint64s(n int) []uint64 {
	if a != nil && n <= len(a.u64) {
		v := a.u64[:n:n]
		a.u64 = a.u64[n:]
		return v
	}
	return make([]uint64, n)
}

// batchShard is one worker's persistent stripe state: its engines (whose
// buffers survive across batches, like a sequential Runner's) and the SoA
// arena their bulk buffers were carved from.
type batchShard struct {
	engines []*engine
	arena   batchArena
	// slots is the link-slot count the engines' buffers are sized for;
	// a batch with a different shape rebuilds the arena.
	slots int
	live  []int // scratch: indices of still-running reps
}

// prepare sizes the shard for reps engines of the given link-slot count.
// When the geometry changed (first batch, new shape, stripe grew) it
// allocates one contiguous block per buffer kind and points every engine's
// arena at it; engines then carve their stripe-adjacent views during reset.
func (s *batchShard) prepare(reps, slots int) {
	if s.slots == slots && len(s.engines) >= reps {
		return
	}
	for len(s.engines) < reps {
		s.engines = append(s.engines, &engine{})
	}
	n := len(s.engines)
	w0 := (slots + 63) / 64
	w1 := (w0 + 63) / 64
	s.arena = batchArena{
		i64: make([]int64, 2*n*slots),  // busyUntil + busySlots
		pkt: make([]packet, n*slots),   // inflight
		u64: make([]uint64, n*(w0+w1)), // ready bitmap levels
	}
	for _, e := range s.engines {
		// Dropping the old buffers forces reset to re-carve from the
		// fresh arena; queues and wheels keep their heap rings (they are
		// per-rep dynamic structures, not part of the SoA block).
		e.busyUntil, e.busySlots, e.inflight = nil, nil, nil
		e.ready = linkBitmap{}
		e.arena = &s.arena
	}
	s.slots = slots
}

// stepBlock is how many slots a replication advances per lockstep turn.
// Replications never interact, so the block size is purely a locality
// knob: one slot per turn would reload every live rep's working set
// (timing wheel, queue rings, busy tables) each simulated slot, while a
// block keeps one rep's state cache-hot for stepBlock slots before the
// stripe rotates to the next rep. Results are identical for any value —
// each rep still executes the exact sequential step sequence — and the
// skew between reps stays bounded by one block.
const stepBlock = 2048

// run advances the stripe's replications in lockstep blocks: stepBlock
// slots for rep 0, stepBlock for rep 1, ..., then back to rep 0, until
// every rep finished. Reps that end early (guards, truncation,
// cancellation, panics) drop out of the live set without holding up the
// others.
func (s *batchShard) run(base Config, seeds []uint64, out []RepResult) {
	s.prepare(len(seeds), base.Shape.LinkSlots())
	live := s.live[:0]
	for i, seed := range seeds {
		cfg := base
		cfg.Seed = seed
		e := s.engines[i]
		if err := e.reset(cfg); err != nil {
			out[i] = RepResult{Err: err}
			continue
		}
		live = append(live, i)
	}
	for len(live) > 0 {
		// Compact in place: writes trail reads, so the filtered append
		// never clobbers an unvisited entry.
		next := live[:0]
		for _, i := range live {
			e := s.engines[i]
			done, err := stepSafe(e, stepBlock)
			if err != nil {
				out[i] = RepResult{Err: err}
				e.release()
				continue
			}
			if done {
				e.finish()
				out[i] = RepResult{Result: e.res}
				e.release()
				continue
			}
			next = append(next, i)
		}
		live = next
	}
	s.live = live[:0]
}

// stepSafe advances one engine by up to budget slots, converting a panic
// into that replication's error. A panic can only interrupt the engine
// between statements, so its buffers keep their structural invariants; the
// run itself is unrecoverable, so the rep just ends, and the engine's next
// reset rebuilds the stale contents for the next batch.
func stepSafe(e *engine, budget int) (done bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			done, err = true, fmt.Errorf("sim: replication panicked: %v", r)
		}
	}()
	for k := 0; k < budget; k++ {
		if done, err := e.step(); done || err != nil {
			return done, err
		}
	}
	return false, nil
}

// BatchRunner executes batches of replications while reusing every
// engine buffer and arena across calls, the batched analogue of Runner. A
// sweep worker that dispatches many same-shape cells should reuse one
// BatchRunner: after the first batch the hot path is allocation-free. The
// zero value is ready to use. A BatchRunner is not safe for concurrent use;
// it owns its internal worker pool.
type BatchRunner struct {
	shards []*batchShard
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
	for len(b.shards) < workers {
		b.shards = append(b.shards, &batchShard{})
	}
	out := make([]RepResult, r)
	if workers == 1 {
		b.shards[0].run(batch.Base, batch.Seeds, out)
		return out, nil
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*r/workers, (w+1)*r/workers
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(s *batchShard, lo, hi int) {
			defer wg.Done()
			s.run(batch.Base, batch.Seeds[lo:hi], out[lo:hi])
		}(b.shards[w], lo, hi)
	}
	wg.Wait()
	return out, nil
}
