// Package sweep is the experiment harness: it runs replicated simulations
// over a grid of throughput factors for several routing schemes in
// parallel, aggregates the delay and utilization statistics, and renders
// the series that correspond to the paper's figures.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"prioritystar/internal/balance"
	"prioritystar/internal/core"
	"prioritystar/internal/fault"
	journalpkg "prioritystar/internal/journal"
	"prioritystar/internal/plot"
	"prioritystar/internal/sim"
	"prioritystar/internal/stats"
	"prioritystar/internal/torus"
	"prioritystar/internal/traffic"
)

// SchemeSpec names a routing-scheme configuration under comparison.
type SchemeSpec struct {
	Name       string
	Discipline core.Discipline
	Rotation   core.Rotation
	// SeparateBalance computes the ending-dimension vector ignoring the
	// unicast load (Eq. 2 instead of Eq. 4) — the paper's model of
	// "previous methods" that handle broadcast and unicast separately.
	SeparateBalance bool
}

// The scheme configurations used throughout the paper's evaluation.
var (
	// PrioritySTARSpec is the paper's proposal (balanced rotation,
	// 2-level priority).
	PrioritySTARSpec = SchemeSpec{Name: "priority-STAR", Discipline: core.TwoLevel, Rotation: core.BalancedRotation}
	// PrioritySTAR3Spec is the 3-level heterogeneous variant of Section 4.
	PrioritySTAR3Spec = SchemeSpec{Name: "priority-STAR-3", Discipline: core.ThreeLevel, Rotation: core.BalancedRotation}
	// FCFSDirectSpec is the figures' baseline: the FCFS generalization of
	// the direct scheme in [12] (balanced trees, single service class).
	FCFSDirectSpec = SchemeSpec{Name: "FCFS-direct", Discipline: core.FCFS, Rotation: core.BalancedRotation}
	// DimOrderSpec is classical dimension-ordered broadcast (no rotation).
	DimOrderSpec = SchemeSpec{Name: "dim-order-FCFS", Discipline: core.FCFS, Rotation: core.FixedEnding}
	// SeparateSpec balances broadcast in isolation while unicast follows
	// shortest paths — the Section 1 "previous methods" example.
	SeparateSpec = SchemeSpec{Name: "separate-FCFS", Discipline: core.FCFS, Rotation: core.BalancedRotation, SeparateBalance: true}
	// SeparatePrioSpec is separate balancing with the 2-level priorities.
	SeparatePrioSpec = SchemeSpec{Name: "separate-prio", Discipline: core.TwoLevel, Rotation: core.BalancedRotation, SeparateBalance: true}
	// UniformFCFSSpec rotates uniformly regardless of shape (ablation).
	UniformFCFSSpec = SchemeSpec{Name: "uniform-FCFS", Discipline: core.FCFS, Rotation: core.UniformRotation}
	// UniformPrioSpec is uniform rotation with priorities (ablation).
	UniformPrioSpec = SchemeSpec{Name: "uniform-prio", Discipline: core.TwoLevel, Rotation: core.UniformRotation}
	// DimOrderPrioSpec is fixed ending with priorities (ablation).
	DimOrderPrioSpec = SchemeSpec{Name: "dim-order-prio", Discipline: core.TwoLevel, Rotation: core.FixedEnding}
)

// Build resolves the spec into a core.Scheme for the given shape and
// offered traffic.
func (spec SchemeSpec) Build(s *torus.Shape, rates traffic.Rates, m balance.DistanceModel) (*core.Scheme, error) {
	if spec.SeparateBalance {
		rates.LambdaR = 0
	}
	return core.NewScheme(s, spec.Discipline, spec.Rotation, rates, m)
}

// maxBatchReps bounds the replications per dispatched batch. Lockstep
// replications complete together, so the bound caps both how much a crash
// can lose between checkpoint-journal appends and how much per-rep state
// the lockstep pass drags through the cache.
const maxBatchReps = 8

// Experiment describes one sweep: a topology, a traffic mix, a rho grid,
// and the schemes to compare.
type Experiment struct {
	ID    string
	Title string
	// Notes records what the experiment reproduces (figure numbers etc.).
	Notes string

	Dims          []int
	Rhos          []float64
	BroadcastFrac float64 // fraction of transmission load from broadcasts
	Schemes       []SchemeSpec
	Length        traffic.LengthDist
	Model         balance.DistanceModel

	Warmup, Measure, Drain int64
	Reps                   int
	BaseSeed               uint64
	MaxBacklog             int64
	// Workers bounds simulation parallelism; 0 means GOMAXPROCS.
	Workers int

	// Approx marks the experiment as willing to accept an approximate
	// answer: the serving layer may answer it from the analytic surrogate
	// (closed-form model plus interpolation over cached exact results)
	// instead of simulating, falling back to a real run when the surrogate
	// is uncertain. Run itself ignores it — an experiment that reaches the
	// engine is always simulated exactly — and it cannot change simulated
	// results, so it stays outside spec.Fingerprint.
	Approx bool
	// ApproxTol is the relative error tolerance an Approx experiment
	// accepts on the surrogate's reception-delay answers; 0 uses the
	// serving layer's default. Also outside spec.Fingerprint.
	ApproxTol float64

	// Faults applies one deterministic fault schedule (see internal/fault)
	// to every replication. nil or empty keeps runs fault-free.
	Faults *fault.Schedule
	// Guard arms the per-run divergence watchdog and wall-clock timeout on
	// every replication. The zero value leaves runs unguarded.
	Guard sim.Guard
	// Context, when non-nil, cancels the sweep: in-flight simulations stop
	// at their next poll and Run returns the context's error.
	Context context.Context

	// Fingerprint, when non-empty, is the canonical identity of this
	// experiment: it names the checkpoint journal's header and the daemon's
	// result-cache key. spec.Fingerprint computes the canonical value (a
	// hash over the key-order-stable JSON spec plus the engine version);
	// when empty a legacy descriptor string derived from the fields is used
	// for the journal header.
	Fingerprint string

	// Checkpoint, when non-empty, journals each completed replication to
	// this JSONL file so a crashed or killed sweep can be resumed.
	Checkpoint string
	// Resume replays an existing Checkpoint journal before running: intact
	// records are reused and only missing replications are simulated. The
	// aggregated table is identical to an uninterrupted sweep's. Resuming
	// against a journal from a different experiment is an error.
	Resume bool

	// Progress, when non-nil, is called after every completed replication
	// with the number finished so far and the total. Calls are serialized,
	// in order of the finished count, so implementations need no locking;
	// long sweeps use it for live progress display.
	Progress func(done, total int)
}

// Validate checks the experiment without running it; Run calls it first.
// The service layer uses it to reject bad submissions at the door instead
// of burning a worker slot on them.
func (e *Experiment) Validate() error { return e.validate() }

func (e *Experiment) validate() error {
	if len(e.Dims) == 0 {
		return fmt.Errorf("sweep %q: no dimensions", e.ID)
	}
	if len(e.Rhos) == 0 {
		return fmt.Errorf("sweep %q: no rho grid", e.ID)
	}
	if len(e.Schemes) == 0 {
		return fmt.Errorf("sweep %q: no schemes", e.ID)
	}
	if e.Reps <= 0 {
		return fmt.Errorf("sweep %q: Reps must be positive", e.ID)
	}
	if e.Measure <= 0 {
		return fmt.Errorf("sweep %q: Measure must be positive", e.ID)
	}
	return nil
}

// Point aggregates the replications of one (scheme, rho) cell.
type Point struct {
	Rho        float64
	Reception  stats.Summary
	Broadcast  stats.Summary
	Unicast    stats.Summary
	HighWait   stats.Summary // queue wait of class 0
	LowWait    stats.Summary // queue wait of the lowest class in use
	AvgUtil    stats.Summary
	MaxDimUtil stats.Summary
	// DimUtil[i] aggregates dimension i's measured link utilization across
	// replications — the per-dimension load the balance equations predict
	// equal for a balanced scheme (see Result.DimLoadReport).
	DimUtil []stats.Summary

	GeneratedBroadcasts  int64
	IncompleteBroadcasts int64
	UnstableReps         int
	// DivergedReps counts replications the divergence watchdog terminated
	// (a subset of UnstableReps).
	DivergedReps int
	// FailedReps counts replications that errored (recovered panics, bad
	// configurations); Error holds the first such message. Failed reps
	// contribute nothing to the aggregates.
	FailedReps int
	Error      string
}

// Series is one scheme's curve over the rho grid.
type Series struct {
	Scheme SchemeSpec
	Points []Point
}

// Result is a completed experiment.
type Result struct {
	Exp     *Experiment
	Series  []Series
	Elapsed time.Duration
	// ResumedReps counts replications replayed from the checkpoint journal
	// instead of simulated — the daemon's crash-recovery path uses it to
	// prove a resumed job re-ran zero already-checkpointed points.
	ResumedReps int
}

// makeRecord flattens one simulation result into the journal/aggregation
// record for (k, res).
func (e *Experiment) makeRecord(shape *torus.Shape, k RepKey, res *sim.Result) RepRecord {
	low := e.Schemes[k.Scheme].Discipline.Classes() - 1
	rec := RepRecord{
		Scheme: k.Scheme, Rho: k.Rho, Rep: k.Rep,
		Reception:  jsonFloat(res.Reception.Mean()),
		Broadcast:  jsonFloat(res.Broadcast.Mean()),
		Unicast:    jsonFloat(res.Unicast.Mean()),
		HighWait:   jsonFloat(res.QueueWait[0].Mean()),
		LowWait:    jsonFloat(res.QueueWait[low].Mean()),
		AvgUtil:    jsonFloat(res.AvgUtilization),
		MaxDimUtil: jsonFloat(res.MaxDimUtilization),

		GeneratedBroadcasts:  res.GeneratedBroadcasts,
		IncompleteBroadcasts: res.IncompleteBroadcasts,
		Stable:               res.Stable(shape),
	}
	for _, u := range res.DimUtilization {
		rec.DimUtil = append(rec.DimUtil, jsonFloat(u))
	}
	if res.Status != sim.StatusOK {
		rec.Status = res.Status.String()
	}
	return rec
}

// repSeed derives the deterministic seed of one replication. The derivation
// is load-bearing: checkpoints, the daemon's result cache, and the cluster's
// scatter/gather all assume a (scheme, rho, rep) index names exactly one
// stream of randomness, so it must never change.
func (e *Experiment) repSeed(si, ri, rep int) uint64 {
	return e.BaseSeed ^ (uint64(si)+1)<<40 ^ (uint64(ri)+1)<<20 ^ uint64(rep+1)
}

// cellConfig builds the simulation config template of one (scheme, rho)
// cell — everything but the per-rep seed and the context.
func (e *Experiment) cellConfig(shape *torus.Shape, si, ri int) (sim.Config, error) {
	rates, err := traffic.RatesForRho(shape, e.Rhos[ri], e.BroadcastFrac, e.Length.Mean(), e.Model)
	if err != nil {
		return sim.Config{}, fmt.Errorf("sweep %q: %w", e.ID, err)
	}
	sch, err := e.Schemes[si].Build(shape, rates, e.Model)
	if err != nil {
		return sim.Config{}, fmt.Errorf("sweep %q, scheme %q: %w", e.ID, e.Schemes[si].Name, err)
	}
	return sim.Config{
		Shape: shape, Scheme: sch, Rates: rates,
		Length: e.Length,
		Warmup: e.Warmup, Measure: e.Measure, Drain: e.Drain,
		MaxBacklog: e.MaxBacklog,
		Faults:     e.Faults,
		Guard:      e.Guard,
	}, nil
}

// shape validates the experiment and builds its torus, checking the fault
// schedule against it.
func (e *Experiment) shape() (*torus.Shape, error) {
	if err := e.validate(); err != nil {
		return nil, err
	}
	shape, err := torus.New(e.Dims...)
	if err != nil {
		return nil, fmt.Errorf("sweep %q: %w", e.ID, err)
	}
	if err := e.Faults.Validate(shape); err != nil {
		return nil, fmt.Errorf("sweep %q: %w", e.ID, err)
	}
	return shape, nil
}

// workers resolves the Workers budget: 0 means GOMAXPROCS.
func (e *Experiment) workers() int {
	if e.Workers > 0 {
		return e.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Subjob is the unit of execution of a sweep: up to maxBatchReps
// replications of one (scheme, rho) cell with their deterministic seeds.
// Run's local pool and the fleet coordinator dispatch the same sub-jobs,
// so a checkpoint written by either resumes cleanly in the other.
type Subjob struct {
	Scheme int      `json:"s"`
	Rho    int      `json:"r"`
	Reps   []int    `json:"reps"`
	Seeds  []uint64 `json:"seeds"`
}

// Key names the sub-job stably within its experiment: the cell indices plus
// every replication index it covers. Combined with the experiment
// fingerprint it is a content address — two sub-jobs with equal keys under
// equal fingerprints simulate identical work, which is what lets workers
// serve repeats from cache and the coordinator discard duplicate results.
func (sj Subjob) Key() string {
	var b strings.Builder
	fmt.Fprintf(&b, "s%dr%d@", sj.Scheme, sj.Rho)
	for i, rep := range sj.Reps {
		if i > 0 {
			b.WriteByte('.')
		}
		fmt.Fprintf(&b, "%d", rep)
	}
	return b.String()
}

// Subjobs decomposes the experiment into its sub-jobs in deterministic
// (scheme, rho, rep) order. skip, when non-nil, drops replications already
// covered elsewhere (typically a replayed checkpoint journal); remaining
// reps are chunked at maxBatchReps.
func (e *Experiment) Subjobs(skip func(RepKey) bool) ([]Subjob, error) {
	if err := e.validate(); err != nil {
		return nil, err
	}
	var subjobs []Subjob
	for si := range e.Schemes {
		for ri := range e.Rhos {
			var reps []int
			var seeds []uint64
			for rep := 0; rep < e.Reps; rep++ {
				if skip != nil && skip(RepKey{si, ri, rep}) {
					continue
				}
				reps = append(reps, rep)
				seeds = append(seeds, e.repSeed(si, ri, rep))
			}
			for lo := 0; lo < len(reps); lo += maxBatchReps {
				hi := lo + maxBatchReps
				if hi > len(reps) {
					hi = len(reps)
				}
				subjobs = append(subjobs, Subjob{
					Scheme: si, Rho: ri,
					Reps:  reps[lo:hi],
					Seeds: seeds[lo:hi],
				})
			}
		}
	}
	return subjobs, nil
}

// Matches reports whether recs is exactly the record set sj must deliver:
// one record per replication, no extras, no strays. It is the fold's last
// line of defense against corrupt-but-decodable worker responses.
func (sj Subjob) Matches(recs []RepRecord) bool {
	want := make(map[RepKey]bool, len(sj.Reps))
	for _, rep := range sj.Reps {
		want[RepKey{sj.Scheme, sj.Rho, rep}] = true
	}
	if len(recs) == 0 || len(recs) != len(want) {
		return false
	}
	for _, rec := range recs {
		if !want[rec.Key()] {
			return false
		}
		delete(want, rec.Key())
	}
	return true
}

// RunSubjob executes one sub-job on its own and returns its replication
// records in rep order, striped over Workers goroutines. This is what a
// cluster worker runs on behalf of a coordinator, and what the coordinator
// runs itself when the fleet is gone: the same code Run's pool executes, so
// the records are bit-identical to a single-node sweep's. Per-rep failures
// (panics, divergence-watchdog kills) come back as records with Err set —
// only context cancellation is a sub-job-level error.
func (e *Experiment) RunSubjob(sj Subjob) ([]RepRecord, error) {
	shape, err := e.shape()
	if err != nil {
		return nil, err
	}
	if sj.Scheme < 0 || sj.Scheme >= len(e.Schemes) || sj.Rho < 0 || sj.Rho >= len(e.Rhos) {
		return nil, fmt.Errorf("sweep %q: sub-job cell (%d,%d) outside the grid", e.ID, sj.Scheme, sj.Rho)
	}
	if len(sj.Reps) == 0 || len(sj.Reps) != len(sj.Seeds) {
		return nil, fmt.Errorf("sweep %q: sub-job has %d reps but %d seeds", e.ID, len(sj.Reps), len(sj.Seeds))
	}
	for _, rep := range sj.Reps {
		if rep < 0 || rep >= e.Reps {
			return nil, fmt.Errorf("sweep %q: sub-job rep %d outside 0..%d", e.ID, rep, e.Reps-1)
		}
	}
	var br sim.BatchRunner
	return e.runSubjob(e.Context, &br, shape, sj, e.workers())
}

// runSubjob executes one valid sub-job as a batch on br, split into the
// given number of rep stripes, under ctx.
func (e *Experiment) runSubjob(ctx context.Context, br *sim.BatchRunner, shape *torus.Shape, sj Subjob, stripes int) ([]RepRecord, error) {
	cfg, err := e.cellConfig(shape, sj.Scheme, sj.Rho)
	if err != nil {
		return nil, err
	}
	cfg.Context = ctx
	outs, err := br.Run(sim.Batch{Base: cfg, Seeds: sj.Seeds, Workers: stripes})
	if err != nil {
		// Up-front validation failure: every rep of the cell fails alike.
		outs = make([]sim.RepResult, len(sj.Seeds))
		for i := range outs {
			outs[i] = sim.RepResult{Err: err}
		}
	}
	recs := make([]RepRecord, len(sj.Reps))
	for i, rep := range sj.Reps {
		key := RepKey{sj.Scheme, sj.Rho, rep}
		rr := outs[i]
		switch {
		case rr.Err != nil && (errors.Is(rr.Err, context.Canceled) || errors.Is(rr.Err, context.DeadlineExceeded)):
			return nil, rr.Err
		case rr.Err != nil:
			recs[i] = RepRecord{Scheme: key.Scheme, Rho: key.Rho, Rep: key.Rep, Err: rr.Err.Error()}
		default:
			recs[i] = e.makeRecord(shape, key, rr.Result)
		}
	}
	return recs, nil
}

// Assemble folds replication records into a Result, visiting (scheme, rho,
// rep) in strict index order — never completion or arrival order. That
// ordering is the byte-identity invariant: a Result assembled from any mix
// of journal replay, local sub-jobs, and remote ones encodes to exactly the
// bytes of an uninterrupted single-node run. Missing records
// are simply absent from the aggregates (their Point carries fewer reps).
func (e *Experiment) Assemble(records map[RepKey]RepRecord, resumed int, elapsed time.Duration) *Result {
	res := &Result{Exp: e, Elapsed: elapsed, ResumedReps: resumed}
	for si, spec := range e.Schemes {
		series := Series{Scheme: spec, Points: make([]Point, len(e.Rhos))}
		for ri := range e.Rhos {
			p := &series.Points[ri]
			p.Rho = e.Rhos[ri]
			for rep := 0; rep < e.Reps; rep++ {
				rec, ok := records[RepKey{si, ri, rep}]
				if !ok {
					continue
				}
				if rec.Err != "" {
					p.FailedReps++
					if p.Error == "" {
						p.Error = rec.Err
					}
					continue
				}
				p.Reception.AddRep(float64(rec.Reception))
				p.Broadcast.AddRep(float64(rec.Broadcast))
				p.Unicast.AddRep(float64(rec.Unicast))
				p.HighWait.AddRep(float64(rec.HighWait))
				p.LowWait.AddRep(float64(rec.LowWait))
				p.AvgUtil.AddRep(float64(rec.AvgUtil))
				p.MaxDimUtil.AddRep(float64(rec.MaxDimUtil))
				if p.DimUtil == nil {
					p.DimUtil = make([]stats.Summary, len(rec.DimUtil))
				}
				for i, u := range rec.DimUtil {
					p.DimUtil[i].AddRep(float64(u))
				}
				p.GeneratedBroadcasts += rec.GeneratedBroadcasts
				p.IncompleteBroadcasts += rec.IncompleteBroadcasts
				if !rec.Stable {
					p.UnstableReps++
				}
				if rec.Status == sim.StatusDiverged.String() {
					p.DivergedReps++
				}
			}
		}
		res.Series = append(res.Series, series)
	}
	return res
}

// Run executes every (scheme, rho, rep) simulation and aggregates per-cell
// summaries: Execute with a local executor, a pool of min(Workers,
// sub-jobs) goroutines that each keep one warm sim.BatchRunner. Seeds are
// derived deterministically from BaseSeed and aggregation visits
// replications in index order, so a Result is bit-reproducible regardless
// of scheduling, and a Resume-d sweep matches an uninterrupted one exactly.
// A replication that panics or errors is recorded on its Point
// (FailedReps/Error) without killing the experiment; only context
// cancellation aborts the whole sweep.
func (e *Experiment) Run() (*Result, error) {
	shape, err := e.shape()
	if err != nil {
		return nil, err
	}
	workers := e.workers()
	return e.Execute(workers, func(pool int) Executor {
		// With fewer sub-jobs than workers the leftover parallelism moves
		// inside each batch as rep stripes, so a one-cell many-rep sweep
		// still uses the whole machine.
		stripes := workers / pool
		var br sim.BatchRunner // warm across every sub-job of this goroutine
		return func(ctx context.Context, sj Subjob, g *Gather) error {
			recs, err := e.runSubjob(ctx, &br, shape, sj, stripes)
			if err != nil {
				return err
			}
			_, err = g.Deliver(sj, recs)
			return err
		}
	})
}

// An Executor runs one sub-job and delivers its records to g. Returning an
// error fails the execution.
type Executor func(ctx context.Context, sj Subjob, g *Gather) error

// Execute is the one execution path of a sweep, local and fleet alike. It
// replays or creates the checkpoint journal, splits the replications the
// journal does not cover into sub-jobs, and runs them heaviest first on
// min(parallel, sub-jobs) goroutines, each with the executor newExec
// returns for that pool size; parallel must be positive. Records fold
// through one Gather, and the result is assembled in index order once
// every executor call has returned.
//
// A sub-job's weight is its replication count times its rho: every cell of
// one experiment shares its shape, horizon and traffic mix, so that product
// is proportional to the link services it simulates. Ties keep index
// order. Handing out the heaviest cells first keeps the pool from idling
// behind one long cell at the tail.
//
// The context given to executors is canceled when e.Context is or when the
// execution fails. The first error — an executor's, or a failed checkpoint
// append — fails it: dispatch stops, the calls in flight are waited for,
// and that error is returned.
func (e *Experiment) Execute(parallel int, newExec func(pool int) Executor) (*Result, error) {
	if err := e.validate(); err != nil {
		return nil, err
	}
	parent := e.Context
	if parent == nil {
		parent = context.Background()
	}
	ctx, cancel := context.WithCancel(parent)
	defer cancel()
	start := time.Now()

	g := &Gather{e: e, cancel: cancel, records: make(map[RepKey]RepRecord)}
	var jnl *journalpkg.Writer
	if e.Checkpoint != "" {
		var err error
		if g.records, jnl, err = openCheckpoint(e.Checkpoint, e.fingerprint(), e.Resume); err != nil {
			return nil, err
		}
		g.jnl = jnl
	}
	resumed := len(g.records)
	subjobs, err := e.Subjobs(func(k RepKey) bool {
		_, ok := g.records[k]
		return ok
	})
	if err != nil {
		if jnl != nil {
			jnl.Close()
		}
		return nil, err
	}
	for _, sj := range subjobs {
		g.total += len(sj.Reps)
	}
	weight := func(sj Subjob) float64 { return float64(len(sj.Reps)) * e.Rhos[sj.Rho] }
	sort.SliceStable(subjobs, func(i, j int) bool { return weight(subjobs[i]) > weight(subjobs[j]) })

	pool := min(parallel, len(subjobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < pool; w++ {
		exec := newExec(pool)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(subjobs) {
					return
				}
				if err := exec(ctx, subjobs[i], g); err != nil {
					g.fail(err)
				}
			}
		}()
	}
	wg.Wait()

	g.mu.Lock()
	g.closed = true
	err, folded := g.err, g.reps
	g.mu.Unlock()
	if jnl != nil {
		if cerr := jnl.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("sweep: closing checkpoint: %w", cerr)
		}
	}
	if err == nil {
		err = parent.Err()
	}
	if err == nil && folded != g.total {
		err = fmt.Errorf("sweep %q: %d of %d replications folded", e.ID, folded, g.total)
	}
	if err != nil {
		return nil, err
	}
	return e.Assemble(g.records, resumed, time.Since(start)), nil
}

// Gather folds the record sets executors deliver during one Execute. The
// first complete record set for a sub-job wins; each of its records is
// journaled to the checkpoint and counted into Progress. A later set for
// the same sub-job — a hedge loser, or a call whose lease expired while it
// kept running — is dropped, as is anything delivered after Execute
// returned.
type Gather struct {
	e      *Experiment
	total  int
	cancel context.CancelFunc

	mu      sync.Mutex
	records map[RepKey]RepRecord
	jnl     *journalpkg.Writer // nil without a checkpoint or after a failed append
	reps    int                // records folded by deliveries
	err     error              // the first failure; ends the execution
	closed  bool               // Execute has returned
}

// Deliver folds sj's records and reports whether this delivery won: false
// means the sub-job was already folded or Execute has returned. A record
// set that does not match sj is an error and folds nothing. Progress is
// called with the lock held, which is what serializes its calls.
func (g *Gather) Deliver(sj Subjob, recs []RepRecord) (bool, error) {
	if !sj.Matches(recs) {
		return false, fmt.Errorf("sweep: record set does not match sub-job %s", sj.Key())
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed || g.foldedLocked(sj) {
		return false, nil
	}
	for _, rec := range recs {
		g.records[rec.Key()] = rec
		if g.jnl != nil {
			if err := g.jnl.Append(rec); err != nil {
				g.jnl = nil
				g.failLocked(fmt.Errorf("sweep: writing checkpoint: %w", err))
			}
		}
		g.reps++
		if g.e.Progress != nil {
			g.e.Progress(g.reps, g.total)
		}
	}
	return true, nil
}

// Folded reports whether a record set for sj has been folded.
func (g *Gather) Folded(sj Subjob) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.foldedLocked(sj)
}

// foldedLocked: sets fold whole under the lock and the sub-jobs of one
// execution never share a replication, so sj's first stands for all of it.
func (g *Gather) foldedLocked(sj Subjob) bool {
	_, ok := g.records[RepKey{sj.Scheme, sj.Rho, sj.Reps[0]}]
	return ok
}

// fail records the first error of the execution and cancels its context.
func (g *Gather) fail(err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.failLocked(err)
}

func (g *Gather) failLocked(err error) {
	if g.err == nil {
		g.err = err
		g.cancel()
	}
}

// Metric selects which aggregate a table or CSV reports.
type Metric int

// Available metrics.
const (
	MetricReception Metric = iota
	MetricBroadcast
	MetricUnicast
	MetricHighWait
	MetricLowWait
	MetricAvgUtil
	MetricMaxDimUtil
)

// String names the metric.
func (m Metric) String() string {
	switch m {
	case MetricReception:
		return "avg reception delay"
	case MetricBroadcast:
		return "avg broadcast delay"
	case MetricUnicast:
		return "avg unicast delay"
	case MetricHighWait:
		return "high-priority queue wait"
	case MetricLowWait:
		return "low-priority queue wait"
	case MetricAvgUtil:
		return "avg link utilization"
	case MetricMaxDimUtil:
		return "max dimension utilization"
	default:
		return fmt.Sprintf("metric(%d)", int(m))
	}
}

func (p *Point) summary(m Metric) *stats.Summary {
	switch m {
	case MetricBroadcast:
		return &p.Broadcast
	case MetricUnicast:
		return &p.Unicast
	case MetricHighWait:
		return &p.HighWait
	case MetricLowWait:
		return &p.LowWait
	case MetricAvgUtil:
		return &p.AvgUtil
	case MetricMaxDimUtil:
		return &p.MaxDimUtil
	default:
		return &p.Reception
	}
}

// Value returns the across-replication mean of the metric at this point.
func (p *Point) Value(m Metric) float64 { return p.summary(m).Mean() }

// Table renders the metric as a fixed-width text table: one row per rho,
// one column per scheme, unstable cells marked with '*'.
func (r *Result) Table(m Metric) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s (%s)\n", r.Exp.Title, m, shapeName(r.Exp.Dims))
	fmt.Fprintf(&b, "%8s", "rho")
	for _, s := range r.Series {
		fmt.Fprintf(&b, " %18s", s.Scheme.Name)
	}
	b.WriteByte('\n')
	for ri, rho := range r.Exp.Rhos {
		fmt.Fprintf(&b, "%8.3f", rho)
		for _, s := range r.Series {
			p := s.Points[ri]
			mark := " "
			if p.UnstableReps > 0 {
				mark = "*"
			}
			v := p.Value(m)
			if math.IsNaN(v) {
				fmt.Fprintf(&b, " %17s%s", "-", mark)
			} else {
				fmt.Fprintf(&b, " %17.3f%s", v, mark)
			}
		}
		b.WriteByte('\n')
	}
	if unstableAnywhere(r) {
		b.WriteString("  (* = backlog grew over the window: at or beyond saturation)\n")
	}
	return b.String()
}

func unstableAnywhere(r *Result) bool {
	for _, s := range r.Series {
		for _, p := range s.Points {
			if p.UnstableReps > 0 {
				return true
			}
		}
	}
	return false
}

// Plot renders the metric as an ASCII line chart over the rho grid, the
// textual analogue of the paper's figures. Saturated cells are clipped at
// four times the largest stable value so the pre-saturation region stays
// readable.
func (r *Result) Plot(m Metric) string {
	c := plot.Chart{
		Title:  fmt.Sprintf("%s — %s (%s)", r.Exp.Title, m, shapeName(r.Exp.Dims)),
		XLabel: "throughput factor rho",
		YLabel: m.String(),
	}
	maxStable := 0.0
	for _, s := range r.Series {
		for _, p := range s.Points {
			if p.UnstableReps == 0 && p.Value(m) > maxStable {
				maxStable = p.Value(m)
			}
		}
	}
	if maxStable > 0 {
		c.YMax = 4 * maxStable
	}
	for _, s := range r.Series {
		series := plot.Series{Name: s.Scheme.Name}
		for ri, rho := range r.Exp.Rhos {
			v := s.Points[ri].Value(m)
			if math.IsNaN(v) {
				continue
			}
			series.X = append(series.X, rho)
			series.Y = append(series.Y, v)
		}
		if err := c.Add(series); err != nil {
			return fmt.Sprintf("plot error: %v", err)
		}
	}
	return c.Render()
}

// CSV renders the metric as comma-separated values with a header row.
func (r *Result) CSV(m Metric) string {
	var b strings.Builder
	b.WriteString("rho")
	for _, s := range r.Series {
		fmt.Fprintf(&b, ",%s,%s_ci95,%s_unstable", s.Scheme.Name, s.Scheme.Name, s.Scheme.Name)
	}
	b.WriteByte('\n')
	for ri, rho := range r.Exp.Rhos {
		fmt.Fprintf(&b, "%g", rho)
		for _, s := range r.Series {
			p := s.Points[ri]
			fmt.Fprintf(&b, ",%g,%g,%d", p.Value(m), p.summary(m).HalfWidth95(), p.UnstableReps)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// DimLoadReport renders the per-dimension link utilization of every
// (scheme, rho) cell, with the spread between the most and least loaded
// dimension. This is the quantity Eq. 2 (and Eq. 4 for mixed traffic)
// predicts equal across dimensions for a balanced scheme; an unbalanced
// baseline shows its throughput loss here as a persistent spread.
func (r *Result) DimLoadReport() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — per-dimension link utilization (%s)\n", r.Exp.Title, shapeName(r.Exp.Dims))
	for _, s := range r.Series {
		fmt.Fprintf(&b, "%s:\n", s.Scheme.Name)
		for ri, rho := range r.Exp.Rhos {
			p := s.Points[ri]
			fmt.Fprintf(&b, "  rho %5.3f:", rho)
			lo, hi := math.Inf(1), math.Inf(-1)
			for i := range p.DimUtil {
				v := p.DimUtil[i].Mean()
				fmt.Fprintf(&b, "  d%d=%.4f", i, v)
				lo = math.Min(lo, v)
				hi = math.Max(hi, v)
			}
			if len(p.DimUtil) > 0 {
				fmt.Fprintf(&b, "  spread=%.4f", hi-lo)
			}
			if p.UnstableReps > 0 {
				b.WriteString("  *")
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func shapeName(dims []int) string {
	parts := make([]string, len(dims))
	for i, n := range dims {
		parts[i] = fmt.Sprint(n)
	}
	return strings.Join(parts, "x")
}

// SpeedupAt returns the ratio of scheme b's metric to scheme a's at the
// given rho (how many times larger b's delay is), for headline comparisons.
func (r *Result) SpeedupAt(m Metric, a, b string, rho float64) (float64, error) {
	var sa, sb *Series
	for i := range r.Series {
		switch r.Series[i].Scheme.Name {
		case a:
			sa = &r.Series[i]
		case b:
			sb = &r.Series[i]
		}
	}
	if sa == nil || sb == nil {
		return 0, fmt.Errorf("sweep: schemes %q/%q not in result", a, b)
	}
	for ri, rr := range r.Exp.Rhos {
		if math.Abs(rr-rho) < 1e-9 {
			va := sa.Points[ri].Value(m)
			if va == 0 {
				return 0, fmt.Errorf("sweep: zero baseline at rho=%g", rho)
			}
			return sb.Points[ri].Value(m) / va, nil
		}
	}
	return 0, fmt.Errorf("sweep: rho %g not on the grid", rho)
}

// StabilitySearch estimates the maximum stable throughput factor of a
// scheme by bisection: it runs short probe simulations and tests
// Result.Stable. The probe length trades accuracy for time; tol is the
// final interval width.
func StabilitySearch(dims []int, spec SchemeSpec, broadcastFrac float64, m balance.DistanceModel,
	probeSlots int64, reps int, seed uint64, lo, hi, tol float64) (float64, error) {
	shape, err := torus.New(dims...)
	if err != nil {
		return 0, err
	}
	var runner sim.Runner // probes share buffers across bisection steps
	stable := func(rho float64) (bool, error) {
		rates, err := traffic.RatesForRho(shape, rho, broadcastFrac, 1, m)
		if err != nil {
			return false, err
		}
		sch, err := spec.Build(shape, rates, m)
		if err != nil {
			return false, err
		}
		for rep := 0; rep < reps; rep++ {
			res, err := runner.Run(sim.Config{
				Shape: shape, Scheme: sch, Rates: rates,
				Seed:   seed ^ uint64(rep+1) ^ math.Float64bits(rho),
				Warmup: probeSlots / 4, Measure: probeSlots, Drain: 0,
				MaxBacklog: int64(shape.Links()) * probeSlots / 16,
			})
			if err != nil {
				return false, err
			}
			if !res.Stable(shape) {
				return false, nil
			}
		}
		return true, nil
	}
	if ok, err := stable(lo); err != nil {
		return 0, err
	} else if !ok {
		return lo, nil
	}
	for hi-lo > tol {
		mid := (lo + hi) / 2
		ok, err := stable(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}

// SortSeriesByName orders the result's series alphabetically (stable
// rendering for goldens).
func (r *Result) SortSeriesByName() {
	sort.Slice(r.Series, func(i, j int) bool {
		return r.Series[i].Scheme.Name < r.Series[j].Scheme.Name
	})
}
