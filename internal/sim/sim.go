// Package sim is the slotted-time, store-and-forward network simulator the
// experiments run on. It models the paper's queueing environment directly:
//
//   - time advances in slots; a packet of length L occupies a directed link
//     for L consecutive slots (unit length packets take one slot, the
//     paper's analysis model);
//   - every node transmits on all of its outgoing links in parallel
//     (all-port model), each link serving an unbounded multi-class output
//     queue with head-of-line priority and FCFS order within a class;
//   - a packet that finishes arriving at the start of slot t can be
//     forwarded during slot t, so an uncontended packet's delay equals its
//     hop distance times its length;
//   - broadcast and unicast tasks arrive as Poisson streams and are routed
//     by a core.Scheme (STAR trees, priority classes, shortest paths).
//
// Statistics are collected for tasks born inside the measurement window
// [Warmup, Warmup+Measure); the simulation then runs Drain additional slots
// so most measured tasks can complete, and reports how many did not.
//
// The engine is event-driven: a link is examined only when its in-flight
// transmission completes or when a packet is enqueued on it while it is
// idle, so per-slot cost is proportional to actual link activity rather
// than to the total number of links (see DESIGN.md, "Engine internals &
// performance"). Ready links are served in ascending LinkID order each
// slot, which makes runs bit-identical to the historical full-scan engine
// for a fixed seed.
//
// An optional observability probe (Config.Probe, see internal/obs) receives
// enqueue/service/deliver/spawn/slot events; when unset each site costs one
// nil comparison, and attaching a probe never changes the trajectory.
package sim

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"time"

	"prioritystar/internal/core"
	"prioritystar/internal/fault"
	"prioritystar/internal/obs"
	"prioritystar/internal/queue"
	"prioritystar/internal/stats"
	"prioritystar/internal/torus"
	"prioritystar/internal/traffic"
)

// EngineVersion names the simulation semantics: any change that alters the
// trajectory or the measured statistics of a fixed (config, seed) pair must
// bump it. It is folded into spec.Fingerprint, so bumping it invalidates
// the daemon's content-addressed result cache and old checkpoint journals
// instead of letting stale results masquerade as current ones.
const EngineVersion = "prioritystar-sim/1"

// wheelSize is the timing-wheel span; packet service times are clamped to
// wheelSize-1 slots (Result.ClampedLengths counts occurrences, which are
// astronomically rare for the geometric lengths used by the experiments).
// It is a power of two so wheel positions use a mask, not a division.
const (
	wheelSize = 4096
	wheelMask = wheelSize - 1
)

// Config describes one simulation run.
type Config struct {
	Shape  *torus.Shape
	Scheme *core.Scheme
	Rates  traffic.Rates      // per-node task arrival rates
	Length traffic.LengthDist // packet length distribution (zero value = unit)
	Seed   uint64

	Warmup  int64 // slots before the measurement window
	Measure int64 // slots in the measurement window (required, > 0)
	Drain   int64 // slots after the window for measured tasks to finish

	// MaxBacklog aborts the run early when the total number of queued
	// packets exceeds it, which happens only for unstable operating points
	// (rho beyond the scheme's maximum throughput). 0 means the default of
	// 4 million packets.
	MaxBacklog int64

	// Faults injects link and node failures from a deterministic schedule
	// (see internal/fault). nil or an empty schedule leaves the engine on
	// its fault-free path, bit-identical to an engine without fault
	// support. With faults active, unicast packets route minimally-adaptively
	// around failed profitable links (waiting when no live alternative
	// exists) and broadcast copies that would cross a permanently failed
	// link are dropped with their whole subtree, recorded in
	// Result.LostCopies and Result.Reachability.
	Faults *fault.Schedule

	// Guard configures the runtime guards: the divergence watchdog and the
	// wall-clock timeout. The zero value disables both and leaves the
	// trajectory untouched.
	Guard Guard

	// Context, when non-nil, is polled every 1024 slots; once it is
	// cancelled the run stops and Run returns the context's error.
	Context context.Context

	// OnDeliver, when non-nil, is invoked for every packet arrival: each
	// broadcast copy received by a node and each unicast hop (Final marks
	// arrival at the unicast destination). Intended for tests and tracing;
	// it adds an indirect call per delivery.
	OnDeliver func(DeliverEvent)

	// Probe, when non-nil, receives every engine event (enqueue, service
	// start, delivery, task spawn, end of slot) for metrics and tracing;
	// see internal/obs. A nil probe costs exactly one pointer comparison
	// per event site, and attaching one never changes the simulated
	// trajectory: same-seed runs are bit-identical with and without it.
	Probe obs.Probe

	// ImpulseBroadcasts injects this many broadcast tasks per node at slot
	// 0, modelling the static multinode-broadcast task of the paper's
	// introduction (1 task per node = MNB). Combine with zero Rates and
	// zero Warmup to measure the makespan via Result.Broadcast.Max().
	ImpulseBroadcasts int
	// ImpulseTotalExchange, when true, injects one unicast from every node
	// to every other node at slot 0 — the static total-exchange (TE) task.
	ImpulseTotalExchange bool
	// SingleBroadcast, when true, injects exactly one broadcast task from
	// SingleBroadcastSource at slot 0 (the static single-broadcast task).
	SingleBroadcast       bool
	SingleBroadcastSource torus.Node
}

// DeliverEvent describes one packet arrival for Config.OnDeliver.
type DeliverEvent struct {
	Slot  int64
	Node  torus.Node
	Birth int64
	// Task is the broadcast task key for measured broadcast copies and -1
	// otherwise.
	Task int64
	// Broadcast is true for broadcast copies, false for unicast packets.
	Broadcast bool
	// Final is true when a unicast packet reached its destination (always
	// true for broadcast copies: every arrival is a delivery).
	Final bool
}

// Guard bundles the runtime guards of one run. The zero value disables every
// guard; an enabled guard never perturbs the trajectory of a run it does not
// terminate (guards read engine state but never touch the RNG).
type Guard struct {
	// DivergeBacklog terminates the run with StatusDiverged as soon as the
	// total backlog exceeds it. 0 disables the bound. Unlike
	// Config.MaxBacklog (an emergency brake yielding StatusTruncated),
	// this is the watchdog's deliberate "this point has left its stable
	// region" signal.
	DivergeBacklog int64

	// GrowthWindow enables the sustained-growth watchdog: every
	// GrowthWindow slots the total backlog is sampled, and when GrowthRuns
	// consecutive samples each exceed their predecessor by more than
	// GrowthSlack packets the run terminates with StatusDiverged. A run at
	// rho >= 1 adds Theta(deficit x links) packets per slot, so it trips
	// the watchdog within GrowthRuns windows instead of burning the whole
	// horizon; a stable run's backlog fluctuates around its mean and keeps
	// resetting the streak. 0 disables the check.
	GrowthWindow int64
	// GrowthRuns is the consecutive-growth streak length that declares
	// divergence. 0 means the default of 4.
	GrowthRuns int
	// GrowthSlack is the minimum per-window backlog increase that counts
	// as growth. 0 means the default of max(64, links/8).
	GrowthSlack int64

	// Timeout bounds the run's wall-clock time; when exceeded (polled
	// every 1024 slots) the run stops with StatusTimeout. 0 disables it.
	Timeout time.Duration
}

// active reports whether any watchdog check is enabled.
func (g *Guard) active() bool { return g.DivergeBacklog > 0 || g.GrowthWindow > 0 }

// DefaultGuard returns a divergence watchdog tuned for shape s: a backlog
// bound of 64 packets per link and a sustained-growth check every 250 slots.
func DefaultGuard(s *torus.Shape) Guard {
	return Guard{DivergeBacklog: int64(s.Links()) * 64, GrowthWindow: 250}
}

// Status classifies how a run ended.
type Status uint8

// Run statuses.
const (
	// StatusOK: the run completed its full horizon.
	StatusOK Status = iota
	// StatusTruncated: the backlog exceeded Config.MaxBacklog.
	StatusTruncated
	// StatusDiverged: the divergence watchdog (Config.Guard) fired.
	StatusDiverged
	// StatusTimeout: the wall-clock timeout (Config.Guard.Timeout) expired.
	StatusTimeout
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusTruncated:
		return "truncated"
	case StatusDiverged:
		return "diverged"
	case StatusTimeout:
		return "timeout"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}

func (c *Config) totalSlots() int64 { return c.Warmup + c.Measure + c.Drain }

// Validate checks the configuration without running it. Run and Runner.Run
// call it first and surface its error verbatim.
func (c *Config) Validate() error {
	if c.Shape == nil || c.Scheme == nil {
		return fmt.Errorf("sim: nil shape or scheme")
	}
	if c.Shape.Dims() == 0 || c.Shape.Size() == 0 {
		return fmt.Errorf("sim: shape has no dimensions (construct shapes with torus.New)")
	}
	if c.Scheme.Shape != c.Shape {
		return fmt.Errorf("sim: scheme was built for %v, config uses %v", c.Scheme.Shape, c.Shape)
	}
	if math.IsNaN(c.Rates.LambdaB) || math.IsInf(c.Rates.LambdaB, 0) ||
		math.IsNaN(c.Rates.LambdaR) || math.IsInf(c.Rates.LambdaR, 0) {
		return fmt.Errorf("sim: arrival rates must be finite, got %+v", c.Rates)
	}
	if c.Rates.LambdaB < 0 || c.Rates.LambdaR < 0 {
		return fmt.Errorf("sim: negative arrival rates %+v", c.Rates)
	}
	if c.Measure <= 0 {
		return fmt.Errorf("sim: Measure must be positive, got %d", c.Measure)
	}
	if c.Warmup < 0 || c.Drain < 0 {
		return fmt.Errorf("sim: negative Warmup or Drain")
	}
	if g := &c.Guard; g.DivergeBacklog < 0 || g.GrowthWindow < 0 || g.GrowthRuns < 0 ||
		g.GrowthSlack < 0 || g.Timeout < 0 {
		return fmt.Errorf("sim: negative Guard field %+v", *g)
	}
	if err := c.Faults.Validate(c.Shape); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	return nil
}

// Result holds the measured statistics of one run.
type Result struct {
	// Reception aggregates, per delivered copy of a measured broadcast
	// task, the time since task generation (the paper's reception delay).
	Reception stats.Welford
	// Broadcast aggregates, per completed measured broadcast task, the
	// time until the last node received its copy (broadcast delay).
	Broadcast stats.Welford
	// Unicast aggregates end-to-end delays of measured unicast packets.
	Unicast stats.Welford
	// QueueWait aggregates, per priority class, the output-queue waiting
	// time of packets entering service during the measurement window.
	QueueWait [3]stats.Welford

	GeneratedBroadcasts  int64 // measured broadcast tasks generated
	GeneratedUnicasts    int64 // measured unicast tasks generated
	IncompleteBroadcasts int64 // measured tasks not finished by the horizon
	IncompleteUnicasts   int64 // measured unicasts not delivered by the horizon

	// DimUtilization is the average utilization of a dimension-i link over
	// the measurement window; MaxDimUtilization and AvgUtilization
	// summarize it. For a balanced scheme AvgUtilization ~= rho and all
	// dimensions match.
	DimUtilization    []float64
	AvgUtilization    float64
	MaxDimUtilization float64

	BacklogStart int64   // queued packets when the window opened
	BacklogEnd   int64   // queued packets when the window closed
	BacklogSlope float64 // (end-start)/Measure, packets per slot
	MaxBacklog   int64   // peak queued packets observed
	// BacklogFirstQ and BacklogLastQ are the average backlog over the
	// first and last quarter of the measurement window; their difference
	// (BacklogTrend) is a noise-robust growth estimate used by Stable.
	BacklogFirstQ float64
	BacklogLastQ  float64
	BacklogTrend  float64

	// Truncated is true when the run was aborted by Config.MaxBacklog
	// (unstable operating point); delay statistics are then meaningless.
	// Status carries the same information with more detail.
	Truncated bool
	// ClampedLengths counts packets whose sampled service time exceeded
	// the timing wheel and was clamped.
	ClampedLengths int64

	// Status records how the run ended: StatusOK (full horizon),
	// StatusTruncated (Config.MaxBacklog tripped), StatusDiverged (the
	// watchdog in Config.Guard fired), or StatusTimeout (the wall-clock
	// bound expired). Delay statistics of non-OK runs cover only the
	// slots actually simulated.
	Status Status

	// LostCopies counts measured broadcast deliveries lost because a copy
	// (with its whole subtree) would have crossed a permanently failed
	// link. Zero unless Config.Faults injects permanent failures.
	LostCopies int64
	// DegradedTasks counts measured broadcast tasks that completed with at
	// least one lost copy; such tasks contribute to Reachability but not
	// to Broadcast (their last node never receives a copy).
	DegradedTasks int64
	// Reachability aggregates, per measured broadcast task completed under
	// an active fault schedule, the fraction of the other nodes that
	// received a copy (1.0 when nothing was lost). Empty for fault-free
	// runs.
	Reachability stats.Welford
}

// packetKind discriminates broadcast copies from unicast packets.
type packetKind uint8

const (
	kindBroadcast packetKind = iota
	kindUnicast
)

// packet is the in-network representation of one copy: 40 bytes, written
// once into the engine's slab (engine.pkts). Queues and in-flight slots
// carry its 4-byte handle, the packet's index in the slab.
type packet struct {
	birth    int64
	enq      int64 // enqueue time at the current output queue
	taskIdx  int32 // dense index into engine.tasks (measured broadcasts)
	dest     torus.Node
	tieMask  uint32
	length   int32
	kind     packetKind
	class    uint8
	ending   int8
	phase    int8
	dir      torus.Dir
	measured bool
	hopsLeft int16
}

// bcastState tracks one in-flight measured broadcast task. States live in a
// dense slice indexed by packet.taskIdx; completed slots are recycled
// through a free list, so steady-state measurement allocates no per-task
// memory. The task key (surfaced via DeliverEvent.Task) stays a plain
// monotone counter and is never recycled.
type bcastState struct {
	birth     int64
	key       int64
	remaining int32
	lost      int32 // copies lost to permanently failed links
}

type engine struct {
	cfg     Config
	s       *torus.Shape
	sch     *core.Scheme
	rng     *rand.Rand
	res     *Result
	probe   obs.Probe // cached Config.Probe; nil-checked at every emit site
	now     int64
	wStart  int64
	wEnd    int64
	horizon int64

	// pkts is the packet slab: every queued or in-flight packet is written
	// here once and travels as its handle. freePkts is a LIFO stack of free
	// handles, so an entry freed by a delivery is the next one reused.
	pkts     []packet
	freePkts []int32

	// queues[l*classes+c] holds the handles of class-c packets waiting
	// for link l, and queued[l] counts them over every class, so testing
	// a link for work is one load.
	queues    []queue.FIFO[int32]
	queued    []int32
	classes   int          // priority classes per link
	busyUntil []int64      // slot at which each link's transmission completes
	busySlots []int64      // busy slots within the window, per link
	linkDst   []torus.Node // shared per-shape table (torus.LinkTables)
	linkDim   []int32      // shared per-shape table (torus.LinkTables)

	// inflight[l] is the handle of the packet transmitting on link l; the
	// timing wheel stores only link IDs, so a completion event is 4 bytes.
	// A link carries at most one packet at a time, making one slot per
	// link sufficient.
	inflight []int32
	wheel    linkWheel

	// ready collects the links that may start a transmission this slot:
	// those whose in-flight packet just completed and those that received
	// a packet while idle.
	ready linkBitmap

	// Dense broadcast-task table indexed by packet.taskIdx; freeTasks
	// holds recycled indices, liveTasks counts tasks currently in flight,
	// and nextTask is the never-recycled key counter.
	tasks     []bcastState
	freeTasks []int32
	liveTasks int64
	nextTask  int64

	backlog int64
	hopBuf  []core.Hop
	maxBack int64

	// Backlog sampling for the trend estimate: sums over the first and
	// last quarters of the measurement window.
	firstQSum, lastQSum     float64
	firstQCount, lastQCount int64

	// Fault state. faults is nil for fault-free runs, keeping the hot
	// path at one nil check per site; fwheel parallels wheel and carries
	// recovery wake-ups for links found transiently down.
	faults   *fault.Compiled
	fwheel   linkWheel
	adaptCur torus.Node // current node for the downFn closure
	downFn   func(dim int, dir torus.Dir) bool

	// Guard state, resolved from cfg.Guard by reset.
	guardOn      bool
	growthRuns   int
	growthSlack  int64
	growthStreak int
	lastSample   int64
	nextGrowthAt int64
	ctx          context.Context
	deadline     time.Time
	checkWall    bool // poll ctx/deadline every 1024 slots
}

// Runner executes simulations while reusing the engine's internal buffers
// (packet slab, queues, timing wheel, task table) across calls. A sweep
// that runs many simulations of the same shape on one goroutine should reuse
// a Runner: after the first run the hot path is allocation-free. The zero
// value is ready to use. A Runner is not safe for concurrent use; give each
// worker goroutine its own. A warm Runner keeps its last run's Config (and
// so its shape, scheme and callbacks) reachable until its next run.
type Runner struct {
	e engine
}

// Run executes one simulation and returns its statistics. It is equivalent
// to the package-level Run but recycles internal buffers from previous
// calls; results are identical for identical Configs.
func (r *Runner) Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &r.e
	if err := e.reset(cfg); err != nil {
		return nil, err
	}
	if err := e.run(); err != nil {
		return nil, err
	}
	e.finish()
	return e.res, nil
}

// Run executes one simulation on a fresh Runner and returns its
// statistics. Results depend only on Config (same seed, same trajectory).
// A caller that runs many simulations should hold a Runner instead, which
// reuses its buffers across calls.
func Run(cfg Config) (*Result, error) {
	var r Runner
	return r.Run(cfg)
}

// reset prepares the engine for cfg, reusing buffers from any previous run
// when their sizes match. It fails only when the fault schedule does not
// compile against the shape.
func (e *engine) reset(cfg Config) error {
	slots := cfg.Shape.LinkSlots()
	classes := cfg.Scheme.Discipline.Classes()

	e.cfg = cfg
	e.s = cfg.Shape
	e.sch = cfg.Scheme
	e.rng = rand.New(rand.NewPCG(cfg.Seed, 0x57a12357))
	e.res = &Result{} // escapes to the caller; never reused
	e.probe = cfg.Probe
	e.now = 0
	e.wStart = cfg.Warmup
	e.wEnd = cfg.Warmup + cfg.Measure
	e.horizon = cfg.totalSlots()
	e.backlog = 0
	e.liveTasks = 0
	e.firstQSum, e.lastQSum = 0, 0
	e.firstQCount, e.lastQCount = 0, 0
	e.maxBack = cfg.MaxBacklog
	if e.maxBack == 0 {
		e.maxBack = 4_000_000
	}

	// Every handle an earlier run left queued or in flight (it ended
	// early) dies with the queues and the wheel below.
	e.pkts = e.pkts[:0]
	e.freePkts = e.freePkts[:0]
	if len(e.queues) == slots*classes {
		for i := range e.queues {
			e.queues[i].Reset()
		}
	} else {
		e.queues = make([]queue.FIFO[int32], slots*classes)
	}
	e.classes = classes
	if len(e.busyUntil) == slots {
		clear(e.busyUntil)
		clear(e.busySlots)
		clear(e.queued)
	} else {
		e.busyUntil = make([]int64, slots)
		e.busySlots = make([]int64, slots)
		e.queued = make([]int32, slots)
	}
	e.ready.init(slots)
	e.linkDst, e.linkDim = e.s.LinkTables()
	if len(e.inflight) != slots {
		// No clearing on reuse: an inflight slot is read only when the
		// wheel holds the link's ID, and the wheel is emptied below.
		e.inflight = make([]int32, slots)
	}
	e.wheel.reset()
	e.tasks = e.tasks[:0]
	e.freeTasks = e.freeTasks[:0]
	e.nextTask = 0

	// Fault schedule: compiled only when non-empty, so fault-free runs
	// keep e.faults == nil and stay on the historical hot path.
	e.faults = nil
	e.downFn = nil
	if !cfg.Faults.Empty() {
		fc, err := cfg.Faults.Compile(cfg.Shape)
		if err != nil {
			return err
		}
		e.faults = fc
		e.downFn = e.adaptDown
		e.fwheel.reset()
	}

	// Guards.
	g := cfg.Guard
	e.guardOn = g.active()
	e.growthRuns = g.GrowthRuns
	if e.growthRuns == 0 {
		e.growthRuns = 4
	}
	e.growthSlack = g.GrowthSlack
	if e.growthSlack == 0 {
		e.growthSlack = int64(e.s.Links() / 8)
		if e.growthSlack < 64 {
			e.growthSlack = 64
		}
	}
	e.growthStreak = 0
	e.lastSample = 0
	e.nextGrowthAt = g.GrowthWindow
	e.ctx = cfg.Context
	e.deadline = time.Time{}
	if g.Timeout > 0 {
		e.deadline = time.Now().Add(g.Timeout)
	}
	e.checkWall = e.ctx != nil || g.Timeout > 0
	return nil
}

// adaptDown reports whether the outgoing link of e.adaptCur along (dim, dir)
// is currently failed. It is bound once per run (e.downFn) so the adaptive
// unicast path does not allocate a closure per delivery.
func (e *engine) adaptDown(dim int, dir torus.Dir) bool {
	return e.faults.Down(e.s.Link(e.adaptCur, dim, dir), e.now)
}

// run is the slot loop. Each slot: deliver completed transmissions, wake
// links whose transient fault healed, inject new tasks, then start
// transmissions on the links marked ready. It returns a non-nil error only
// when Config.Context is cancelled; every other early exit is reported
// through Result.Status.
func (e *engine) run() error {
	for {
		done, err := e.step()
		if done || err != nil {
			return err
		}
	}
}

// step advances the simulation by exactly one slot and reports whether the
// run is over (horizon reached, or an early exit recorded in Result.Status).
// run is its only caller.
func (e *engine) step() (done bool, err error) {
	if e.now >= e.horizon {
		return true, nil
	}
	if e.checkWall && e.now&1023 == 0 {
		if e.ctx != nil {
			select {
			case <-e.ctx.Done():
				return true, e.ctx.Err()
			default:
			}
		}
		if !e.deadline.IsZero() && time.Now().After(e.deadline) {
			e.res.Status = StatusTimeout
			return true, nil
		}
	}
	if e.now == e.wStart {
		e.res.BacklogStart = e.backlog
	}
	e.deliverArrivals()
	if e.faults != nil {
		e.processRecoveries()
	}
	e.generate()
	e.serviceReady()
	if e.probe != nil {
		e.probe.SlotEnd(e.now, e.backlog)
	}
	if e.now == e.wEnd-1 {
		e.res.BacklogEnd = e.backlog
	}
	if e.now >= e.wStart && e.now < e.wEnd {
		quarter := (e.cfg.Measure + 3) / 4
		switch {
		case e.now < e.wStart+quarter:
			e.firstQSum += float64(e.backlog)
			e.firstQCount++
		case e.now >= e.wEnd-quarter:
			e.lastQSum += float64(e.backlog)
			e.lastQCount++
		}
	}
	if e.backlog > e.res.MaxBacklog {
		e.res.MaxBacklog = e.backlog
	}
	if e.backlog > e.maxBack {
		e.res.Truncated = true
		e.res.Status = StatusTruncated
		return true, nil
	}
	if e.guardOn && e.diverged() {
		e.res.Status = StatusDiverged
		return true, nil
	}
	e.now++
	return e.now >= e.horizon, nil
}

// diverged runs the watchdog checks for the slot that just finished. It only
// reads engine state, so an enabled watchdog never perturbs the trajectory
// of a run it does not terminate.
func (e *engine) diverged() bool {
	g := &e.cfg.Guard
	if g.DivergeBacklog > 0 && e.backlog > g.DivergeBacklog {
		return true
	}
	if g.GrowthWindow > 0 && e.now == e.nextGrowthAt {
		if e.backlog > e.lastSample+e.growthSlack {
			e.growthStreak++
		} else {
			e.growthStreak = 0
		}
		e.lastSample = e.backlog
		e.nextGrowthAt += g.GrowthWindow
		if e.growthStreak >= e.growthRuns {
			return true
		}
	}
	return false
}

// processRecoveries wakes the links whose transient fault was promised to
// heal this slot. A link still down (its wake-up was clamped to the wheel
// span) is rescheduled; a healed link is marked ready so serviceReady
// examines its queue this very slot.
func (e *engine) processRecoveries() {
	entries := e.fwheel.take(e.now)
	if len(entries) == 0 {
		return
	}
	// entries is off the wheel until recycled below, so the reschedules
	// cannot write into the slice being ranged over.
	for _, l := range entries {
		if down, until := e.faults.DownUntil(l, e.now); down {
			if until >= 0 {
				e.scheduleRecovery(l, until)
			}
			continue
		}
		e.markReady(l)
	}
	e.fwheel.recycle(entries)
}

// scheduleRecovery enqueues a wake-up for link l at the given recovery slot,
// clamping it to the timing-wheel span (the wake-up then re-checks and
// reschedules).
func (e *engine) scheduleRecovery(l torus.LinkID, until int64) {
	if until > e.now+wheelMask {
		until = e.now + wheelMask
	}
	e.fwheel.add(until, l)
}

// linkWheel is a timing wheel of link IDs: the bucket at t&wheelMask lists,
// in the order they were added, the links with an event at slot t. A
// drained bucket's array goes onto a spare stack and the next bucket to
// start filling takes it, so the wheel keeps about as many arrays as slots
// have events pending at once instead of every bucket holding an array of
// its peak size. A bucket is either nil or non-empty.
type linkWheel struct {
	buckets [][]torus.LinkID
	spare   [][]torus.LinkID
}

// reset empties the wheel for a new run. The arrays of buckets an earlier
// run left non-empty (it was truncated, diverged, timed out or cancelled)
// go back to the spare stack.
func (w *linkWheel) reset() {
	if w.buckets == nil {
		w.buckets = make([][]torus.LinkID, wheelSize)
	}
	for i, b := range w.buckets {
		if b != nil {
			w.recycle(b)
			w.buckets[i] = nil
		}
	}
}

// add appends link l to the bucket of slot t.
func (w *linkWheel) add(t int64, l torus.LinkID) {
	b := &w.buckets[t&wheelMask]
	if *b == nil && len(w.spare) > 0 {
		*b = w.spare[len(w.spare)-1]
		w.spare = w.spare[:len(w.spare)-1]
	}
	*b = append(*b, l)
}

// take detaches the bucket of slot t and returns its links. Once done
// reading them the caller hands the array back with recycle; adds made
// before that, even while ranging over it, cannot reuse it.
func (w *linkWheel) take(t int64) []torus.LinkID {
	b := &w.buckets[t&wheelMask]
	links := *b
	*b = nil
	return links
}

// recycle puts a taken, non-nil array on the spare stack.
func (w *linkWheel) recycle(links []torus.LinkID) {
	w.spare = append(w.spare, links[:0])
}

// linkBitmap is a two-level bitmap over the link-slot index space: one bit
// per link in l0, one bit per nonzero l0 word in l1. It gives O(1)
// deduplicated marking, and serviceReady walks it in ascending order at a
// cost proportional to the number of marked words, which is what makes the
// event-driven service pass both cheap and deterministic (links are always
// visited in ascending LinkID order, matching the historical full scan).
type linkBitmap struct {
	l0 []uint64
	l1 []uint64
}

// init sizes the bitmap for the given number of link slots, reusing the
// previous words when the size matches. They are cleared on reuse: the
// service pass leaves them cleared, but a batch replication that panicked
// mid-slot (see runRep) can leave marks behind.
func (b *linkBitmap) init(slots int) {
	w0 := (slots + 63) / 64
	w1 := (w0 + 63) / 64
	if len(b.l0) == w0 {
		clear(b.l0)
		clear(b.l1)
		return
	}
	b.l0 = make([]uint64, w0)
	b.l1 = make([]uint64, w1)
}

func (b *linkBitmap) set(l torus.LinkID) {
	w := uint(l) >> 6
	b.l0[w] |= 1 << (uint(l) & 63)
	b.l1[w>>6] |= 1 << (w & 63)
}

// markReady queues link l for examination by serviceReady this slot. Links
// are marked when their transmission completes and when they receive a
// packet while idle; together with the invariant that an idle link's queue
// is drained-or-busy after every serviceReady pass, this covers exactly the
// links the historical full scan would have served.
func (e *engine) markReady(l torus.LinkID) {
	e.ready.set(l)
}

// deliverArrivals processes packets whose transmission completes at the
// start of the current slot.
func (e *engine) deliverArrivals() {
	arrivals := e.wheel.take(e.now)
	if len(arrivals) == 0 {
		return
	}
	for _, l := range arrivals {
		e.markReady(l) // the link just went idle; it may have queue
		h := e.inflight[l]
		node := e.linkDst[l]
		if e.pkts[h].kind == kindUnicast {
			e.deliverUnicast(node, h)
		} else {
			e.deliverBroadcast(node, h)
		}
	}
	e.wheel.recycle(arrivals)
}

// newPacket returns the handle of a free slab entry for the caller to fill,
// reusing the most recently freed one. Growing the slab may move it, so a
// pointer into it is valid only until the next newPacket.
func (e *engine) newPacket() int32 {
	if n := len(e.freePkts); n > 0 {
		h := e.freePkts[n-1]
		e.freePkts = e.freePkts[:n-1]
		return h
	}
	e.pkts = append(e.pkts, packet{})
	return int32(len(e.pkts) - 1)
}

// freePacket returns slab entry h to the free stack.
func (e *engine) freePacket(h int32) {
	e.freePkts = append(e.freePkts, h)
}

// deliverUnicast hands unicast packet h to node: it is freed at its
// destination and keeps its handle for the next hop otherwise.
func (e *engine) deliverUnicast(node torus.Node, h int32) {
	pkt := &e.pkts[h]
	if e.cfg.OnDeliver != nil {
		e.cfg.OnDeliver(DeliverEvent{
			Slot: e.now, Node: node, Birth: pkt.birth, Task: -1,
			Broadcast: false, Final: node == pkt.dest,
		})
	}
	if e.probe != nil {
		e.probe.Deliver(e.now, node, false, node == pkt.dest, e.now-pkt.birth)
	}
	if node == pkt.dest {
		if pkt.measured {
			e.res.Unicast.Add(float64(e.now - pkt.birth))
			e.res.IncompleteUnicasts--
		}
		e.freePacket(h)
		return
	}
	e.routeUnicast(node, h)
}

// routeUnicast enqueues unicast packet h on its next hop out of node.
// Fault-free runs use the deterministic-oblivious shortest path; with faults
// active the packet routes minimally adaptively: any live profitable link is
// taken (preferring the oblivious choice), and when every profitable link is
// down the packet waits on the preferred one.
func (e *engine) routeUnicast(node torus.Node, h int32) {
	dest, tieMask := e.pkts[h].dest, e.pkts[h].tieMask
	if e.faults == nil {
		dim, dir, _ := core.UnicastNextHop(e.s, node, dest, tieMask)
		e.enqueue(e.s.Link(node, dim, dir), dim, h)
		return
	}
	e.adaptCur = node
	dim, dir, _, done := core.UnicastNextHopAdaptive(e.s, node, dest, tieMask, e.downFn)
	if done {
		e.freePacket(h)
		return
	}
	e.enqueue(e.s.Link(node, dim, dir), dim, h)
}

// deliverBroadcast hands broadcast copy h to node and forwards its children.
// The copy leaves the slab first: its entry is freed so the first child
// reuses it, and the children are built from a stack copy because adding
// them may grow, and so move, the slab.
func (e *engine) deliverBroadcast(node torus.Node, h int32) {
	pkt := e.pkts[h]
	e.freePacket(h)
	if e.cfg.OnDeliver != nil {
		task := int64(-1)
		if pkt.measured {
			task = e.tasks[pkt.taskIdx].key
		}
		e.cfg.OnDeliver(DeliverEvent{
			Slot: e.now, Node: node, Birth: pkt.birth, Task: task,
			Broadcast: true, Final: true,
		})
	}
	if e.probe != nil {
		e.probe.Deliver(e.now, node, true, true, e.now-pkt.birth)
	}
	if pkt.measured {
		e.res.Reception.Add(float64(e.now - pkt.birth))
		st := &e.tasks[pkt.taskIdx]
		st.remaining--
		if st.remaining == 0 {
			e.finishTask(pkt.taskIdx)
		}
	}
	e.hopBuf = core.BroadcastForward(e.s, int(pkt.ending), int(pkt.phase), pkt.dir, int(pkt.hopsLeft), e.rng, e.hopBuf[:0])
	e.forwardHops(node, &pkt)
}

// finishTask closes the dense state slot of a measured broadcast task whose
// outstanding copies have all been delivered or lost. Fully delivered tasks
// record the broadcast delay as always; degraded tasks (lost > 0) are
// counted separately because their "last node" never receives a copy. Under
// an active fault schedule every completed task also records the fraction of
// nodes it reached.
func (e *engine) finishTask(idx int32) {
	st := &e.tasks[idx]
	if st.lost == 0 {
		e.res.Broadcast.Add(float64(e.now - st.birth))
	} else {
		e.res.DegradedTasks++
	}
	if e.faults != nil {
		total := float64(e.s.Size() - 1)
		e.res.Reachability.Add((total - float64(st.lost)) / total)
	}
	e.freeTasks = append(e.freeTasks, idx)
	e.liveTasks--
}

// dropSubtree accounts for the child hop of broadcast copy pkt that would
// cross the permanently failed link l: the child and every descendant it
// would have spawned are lost. The child covers hop.HopsLeft+1 nodes along
// its own ring, each of which would have seeded subtrees spanning all later
// phases of the task's dimension order.
func (e *engine) dropSubtree(l torus.LinkID, pkt *packet, hop core.Hop) {
	lost := int64(hop.HopsLeft) + 1
	d := e.s.Dims()
	for q := hop.Phase + 1; q < d; q++ {
		lost *= int64(e.s.Dim(core.OrderDim(d, int(pkt.ending), q)))
	}
	if e.probe != nil {
		e.probe.Fault(e.now, l, true, lost)
	}
	if !pkt.measured {
		return
	}
	e.res.LostCopies += lost
	st := &e.tasks[pkt.taskIdx]
	st.lost += int32(lost)
	st.remaining -= int32(lost)
	if st.remaining == 0 {
		e.finishTask(pkt.taskIdx)
	}
}

// forwardHops enqueues a child copy of broadcast packet pkt out of node for
// each hop in hopBuf. pkt must not point into the slab, which the children
// may grow.
func (e *engine) forwardHops(node torus.Node, pkt *packet) {
	for _, hop := range e.hopBuf {
		l := e.s.Link(node, hop.Dim, hop.Dir)
		if e.faults != nil && e.faults.Permanent(l) {
			// A broadcast copy follows a fixed tree; a permanently dead
			// edge severs its whole subtree. Transient faults merely
			// delay: the copy queues and waits for the link to heal.
			e.dropSubtree(l, pkt, hop)
			continue
		}
		h := e.newPacket()
		next := &e.pkts[h]
		*next = *pkt
		next.phase = int8(hop.Phase)
		next.dir = hop.Dir
		next.hopsLeft = int16(hop.HopsLeft)
		next.class = uint8(e.sch.BroadcastClass(hop.Dim, int(pkt.ending)))
		e.enqueue(l, hop.Dim, h)
	}
}

// enqueue queues slab packet h on link l, of dimension dim, in its class.
func (e *engine) enqueue(l torus.LinkID, dim int, h int32) {
	pkt := &e.pkts[h]
	pkt.enq = e.now
	e.queues[int(l)*e.classes+int(pkt.class)].Push(h)
	e.queued[l]++
	e.backlog++
	if e.probe != nil {
		e.probe.Enqueue(e.now, l, dim, int(pkt.class), int(e.queued[l]))
	}
	if e.busyUntil[l] <= e.now {
		e.markReady(l) // idle link gained work; examine it this slot
	}
}

// generate injects this slot's new tasks. Per-node independent Poisson
// streams are equivalent to one aggregate Poisson stream with uniformly
// random sources.
func (e *engine) generate() {
	n := float64(e.s.Size())
	measured := e.now >= e.wStart && e.now < e.wEnd
	if e.now == 0 {
		e.generateImpulse(measured)
	}
	for i := traffic.Poisson(e.rng, e.cfg.Rates.LambdaB*n); i > 0; i-- {
		e.spawnBroadcast(torus.Node(e.rng.IntN(e.s.Size())), measured)
	}
	for i := traffic.Poisson(e.rng, e.cfg.Rates.LambdaR*n); i > 0; i-- {
		src := torus.Node(e.rng.IntN(e.s.Size()))
		e.spawnUnicast(src, traffic.UniformDest(e.rng, e.s, src), measured)
	}
}

// generateImpulse injects the static communication tasks of Config at slot
// 0: ImpulseBroadcasts broadcast tasks per node and/or the total-exchange
// unicast pattern.
func (e *engine) generateImpulse(measured bool) {
	if e.cfg.SingleBroadcast {
		e.spawnBroadcast(e.cfg.SingleBroadcastSource, measured)
	}
	for k := 0; k < e.cfg.ImpulseBroadcasts; k++ {
		for u := torus.Node(0); int(u) < e.s.Size(); u++ {
			e.spawnBroadcast(u, measured)
		}
	}
	if e.cfg.ImpulseTotalExchange {
		for u := torus.Node(0); int(u) < e.s.Size(); u++ {
			for v := torus.Node(0); int(v) < e.s.Size(); v++ {
				if u != v {
					e.spawnUnicast(u, v, measured)
				}
			}
		}
	}
}

// newTask allocates a dense state slot for a measured broadcast task,
// recycling slots of completed tasks, and gives the task the next key.
func (e *engine) newTask() int32 {
	st := bcastState{birth: e.now, key: e.nextTask, remaining: int32(e.s.Size() - 1)}
	e.nextTask++
	e.liveTasks++
	if n := len(e.freeTasks); n > 0 {
		k := e.freeTasks[n-1]
		e.freeTasks = e.freeTasks[:n-1]
		e.tasks[k] = st
		return k
	}
	e.tasks = append(e.tasks, st)
	return int32(len(e.tasks) - 1)
}

func (e *engine) spawnBroadcast(src torus.Node, measured bool) {
	if e.probe != nil {
		e.probe.Spawn(e.now, true, measured)
	}
	ending := e.sch.SampleEnding(e.rng)
	pkt := packet{
		birth:    e.now,
		length:   int32(e.sampleLength()),
		kind:     kindBroadcast,
		ending:   int8(ending),
		measured: measured,
	}
	if measured {
		pkt.taskIdx = e.newTask()
		e.res.GeneratedBroadcasts++
	}
	e.hopBuf = core.BroadcastForward(e.s, ending, -1, torus.Plus, 0, e.rng, e.hopBuf[:0])
	e.forwardHops(src, &pkt)
}

func (e *engine) spawnUnicast(src, dest torus.Node, measured bool) {
	if e.probe != nil {
		e.probe.Spawn(e.now, false, measured)
	}
	h := e.newPacket()
	e.pkts[h] = packet{
		birth:    e.now,
		dest:     dest,
		tieMask:  core.SampleTieMask(e.rng, e.s.Dims()),
		length:   int32(e.sampleLength()),
		kind:     kindUnicast,
		class:    uint8(e.sch.UnicastClass()),
		measured: measured,
	}
	if measured {
		e.res.GeneratedUnicasts++
		e.res.IncompleteUnicasts++ // decremented on delivery
	}
	e.routeUnicast(src, h)
}

func (e *engine) sampleLength() int {
	l := e.cfg.Length.Sample(e.rng)
	if l >= wheelSize {
		l = wheelSize - 1
		e.res.ClampedLengths++
	}
	return l
}

// serviceReady starts a new transmission on every ready link with queued
// packets, clearing the ready bitmap as it walks it. The walk visits links
// in ascending LinkID order, which reproduces the exact service order of
// the historical full scan and keeps same-seed runs bit-identical. Nothing
// in the pass marks a link ready.
func (e *engine) serviceReady() {
	t := e.now
	b := &e.ready
	for w1, m1 := range b.l1 {
		if m1 == 0 {
			continue
		}
		b.l1[w1] = 0
		for m1 != 0 {
			w0 := w1<<6 + bits.TrailingZeros64(m1)
			m1 &= m1 - 1
			m0 := b.l0[w0]
			b.l0[w0] = 0
			for ; m0 != 0; m0 &= m0 - 1 {
				l := torus.LinkID(w0<<6 + bits.TrailingZeros64(m0))
				// A link that completed with an empty queue simply goes idle.
				if e.queued[l] != 0 {
					e.serviceLink(l, t)
				}
			}
		}
	}
}

// serviceLink starts transmitting the head-of-line packet of ready link l,
// whose queue is not empty, at slot t: the lowest nonempty class goes
// first.
func (e *engine) serviceLink(l torus.LinkID, t int64) {
	if e.faults != nil {
		if down, until := e.faults.DownUntil(l, t); down {
			// The link is failed this slot: its queue waits. A transient
			// fault schedules a wake-up for the promised recovery slot; a
			// permanent one (until < 0) never heals, so the queue is
			// abandoned (adaptive unicast avoids such links unless no
			// profitable alternative exists).
			if e.probe != nil {
				e.probe.Fault(t, l, until < 0, 0)
			}
			if until >= 0 {
				e.scheduleRecovery(l, until)
			}
			return
		}
	}
	class := 0
	q := &e.queues[int(l)*e.classes]
	for q.Len() == 0 {
		class++
		q = &e.queues[int(l)*e.classes+class]
	}
	h, _ := q.Pop()
	e.queued[l]--
	e.backlog--
	pkt := &e.pkts[h]
	if t >= e.wStart && t < e.wEnd {
		e.res.QueueWait[class].Add(float64(t - pkt.enq))
	}
	if e.probe != nil {
		e.probe.Service(t, l, int(e.linkDim[l]), class, pkt.length, t-pkt.enq)
	}
	length := int64(pkt.length)
	e.busyUntil[l] = t + length
	e.busySlots[l] += overlap(t, t+length, e.wStart, e.wEnd)
	// The handle rides in the link's inflight slot until completion; the
	// wheel carries only the link ID.
	e.inflight[l] = h
	e.wheel.add(t+length, l)
}

// overlap returns the length of [a,b) ∩ [lo,hi).
func overlap(a, b, lo, hi int64) int64 {
	if a < lo {
		a = lo
	}
	if b > hi {
		b = hi
	}
	if b <= a {
		return 0
	}
	return b - a
}

// finish converts raw counters into Result aggregates.
func (e *engine) finish() {
	e.res.IncompleteBroadcasts = e.liveTasks
	d := e.s.Dims()
	busy := make([]int64, d)
	links := make([]int64, d)
	totalBusy := int64(0)
	for l := 0; l < e.s.LinkSlots(); l++ {
		if !e.s.ValidLink(torus.LinkID(l)) {
			continue
		}
		dim := e.linkDim[l]
		busy[dim] += e.busySlots[l]
		links[dim]++
		totalBusy += e.busySlots[l]
	}
	e.res.DimUtilization = make([]float64, d)
	measure := float64(e.cfg.Measure)
	for i := 0; i < d; i++ {
		if links[i] > 0 {
			e.res.DimUtilization[i] = float64(busy[i]) / (measure * float64(links[i]))
		}
		if e.res.DimUtilization[i] > e.res.MaxDimUtilization {
			e.res.MaxDimUtilization = e.res.DimUtilization[i]
		}
	}
	e.res.AvgUtilization = float64(totalBusy) / (measure * float64(e.s.Links()))
	e.res.BacklogSlope = float64(e.res.BacklogEnd-e.res.BacklogStart) / measure
	if e.firstQCount > 0 {
		e.res.BacklogFirstQ = e.firstQSum / float64(e.firstQCount)
	}
	if e.lastQCount > 0 {
		e.res.BacklogLastQ = e.lastQSum / float64(e.lastQCount)
	}
	e.res.BacklogTrend = e.res.BacklogLastQ - e.res.BacklogFirstQ
}

// Stable heuristically reports whether the run operated below saturation:
// not truncated, and the quarter-averaged backlog trend grew by less than
// one packet per link plus half the initial backlog level over the window.
// Averaging whole quarters (rather than comparing two instants) filters the
// large stationary fluctuations of high-but-stable loads, while genuine
// saturation — which adds Theta(deficit * links) packets per slot for the
// whole window — still trips the threshold immediately.
func (r *Result) Stable(s *torus.Shape) bool {
	if r.Truncated || r.Status != StatusOK {
		return false
	}
	return r.BacklogTrend < float64(s.Links())+r.BacklogFirstQ/2
}
