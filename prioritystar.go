// Package prioritystar reproduces "A Priority-based Balanced Routing Scheme
// for Random Broadcasting and Routing in Tori" (Yeh, Varvarigos, Eshoul;
// ICPP 2003): the priority STAR routing scheme for dynamic broadcasting and
// unicast routing in general tori, n-ary d-cubes, and hypercubes, together
// with the slotted store-and-forward network simulator, traffic balancer,
// baselines, and experiment harness used to regenerate every figure of the
// paper's evaluation.
//
// # Quick start
//
//	shape, _ := prioritystar.NewTorus(8, 8)
//	rates, _ := prioritystar.RatesForRho(shape, 0.8, 1, 1, prioritystar.ExactDistance)
//	scheme, _ := prioritystar.PrioritySTAR(shape, rates, prioritystar.ExactDistance)
//	result, _ := prioritystar.Simulate(prioritystar.SimConfig{
//		Shape: shape, Scheme: scheme, Rates: rates,
//		Warmup: 2000, Measure: 10000, Drain: 4000,
//	})
//	fmt.Println("avg reception delay:", result.Reception.Mean())
//
// Predefined experiments reproduce the paper's figures:
//
//	exp, _ := prioritystar.Figure("fig2+5", prioritystar.Standard)
//	res, _ := exp.Run()
//	fmt.Println(res.Table(prioritystar.MetricReception)) // Fig. 2
//	fmt.Println(res.Table(prioritystar.MetricBroadcast)) // Fig. 5
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for measured
// results against the paper's claims.
package prioritystar

import (
	"prioritystar/internal/analysis"
	"prioritystar/internal/balance"
	"prioritystar/internal/cli"
	"prioritystar/internal/core"
	"prioritystar/internal/fault"
	"prioritystar/internal/finite"
	"prioritystar/internal/obs"
	"prioritystar/internal/sim"
	"prioritystar/internal/static"
	"prioritystar/internal/sweep"
	"prioritystar/internal/torus"
	"prioritystar/internal/traffic"
)

// Topology types.
type (
	// Shape is an n1 x n2 x ... x nd torus topology.
	Shape = torus.Shape
	// Node identifies a torus node.
	Node = torus.Node
	// Dir is a ring direction (Plus or Minus).
	Dir = torus.Dir
	// LinkID identifies a directed link.
	LinkID = torus.LinkID
)

// Scheme and traffic types.
type (
	// Scheme is a resolved routing configuration: rotation vector plus
	// priority discipline.
	Scheme = core.Scheme
	// Discipline selects the queueing priority structure.
	Discipline = core.Discipline
	// Rotation selects the ending-dimension policy.
	Rotation = core.Rotation
	// TreeNode is one node of an enumerated STAR broadcast tree.
	TreeNode = core.TreeNode
	// Rates holds per-node broadcast/unicast arrival rates.
	Rates = traffic.Rates
	// LengthDist is a packet-length distribution.
	LengthDist = traffic.LengthDist
	// DistanceModel selects exact or paper-floor unicast distances.
	DistanceModel = balance.DistanceModel
	// Vector is an ending-dimension probability vector with feasibility.
	Vector = balance.Vector
)

// Simulation and experiment types.
type (
	// SimConfig configures one simulation run.
	SimConfig = sim.Config
	// SimResult holds one run's measured statistics.
	SimResult = sim.Result
	// SimRunner executes simulations while reusing internal buffers
	// across runs; give each worker goroutine its own.
	SimRunner = sim.Runner
	// DeliverEvent is the payload of SimConfig.OnDeliver tracing hooks.
	DeliverEvent = sim.DeliverEvent
	// Probe observes engine events when set on SimConfig.Probe; nil costs
	// nothing on the hot path.
	Probe = obs.Probe
	// StandardProbes bundles the link-load, occupancy, and service-share
	// probes behind one Probe.
	StandardProbes = obs.Standard
	// RunManifest identifies a recorded run (shape, scheme, seed, rates,
	// horizon, git revision) alongside metrics and trace files.
	RunManifest = obs.Manifest
	// CappedMetric selects the delay a DelayCappedThroughput search bounds.
	CappedMetric = sweep.CappedMetric
	// Experiment is a replicated sweep over throughput factors.
	Experiment = sweep.Experiment
	// ExperimentResult is a completed sweep.
	ExperimentResult = sweep.Result
	// SchemeSpec names a scheme configuration under comparison.
	SchemeSpec = sweep.SchemeSpec
	// Metric selects which aggregate a table reports.
	Metric = sweep.Metric
	// Scale selects predefined-experiment effort.
	Scale = sweep.Scale
	// FaultSchedule describes deterministic link/node failures to inject
	// into a run (SimConfig.Faults, Experiment.Faults).
	FaultSchedule = fault.Schedule
	// Guard configures the divergence watchdog and wall-clock limits.
	Guard = sim.Guard
	// RunStatus reports how a simulation ended (ok, truncated, diverged,
	// or timeout).
	RunStatus = sim.Status
)

// Ring directions.
const (
	Plus  = torus.Plus
	Minus = torus.Minus
)

// Priority disciplines.
const (
	FCFS       = core.FCFS
	TwoLevel   = core.TwoLevel
	ThreeLevel = core.ThreeLevel
)

// Rotation policies.
const (
	BalancedRotation = core.BalancedRotation
	UniformRotation  = core.UniformRotation
	FixedEnding      = core.FixedEnding
)

// Distance models for Eq. 4 balancing.
const (
	ExactDistance      = balance.ExactDistance
	PaperFloorDistance = balance.PaperFloorDistance
)

// Experiment scales.
const (
	Quick    = sweep.Quick
	Standard = sweep.Standard
	Full     = sweep.Full
)

// Run statuses.
const (
	StatusOK        = sim.StatusOK
	StatusTruncated = sim.StatusTruncated
	StatusDiverged  = sim.StatusDiverged
	StatusTimeout   = sim.StatusTimeout
)

// Table metrics.
const (
	MetricReception  = sweep.MetricReception
	MetricBroadcast  = sweep.MetricBroadcast
	MetricUnicast    = sweep.MetricUnicast
	MetricHighWait   = sweep.MetricHighWait
	MetricLowWait    = sweep.MetricLowWait
	MetricAvgUtil    = sweep.MetricAvgUtil
	MetricMaxDimUtil = sweep.MetricMaxDimUtil
)

// Predefined scheme specifications (the paper's comparisons).
var (
	PrioritySTARSpec  = sweep.PrioritySTARSpec
	PrioritySTAR3Spec = sweep.PrioritySTAR3Spec
	FCFSDirectSpec    = sweep.FCFSDirectSpec
	DimOrderSpec      = sweep.DimOrderSpec
	SeparateSpec      = sweep.SeparateSpec
	SeparatePrioSpec  = sweep.SeparatePrioSpec
)

// NewTorus constructs a general n1 x n2 x ... x nd torus.
func NewTorus(dims ...int) (*Shape, error) { return torus.New(dims...) }

// NAryDCube constructs the symmetric n-ary d-cube.
func NAryDCube(n, d int) (*Shape, error) { return torus.NAryDCube(n, d) }

// Hypercube constructs the d-dimensional binary hypercube (2-ary d-cube).
func Hypercube(d int) (*Shape, error) { return torus.Hypercube(d) }

// RatesForRho returns the arrival rates that produce throughput factor rho
// on shape s when broadcastFrac of the transmission load comes from
// broadcasts and packets have the given mean length.
func RatesForRho(s *Shape, rho, broadcastFrac, meanLen float64, m DistanceModel) (Rates, error) {
	return traffic.RatesForRho(s, rho, broadcastFrac, meanLen, m)
}

// FixedLength returns the constant packet-length distribution.
func FixedLength(n int) LengthDist { return traffic.FixedLength(n) }

// GeometricLength returns the geometric packet-length distribution with the
// given mean.
func GeometricLength(mean float64) LengthDist { return traffic.GeometricLength(mean) }

// NewScheme resolves an arbitrary (discipline, rotation) combination.
func NewScheme(s *Shape, d Discipline, r Rotation, rates Rates, m DistanceModel) (*Scheme, error) {
	return core.NewScheme(s, d, r, rates, m)
}

// PrioritySTAR builds the paper's proposed scheme: balanced rotation with
// two-level priority.
func PrioritySTAR(s *Shape, rates Rates, m DistanceModel) (*Scheme, error) {
	return core.PrioritySTAR(s, rates, m)
}

// PrioritySTAR3 builds the three-level heterogeneous variant of Section 4.
func PrioritySTAR3(s *Shape, rates Rates, m DistanceModel) (*Scheme, error) {
	return core.PrioritySTAR3(s, rates, m)
}

// STARFCFS builds the FCFS baseline with balanced rotation (the FCFS
// generalization of the direct scheme in [12]).
func STARFCFS(s *Shape, rates Rates, m DistanceModel) (*Scheme, error) {
	return core.STARFCFS(s, rates, m)
}

// DimOrderFCFS builds classical dimension-ordered FCFS broadcast.
func DimOrderFCFS(s *Shape) (*Scheme, error) { return core.DimOrderFCFS(s) }

// Simulate executes one simulation run.
func Simulate(cfg SimConfig) (*SimResult, error) { return sim.Run(cfg) }

// DefaultGuard returns watchdog thresholds sized for shape s: runs whose
// backlog crosses a multiple of the link count, or grows monotonically
// across consecutive windows, end early with StatusDiverged.
func DefaultGuard(s *Shape) Guard { return sim.DefaultGuard(s) }

// ParseFaults parses the CLI fault-schedule syntax, e.g.
// "perm:2,link:5,node:3,trans:500/50,seed:7". Empty input yields a nil
// (fault-free) schedule.
func ParseFaults(s string) (*FaultSchedule, error) { return cli.ParseFaults(s) }

// NewStandardProbes builds the standard observability bundle for one run
// measuring [warmup, warmup+measure).
func NewStandardProbes(s *Shape, warmup, measure int64) *StandardProbes {
	return obs.NewStandard(s, warmup, measure)
}

// Figure returns a predefined experiment reproducing the given paper figure
// (see FigureIDs for the catalogue).
func Figure(id string, scale Scale) (*Experiment, error) { return sweep.Figure(id, scale) }

// FigureIDs lists the predefined experiment IDs.
func FigureIDs() []string { return sweep.FigureIDs() }

// BalanceBroadcastOnly solves the paper's Eq. (2) for shape s.
func BalanceBroadcastOnly(s *Shape) (Vector, error) { return balance.BroadcastOnly(s) }

// BalanceHeterogeneous solves the paper's Eq. (4) for the given traffic.
func BalanceHeterogeneous(s *Shape, lambdaB, lambdaR float64, m DistanceModel) (Vector, error) {
	return balance.Heterogeneous(s, lambdaB, lambdaR, m)
}

// MaxThroughput predicts the maximum throughput factor achievable with
// ending-dimension vector x under the given traffic mix.
func MaxThroughput(s *Shape, x []float64, lambdaB, lambdaR float64, m DistanceModel) float64 {
	return balance.MaxThroughput(s, x, lambdaB, lambdaR, m)
}

// BroadcastTree enumerates the spanning tree of one STAR broadcast (used by
// visualizations and tests; pass a nil rng for the deterministic split).
func BroadcastTree(sch *Scheme, source Node, ending int) []TreeNode {
	return core.BroadcastTree(sch, source, ending, nil)
}

// Delay metrics for DelayCappedThroughput.
const (
	CapReception = sweep.CapReception
	CapBroadcast = sweep.CapBroadcast
	CapUnicast   = sweep.CapUnicast
)

// DelayCappedThroughput estimates the largest throughput factor at which a
// scheme keeps the chosen average delay at or below maxDelay (the Section
// 3.2 delay-budget comparison).
func DelayCappedThroughput(dims []int, spec SchemeSpec, broadcastFrac float64,
	m DistanceModel, metric CappedMetric, maxDelay float64,
	probeSlots int64, seed uint64, lo, hi, tol float64) (float64, error) {
	return sweep.DelayCappedThroughput(dims, spec, broadcastFrac, m, metric, maxDelay,
		probeSlots, seed, lo, hi, tol)
}

// StabilitySearch estimates a scheme's maximum stable throughput factor by
// bisection with short probe simulations.
func StabilitySearch(dims []int, spec SchemeSpec, broadcastFrac float64, m DistanceModel,
	probeSlots int64, reps int, seed uint64, lo, hi, tol float64) (float64, error) {
	return sweep.StabilitySearch(dims, spec, broadcastFrac, m, probeSlots, reps, seed, lo, hi, tol)
}

// ReceptionLowerBound returns the oblivious lower bound Omega(d + 1/(1-rho))
// on average reception delay, instantiated for shape s.
func ReceptionLowerBound(s *Shape, rho float64) float64 {
	return analysis.ReceptionLowerBound(s, rho)
}

// BroadcastLowerBound returns the corresponding broadcast-delay bound.
func BroadcastLowerBound(s *Shape, rho float64) float64 {
	return analysis.BroadcastLowerBound(s, rho)
}

// MD1Wait is the M/D/1 mean waiting time rho/(2(1-rho)), the queueing term
// of the paper's delay bounds.
func MD1Wait(rho float64) float64 { return analysis.MD1Wait(rho) }

// Static communication tasks (the paper's introduction: single broadcast,
// multinode broadcast, total exchange).
type (
	// StaticTask identifies a static communication task.
	StaticTask = static.Task
	// StaticResult reports a static task's makespan against its bound.
	StaticResult = static.Result
)

// The static tasks.
const (
	SingleBroadcast    = static.SingleBroadcast
	MultinodeBroadcast = static.MultinodeBroadcast
	TotalExchange      = static.TotalExchange
)

// RunStatic executes a static communication task as a slot-0 impulse and
// measures its makespan against the classical lower bound.
func RunStatic(s *Shape, sch *Scheme, t StaticTask, seed uint64) (*StaticResult, error) {
	return static.Run(s, sch, t, seed)
}

// StaticLowerBound returns the diameter/bandwidth makespan bound for a
// static task on shape s.
func StaticLowerBound(s *Shape, t StaticTask) int64 { return static.LowerBound(s, t) }

// Finite-buffer engine (Section 3.1's virtual-channel deadlock dimension).
type (
	// FiniteConfig configures a finite-buffer, credit-backpressured run.
	FiniteConfig = finite.Config
	// FiniteResult reports deliveries, delays, and deadlock detection.
	FiniteResult = finite.Result
	// Flow is a preloaded unicast demand for finite-buffer runs.
	Flow = finite.Flow
)

// SimulateFinite runs the finite-buffer engine: with VCs = 2 the SDC
// dateline rule keeps wraparound rings deadlock-free; with VCs = 1 the
// engine detects the classical store-and-forward deadlock.
func SimulateFinite(cfg FiniteConfig) (*FiniteResult, error) { return finite.Run(cfg) }
