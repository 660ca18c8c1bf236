// Package obs is the simulator's observability layer. The engine in
// internal/sim accepts an optional Probe and invokes it at the six
// hot-path event sites:
//
//   - Enqueue: a packet joined a link's output queue;
//   - Service: a link started transmitting a packet;
//   - Deliver: a packet finished crossing a link (a broadcast copy
//     reaching a node, or a unicast hop/final delivery);
//   - Spawn: a new broadcast or unicast task was generated;
//   - SlotEnd: a simulated slot completed, with the total backlog;
//   - Fault: a failed link blocked service or severed a broadcast
//     subtree (only fires when a fault schedule is active).
//
// When no probe is attached the engine pays exactly one nil comparison per
// site, and attaching a probe never changes the simulated trajectory: the
// engine passes values out but a probe cannot reach back into engine state
// or the RNG (guarded by the determinism tests in internal/sim). Concrete
// probes in this package measure the quantities the paper's Section 3
// analysis reasons about — per-dimension link load (Eq. 2's equal-load
// prediction), queue-depth dynamics, and priority service shares — and
// TraceWriter records the full event stream to a compact binary trace that
// cmd/trace replays.
package obs

import (
	"prioritystar/internal/stats"
	"prioritystar/internal/torus"
)

// Probe receives engine events. Implementations must be cheap: every method
// runs on the simulator hot path. A probe observes one run at a time; none
// of the probes in this package are safe for concurrent use.
type Probe interface {
	// Enqueue fires after a packet joins the class-class output queue of
	// link. dim is the link's torus dimension and depth the queue's total
	// length after the push.
	Enqueue(slot int64, link torus.LinkID, dim, class, depth int)
	// Service fires when link starts transmitting a packet: its priority
	// class, its length in slots, and the time it waited in the output
	// queue.
	Service(slot int64, link torus.LinkID, dim, class int, length int32, wait int64)
	// Deliver fires when a packet finishes crossing a link into node.
	// broadcast marks broadcast copies (final is then always true); for
	// unicast packets final marks arrival at the destination. delay is the
	// time since the task was generated.
	Deliver(slot int64, node torus.Node, broadcast, final bool, delay int64)
	// Spawn fires once per generated task; measured marks tasks born inside
	// the measurement window.
	Spawn(slot int64, broadcast, measured bool)
	// SlotEnd fires at the end of every simulated slot with the number of
	// packets queued across all links (excluding in-flight transmissions).
	SlotEnd(slot int64, backlog int64)
	// Fault fires when a failed link affects the run: a service attempt
	// found the link down (lost == 0), or a broadcast copy would have
	// crossed a permanently failed link and its subtree of lost deliveries
	// was dropped (lost > 0). permanent distinguishes permanent failures
	// from transient ones. Never fires on fault-free runs.
	Fault(slot int64, link torus.LinkID, permanent bool, lost int64)
}

// Base is a Probe whose every method is a no-op. Embed it to implement only
// the events a probe cares about.
type Base struct{}

// Enqueue implements Probe.
func (Base) Enqueue(int64, torus.LinkID, int, int, int) {}

// Service implements Probe.
func (Base) Service(int64, torus.LinkID, int, int, int32, int64) {}

// Deliver implements Probe.
func (Base) Deliver(int64, torus.Node, bool, bool, int64) {}

// Spawn implements Probe.
func (Base) Spawn(int64, bool, bool) {}

// SlotEnd implements Probe.
func (Base) SlotEnd(int64, int64) {}

// Fault implements Probe.
func (Base) Fault(int64, torus.LinkID, bool, int64) {}

// Multi fans every event out to a list of probes, in order.
type Multi []Probe

// Enqueue implements Probe.
func (m Multi) Enqueue(slot int64, link torus.LinkID, dim, class, depth int) {
	for _, p := range m {
		p.Enqueue(slot, link, dim, class, depth)
	}
}

// Service implements Probe.
func (m Multi) Service(slot int64, link torus.LinkID, dim, class int, length int32, wait int64) {
	for _, p := range m {
		p.Service(slot, link, dim, class, length, wait)
	}
}

// Deliver implements Probe.
func (m Multi) Deliver(slot int64, node torus.Node, broadcast, final bool, delay int64) {
	for _, p := range m {
		p.Deliver(slot, node, broadcast, final, delay)
	}
}

// Spawn implements Probe.
func (m Multi) Spawn(slot int64, broadcast, measured bool) {
	for _, p := range m {
		p.Spawn(slot, broadcast, measured)
	}
}

// SlotEnd implements Probe.
func (m Multi) SlotEnd(slot int64, backlog int64) {
	for _, p := range m {
		p.SlotEnd(slot, backlog)
	}
}

// Fault implements Probe.
func (m Multi) Fault(slot int64, link torus.LinkID, permanent bool, lost int64) {
	for _, p := range m {
		p.Fault(slot, link, permanent, lost)
	}
}

// Counters counts every event kind; the cheapest possible full-coverage
// probe, used by overhead benchmarks and trace replay verification.
type Counters struct {
	Enqueues   int64 `json:"enqueues"`    // Enqueue events
	Services   int64 `json:"services"`    // Service events
	Delivers   int64 `json:"delivers"`    // Deliver events (every copy and hop)
	Finals     int64 `json:"finals"`      // Deliver events with final == true
	Bcasts     int64 `json:"broadcasts"`  // Deliver events with broadcast == true
	Spawns     int64 `json:"spawns"`      // Spawn events
	Measured   int64 `json:"measured"`    // Spawn events with measured == true
	Slots      int64 `json:"slots"`       // SlotEnd events
	MaxDepth   int64 `json:"max_depth"`   // deepest single output queue seen at enqueue
	MaxQueued  int64 `json:"max_queued"`  // largest end-of-slot backlog seen
	Faults     int64 `json:"faults"`      // Fault events
	LostCopies int64 `json:"lost_copies"` // broadcast deliveries severed by permanent faults
}

// Enqueue implements Probe.
func (c *Counters) Enqueue(_ int64, _ torus.LinkID, _, _, depth int) {
	c.Enqueues++
	if int64(depth) > c.MaxDepth {
		c.MaxDepth = int64(depth)
	}
}

// Service implements Probe.
func (c *Counters) Service(int64, torus.LinkID, int, int, int32, int64) { c.Services++ }

// Deliver implements Probe.
func (c *Counters) Deliver(_ int64, _ torus.Node, broadcast, final bool, _ int64) {
	c.Delivers++
	if final {
		c.Finals++
	}
	if broadcast {
		c.Bcasts++
	}
}

// Spawn implements Probe.
func (c *Counters) Spawn(_ int64, _, measured bool) {
	c.Spawns++
	if measured {
		c.Measured++
	}
}

// SlotEnd implements Probe.
func (c *Counters) SlotEnd(_ int64, backlog int64) {
	c.Slots++
	if backlog > c.MaxQueued {
		c.MaxQueued = backlog
	}
}

// Fault implements Probe.
func (c *Counters) Fault(_ int64, _ torus.LinkID, _ bool, lost int64) {
	c.Faults++
	c.LostCopies += lost
}

// LinkLoad accumulates per-link busy slots and per-dimension service counts
// over a measurement window — the quantities the paper's balance equations
// predict. Its utilization arithmetic mirrors the engine's own
// (Result.DimUtilization), so a probe-measured dimension utilization is
// bit-identical to the engine's report for the same window.
type LinkLoad struct {
	Base
	wStart, wEnd int64
	measure      int64
	busy         []int64 // busy slots within the window, per link slot
	dimBusy      []int64
	dimServices  []int64 // services started inside the window, per dimension
	dimLinks     []int64
	links        int
}

// NewLinkLoad creates a link-load probe for shape s measuring the window
// [warmup, warmup+measure).
func NewLinkLoad(s *torus.Shape, warmup, measure int64) *LinkLoad {
	d := s.Dims()
	p := &LinkLoad{
		wStart: warmup, wEnd: warmup + measure, measure: measure,
		busy:    make([]int64, s.LinkSlots()),
		dimBusy: make([]int64, d), dimServices: make([]int64, d),
		dimLinks: make([]int64, d),
		links:    s.Links(),
	}
	for i := 0; i < d; i++ {
		p.dimLinks[i] = int64(s.Size() * s.DirsInDim(i))
	}
	return p
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

// Service implements Probe.
func (p *LinkLoad) Service(slot int64, link torus.LinkID, dim, _ int, length int32, _ int64) {
	in := overlap(slot, slot+int64(length), p.wStart, p.wEnd)
	p.busy[link] += in
	p.dimBusy[dim] += in
	if slot >= p.wStart && slot < p.wEnd {
		p.dimServices[dim]++
	}
}

// DimUtilization returns the average utilization of each dimension's links
// over the window, matching the engine's Result.DimUtilization.
func (p *LinkLoad) DimUtilization() []float64 {
	out := make([]float64, len(p.dimBusy))
	for i, b := range p.dimBusy {
		if p.dimLinks[i] > 0 {
			out[i] = float64(b) / (float64(p.measure) * float64(p.dimLinks[i]))
		}
	}
	return out
}

// AvgUtilization returns the average utilization across every link.
func (p *LinkLoad) AvgUtilization() float64 {
	total := int64(0)
	for _, b := range p.dimBusy {
		total += b
	}
	return float64(total) / (float64(p.measure) * float64(p.links))
}

// LinkUtilization returns one link's busy fraction over the window.
func (p *LinkLoad) LinkUtilization(l torus.LinkID) float64 {
	return float64(p.busy[l]) / float64(p.measure)
}

// DimLoad is one dimension's row of a link-load report.
type DimLoad struct {
	Dim         int     `json:"dim"`
	Links       int64   `json:"links"`
	Services    int64   `json:"services"`
	Utilization float64 `json:"utilization"`
}

// Report returns the per-dimension load table.
func (p *LinkLoad) Report() []DimLoad {
	util := p.DimUtilization()
	out := make([]DimLoad, len(util))
	for i := range out {
		out[i] = DimLoad{Dim: i, Links: p.dimLinks[i], Services: p.dimServices[i], Utilization: util[i]}
	}
	return out
}

// Occupancy samples queue-depth dynamics: the total backlog once per slot
// and the destination queue's depth at every enqueue.
type Occupancy struct {
	Base
	// Backlog is the end-of-slot total of queued packets (one sample per
	// simulated slot).
	Backlog stats.LogHistogram
	// Depth is the length of the receiving output queue after each push.
	Depth stats.LogHistogram
}

// Enqueue implements Probe.
func (p *Occupancy) Enqueue(_ int64, _ torus.LinkID, _, _, depth int) {
	p.Depth.Add(int64(depth))
}

// SlotEnd implements Probe.
func (p *Occupancy) SlotEnd(_ int64, backlog int64) {
	p.Backlog.Add(backlog)
}

// ServiceShare tallies how link service time is split between priority
// classes: packets served, busy slots, and queue-wait statistics per class.
type ServiceShare struct {
	Base
	served []int64
	busy   []int64
	wait   []stats.Welford
}

// Service implements Probe.
func (p *ServiceShare) Service(_ int64, _ torus.LinkID, _, class int, length int32, wait int64) {
	for class >= len(p.served) {
		p.served = append(p.served, 0)
		p.busy = append(p.busy, 0)
		p.wait = append(p.wait, stats.Welford{})
	}
	p.served[class]++
	p.busy[class] += int64(length)
	p.wait[class].Add(float64(wait))
}

// ClassShare is one priority class's slice of the service effort.
type ClassShare struct {
	Class     int     `json:"class"`
	Served    int64   `json:"served"`
	BusySlots int64   `json:"busy_slots"`
	Share     float64 `json:"share"` // fraction of all busy slots
	WaitMean  float64 `json:"wait_mean"`
	WaitMax   float64 `json:"wait_max"`
}

// Shares returns the per-class service breakdown, ordered by class.
func (p *ServiceShare) Shares() []ClassShare {
	total := int64(0)
	for _, b := range p.busy {
		total += b
	}
	out := make([]ClassShare, len(p.served))
	for c := range out {
		out[c] = ClassShare{
			Class: c, Served: p.served[c], BusySlots: p.busy[c],
			WaitMean: p.wait[c].Mean(), WaitMax: p.wait[c].Max(),
		}
		if total > 0 {
			out[c].Share = float64(p.busy[c]) / float64(total)
		}
	}
	return out
}

// Standard bundles the standard metric probes — link load, occupancy,
// service share, and event counters — behind a single Probe with direct
// dispatch (no Multi indirection on the hot path).
type Standard struct {
	Load  *LinkLoad
	Occ   *Occupancy
	Share *ServiceShare
	Count *Counters
}

// NewStandard creates the standard probe bundle for shape s and the
// measurement window [warmup, warmup+measure).
func NewStandard(s *torus.Shape, warmup, measure int64) *Standard {
	return &Standard{
		Load:  NewLinkLoad(s, warmup, measure),
		Occ:   &Occupancy{},
		Share: &ServiceShare{},
		Count: &Counters{},
	}
}

// Enqueue implements Probe.
func (p *Standard) Enqueue(slot int64, link torus.LinkID, dim, class, depth int) {
	p.Occ.Enqueue(slot, link, dim, class, depth)
	p.Count.Enqueue(slot, link, dim, class, depth)
}

// Service implements Probe.
func (p *Standard) Service(slot int64, link torus.LinkID, dim, class int, length int32, wait int64) {
	p.Load.Service(slot, link, dim, class, length, wait)
	p.Share.Service(slot, link, dim, class, length, wait)
	p.Count.Service(slot, link, dim, class, length, wait)
}

// Deliver implements Probe.
func (p *Standard) Deliver(slot int64, node torus.Node, broadcast, final bool, delay int64) {
	p.Count.Deliver(slot, node, broadcast, final, delay)
}

// Spawn implements Probe.
func (p *Standard) Spawn(slot int64, broadcast, measured bool) {
	p.Count.Spawn(slot, broadcast, measured)
}

// SlotEnd implements Probe.
func (p *Standard) SlotEnd(slot int64, backlog int64) {
	p.Occ.SlotEnd(slot, backlog)
	p.Count.SlotEnd(slot, backlog)
}

// Fault implements Probe.
func (p *Standard) Fault(slot int64, link torus.LinkID, permanent bool, lost int64) {
	p.Count.Fault(slot, link, permanent, lost)
}

// HistSummary condenses a LogHistogram for JSON reports.
type HistSummary struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	P50   int64   `json:"p50"`
	P90   int64   `json:"p90"`
	P99   int64   `json:"p99"`
	Max   int64   `json:"max"`
}

// SummarizeLog extracts the headline numbers of a LogHistogram.
func SummarizeLog(h *stats.LogHistogram) HistSummary {
	return HistSummary{
		Count: h.Count(), Mean: h.Mean(),
		P50: h.Quantile(0.5), P90: h.Quantile(0.9), P99: h.Quantile(0.99),
		Max: h.Max(),
	}
}

// MetricsReport is the JSON document `starsim -metrics-json` emits: the run
// manifest plus everything the standard probe bundle measured. Result is
// filled by the caller with the engine's own aggregates (delay means,
// utilization) so the two measurement paths can be cross-checked.
type MetricsReport struct {
	Manifest   Manifest           `json:"manifest"`
	DimLoad    []DimLoad          `json:"dim_load"`
	Backlog    HistSummary        `json:"backlog_per_slot"`
	QueueDepth HistSummary        `json:"queue_depth_on_enqueue"`
	Shares     []ClassShare       `json:"service_share"`
	Counters   *Counters          `json:"counters"`
	Result     map[string]float64 `json:"result,omitempty"`
}

// Report assembles the bundle's measurements into a MetricsReport.
func (p *Standard) Report(m Manifest) *MetricsReport {
	return &MetricsReport{
		Manifest:   m,
		DimLoad:    p.Load.Report(),
		Backlog:    SummarizeLog(&p.Occ.Backlog),
		QueueDepth: SummarizeLog(&p.Occ.Depth),
		Shares:     p.Share.Shares(),
		Counters:   p.Count,
	}
}
