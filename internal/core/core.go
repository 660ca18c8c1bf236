// Package core implements the paper's primary contribution: the STAR
// (Single-To-All Rotation) broadcast scheme, its priority discipline
// (priority STAR), and the shortest-path unicast routing that shares the
// network with it (Sections 3 and 4 of the paper).
//
// A STAR broadcast with ending dimension l covers dimensions in the rotated
// order l+1, ..., d-1, 0, ..., l. Covering a dimension means a nested ring
// broadcast: every node that already holds the packet sends it around its
// ring in both directions, one direction covering ceil((n-1)/2) nodes and
// the other floor((n-1)/2). The nonidling all-port variant simulated here
// forwards every copy as soon as its link is free, so a node that receives a
// copy while covering dimension p immediately initiates the ring broadcasts
// of all later dimensions in the order.
//
// Priority STAR assigns low priority to copies that traverse links of the
// ending dimension and high priority to everything else; the heterogeneous
// disciplines of Section 4 add unicast packets at high (2-level) or medium
// (3-level) priority.
package core

import (
	"fmt"
	"math/rand/v2"

	"prioritystar/internal/balance"
	"prioritystar/internal/torus"
	"prioritystar/internal/traffic"
)

// Discipline selects the queueing priority structure at the routers.
type Discipline int

const (
	// FCFS serves all packets in one first-come first-served class; with
	// balanced rotation this models the FCFS generalization of the direct
	// scheme of Stamoulis and Tsitsiklis that the paper's figures compare
	// against.
	FCFS Discipline = iota
	// TwoLevel is the priority STAR discipline: broadcast copies on
	// ending-dimension links are low priority, every other packet
	// (including unicast) is high priority. Section 4's first variant.
	TwoLevel
	// ThreeLevel refines TwoLevel for heterogeneous traffic: non-ending
	// broadcast copies high, unicast medium, ending-dimension copies low.
	// Section 4's second variant.
	ThreeLevel
)

// String names the discipline.
func (d Discipline) String() string {
	switch d {
	case FCFS:
		return "fcfs"
	case TwoLevel:
		return "2-level"
	case ThreeLevel:
		return "3-level"
	default:
		return fmt.Sprintf("discipline(%d)", int(d))
	}
}

// Classes returns the number of priority classes the discipline uses.
func (d Discipline) Classes() int {
	switch d {
	case FCFS:
		return 1
	case TwoLevel:
		return 2
	case ThreeLevel:
		return 3
	default:
		panic(fmt.Sprintf("core: unknown discipline %d", int(d)))
	}
}

// Rotation selects how broadcasts choose their ending dimension.
type Rotation int

const (
	// BalancedRotation draws the ending dimension from the probability
	// vector that balances the offered load (Eq. 2 or Eq. 4).
	BalancedRotation Rotation = iota
	// UniformRotation draws uniformly (1/d); optimal only for symmetric
	// tori, and the paper's model of schemes that ignore unicast load.
	UniformRotation
	// FixedEnding always uses dimension d-1, i.e. classical
	// dimension-ordered broadcast with no rotation; its maximum throughput
	// collapses as Section 1 describes.
	FixedEnding
)

// String names the rotation policy.
func (r Rotation) String() string {
	switch r {
	case BalancedRotation:
		return "balanced"
	case UniformRotation:
		return "uniform"
	case FixedEnding:
		return "fixed"
	default:
		return fmt.Sprintf("rotation(%d)", int(r))
	}
}

// Scheme bundles the routing decisions of one experiment configuration: the
// ending-dimension distribution and the priority discipline.
type Scheme struct {
	Shape      *torus.Shape
	Discipline Discipline
	Rotation   Rotation
	// Vector is the resolved ending-dimension distribution (cumulative
	// sampling uses it directly). For UniformRotation it is 1/d everywhere;
	// for FixedEnding it is a point mass on dimension d-1.
	Vector balance.Vector

	cumulative []float64
}

// NewScheme resolves a scheme for the given traffic mix. The balance vector
// is computed from the rates via Eq. (4) (which reduces to Eq. (2) for
// broadcast-only traffic) using the supplied distance model.
func NewScheme(s *torus.Shape, disc Discipline, rot Rotation, rates traffic.Rates, m balance.DistanceModel) (*Scheme, error) {
	disc.Classes() // validate (panics on unknown values)
	sch := &Scheme{Shape: s, Discipline: disc, Rotation: rot}
	d := s.Dims()
	switch rot {
	case BalancedRotation:
		v, err := balance.Heterogeneous(s, rates.LambdaB, rates.LambdaR, m)
		if err != nil {
			return nil, err
		}
		sch.Vector = v
	case UniformRotation:
		sch.Vector = balance.Uniform(d)
	case FixedEnding:
		x := make([]float64, d)
		x[d-1] = 1
		sch.Vector = balance.Vector{X: x, Feasible: true}
	default:
		return nil, fmt.Errorf("core: unknown rotation %d", int(rot))
	}
	sch.cumulative = make([]float64, d)
	sum := 0.0
	for i, x := range sch.Vector.X {
		sum += x
		sch.cumulative[i] = sum
	}
	sch.cumulative[d-1] = 1 // absorb floating-point slack
	return sch, nil
}

// PrioritySTAR is the paper's proposed scheme: balanced rotation with the
// two-level priority discipline.
func PrioritySTAR(s *torus.Shape, rates traffic.Rates, m balance.DistanceModel) (*Scheme, error) {
	return NewScheme(s, TwoLevel, BalancedRotation, rates, m)
}

// PrioritySTAR3 is priority STAR with the three-level heterogeneous
// discipline of Section 4.
func PrioritySTAR3(s *torus.Shape, rates traffic.Rates, m balance.DistanceModel) (*Scheme, error) {
	return NewScheme(s, ThreeLevel, BalancedRotation, rates, m)
}

// STARFCFS is balanced rotation with FCFS service: the paper's baseline
// (the FCFS generalization of the direct scheme in [12]).
func STARFCFS(s *torus.Shape, rates traffic.Rates, m balance.DistanceModel) (*Scheme, error) {
	return NewScheme(s, FCFS, BalancedRotation, rates, m)
}

// DimOrderFCFS is classical dimension-ordered broadcast with FCFS service
// and no rotation.
func DimOrderFCFS(s *torus.Shape) (*Scheme, error) {
	return NewScheme(s, FCFS, FixedEnding, traffic.Rates{}, balance.ExactDistance)
}

// String describes the scheme.
func (sch *Scheme) String() string {
	return fmt.Sprintf("%s rotation, %s", sch.Rotation, sch.Discipline)
}

// SampleEnding draws an ending dimension from the scheme's vector.
func (sch *Scheme) SampleEnding(rng *rand.Rand) int {
	u := rng.Float64()
	for i, c := range sch.cumulative {
		if u < c {
			return i
		}
	}
	return len(sch.cumulative) - 1
}

// BroadcastClass returns the priority class (0 = highest) of a broadcast
// copy transmitted on a link of dimension dim for a task with the given
// ending dimension.
func (sch *Scheme) BroadcastClass(dim, ending int) int {
	switch sch.Discipline {
	case TwoLevel:
		if dim == ending {
			return 1
		}
		return 0
	case ThreeLevel:
		if dim == ending {
			return 2
		}
		return 0
	default:
		return 0
	}
}

// UnicastClass returns the priority class of unicast packets.
func (sch *Scheme) UnicastClass() int {
	if sch.Discipline == ThreeLevel {
		return 1
	}
	return 0
}

// VirtualChannel returns the SDC virtual-channel label of a broadcast hop:
// dimensions visited before the wraparound of the rotated order (dim >
// ending) ride VC 1 and the rest ride VC 2, the deadlock-freedom rule of
// Section 3.1. Under store-and-forward with unbounded queues the label does
// not affect dynamics; it is exposed for fidelity and tested for
// consistency with the paper's rule.
func VirtualChannel(dim, ending int) uint8 {
	if dim > ending {
		return 1
	}
	return 2
}

// RingInit describes one direction of a ring broadcast initiation: the
// first hop's direction and how many nodes the copy must still serve after
// the first delivery.
type RingInit struct {
	Dir      torus.Dir
	HopsLeft int // further hops after the first delivery (total = HopsLeft+1)
}

// RingInitiations returns the copies a node emits to cover its ring of
// length n (excluding itself): one or two directed copies serving n-1 nodes
// in total, ceil((n-1)/2) one way and floor((n-1)/2) the other. Which
// direction receives the extra node is randomized (rng may be nil for the
// deterministic plus-heavy split) so that opposite links stay balanced for
// even n. For n = 2 a single Plus copy is emitted, matching the hypercube's
// single link per dimension.
func RingInitiations(n int, rng *rand.Rand) []RingInit {
	first, second, count := ringSplit(n, rng)
	switch count {
	case 0:
		return nil
	case 1:
		return []RingInit{first}
	default:
		return []RingInit{first, second}
	}
}

// ringSplit is the allocation-free core of RingInitiations, used directly
// by the simulator's hot path.
func ringSplit(n int, rng *rand.Rand) (first, second RingInit, count int) {
	total := n - 1
	if total <= 0 {
		return RingInit{}, RingInit{}, 0
	}
	a := (total + 1) / 2 // nodes served by the first direction
	b := total / 2
	d1, d2 := torus.Plus, torus.Minus
	if n > 2 && a != b && rng != nil && rng.IntN(2) == 1 {
		d1, d2 = d2, d1
	}
	first = RingInit{Dir: d1, HopsLeft: a - 1}
	if b == 0 {
		return first, RingInit{}, 1
	}
	return first, RingInit{Dir: d2, HopsLeft: b - 1}, 2
}

// Hop is one broadcast copy to transmit: the ring-broadcast phase it
// belongs to (index into the rotated dimension order), its link dimension
// and direction, and the hops remaining after its next delivery.
type Hop struct {
	Phase    int
	Dim      int
	Dir      torus.Dir
	HopsLeft int
}

// BroadcastForward computes the copies a node transmits when it obtains a
// broadcast packet with the given ending dimension:
//
//   - the source calls it with phase = -1 (it initiates every phase);
//   - a node that received the copy during phase p with h hops remaining
//     calls it with (p, h): the ring continues if h > 0, and the node
//     initiates the ring broadcasts of phases p+1, ..., d-1.
//
// dir is the direction the copy was travelling in (ignored for the source).
// ending must lie in [0, d) and phase in [-1, d). The returned hops are
// appended to buf to avoid allocation in the simulator's hot path.
func BroadcastForward(s *torus.Shape, ending, phase int, dir torus.Dir, hopsLeft int, rng *rand.Rand, buf []Hop) []Hop {
	d := s.Dims()
	// dim walks the rotated order, orderDim(d, ending, q) for q = phase,
	// phase+1, ...; ending+1+phase < 2d, so one subtraction wraps it.
	dim := ending + 1 + phase
	if dim >= d {
		dim -= d
	}
	if phase >= 0 && hopsLeft > 0 {
		buf = append(buf, Hop{
			Phase:    phase,
			Dim:      dim,
			Dir:      dir,
			HopsLeft: hopsLeft - 1,
		})
	}
	for q := phase + 1; q < d; q++ {
		if dim++; dim == d {
			dim = 0
		}
		first, second, count := ringSplit(s.Dim(dim), rng)
		if count >= 1 {
			buf = append(buf, Hop{Phase: q, Dim: dim, Dir: first.Dir, HopsLeft: first.HopsLeft})
		}
		if count == 2 {
			buf = append(buf, Hop{Phase: q, Dim: dim, Dir: second.Dir, HopsLeft: second.HopsLeft})
		}
	}
	return buf
}

// orderDim returns the dimension at position p of the rotated order for the
// given ending dimension: (ending+1+p) mod d.
func orderDim(d, ending, p int) int { return (ending + 1 + p) % d }

// OrderDim exposes orderDim for tests and visualization tools.
func OrderDim(d, ending, p int) int { return orderDim(d, ending, p) }

// UnicastNextHop returns the next link a unicast packet takes from cur
// toward dest: the first dimension (in index order) whose coordinates
// differ, traversed in the shorter ring direction. When the offset is
// exactly n/2 both directions are shortest and the packet's tie mask (bit
// per dimension, drawn at generation time) decides, keeping opposite links
// statistically balanced. done is true when cur == dest.
func UnicastNextHop(s *torus.Shape, cur, dest torus.Node, tieMask uint32) (dim int, dir torus.Dir, done bool) {
	for i := 0; i < s.Dims(); i++ {
		off := s.RingOffset(cur, dest, i)
		if off == 0 {
			continue
		}
		n := s.Dim(i)
		switch {
		case n == 2:
			return i, torus.Plus, false
		case 2*off < n:
			return i, torus.Plus, false
		case 2*off > n:
			return i, torus.Minus, false
		case tieMask&(1<<uint(i)) != 0:
			return i, torus.Minus, false
		default:
			return i, torus.Plus, false
		}
	}
	return 0, torus.Plus, true
}

// UnicastNextHopAdaptive is the minimal-adaptive variant of UnicastNextHop
// used when links can fail: it returns the first profitable hop (a dimension
// with a nonzero offset, traversed in a shortest direction) whose link is not
// rejected by down. When the offset is exactly n/2 both directions are
// shortest, so the non-preferred direction is tried before moving to the
// next profitable dimension. When every profitable hop is down, the
// preferred hop is returned with live == false and the caller waits on it
// (packets never take non-minimal detours). done is true when cur == dest.
func UnicastNextHopAdaptive(s *torus.Shape, cur, dest torus.Node, tieMask uint32,
	down func(dim int, dir torus.Dir) bool) (dim int, dir torus.Dir, live, done bool) {
	havePref := false
	var prefDim int
	var prefDir torus.Dir
	for i := 0; i < s.Dims(); i++ {
		off := s.RingOffset(cur, dest, i)
		if off == 0 {
			continue
		}
		n := s.Dim(i)
		d := torus.Plus
		tie := false
		switch {
		case n == 2 || 2*off < n:
		case 2*off > n:
			d = torus.Minus
		case tieMask&(1<<uint(i)) != 0:
			d, tie = torus.Minus, true
		default:
			tie = true
		}
		if !havePref {
			havePref, prefDim, prefDir = true, i, d
		}
		if !down(i, d) {
			return i, d, true, false
		}
		if tie && !down(i, -d) {
			return i, -d, true, false
		}
	}
	if !havePref {
		return 0, torus.Plus, false, true
	}
	return prefDim, prefDir, false, false
}

// SampleTieMask draws one random tie-breaking bit per dimension.
func SampleTieMask(rng *rand.Rand, dims int) uint32 {
	if dims > 32 {
		panic(fmt.Sprintf("core: %d dimensions exceed the 32-bit tie mask", dims))
	}
	return rng.Uint32() & (1<<uint(dims) - 1)
}

// TreeNode is one node's position in an enumerated STAR broadcast tree.
type TreeNode struct {
	Parent torus.Node // parent in the tree (source's parent is itself)
	Depth  int        // hop distance from the source along the tree
	Phase  int        // phase of the ring broadcast that delivered the copy
	Dim    int        // dimension of the delivering link (-1 for the source)
	Class  int        // priority class of the delivering transmission
}

// BroadcastTree enumerates the full spanning tree of a STAR broadcast from
// source with the given ending dimension, using the deterministic
// plus-heavy ring split when rng is nil. It is used by tests (coverage and
// transmission-count invariants) and by the Fig. 1 visualization.
func BroadcastTree(sch *Scheme, source torus.Node, ending int, rng *rand.Rand) []TreeNode {
	s := sch.Shape
	tree := make([]TreeNode, s.Size())
	for i := range tree {
		tree[i].Dim = -1
		tree[i].Parent = torus.Node(-1)
	}
	tree[source] = TreeNode{Parent: source, Depth: 0, Phase: -1, Dim: -1, Class: -1}

	type copyState struct {
		at       torus.Node
		phase    int
		dir      torus.Dir
		hopsLeft int
	}
	var frontier []copyState
	expand := func(at torus.Node, phase, hopsLeft int, dir torus.Dir) {
		for _, h := range BroadcastForward(s, ending, phase, dir, hopsLeft, rng, nil) {
			frontier = append(frontier, copyState{at: at, phase: h.Phase, dir: h.Dir, hopsLeft: h.HopsLeft})
		}
	}
	expand(source, -1, 0, torus.Plus)
	for len(frontier) > 0 {
		c := frontier[0]
		frontier = frontier[1:]
		next := s.Neighbor(c.at, orderDim(s.Dims(), ending, c.phase), c.dir)
		dim := orderDim(s.Dims(), ending, c.phase)
		if tree[next].Parent != torus.Node(-1) {
			panic(fmt.Sprintf("core: node %d received a second copy (tree not a spanning tree)", next))
		}
		tree[next] = TreeNode{
			Parent: c.at,
			Depth:  tree[c.at].Depth + 1,
			Phase:  c.phase,
			Dim:    dim,
			Class:  sch.BroadcastClass(dim, ending),
		}
		expand(next, c.phase, c.hopsLeft, c.dir)
	}
	return tree
}
