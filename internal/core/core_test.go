package core

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"prioritystar/internal/balance"
	"prioritystar/internal/torus"
	"prioritystar/internal/traffic"
)

func mustScheme(t *testing.T, s *torus.Shape, d Discipline, r Rotation) *Scheme {
	t.Helper()
	sch, err := NewScheme(s, d, r, traffic.Rates{LambdaB: 1}, balance.ExactDistance)
	if err != nil {
		t.Fatal(err)
	}
	return sch
}

func TestDisciplineClasses(t *testing.T) {
	if FCFS.Classes() != 1 || TwoLevel.Classes() != 2 || ThreeLevel.Classes() != 3 {
		t.Error("Classes wrong")
	}
	if FCFS.String() != "fcfs" || TwoLevel.String() != "2-level" || ThreeLevel.String() != "3-level" {
		t.Error("discipline names wrong")
	}
	if Discipline(99).String() == "" || Rotation(99).String() == "" {
		t.Error("unknown values should still print")
	}
}

func TestDisciplineClassesPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown discipline should panic")
		}
	}()
	Discipline(99).Classes()
}

func TestConstructors(t *testing.T) {
	s := torus.MustNew(8, 8)
	rates := traffic.Rates{LambdaB: 0.01}
	p, err := PrioritySTAR(s, rates, balance.ExactDistance)
	if err != nil || p.Discipline != TwoLevel || p.Rotation != BalancedRotation {
		t.Errorf("PrioritySTAR = %v, %v", p, err)
	}
	p3, err := PrioritySTAR3(s, rates, balance.ExactDistance)
	if err != nil || p3.Discipline != ThreeLevel {
		t.Errorf("PrioritySTAR3 = %v, %v", p3, err)
	}
	f, err := STARFCFS(s, rates, balance.ExactDistance)
	if err != nil || f.Discipline != FCFS || f.Rotation != BalancedRotation {
		t.Errorf("STARFCFS = %v, %v", f, err)
	}
	do, err := DimOrderFCFS(s)
	if err != nil || do.Rotation != FixedEnding {
		t.Errorf("DimOrderFCFS = %v, %v", do, err)
	}
	if do.Vector.X[0] != 0 || do.Vector.X[1] != 1 {
		t.Errorf("DimOrderFCFS vector = %v, want point mass on last dim", do.Vector.X)
	}
	if p.String() == "" || do.String() == "" {
		t.Error("Scheme.String empty")
	}
	if _, err := NewScheme(s, FCFS, Rotation(42), rates, balance.ExactDistance); err == nil {
		t.Error("unknown rotation should error")
	}
}

func TestSchemeVectorSymmetricUniform(t *testing.T) {
	s := torus.MustNew(8, 8)
	sch := mustScheme(t, s, TwoLevel, BalancedRotation)
	for _, x := range sch.Vector.X {
		if math.Abs(x-0.5) > 1e-9 {
			t.Errorf("8x8 balanced vector = %v, want uniform", sch.Vector.X)
		}
	}
}

func TestSampleEndingDistribution(t *testing.T) {
	s := torus.MustNew(4, 8)
	sch := mustScheme(t, s, TwoLevel, BalancedRotation)
	rng := rand.New(rand.NewPCG(21, 22))
	const n = 200000
	counts := make([]int, s.Dims())
	for i := 0; i < n; i++ {
		counts[sch.SampleEnding(rng)]++
	}
	for l, x := range sch.Vector.X {
		got := float64(counts[l]) / n
		if math.Abs(got-x) > 0.01 {
			t.Errorf("ending %d frequency %g, want %g", l, got, x)
		}
	}
}

func TestSampleEndingFixed(t *testing.T) {
	s := torus.MustNew(4, 4, 4)
	sch := mustScheme(t, s, FCFS, FixedEnding)
	rng := rand.New(rand.NewPCG(5, 5))
	for i := 0; i < 100; i++ {
		if sch.SampleEnding(rng) != 2 {
			t.Fatal("FixedEnding must always pick the last dimension")
		}
	}
}

func TestBroadcastClass(t *testing.T) {
	s := torus.MustNew(4, 4)
	fcfs := mustScheme(t, s, FCFS, UniformRotation)
	two := mustScheme(t, s, TwoLevel, UniformRotation)
	three := mustScheme(t, s, ThreeLevel, UniformRotation)
	if fcfs.BroadcastClass(0, 0) != 0 || fcfs.BroadcastClass(1, 0) != 0 {
		t.Error("FCFS must be single-class")
	}
	if two.BroadcastClass(0, 0) != 1 || two.BroadcastClass(1, 0) != 0 {
		t.Error("TwoLevel: ending dim low, others high")
	}
	if three.BroadcastClass(0, 0) != 2 || three.BroadcastClass(1, 0) != 0 {
		t.Error("ThreeLevel: ending dim lowest, others highest")
	}
	if fcfs.UnicastClass() != 0 || two.UnicastClass() != 0 || three.UnicastClass() != 1 {
		t.Error("unicast classes wrong")
	}
}

func TestVirtualChannel(t *testing.T) {
	// Paper rule (0-indexed): dims after the ending dimension in index
	// order ride VC1; wrapped dims ride VC2.
	if VirtualChannel(2, 1) != 1 || VirtualChannel(3, 1) != 1 {
		t.Error("dims above ending should be VC1")
	}
	if VirtualChannel(0, 1) != 2 || VirtualChannel(1, 1) != 2 {
		t.Error("dims at or below ending should be VC2")
	}
	// With ending = d-1 (dimension order), all dims use VC2.
	for dim := 0; dim <= 3; dim++ {
		if VirtualChannel(dim, 3) != 2 {
			t.Error("ending d-1 should put everything on VC2")
		}
	}
}

func TestRingInitiations(t *testing.T) {
	cases := []struct {
		n         int
		wantTotal int // total nodes served
		wantCount int // number of copies
	}{
		{2, 1, 1}, {3, 2, 2}, {4, 3, 2}, {5, 4, 2}, {8, 7, 2},
	}
	for _, c := range cases {
		inits := RingInitiations(c.n, nil)
		if len(inits) != c.wantCount {
			t.Errorf("n=%d: %d copies, want %d", c.n, len(inits), c.wantCount)
			continue
		}
		total := 0
		for _, in := range inits {
			total += in.HopsLeft + 1
		}
		if total != c.wantTotal {
			t.Errorf("n=%d: serves %d nodes, want %d", c.n, total, c.wantTotal)
		}
	}
	if RingInitiations(1, nil) != nil {
		t.Error("1-ring needs no copies")
	}
}

func TestRingInitiationsDeterministicSplit(t *testing.T) {
	// nil rng: plus direction gets the extra node.
	inits := RingInitiations(4, nil)
	if inits[0].Dir != torus.Plus || inits[0].HopsLeft != 1 {
		t.Errorf("plus copy = %+v, want 2 nodes", inits[0])
	}
	if inits[1].Dir != torus.Minus || inits[1].HopsLeft != 0 {
		t.Errorf("minus copy = %+v, want 1 node", inits[1])
	}
}

func TestRingInitiationsRandomizedBalance(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 32))
	plusHeavy := 0
	const trials = 10000
	for i := 0; i < trials; i++ {
		inits := RingInitiations(4, rng)
		if inits[0].Dir == torus.Plus && inits[0].HopsLeft == 1 ||
			inits[1].Dir == torus.Plus && inits[1].HopsLeft == 1 {
			plusHeavy++
		}
	}
	if plusHeavy < trials/2-300 || plusHeavy > trials/2+300 {
		t.Errorf("plus-heavy split %d/%d times; want ~1/2", plusHeavy, trials)
	}
	// Odd rings have an even split: randomization must not matter.
	inits := RingInitiations(5, rng)
	if inits[0].HopsLeft != 1 || inits[1].HopsLeft != 1 {
		t.Errorf("5-ring split = %+v", inits)
	}
}

func TestOrderDim(t *testing.T) {
	// ending 1 in 4 dims: order 2,3,0,1.
	want := []int{2, 3, 0, 1}
	for p, w := range want {
		if got := OrderDim(4, 1, p); got != w {
			t.Errorf("OrderDim(4,1,%d) = %d, want %d", p, got, w)
		}
	}
}

func TestBroadcastTreeSpansEveryNode(t *testing.T) {
	for _, dims := range [][]int{{5, 5}, {8, 8}, {4, 4, 8}, {2, 2, 2, 2}, {3}} {
		s := torus.MustNew(dims...)
		sch := mustScheme(t, s, TwoLevel, UniformRotation)
		for ending := 0; ending < s.Dims(); ending++ {
			tree := BroadcastTree(sch, 0, ending, nil)
			for v, tn := range tree {
				if tn.Parent == torus.Node(-1) {
					t.Fatalf("%v ending %d: node %d never received a copy", dims, ending, v)
				}
			}
		}
	}
}

// TestBroadcastTreeDepthIsDistance: the STAR tree delivers every node along
// a shortest path, so uncontended reception delay equals Lee distance.
func TestBroadcastTreeDepthIsDistance(t *testing.T) {
	s := torus.MustNew(5, 4, 3)
	sch := mustScheme(t, s, TwoLevel, UniformRotation)
	src := torus.Node(17)
	for ending := 0; ending < s.Dims(); ending++ {
		tree := BroadcastTree(sch, src, ending, nil)
		for v := torus.Node(0); int(v) < s.Size(); v++ {
			if tree[v].Depth != s.Distance(src, v) {
				t.Errorf("ending %d node %d: depth %d != distance %d",
					ending, v, tree[v].Depth, s.Distance(src, v))
			}
		}
	}
}

// TestBroadcastTreeTransmissionCounts: the per-dimension transmission
// counts of an enumerated tree equal the paper's Eq. (1) coefficients.
func TestBroadcastTreeTransmissionCounts(t *testing.T) {
	for _, dims := range [][]int{{4, 8}, {4, 4, 8}, {5, 5}, {2, 6, 3}} {
		s := torus.MustNew(dims...)
		sch := mustScheme(t, s, TwoLevel, UniformRotation)
		for ending := 0; ending < s.Dims(); ending++ {
			tree := BroadcastTree(sch, 3%torus.Node(s.Size()), ending, nil)
			counts := make([]int, s.Dims())
			for v := range tree {
				if tree[v].Dim >= 0 {
					counts[tree[v].Dim]++
				}
			}
			for i := 0; i < s.Dims(); i++ {
				if counts[i] != balance.Coeff(s, i, ending) {
					t.Errorf("%v ending %d dim %d: %d transmissions, want %d",
						dims, ending, i, counts[i], balance.Coeff(s, i, ending))
				}
			}
		}
	}
}

// TestBroadcastTreePriorityCounts verifies the Section 3.2 accounting: a
// task generates N - N/n_l low-priority (ending-dimension) deliveries and
// N/n_l - 1 high-priority deliveries.
func TestBroadcastTreePriorityCounts(t *testing.T) {
	s := torus.MustNew(8, 8)
	sch := mustScheme(t, s, TwoLevel, UniformRotation)
	for ending := 0; ending < 2; ending++ {
		tree := BroadcastTree(sch, 0, ending, nil)
		low, high := 0, 0
		for v := range tree {
			switch tree[v].Class {
			case 1:
				low++
			case 0:
				high++
			}
		}
		n := s.Dim(ending)
		if low != s.Size()-s.Size()/n {
			t.Errorf("ending %d: %d low-priority deliveries, want %d", ending, low, s.Size()-s.Size()/n)
		}
		if high != s.Size()/n-1 {
			t.Errorf("ending %d: %d high-priority deliveries, want %d", ending, high, s.Size()/n-1)
		}
	}
}

// TestBroadcastTreeLowPrioritySuffix: every root-to-node path consists of
// high-priority hops followed by at most floor(n/2) low-priority hops —
// the structural fact behind the priority STAR delay bound.
func TestBroadcastTreeLowPrioritySuffix(t *testing.T) {
	s := torus.MustNew(8, 8, 8)
	sch := mustScheme(t, s, TwoLevel, UniformRotation)
	ending := 1
	tree := BroadcastTree(sch, 42, ending, nil)
	for v := torus.Node(0); int(v) < s.Size(); v++ {
		// Walking leaf -> root we must see the low-priority suffix first;
		// once a high-priority hop appears, no low-priority hop may follow.
		lowHops := 0
		sawHigh := false
		u := v
		for u != 42 {
			tn := tree[u]
			if tn.Class == 1 {
				if sawHigh {
					t.Fatalf("node %d: low-priority hop above a high-priority hop", v)
				}
				lowHops++
			} else {
				sawHigh = true
			}
			u = tn.Parent
		}
		if lowHops > s.Dim(ending)/2 {
			t.Fatalf("node %d: %d low-priority hops > n/2", v, lowHops)
		}
	}
}

func TestBroadcastTreeRandomizedStillSpans(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 77))
		d := 1 + rng.IntN(3)
		dims := make([]int, d)
		for i := range dims {
			dims[i] = 2 + rng.IntN(6)
		}
		s := torus.MustNew(dims...)
		sch, err := NewScheme(s, TwoLevel, UniformRotation, traffic.Rates{LambdaB: 1}, balance.ExactDistance)
		if err != nil {
			return false
		}
		src := torus.Node(rng.IntN(s.Size()))
		ending := rng.IntN(d)
		tree := BroadcastTree(sch, src, ending, rng) // randomized ring splits
		for v := range tree {
			if tree[v].Parent == torus.Node(-1) {
				return false
			}
			if tree[v].Depth != s.Distance(src, torus.Node(v)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestUnicastNextHopReachesDest(t *testing.T) {
	s := torus.MustNew(4, 5, 2)
	rng := rand.New(rand.NewPCG(8, 8))
	for trial := 0; trial < 2000; trial++ {
		src := torus.Node(rng.IntN(s.Size()))
		dest := traffic.UniformDest(rng, s, src)
		mask := SampleTieMask(rng, s.Dims())
		cur := src
		hops := 0
		for {
			dim, dir, done := UnicastNextHop(s, cur, dest, mask)
			if done {
				break
			}
			cur = s.Neighbor(cur, dim, dir)
			hops++
			if hops > s.Diameter() {
				t.Fatalf("unicast %d->%d exceeded diameter", src, dest)
			}
		}
		if cur != dest {
			t.Fatalf("unicast %d->%d ended at %d", src, dest, cur)
		}
		if hops != s.Distance(src, dest) {
			t.Fatalf("unicast %d->%d took %d hops, distance %d", src, dest, hops, s.Distance(src, dest))
		}
	}
}

func TestUnicastNextHopAtDest(t *testing.T) {
	s := torus.MustNew(4, 4)
	if _, _, done := UnicastNextHop(s, 5, 5, 0); !done {
		t.Error("at destination should report done")
	}
}

func TestUnicastTieMaskControlsDirection(t *testing.T) {
	s := torus.MustNew(8, 8)
	src := s.Node([]int{0, 0})
	dest := s.Node([]int{4, 0}) // offset exactly n/2
	dim, dir, _ := UnicastNextHop(s, src, dest, 0)
	if dim != 0 || dir != torus.Plus {
		t.Errorf("mask 0: (%d, %d)", dim, dir)
	}
	dim, dir, _ = UnicastNextHop(s, src, dest, 1)
	if dim != 0 || dir != torus.Minus {
		t.Errorf("mask 1: (%d, %d)", dim, dir)
	}
	// Either way the path length equals the ring distance.
	for _, mask := range []uint32{0, 1} {
		cur := src
		hops := 0
		for {
			d, dr, done := UnicastNextHop(s, cur, dest, mask)
			if done {
				break
			}
			cur = s.Neighbor(cur, d, dr)
			hops++
		}
		if hops != 4 {
			t.Errorf("mask %d: %d hops, want 4", mask, hops)
		}
	}
}

func TestUnicastTwoRingAlwaysPlus(t *testing.T) {
	s := torus.MustNew(2, 2)
	src := s.Node([]int{0, 0})
	dest := s.Node([]int{1, 1})
	dim, dir, _ := UnicastNextHop(s, src, dest, 0xFFFFFFFF)
	if dir != torus.Plus {
		t.Errorf("2-ring must route Plus, got dim %d dir %d", dim, dir)
	}
}

func TestUnicastShorterDirectionChosen(t *testing.T) {
	s := torus.MustNew(8, 8)
	src := s.Node([]int{0, 0})
	// Offset 3: plus side (3 hops) is shorter than minus (5 hops).
	dim, dir, _ := UnicastNextHop(s, src, s.Node([]int{3, 0}), 0)
	if dim != 0 || dir != torus.Plus {
		t.Error("offset 3 should go Plus")
	}
	// Offset 5: minus side (3 hops) shorter.
	dim, dir, _ = UnicastNextHop(s, src, s.Node([]int{5, 0}), 0)
	if dim != 0 || dir != torus.Minus {
		t.Error("offset 5 should go Minus")
	}
}

func TestSampleTieMaskPanicsOnHugeDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("should panic above 32 dims")
		}
	}()
	SampleTieMask(rand.New(rand.NewPCG(1, 1)), 33)
}

func TestBroadcastForwardSource(t *testing.T) {
	s := torus.MustNew(5, 5)
	// Source (phase -1) initiates both phases: 2 copies per phase.
	hops := BroadcastForward(s, 1, -1, torus.Plus, 0, nil, nil)
	if len(hops) != 4 {
		t.Fatalf("source emits %d copies, want 4", len(hops))
	}
	// Phase 0 covers dim 0 (order 0,1 for ending 1).
	if hops[0].Dim != 0 || hops[2].Dim != 1 {
		t.Errorf("dims = %d, %d", hops[0].Dim, hops[2].Dim)
	}
	total := 0
	for _, h := range hops {
		total += h.HopsLeft + 1
	}
	if total != 8 { // 4 nodes per ring
		t.Errorf("source copies serve %d nodes, want 8", total)
	}
}

func TestBroadcastForwardContinuesRing(t *testing.T) {
	s := torus.MustNew(5, 5)
	// A copy in the last phase with hops remaining: exactly one forward.
	hops := BroadcastForward(s, 1, 1, torus.Minus, 1, nil, nil)
	if len(hops) != 1 {
		t.Fatalf("got %d copies, want 1", len(hops))
	}
	if hops[0].Dir != torus.Minus || hops[0].HopsLeft != 0 || hops[0].Dim != 1 {
		t.Errorf("forward = %+v", hops[0])
	}
	// A copy with no hops left in the last phase: nothing to do.
	if hops := BroadcastForward(s, 1, 1, torus.Minus, 0, nil, nil); len(hops) != 0 {
		t.Errorf("exhausted copy should emit nothing, got %v", hops)
	}
}

func TestBroadcastForwardAppendsToBuf(t *testing.T) {
	s := torus.MustNew(4, 4)
	buf := make([]Hop, 0, 8)
	out := BroadcastForward(s, 0, -1, torus.Plus, 0, nil, buf)
	if len(out) == 0 || cap(out) != 8 {
		t.Error("BroadcastForward should reuse the provided buffer")
	}
}

// TestBroadcastForwardFollowsOrder checks every hop's dimension against
// orderDim for every ending, phase and ring position on tori of one to four
// dimensions: the forward pass steps the rotated order with a wrap instead
// of a modulus.
func TestBroadcastForwardFollowsOrder(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 5))
	for _, dims := range [][]int{{5}, {4, 6}, {2, 3, 4}, {3, 3, 3, 3}} {
		s := torus.MustNew(dims...)
		d := s.Dims()
		for ending := 0; ending < d; ending++ {
			for phase := -1; phase < d; phase++ {
				for _, hopsLeft := range []int{0, 1} {
					for _, h := range BroadcastForward(s, ending, phase, torus.Plus, hopsLeft, rng, nil) {
						if want := orderDim(d, ending, h.Phase); h.Dim != want {
							t.Errorf("%v ending %d phase %d: hop %+v, want dim %d", dims, ending, phase, h, want)
						}
					}
				}
			}
		}
	}
}
