package loadgen

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// TestSketchExactBelowLinearMax pins the exact-linear region: every value
// below 64 is its own bucket, so quantiles there are exact.
func TestSketchExactBelowLinearMax(t *testing.T) {
	var s Sketch
	for v := int64(0); v < sketchLinearMax; v++ {
		s.Add(v)
	}
	if got := s.Quantile(0.5); got != 31 {
		t.Errorf("p50 of 0..63 = %d, want 31", got)
	}
	if got := s.Quantile(1); got != 63 {
		t.Errorf("p100 = %d, want 63", got)
	}
	if got := s.Quantile(0); got != 0 {
		t.Errorf("p0 = %d, want 0", got)
	}
}

// TestSketchRelativeError checks the design bound: above the linear region
// a quantile overshoots the true value by at most one sub-bucket (~1/32).
func TestSketchRelativeError(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var s Sketch
	var raw []int64
	for i := 0; i < 20000; i++ {
		// Log-uniform over [1us, ~100s]: spans the latencies a run can see.
		v := int64(math.Exp(rng.Float64() * math.Log(1e8)))
		raw = append(raw, v)
		s.Add(v)
	}
	sort.Slice(raw, func(i, j int) bool { return raw[i] < raw[j] })
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 0.999} {
		idx := int(math.Ceil(q*float64(len(raw)))) - 1
		exact := raw[idx]
		got := s.Quantile(q)
		if got < exact {
			t.Errorf("q%.3f = %d undershoots exact %d", q, got, exact)
		}
		// One sub-bucket of slack: upper bound within (1 + 2/32) of exact.
		if limit := float64(exact) * (1 + 2.0/(1<<sketchSubBits)); float64(got) > limit && exact >= sketchLinearMax {
			t.Errorf("q%.3f = %d exceeds %d by more than a sub-bucket (limit %.0f)", q, got, exact, limit)
		}
	}
	if s.Count() != int64(len(raw)) {
		t.Errorf("count = %d, want %d", s.Count(), len(raw))
	}
	if s.Max() != raw[len(raw)-1] || s.Min() != raw[0] {
		t.Errorf("min/max = %d/%d, want %d/%d", s.Min(), s.Max(), raw[0], raw[len(raw)-1])
	}
}

// TestSketchBucketBoundaries walks the index/upper-bound pair over the
// whole range: indices are monotone, uppers are consistent with indexing.
func TestSketchBucketBoundaries(t *testing.T) {
	prev := -1
	for _, v := range []int64{0, 1, 63, 64, 65, 95, 127, 128, 1000, 1 << 20, 1 << 40, math.MaxInt64} {
		idx := sketchIndex(v)
		if idx < prev {
			t.Fatalf("index(%d) = %d < previous %d: not monotone", v, idx, prev)
		}
		if idx >= sketchBuckets {
			t.Fatalf("index(%d) = %d out of range %d", v, idx, sketchBuckets)
		}
		if up := sketchUpper(idx); up < v {
			t.Errorf("upper(index(%d)) = %d < value", v, up)
		}
		prev = idx
	}
}

// TestSketchMergeMatchesUnion pins that merging per-worker sketches is
// indistinguishable from recording everything into one.
func TestSketchMergeMatchesUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var a, b, union Sketch
	for i := 0; i < 5000; i++ {
		v := int64(rng.Intn(1 << 22))
		union.Add(v)
		if i%2 == 0 {
			a.Add(v)
		} else {
			b.Add(v)
		}
	}
	a.Merge(&b)
	if a.Count() != union.Count() || a.Min() != union.Min() || a.Max() != union.Max() {
		t.Fatalf("merged count/min/max = %d/%d/%d, union %d/%d/%d",
			a.Count(), a.Min(), a.Max(), union.Count(), union.Min(), union.Max())
	}
	for _, q := range []float64{0.01, 0.25, 0.5, 0.75, 0.95, 0.99} {
		if got, want := a.Quantile(q), union.Quantile(q); got != want {
			t.Errorf("q%.2f: merged %d, union %d", q, got, want)
		}
	}
}

// TestParseMix covers named mixes, explicit weights, and rejects.
func TestParseMix(t *testing.T) {
	for _, name := range MixNames() {
		m, err := ParseMix(name)
		if err != nil {
			t.Errorf("built-in %q: %v", name, err)
		}
		if m.total() == 0 {
			t.Errorf("built-in %q has zero weight", name)
		}
	}
	m, err := ParseMix("hit=3,watch=1")
	if err != nil {
		t.Fatal(err)
	}
	if !m.Has(OpSubmitHit) || !m.Has(OpWatch) || m.Has(OpOverloadBurst) {
		t.Errorf("explicit mix wrong: %+v", m)
	}
	for _, bad := range []string{"nope", "hit=x", "zork=3", "hit=0,miss=0", "hit"} {
		if _, err := ParseMix(bad); err == nil {
			t.Errorf("ParseMix(%q) accepted", bad)
		}
	}
	if def, err := ParseMix(""); err != nil || def.Name != "mixed" {
		t.Errorf("empty mix = %+v, %v; want the mixed default", def, err)
	}
}

// TestMixPickDeterministic pins fleet determinism at the draw level: the
// same seed yields the same operation sequence.
func TestMixPickDeterministic(t *testing.T) {
	m, _ := ParseMix("mixed")
	draw := func() []Op {
		rng := rand.New(rand.NewSource(99))
		out := make([]Op, 200)
		for i := range out {
			out[i] = m.pick(rng)
		}
		return out
	}
	a, b := draw(), draw()
	counts := map[Op]int{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs: %v vs %v", i, a[i], b[i])
		}
		counts[a[i]]++
	}
	for op := Op(0); op < numOps; op++ {
		if m.Has(op) && counts[op] == 0 {
			t.Errorf("op %v never drawn in 200 picks despite weight %d", op, m.Weights[op])
		}
	}
	if strings.Contains(m.String(), "=") {
		t.Errorf("named mix renders as %q, want its name", m.String())
	}
}
