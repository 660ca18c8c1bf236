package surrogate

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"prioritystar/internal/spec"
	"prioritystar/internal/sweep"
	"prioritystar/internal/torus"
)

// exp builds an experiment from spec JSON; extra is spliced in after the id.
func exp(t testing.TB, rhos string, extra string) *sweep.Experiment {
	t.Helper()
	js := fmt.Sprintf(`{
		"id": "fam", %s
		"dims": [4, 4], "rhos": [%s], "broadcastFrac": 1,
		"schemes": [{"name": "priority-star"}],
		"warmup": 50, "measure": 400, "drain": 100, "reps": 2, "seed": 11
	}`, extra, rhos)
	e, err := spec.Decode([]byte(js))
	if err != nil {
		t.Fatalf("spec: %v\n%s", err, js)
	}
	return e
}

func TestFamilyKeyGroupsRhoGrids(t *testing.T) {
	base := FamilyKey(exp(t, "0.2, 0.4", ""))
	same := []*sweep.Experiment{
		exp(t, "0.3", ""),                                    // different rho grid
		exp(t, "0.2, 0.4", `"title": "renamed",`),            // labels
		exp(t, "0.3", `"mode": "approx", "approxTol": 0.5,`), // serving mode
		exp(t, "0.2, 0.4", `"execution": "sequential",`),     // dispatch
	}
	for i, e := range same {
		if FamilyKey(e) != base {
			t.Errorf("variant %d left the family", i)
		}
	}
	diff := []*sweep.Experiment{
		exp(t, "0.3", `"notes": "",`), // placeholder replaced below
	}
	diff[0].Dims = []int{8, 8}
	d2 := exp(t, "0.3", "")
	d2.BaseSeed++
	d3 := exp(t, "0.3", "")
	d3.Measure++
	diff = append(diff, d2, d3)
	for i, e := range diff {
		if FamilyKey(e) == base {
			t.Errorf("mutation %d should change the family", i)
		}
	}
}

func TestEligible(t *testing.T) {
	if err := Eligible(exp(t, "0.3", "")); err != nil {
		t.Fatalf("plain experiment should be eligible: %v", err)
	}
	// A wall-clock timeout (set on every daemon job) must not disqualify.
	timed := exp(t, "0.3", "")
	timed.Guard.Timeout = 1e9
	if err := Eligible(timed); err != nil {
		t.Errorf("guard timeout should stay eligible: %v", err)
	}

	bad := map[string]*sweep.Experiment{
		"faults":     exp(t, "0.3", `"faults": "perm:1,seed:3",`),
		"guard":      exp(t, "0.3", `"guard": {"divergeBacklog": 1000},`),
		"maxBacklog": exp(t, "0.3", `"maxBacklog": 5000,`),
		"rho zero":   exp(t, "0.0", ""),
		"rho one":    exp(t, "1.0", ""),
		"rho above":  exp(t, "1.2", ""),
		"nil":        nil,
	}
	empty := exp(t, "0.3", "")
	empty.Rhos = nil
	bad["no rhos"] = empty
	noSchemes := exp(t, "0.3", "")
	noSchemes.Schemes = nil
	bad["no schemes"] = noSchemes
	for name, e := range bad {
		if err := Eligible(e); err == nil {
			t.Errorf("%s: should be ineligible", name)
		}
	}
}

// seedIndex inserts synthetic anchors lying exactly on base(rho) + off,
// with confidence half-width ci on every metric.
func seedIndex(t *testing.T, ix *Index, e *sweep.Experiment, rhos []float64, off, ci float64) {
	t.Helper()
	shape := torus.MustNew(e.Dims...)
	family := FamilyKey(e)
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for _, rho := range rhos {
		a := anchor{rho: rho}
		b := base(shape, rho)
		for m := range a.val {
			a.val[m] = b[m] + off
			a.ci[m] = ci
		}
		ix.insert(family, e.Schemes[0].Name, a)
	}
}

func TestAnchorHitReturnsExactValues(t *testing.T) {
	ix := NewIndex()
	e := exp(t, "0.3", "")
	seedIndex(t, ix, e, []float64{0.2, 0.3, 0.4}, 1.5, 0.01)
	ev, err := New(ix).Evaluate(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.Series) != 1 || len(ev.Series[0].Points) != 1 {
		t.Fatalf("unexpected evaluation shape: %+v", ev)
	}
	p := ev.Series[0].Points[0]
	if p.Source != "anchor" || p.Lo != 0.3 || p.Hi != 0.3 {
		t.Errorf("expected anchor hit, got %+v", p)
	}
	want := base(torus.MustNew(4, 4), 0.3)[MReception] + 1.5
	if math.Abs(p.Val[MReception]-want) > 1e-12 {
		t.Errorf("anchor value %g, want %g", p.Val[MReception], want)
	}
	if p.Bound[MReception] != 0.01 {
		t.Errorf("anchor bound %g, want the anchor CI", p.Bound[MReception])
	}
}

func TestInterpolationRecoversConstantResidual(t *testing.T) {
	// Anchors offset from the analytic curve by a constant: the residual
	// lerp must reproduce base+off exactly at any rho between them, and the
	// bound collapses to the anchors' statistical uncertainty.
	ix := NewIndex()
	e := exp(t, "0.3", "")
	seedIndex(t, ix, e, []float64{0.2, 0.4}, 2.25, 0.02)
	ev, err := New(ix).Evaluate(e)
	if err != nil {
		t.Fatal(err)
	}
	p := ev.Series[0].Points[0]
	if p.Source != "interp" || p.Lo != 0.2 || p.Hi != 0.4 {
		t.Fatalf("expected interpolation from [0.2,0.4], got %+v", p)
	}
	shape := torus.MustNew(4, 4)
	for m := Metric(0); m < numMetrics; m++ {
		want := base(shape, 0.3)[m] + 2.25
		if math.Abs(p.Val[m]-want) > 1e-9 {
			t.Errorf("%s: got %g want %g", m, p.Val[m], want)
		}
		if math.Abs(p.Bound[m]-0.04) > 1e-9 {
			t.Errorf("%s: bound %g want 0.04", m, p.Bound[m])
		}
	}
}

func TestEvaluateFallbacks(t *testing.T) {
	e := exp(t, "0.3", "")
	t.Run("empty index", func(t *testing.T) {
		if _, err := New(NewIndex()).Evaluate(e); err == nil {
			t.Error("empty index should fall back")
		}
	})
	t.Run("extrapolation", func(t *testing.T) {
		ix := NewIndex()
		seedIndex(t, ix, e, []float64{0.4, 0.6}, 0, 0)
		if _, err := New(ix).Evaluate(e); err == nil {
			t.Error("rho below all anchors should fall back")
		}
		high := exp(t, "0.7", "")
		if _, err := New(ix).Evaluate(high); err == nil {
			t.Error("rho above all anchors should fall back")
		}
	})
	t.Run("gap too wide", func(t *testing.T) {
		ix := NewIndex()
		seedIndex(t, ix, e, []float64{0.1, 0.8}, 0, 0)
		if _, err := New(ix).Evaluate(e); err == nil {
			t.Error("0.7-wide anchor gap should fall back")
		}
	})
	t.Run("tolerance too tight", func(t *testing.T) {
		// Anchors with different residuals: the spread shows up in the
		// bound and a tight tolerance rejects it.
		ix := NewIndex()
		shape := torus.MustNew(4, 4)
		family := FamilyKey(e)
		for i, rho := range []float64{0.2, 0.4} {
			a := anchor{rho: rho}
			for m := range a.val {
				a.val[m] = base(shape, rho)[m] + float64(i)*3 // residuals 0 and 3
			}
			ix.insert(family, e.Schemes[0].Name, a)
		}
		tight := exp(t, "0.3", `"mode": "approx", "approxTol": 0.01,`)
		if _, err := New(ix).Evaluate(tight); err == nil {
			t.Error("3-wide residual spread should exceed tol 0.01")
		}
		loose := exp(t, "0.3", `"mode": "approx", "approxTol": 2,`)
		if _, err := New(ix).Evaluate(loose); err != nil {
			t.Errorf("tol 2 should accept: %v", err)
		}
	})
	t.Run("unknown ci", func(t *testing.T) {
		// An anchor hit whose reception CI is unknown cannot certify any
		// tolerance.
		ix := NewIndex()
		family := FamilyKey(e)
		a := anchor{rho: 0.3}
		for m := range a.val {
			a.val[m] = 5
			a.ci[m] = math.NaN()
		}
		ix.insert(family, e.Schemes[0].Name, a)
		if _, err := New(ix).Evaluate(e); err == nil {
			t.Error("NaN reception CI should fall back")
		}
	})
}

// sampleDoc is a hand-built exact result document in the serving layer's
// schema, matching the 4x4 priority-star family of exp().
func sampleDoc(t testing.TB, e *sweep.Experiment, rho float64) string {
	t.Helper()
	doc := spec.FromSweep(e)
	doc.Rhos = []float64{rho}
	js, err := specJSON(doc)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf(`{
		"fingerprint": "ps1-test", "engine": "test",
		"spec": %s,
		"series": [{"scheme": "priority-STAR", "points": [
			{"rho": %g, "reception": 3.5, "broadcast": 4.5, "unicast": null,
			 "highWait": 0.2, "lowWait": 0.4,
			 "receptionCI": 0.05, "broadcastCI": 0.06, "unicastCI": null,
			 "highWaitCI": 0.01, "lowWaitCI": 0.02,
			 "generatedBroadcasts": 100, "incompleteBroadcasts": 0}
		]}]
	}`, js, rho)
}

func TestAddResultIndexesCachedDocuments(t *testing.T) {
	ix := NewIndex()
	e := exp(t, "0.3", "")
	if err := ix.AddResult([]byte(sampleDoc(t, e, 0.3))); err != nil {
		t.Fatal(err)
	}
	if ix.Anchors() != 1 || ix.Results() != 1 {
		t.Fatalf("anchors=%d results=%d, want 1/1", ix.Anchors(), ix.Results())
	}
	as := ix.lookup(FamilyKey(e), "priority-STAR")
	if len(as) != 1 || as[0].rho != 0.3 || as[0].val[MReception] != 3.5 {
		t.Fatalf("anchor wrong: %+v", as)
	}
	if !math.IsNaN(as[0].val[MUnicast]) {
		t.Error("null unicast should decode to NaN")
	}
	// Re-adding the same document must not duplicate the anchor.
	if err := ix.AddResult([]byte(sampleDoc(t, e, 0.3))); err != nil {
		t.Fatal(err)
	}
	if ix.Anchors() != 1 {
		t.Errorf("duplicate insert grew anchors to %d", ix.Anchors())
	}

	bad := []string{
		`{not json`,
		`{"series": []}`,                      // no spec
		`{"spec": {"id": "x"}, "series": []}`, // no points
		`{"approx": true, "spec": {"id": "x"}, "series": []}`, // surrogate output
	}
	for i, b := range bad {
		if err := ix.AddResult([]byte(b)); err == nil {
			t.Errorf("bad doc %d accepted", i)
		}
	}
}

func TestEncodeMarksApproxAndRefusesReindex(t *testing.T) {
	ix := NewIndex()
	e := exp(t, "0.3", "")
	seedIndex(t, ix, e, []float64{0.2, 0.4}, 1, 0.01)
	ev, err := New(ix).Evaluate(e)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ev.Encode("ps1-test", "test-engine")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"approx":true`) {
		t.Errorf("approx marker missing: %s", b)
	}
	if !strings.Contains(string(b), `"source":"interp"`) {
		t.Errorf("source missing: %s", b)
	}
	if err := ix.AddResult(b); err == nil {
		t.Error("surrogate output fed back as an anchor")
	}
}

// TestDifferentialAccuracy is the package's accuracy contract, end to end
// against the real engine: anchor two exact simulations, ask the surrogate
// for a point between them, then run the truth simulation at that point and
// check the answer lies within its stated bound (plus the truth's own
// statistical uncertainty). Also checks the refusal side: with a tolerance
// tighter than the stated bound the surrogate must decline rather than
// shave its estimate.
func TestDifferentialAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	anchors := exp(t, "0.2, 0.4", "")
	anchorRes, err := anchors.Run()
	if err != nil {
		t.Fatal(err)
	}
	ix := NewIndex()
	ix.AddExact(anchorRes)
	if ix.Anchors() != 2 {
		t.Fatalf("indexed %d anchors, want 2", ix.Anchors())
	}

	query := exp(t, "0.3", `"mode": "approx", "approxTol": 2,`)
	ev, err := New(ix).Evaluate(query)
	if err != nil {
		t.Fatalf("surrogate declined a generous tolerance: %v", err)
	}
	p := ev.Series[0].Points[0]

	truthExp := exp(t, "0.3", "")
	truthRes, err := truthExp.Run()
	if err != nil {
		t.Fatal(err)
	}
	truth := truthRes.Series[0].Points[0]
	sums := [numMetrics]interface {
		Mean() float64
		HalfWidth95() float64
	}{&truth.Reception, &truth.Broadcast, &truth.Unicast, &truth.HighWait, &truth.LowWait}
	for m := Metric(0); m < numMetrics; m++ {
		want, ci := sums[m].Mean(), sums[m].HalfWidth95()
		got, bound := p.Val[m], p.Bound[m]
		if math.IsNaN(want) || math.IsNaN(got) {
			if math.IsNaN(want) != math.IsNaN(got) {
				t.Errorf("%s: availability mismatch: surrogate %g, truth %g", m, got, want)
			}
			continue
		}
		if math.IsNaN(bound) || math.IsInf(bound, 0) {
			t.Errorf("%s: no finite bound for a finite answer", m)
			continue
		}
		if diff := math.Abs(got - want); diff > bound+ci {
			t.Errorf("%s: |%g - %g| = %g exceeds stated bound %g + truth CI %g",
				m, got, want, diff, bound, ci)
		}
	}

	// The refusal contract: tighter than the stated bound, the surrogate
	// must route to simulation instead of answering.
	rel := p.Bound[MReception] / math.Max(math.Abs(p.Val[MReception]), 1)
	if rel > 0 {
		tight := exp(t, "0.3", fmt.Sprintf(`"mode": "approx", "approxTol": %g,`, rel/2))
		if _, err := New(ix).Evaluate(tight); err == nil {
			t.Error("surrogate answered below its own stated bound")
		}
	}
}

// specJSON marshals a spec document for embedding in a test fixture.
func specJSON(doc *spec.Experiment) ([]byte, error) {
	return json.Marshal(doc)
}

// TestEvaluateWhileIndexGrows: an evaluation reads the anchors lookup hands
// it after the index lock is released, so insert must never shift them in
// place. Each new anchor lands first in rho order, where an in-place insert
// would move every anchor a concurrent evaluation is reading; -race
// reports that.
func TestEvaluateWhileIndexGrows(t *testing.T) {
	ix := NewIndex()
	e := exp(t, "0.5", "")
	var docs [][]byte
	for i := 0; i < 200; i++ {
		docs = append(docs, []byte(sampleDoc(t, e, 0.9-float64(i)*0.004)))
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, d := range docs {
			if err := ix.AddResult(d); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	sg := New(ix)
	for {
		select {
		case <-done:
			if got := ix.Anchors(); got != len(docs) {
				t.Errorf("index holds %d anchors, want %d", got, len(docs))
			}
			return
		default:
			sg.Evaluate(e) // the answer does not matter, only the reads
		}
	}
}
