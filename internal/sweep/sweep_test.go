package sweep

import (
	"math"
	"strings"
	"testing"

	"prioritystar/internal/balance"
	"prioritystar/internal/core"
	"prioritystar/internal/stats"
	"prioritystar/internal/torus"
	"prioritystar/internal/traffic"
)

// tinyExperiment is a fast 4x4 sweep used by most tests.
func tinyExperiment() *Experiment {
	return &Experiment{
		ID: "tiny", Title: "tiny test sweep",
		Dims: []int{4, 4}, Rhos: []float64{0.2, 0.8}, BroadcastFrac: 1,
		Schemes: []SchemeSpec{PrioritySTARSpec, FCFSDirectSpec},
		Model:   balance.ExactDistance,
		Warmup:  500, Measure: 2500, Drain: 1000, Reps: 2, BaseSeed: 99,
	}
}

func TestExperimentValidation(t *testing.T) {
	mutations := []func(*Experiment){
		func(e *Experiment) { e.Dims = nil },
		func(e *Experiment) { e.Rhos = nil },
		func(e *Experiment) { e.Schemes = nil },
		func(e *Experiment) { e.Reps = 0 },
		func(e *Experiment) { e.Measure = 0 },
		func(e *Experiment) { e.Dims = []int{1} }, // invalid shape
	}
	for i, mut := range mutations {
		e := tinyExperiment()
		mut(e)
		if _, err := e.Run(); err == nil {
			t.Errorf("mutation %d should fail validation", i)
		}
	}
}

func TestRunStructureAndSanity(t *testing.T) {
	e := tinyExperiment()
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 2 {
		t.Fatalf("got %d series", len(res.Series))
	}
	for _, s := range res.Series {
		if len(s.Points) != 2 {
			t.Fatalf("scheme %s: %d points", s.Scheme.Name, len(s.Points))
		}
		for pi, p := range s.Points {
			if p.Reception.N() != e.Reps {
				t.Errorf("%s point %d: %d reps", s.Scheme.Name, pi, p.Reception.N())
			}
			if p.Value(MetricReception) < 1 {
				t.Errorf("%s point %d: reception %g < 1", s.Scheme.Name, pi, p.Value(MetricReception))
			}
			if p.GeneratedBroadcasts == 0 {
				t.Errorf("%s point %d: no tasks generated", s.Scheme.Name, pi)
			}
		}
		// Delay must grow with rho.
		if s.Points[1].Value(MetricReception) <= s.Points[0].Value(MetricReception) {
			t.Errorf("%s: delay did not grow with rho", s.Scheme.Name)
		}
		// Measured utilization tracks rho.
		if math.Abs(s.Points[0].Value(MetricAvgUtil)-0.2) > 0.05 {
			t.Errorf("%s: utilization %g at rho 0.2", s.Scheme.Name, s.Points[0].Value(MetricAvgUtil))
		}
	}
	if res.Elapsed <= 0 {
		t.Error("elapsed not recorded")
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := tinyExperiment().Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := tinyExperiment().Run()
	if err != nil {
		t.Fatal(err)
	}
	for si := range a.Series {
		for pi := range a.Series[si].Points {
			va := a.Series[si].Points[pi].Value(MetricReception)
			vb := b.Series[si].Points[pi].Value(MetricReception)
			if va != vb {
				t.Fatalf("series %d point %d: %g != %g (non-deterministic)", si, pi, va, vb)
			}
		}
	}
}

func TestRunWorkersBounded(t *testing.T) {
	e := tinyExperiment()
	e.Workers = 1
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e = tinyExperiment()
	e.Workers = 64 // more than jobs; must clamp without deadlock
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestTableAndCSV(t *testing.T) {
	res, err := tinyExperiment().Run()
	if err != nil {
		t.Fatal(err)
	}
	table := res.Table(MetricReception)
	for _, want := range []string{"priority-STAR", "FCFS-direct", "0.200", "0.800", "avg reception delay"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
	csv := res.CSV(MetricBroadcast)
	if !strings.HasPrefix(csv, "rho,") {
		t.Errorf("csv header wrong: %q", csv[:20])
	}
	if lines := strings.Count(csv, "\n"); lines != 3 { // header + 2 rho rows
		t.Errorf("csv has %d lines, want 3", lines)
	}
}

func TestSpeedupAt(t *testing.T) {
	res, err := tinyExperiment().Run()
	if err != nil {
		t.Fatal(err)
	}
	// FCFS delay relative to priority STAR at rho 0.8 must be >= 1 (the
	// paper's headline).
	sp, err := res.SpeedupAt(MetricReception, "priority-STAR", "FCFS-direct", 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if sp < 1 {
		t.Errorf("FCFS/priority ratio = %g, want >= 1", sp)
	}
	if _, err := res.SpeedupAt(MetricReception, "nope", "FCFS-direct", 0.8); err == nil {
		t.Error("unknown scheme should error")
	}
	if _, err := res.SpeedupAt(MetricReception, "priority-STAR", "FCFS-direct", 0.33); err == nil {
		t.Error("off-grid rho should error")
	}
}

func TestMetricStrings(t *testing.T) {
	metrics := []Metric{MetricReception, MetricBroadcast, MetricUnicast,
		MetricHighWait, MetricLowWait, MetricAvgUtil, MetricMaxDimUtil}
	seen := map[string]bool{}
	for _, m := range metrics {
		name := m.String()
		if name == "" || seen[name] {
			t.Errorf("metric %d: bad or duplicate name %q", int(m), name)
		}
		seen[name] = true
	}
	if Metric(99).String() == "" {
		t.Error("unknown metric should still print")
	}
}

func TestScaleString(t *testing.T) {
	if Quick.String() != "quick" || Standard.String() != "standard" || Full.String() != "full" {
		t.Error("scale names wrong")
	}
	if Scale(9).String() == "" {
		t.Error("unknown scale should print")
	}
}

func TestFigureRegistry(t *testing.T) {
	ids := FigureIDs()
	if len(ids) < 7 {
		t.Fatalf("only %d predefined experiments", len(ids))
	}
	for _, id := range ids {
		e, err := Figure(id, Quick)
		if err != nil {
			t.Fatalf("Figure(%q): %v", id, err)
		}
		if e.ID != id {
			t.Errorf("Figure(%q).ID = %q", id, e.ID)
		}
		if err := e.validate(); err != nil {
			t.Errorf("Figure(%q) invalid: %v", id, err)
		}
		if e.Notes == "" || e.Title == "" {
			t.Errorf("Figure(%q) missing documentation fields", id)
		}
	}
	if _, err := Figure("fig99", Quick); err == nil {
		t.Error("unknown figure should error")
	}
}

func TestFigureScalesDiffer(t *testing.T) {
	q, _ := Figure("fig2+5", Quick)
	s, _ := Figure("fig2+5", Standard)
	f, _ := Figure("fig2+5", Full)
	if !(q.Measure < s.Measure && s.Measure < f.Measure) {
		t.Error("measure windows should grow with scale")
	}
	if !(len(q.Rhos) < len(s.Rhos)) {
		t.Error("rho grid should refine with scale")
	}
	if !(q.Reps <= s.Reps && s.Reps <= f.Reps) {
		t.Error("reps should grow with scale")
	}
}

// TestSchemeSpecBuildSeparate: SeparateBalance must produce the Eq. 2
// (broadcast-only) vector even when unicast traffic is offered.
func TestSchemeSpecBuildSeparate(t *testing.T) {
	shape := mustShape(t, 4, 8)
	rates := ratesFor(t, shape, 0.8, 0.5)
	joint, err := PrioritySTARSpec.Build(shape, rates, balance.ExactDistance)
	if err != nil {
		t.Fatal(err)
	}
	sep, err := SeparateSpec.Build(shape, rates, balance.ExactDistance)
	if err != nil {
		t.Fatal(err)
	}
	bcOnly, err := balance.BroadcastOnly(shape)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sep.Vector.X {
		if math.Abs(sep.Vector.X[i]-bcOnly.X[i]) > 1e-9 {
			t.Errorf("separate vector[%d] = %g, want Eq.2 value %g", i, sep.Vector.X[i], bcOnly.X[i])
		}
	}
	// The joint vector must differ (it compensates for unicast imbalance).
	same := true
	for i := range joint.Vector.X {
		if math.Abs(joint.Vector.X[i]-bcOnly.X[i]) > 1e-6 {
			same = false
		}
	}
	if same {
		t.Error("joint vector should differ from the separate one on 4x8 with unicast load")
	}
}

func TestStabilitySearchFindsSaturation(t *testing.T) {
	// Balanced priority STAR on 4x4 should be stable essentially to rho ~ 1.
	got, err := StabilitySearch([]int{4, 4}, PrioritySTARSpec, 1,
		balance.ExactDistance, 3000, 1, 7, 0.5, 1.2, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if got < 0.85 || got > 1.1 {
		t.Errorf("max stable rho = %g, want ~1", got)
	}
	// Starting beyond saturation returns lo immediately.
	got, err = StabilitySearch([]int{4, 4}, FCFSDirectSpec, 1,
		balance.ExactDistance, 3000, 1, 7, 1.3, 1.6, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1.3 {
		t.Errorf("unstable lo should be returned, got %g", got)
	}
}

func TestSortSeriesByName(t *testing.T) {
	res := &Result{Series: []Series{
		{Scheme: SchemeSpec{Name: "zzz"}},
		{Scheme: SchemeSpec{Name: "aaa"}},
	}}
	res.SortSeriesByName()
	if res.Series[0].Scheme.Name != "aaa" {
		t.Error("series not sorted")
	}
}

// TestDimOrderCollapsesEarly reproduces the Section 1 observation on which
// the rotation is motivated: fixed dimension-ordered broadcast saturates at
// a far lower rho than priority STAR on the same torus.
func TestDimOrderCollapsesEarly(t *testing.T) {
	e := &Experiment{
		ID: "dimorder", Title: "dim order collapse",
		Dims: []int{4, 8}, Rhos: []float64{0.8}, BroadcastFrac: 1,
		Schemes: []SchemeSpec{DimOrderSpec, PrioritySTARSpec},
		Model:   balance.ExactDistance,
		Warmup:  500, Measure: 4000, Drain: 0, Reps: 1, BaseSeed: 5,
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	dimOrder, star := res.Series[0].Points[0], res.Series[1].Points[0]
	if dimOrder.UnstableReps == 0 {
		// At rho=0.8 the fixed tree overloads its last dimension:
		// a_{1,1}/2 links carry 28/2 = 14 transmissions per task vs the
		// balanced 15.5/2; utilization ratio 14/7.75 ~ 1.8 > 1/0.8.
		t.Error("dimension-ordered broadcast should be unstable at rho=0.8 on 4x8")
	}
	if star.UnstableReps != 0 {
		t.Error("priority STAR should remain stable at rho=0.8")
	}
}

// TestSchemeMatrixOrdering: on an asymmetric torus at high rho, balanced
// rotation must beat uniform rotation, and priority must beat FCFS.
func TestSchemeMatrixOrdering(t *testing.T) {
	e := &Experiment{
		ID: "matrix", Title: "matrix",
		Dims: []int{4, 8}, Rhos: []float64{0.85}, BroadcastFrac: 1,
		Schemes: []SchemeSpec{PrioritySTARSpec, FCFSDirectSpec, UniformFCFSSpec},
		Model:   balance.ExactDistance,
		Warmup:  2000, Measure: 8000, Drain: 4000, Reps: 2, BaseSeed: 6,
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	star := res.Series[0].Points[0]
	fcfs := res.Series[1].Points[0]
	uniform := res.Series[2].Points[0]
	if star.Value(MetricReception) >= fcfs.Value(MetricReception) {
		t.Errorf("priority %g should beat FCFS %g",
			star.Value(MetricReception), fcfs.Value(MetricReception))
	}
	// Uniform rotation overloads the long dimension: its max dim
	// utilization exceeds the balanced one.
	if uniform.Value(MetricMaxDimUtil) <= fcfs.Value(MetricMaxDimUtil)+0.02 {
		t.Errorf("uniform max-dim util %g should exceed balanced %g",
			uniform.Value(MetricMaxDimUtil), fcfs.Value(MetricMaxDimUtil))
	}
}

func mustShape(t *testing.T, dims ...int) *torus.Shape {
	t.Helper()
	s, err := torus.New(dims...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func ratesFor(t *testing.T, s *torus.Shape, rho, frac float64) traffic.Rates {
	t.Helper()
	r, err := traffic.RatesForRho(s, rho, frac, 1, balance.ExactDistance)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

var _ = core.FCFS // document the dependency on core's discipline constants

func TestPlotRendersSeries(t *testing.T) {
	res, err := tinyExperiment().Run()
	if err != nil {
		t.Fatal(err)
	}
	out := res.Plot(MetricReception)
	for _, want := range []string{"priority-STAR", "FCFS-direct", "throughput factor rho"} {
		if !strings.Contains(out, want) {
			t.Errorf("plot missing %q:\n%s", want, out)
		}
	}
}

func TestPointSummaryAllMetrics(t *testing.T) {
	p := &Point{}
	metrics := []Metric{MetricReception, MetricBroadcast, MetricUnicast,
		MetricHighWait, MetricLowWait, MetricAvgUtil, MetricMaxDimUtil}
	seen := map[*stats.Summary]bool{}
	for _, m := range metrics {
		s := p.summary(m)
		if s == nil || seen[s] {
			t.Errorf("metric %v: nil or duplicate summary pointer", m)
		}
		seen[s] = true
	}
	// Unknown metrics fall back to reception.
	if p.summary(Metric(99)) != &p.Reception {
		t.Error("unknown metric should map to reception")
	}
}

func TestTableMarksUnstableCells(t *testing.T) {
	e := &Experiment{
		ID: "unstable", Title: "unstable",
		Dims: []int{4, 4}, Rhos: []float64{1.3}, BroadcastFrac: 1,
		Schemes: []SchemeSpec{FCFSDirectSpec},
		Model:   balance.ExactDistance,
		Warmup:  200, Measure: 4000, Drain: 0, Reps: 1, BaseSeed: 12,
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Series[0].Points[0].UnstableReps == 0 {
		t.Fatal("rho=1.3 must be unstable")
	}
	table := res.Table(MetricReception)
	if !strings.Contains(table, "*") || !strings.Contains(table, "saturation") {
		t.Errorf("unstable cell not marked:\n%s", table)
	}
}

func TestProgressCallbackCoversAllJobs(t *testing.T) {
	e := tinyExperiment()
	var calls []int
	lastTotal := 0
	e.Progress = func(done, total int) {
		calls = append(calls, done)
		lastTotal = total
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	wantJobs := len(e.Schemes) * len(e.Rhos) * e.Reps
	if lastTotal != wantJobs {
		t.Errorf("total %d, want %d", lastTotal, wantJobs)
	}
	if len(calls) != wantJobs {
		t.Fatalf("%d progress calls for %d jobs", len(calls), wantJobs)
	}
	// Progress calls are serialized, so done must count up 1..N.
	for i, d := range calls {
		if d != i+1 {
			t.Fatalf("call %d reported done=%d", i, d)
		}
	}
}

func TestDimUtilAggregatedPerPoint(t *testing.T) {
	e := tinyExperiment()
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	s := torus.MustNew(e.Dims...)
	for _, series := range res.Series {
		for pi, p := range series.Points {
			if len(p.DimUtil) != s.Dims() {
				t.Fatalf("%s point %d: %d dims", series.Scheme.Name, pi, len(p.DimUtil))
			}
			var sum float64
			for _, u := range p.DimUtil {
				if u.N() != e.Reps {
					t.Errorf("%s point %d: dim summary has %d reps", series.Scheme.Name, pi, u.N())
				}
				sum += u.Mean()
			}
			if avg := sum / float64(s.Dims()); math.Abs(avg-p.Value(MetricAvgUtil)) > 1e-9 {
				t.Errorf("%s point %d: dim-util average %g, avg-util metric %g",
					series.Scheme.Name, pi, avg, p.Value(MetricAvgUtil))
			}
		}
	}
	rep := res.DimLoadReport()
	for _, want := range []string{"per-dimension link utilization", "priority-STAR", "rho 0.800", "d0=", "d1=", "spread="} {
		if !strings.Contains(rep, want) {
			t.Errorf("DimLoadReport missing %q:\n%s", want, rep)
		}
	}
}
