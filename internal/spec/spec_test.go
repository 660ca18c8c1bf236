package spec

import (
	"bytes"
	"strings"
	"testing"

	"prioritystar/internal/balance"
	"prioritystar/internal/core"
	"prioritystar/internal/sim"
	"prioritystar/internal/sweep"
	"prioritystar/internal/torus"
	"prioritystar/internal/traffic"
)

const sample = `{
  "id": "my-sweep",
  "title": "demo",
  "dims": [4, 8],
  "rhos": [0.2, 0.8],
  "broadcastFrac": 0.5,
  "schemes": [
    {"name": "priority-star"},
    {"discipline": "fcfs", "rotation": "uniform"},
    {"name": "sep", "discipline": "2-level", "rotation": "balanced", "separate": true}
  ],
  "length": "geom:3",
  "model": "floor",
  "warmup": 100,
  "measure": 1000,
  "drain": 200,
  "reps": 2,
  "seed": 42
}`

func TestLoad(t *testing.T) {
	e, err := Load(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if e.ID != "my-sweep" || len(e.Dims) != 2 || e.Dims[1] != 8 {
		t.Errorf("basic fields wrong: %+v", e)
	}
	if len(e.Schemes) != 3 {
		t.Fatalf("got %d schemes", len(e.Schemes))
	}
	if e.Schemes[0].Name != "priority-STAR" || e.Schemes[0].Discipline != core.TwoLevel {
		t.Errorf("named scheme wrong: %+v", e.Schemes[0])
	}
	if e.Schemes[1].Discipline != core.FCFS || e.Schemes[1].Rotation != core.UniformRotation {
		t.Errorf("explicit scheme wrong: %+v", e.Schemes[1])
	}
	if e.Schemes[1].Name == "" {
		t.Error("explicit scheme should get a synthesized name")
	}
	if !e.Schemes[2].SeparateBalance || e.Schemes[2].Name != "sep" {
		t.Errorf("separate scheme wrong: %+v", e.Schemes[2])
	}
	if e.Length.Kind() != traffic.KindGeometric || e.Length.Mean() != 3 {
		t.Errorf("length wrong: %+v", e.Length)
	}
	if e.Model != balance.PaperFloorDistance {
		t.Error("model wrong")
	}
	if e.BaseSeed != 42 || e.Reps != 2 || e.Measure != 1000 {
		t.Error("run parameters wrong")
	}
}

func TestLoadErrors(t *testing.T) {
	cases := []string{
		`{`, // syntax
		`{"id":"x","dims":[4],"rhos":[0.5],"schemes":[{"name":"nope"}],"measure":10,"reps":1}`,
		`{"id":"x","dims":[4],"rhos":[0.5],"schemes":[{"discipline":"weird"}],"measure":10,"reps":1}`,
		`{"id":"x","dims":[4],"rhos":[0.5],"schemes":[{"rotation":"weird"}],"measure":10,"reps":1}`,
		`{"id":"x","dims":[4],"rhos":[0.5],"schemes":[{"name":"priority-star"}],"length":"geom:0.2","measure":10,"reps":1}`,
		`{"id":"x","dims":[4],"rhos":[0.5],"schemes":[{"name":"priority-star"}],"model":"weird","measure":10,"reps":1}`,
		`{"id":"x","dims":[4],"rhos":[0.5],"schemes":[{"name":"priority-star"}],"execution":"turbo","measure":10,"reps":1}`,
		`{"unknownField": 3}`, // unknown fields rejected
	}
	for i, c := range cases {
		if _, err := Load(strings.NewReader(c)); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	orig, err := Load(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatalf("round trip failed: %v\n%s", err, buf.String())
	}
	if back.ID != orig.ID || back.BaseSeed != orig.BaseSeed ||
		len(back.Schemes) != len(orig.Schemes) ||
		back.Model != orig.Model ||
		back.Length.Mean() != orig.Length.Mean() {
		t.Errorf("round trip mismatch:\norig %+v\nback %+v", orig, back)
	}
	for i := range orig.Schemes {
		if back.Schemes[i].Discipline != orig.Schemes[i].Discipline ||
			back.Schemes[i].Rotation != orig.Schemes[i].Rotation ||
			back.Schemes[i].SeparateBalance != orig.Schemes[i].SeparateBalance {
			t.Errorf("scheme %d mismatch: %+v vs %+v", i, orig.Schemes[i], back.Schemes[i])
		}
	}
}

// TestExecutionRoundTrip: documents written while the retired dispatch knob
// existed still decode — "batched" and "sequential" alike — into the same
// experiment as a document without it, and saving one never writes the
// field back.
func TestExecutionRoundTrip(t *testing.T) {
	plain, err := Load(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	want, err := Fingerprint(plain)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"batched", "sequential"} {
		old := strings.Replace(sample, `"id": "my-sweep",`, `"id": "my-sweep", "execution": "`+mode+`",`, 1)
		e, err := Load(strings.NewReader(old))
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if got, _ := Fingerprint(e); got != want {
			t.Errorf("%s: fingerprint %s, want %s", mode, got, want)
		}
		var buf bytes.Buffer
		if err := Save(&buf, e); err != nil {
			t.Fatal(err)
		}
		if strings.Contains(buf.String(), "execution") {
			t.Errorf("%s: saved document still carries the retired field:\n%s", mode, buf.String())
		}
	}
}

// TestModeRoundTrip: the serving mode defaults to exact, parses "approx"
// (with its tolerance), survives Save/Load, and rejects unknown values.
func TestModeRoundTrip(t *testing.T) {
	def, err := Load(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if def.Approx || def.ApproxTol != 0 {
		t.Errorf("default mode = approx=%v tol=%g, want exact", def.Approx, def.ApproxTol)
	}
	ap := strings.Replace(sample, `"id": "my-sweep",`,
		`"id": "my-sweep", "mode": "approx", "approxTol": 0.1,`, 1)
	orig, err := Load(strings.NewReader(ap))
	if err != nil {
		t.Fatal(err)
	}
	if !orig.Approx || orig.ApproxTol != 0.1 {
		t.Fatalf("mode lost in load: approx=%v tol=%g", orig.Approx, orig.ApproxTol)
	}
	var buf bytes.Buffer
	if err := Save(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Approx || back.ApproxTol != 0.1 {
		t.Errorf("mode lost in round trip: approx=%v tol=%g", back.Approx, back.ApproxTol)
	}
	bad := strings.Replace(sample, `"id": "my-sweep",`, `"id": "my-sweep", "mode": "fuzzy",`, 1)
	if _, err := Load(strings.NewReader(bad)); err == nil {
		t.Error("unknown mode accepted")
	}
}

const faultedSample = `{
  "id": "faulted",
  "dims": [4, 4],
  "rhos": [0.5],
  "broadcastFrac": 1,
  "schemes": [{"name": "priority-star"}],
  "measure": 1000,
  "reps": 1,
  "seed": 7,
  "faults": "perm:2,link:5,trans:500/50,seed:11",
  "guard": {"default": true, "growthRuns": 6}
}`

func TestLoadFaultsAndGuard(t *testing.T) {
	e, err := Load(strings.NewReader(faultedSample))
	if err != nil {
		t.Fatal(err)
	}
	if e.Faults == nil || e.Faults.RandomLinks != 2 || len(e.Faults.Links) != 1 ||
		e.Faults.MTBF != 500 || e.Faults.MTTR != 50 || e.Faults.Seed != 11 {
		t.Errorf("faults wrong: %+v", e.Faults)
	}
	// default:true fills in shape-derived thresholds; explicit fields win.
	want := sim.DefaultGuard(torus.MustNew(4, 4))
	if e.Guard.DivergeBacklog != want.DivergeBacklog || e.Guard.GrowthWindow != want.GrowthWindow {
		t.Errorf("guard defaults not applied: %+v (want %+v)", e.Guard, want)
	}
	if e.Guard.GrowthRuns != 6 {
		t.Errorf("explicit GrowthRuns lost: %+v", e.Guard)
	}

	// Bad fault syntax and bad dims under default guard surface as errors.
	bad := strings.Replace(faultedSample, `"perm:2,link:5,trans:500/50,seed:11"`, `"perm:x"`, 1)
	if _, err := Load(strings.NewReader(bad)); err == nil {
		t.Error("bad fault syntax accepted")
	}
}

func TestRoundTripFaultsAndGuard(t *testing.T) {
	orig, err := Load(strings.NewReader(faultedSample))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatalf("round trip failed: %v\n%s", err, buf.String())
	}
	if back.Faults.String() != orig.Faults.String() {
		t.Errorf("faults round trip: %q vs %q", orig.Faults.String(), back.Faults.String())
	}
	if back.Guard != orig.Guard {
		t.Errorf("guard round trip: %+v vs %+v", orig.Guard, back.Guard)
	}
}

func TestRoundTripPredefinedFigures(t *testing.T) {
	for _, id := range sweep.FigureIDs() {
		exp, err := sweep.Figure(id, sweep.Quick)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := Save(&buf, exp); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		back, err := Load(&buf)
		if err != nil {
			t.Fatalf("%s: reload: %v\n%s", id, err, buf.String())
		}
		if back.ID != exp.ID || len(back.Schemes) != len(exp.Schemes) {
			t.Errorf("%s: round trip mismatch", id)
		}
	}
}

func TestLoadedExperimentRuns(t *testing.T) {
	e, err := Load(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	e.Rhos = []float64{0.3}
	e.Reps = 1
	e.Measure = 800
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 3 {
		t.Errorf("loaded experiment produced %d series", len(res.Series))
	}
}
