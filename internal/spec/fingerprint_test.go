package spec

import (
	"strings"
	"testing"

	"prioritystar/internal/sweep"
	"prioritystar/internal/traffic"
)

// base returns a representative experiment built from a JSON spec.
func base(t *testing.T, js string) *sweep.Experiment {
	t.Helper()
	e, err := Load(strings.NewReader(js))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return e
}

const specA = `{
	"id": "fp-test", "dims": [4, 4], "rhos": [0.3, 0.6],
	"broadcastFrac": 0.75,
	"schemes": [{"name": "priority-star"}, {"discipline": "fcfs", "rotation": "fixed"}],
	"length": "geom:2", "model": "floor",
	"warmup": 100, "measure": 500, "drain": 200, "reps": 2, "seed": 7,
	"maxBacklog": 5000,
	"faults": "perm:1,seed:3",
	"guard": {"divergeBacklog": 1000}
}`

func TestFingerprintStableAcrossRoundTrip(t *testing.T) {
	e := base(t, specA)
	fp1, err := Fingerprint(e)
	if err != nil {
		t.Fatal(err)
	}
	// Spec -> sweep -> spec -> sweep must not move the fingerprint.
	rt, err := FromSweep(e).ToSweep()
	if err != nil {
		t.Fatal(err)
	}
	fp2, err := Fingerprint(rt)
	if err != nil {
		t.Fatal(err)
	}
	if fp1 != fp2 {
		t.Fatalf("round trip moved fingerprint: %s -> %s", fp1, fp2)
	}
	if !strings.HasPrefix(fp1, "ps1-") || len(fp1) != len("ps1-")+64 {
		t.Fatalf("unexpected fingerprint shape: %q", fp1)
	}
}

func TestFingerprintKeyOrderAndNamingInsensitive(t *testing.T) {
	// Same experiment with JSON keys in a different order and the scheme
	// spelled out explicitly instead of by CLI name.
	const specB = `{
		"seed": 7, "reps": 2, "drain": 200, "measure": 500, "warmup": 100,
		"model": "paper-floor", "length": "geom:2",
		"schemes": [
			{"discipline": "2-level", "rotation": "balanced", "name": "priority-STAR"},
			{"rotation": "fixed", "discipline": "fcfs"}
		],
		"broadcastFrac": 0.75, "rhos": [0.3, 0.6], "dims": [4, 4],
		"maxBacklog": 5000,
		"guard": {"divergeBacklog": 1000},
		"faults": "perm:1,seed:3",
		"id": "some-other-name", "title": "labels are not content"
	}`
	fpA, err := Fingerprint(base(t, specA))
	if err != nil {
		t.Fatal(err)
	}
	fpB, err := Fingerprint(base(t, specB))
	if err != nil {
		t.Fatal(err)
	}
	if fpA != fpB {
		t.Fatalf("equivalent specs fingerprint differently:\n a=%s\n b=%s", fpA, fpB)
	}
}

func TestFingerprintSeparatesDifferentContent(t *testing.T) {
	e := base(t, specA)
	fp, _ := Fingerprint(e)
	mutations := map[string]func(x *sweep.Experiment){
		"seed":       func(x *sweep.Experiment) { x.BaseSeed++ },
		"rho grid":   func(x *sweep.Experiment) { x.Rhos = append(x.Rhos, 0.9) },
		"dims":       func(x *sweep.Experiment) { x.Dims = []int{8, 8} },
		"reps":       func(x *sweep.Experiment) { x.Reps++ },
		"measure":    func(x *sweep.Experiment) { x.Measure++ },
		"maxBacklog": func(x *sweep.Experiment) { x.MaxBacklog++ },
		"faults":     func(x *sweep.Experiment) { x.Faults = nil },
		"guard":      func(x *sweep.Experiment) { x.Guard.DivergeBacklog++ },
		"scheme":     func(x *sweep.Experiment) { x.Schemes = x.Schemes[:1] },
		"length":     func(x *sweep.Experiment) { x.Length = traffic.FixedLength(2) }, // geom:2, same mean
	}
	for name, mutate := range mutations {
		m := base(t, specA)
		mutate(m)
		got, err := Fingerprint(m)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got == fp {
			t.Errorf("mutating %s did not change the fingerprint", name)
		}
	}
}

func TestFingerprintIgnoresExecutionKnobs(t *testing.T) {
	e := base(t, specA)
	fp, _ := Fingerprint(e)
	m := base(t, specA)
	m.ID = "renamed"
	m.Title = "different title"
	m.Notes = "different notes"
	m.Workers = 12
	m.Checkpoint = "/tmp/ckpt.jsonl"
	m.Resume = true
	m.Progress = func(done, total int) {}
	m.Approx = true // serving mode: an approx submit must hit the exact cache
	m.ApproxTol = 0.25
	got, err := Fingerprint(m)
	if err != nil {
		t.Fatal(err)
	}
	if got != fp {
		t.Fatalf("execution knobs moved the fingerprint: %s -> %s", fp, got)
	}
}

func TestStampFeedsJournalHeader(t *testing.T) {
	e := base(t, specA)
	if e.Fingerprint != "" {
		t.Fatalf("Load should not pre-stamp, got %q", e.Fingerprint)
	}
	if err := Stamp(e); err != nil {
		t.Fatal(err)
	}
	fp, _ := Fingerprint(e)
	if e.Fingerprint != fp {
		t.Fatalf("Stamp stored %q, want %q", e.Fingerprint, fp)
	}
}

func TestCanonicalIsStableBytes(t *testing.T) {
	a, err := Canonical(base(t, specA))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Canonical(base(t, specA))
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("canonical encoding unstable:\n%s\n%s", a, b)
	}
}
