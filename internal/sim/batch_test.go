package sim

import (
	"reflect"
	"strings"
	"testing"

	"prioritystar/internal/balance"
	"prioritystar/internal/core"
	"prioritystar/internal/fault"
	"prioritystar/internal/torus"
	"prioritystar/internal/traffic"
)

// seqResults runs each (cfg, seed) pair through a sequential Runner, the
// reference the batched engine must match bit for bit.
func seqResults(t *testing.T, base Config, seeds []uint64) []*Result {
	t.Helper()
	var r Runner
	out := make([]*Result, len(seeds))
	for i, seed := range seeds {
		cfg := base
		cfg.Seed = seed
		res, err := r.Run(cfg)
		if err != nil {
			t.Fatalf("sequential rep %d: %v", i, err)
		}
		out[i] = res
	}
	return out
}

// assertBatchMatches runs the batch at the given worker count and compares
// every replication's full Result against the sequential reference.
func assertBatchMatches(t *testing.T, name string, base Config, seeds []uint64, workers int) {
	t.Helper()
	want := seqResults(t, base, seeds)
	got, err := (&BatchRunner{}).Run(Batch{Base: base, Seeds: seeds, Workers: workers})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(got) != len(seeds) {
		t.Fatalf("%s: %d outcomes for %d seeds", name, len(got), len(seeds))
	}
	for i, rr := range got {
		if rr.Err != nil {
			t.Fatalf("%s rep %d: %v", name, i, rr.Err)
		}
		if !reflect.DeepEqual(rr.Result, want[i]) {
			t.Errorf("%s rep %d (workers=%d): batched result differs from sequential:\nbatched:    %+v\nsequential: %+v",
				name, i, workers, rr.Result, want[i])
		}
	}
}

// TestBatchBitIdenticalToSequential is the batched engine's core contract:
// per-rep Results must match sequential same-seed runs exactly, across
// shapes, loads, disciplines, length distributions, and worker counts.
func TestBatchBitIdenticalToSequential(t *testing.T) {
	seeds := []uint64{1, 2, 3, 4, 5, 6, 7}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"8x8/rho0.2", detCase(t, []int{8, 8}, 0.2, 1, core.TwoLevel, 1, 0)},
		{"8x8/rho0.9/mixed", detCase(t, []int{8, 8}, 0.9, 0.5, core.TwoLevel, 1, 0)},
		{"4x5/fcfs", detCase(t, []int{4, 5}, 0.5, 0.7, core.FCFS, 1, 0)},
		{"4x4x8/3level", detCase(t, []int{4, 4, 8}, 0.6, 0.5, core.ThreeLevel, 1, 0)},
		{"hypercube/geom", detCase(t, []int{2, 2, 2, 2, 2}, 0.7, 1, core.TwoLevel, 4, 0)},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 3} {
			assertBatchMatches(t, tc.name, tc.cfg, seeds, workers)
		}
	}
}

// TestBatchMatchesUnderFaults covers the fault-injected paths: permanent
// link kills (subtree loss, reachability accounting) and transient
// MTBF/MTTR faults (recovery wheel) must survive batching bit for bit.
func TestBatchMatchesUnderFaults(t *testing.T) {
	seeds := []uint64{11, 12, 13, 14, 15}
	perm := detCase(t, []int{4, 4}, 0.3, 0.8, core.TwoLevel, 1, 0)
	perm.Faults = &fault.Schedule{Seed: 3, RandomLinks: 2}
	assertBatchMatches(t, "perm-faults", perm, seeds, 2)

	trans := detCase(t, []int{4, 4}, 0.4, 1, core.FCFS, 1, 0)
	trans.Faults = &fault.Schedule{Seed: 5, MTBF: 300, MTTR: 30}
	assertBatchMatches(t, "transient-faults", trans, seeds, 2)
}

// TestBatchMatchesGuardTerminated covers replications the divergence
// watchdog cuts short: a saturated operating point must end with the same
// StatusDiverged result, at the same slot, in both engines.
func TestBatchMatchesGuardTerminated(t *testing.T) {
	s := torus.MustNew(4, 4)
	rates, err := traffic.RatesForRho(s, 1.5, 1, 1, balance.ExactDistance)
	if err != nil {
		t.Fatal(err)
	}
	sch, err := core.NewScheme(s, core.TwoLevel, core.BalancedRotation, rates, balance.ExactDistance)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Shape: s, Scheme: sch, Rates: rates,
		Warmup: 200, Measure: 2000, Drain: 0,
		Guard: DefaultGuard(s),
	}
	seeds := []uint64{21, 22, 23}
	want := seqResults(t, cfg, seeds)
	for _, w := range want {
		if w.Status != StatusDiverged {
			t.Fatalf("reference run did not diverge (status %s); pick a hotter rho", w.Status)
		}
	}
	assertBatchMatches(t, "guard-diverged", cfg, seeds, 2)
}

// TestBatchMixedOutcomes mixes a diverging rep set with a stable one in
// consecutive batches on one BatchRunner, proving buffer reuse across
// batches leaks nothing (the batched analogue of Runner reuse tests).
func TestBatchRunnerReuseAcrossBatches(t *testing.T) {
	var br BatchRunner
	cases := []Config{
		detCase(t, []int{8, 8}, 0.8, 1, core.TwoLevel, 1, 0),
		detCase(t, []int{4, 5}, 0.3, 0.5, core.FCFS, 1, 0),     // shape + class change
		detCase(t, []int{8, 8}, 0.2, 1, core.ThreeLevel, 1, 0), // back, more classes
	}
	seeds := []uint64{31, 32, 33, 34}
	for i, cfg := range cases {
		want := seqResults(t, cfg, seeds)
		got, err := br.Run(Batch{Base: cfg, Seeds: seeds, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		for j, rr := range got {
			if rr.Err != nil {
				t.Fatalf("batch %d rep %d: %v", i, j, rr.Err)
			}
			if !reflect.DeepEqual(rr.Result, want[j]) {
				t.Errorf("batch %d rep %d: reused BatchRunner diverged from sequential", i, j)
			}
		}
	}
}

// TestBatchPanicIsolated: a replication whose callback panics reports the
// panic as its own error; sibling replications in the same stripe finish
// normally and still match their sequential references.
func TestBatchPanicIsolated(t *testing.T) {
	cfg := detCase(t, []int{4, 4}, 0.3, 1, core.TwoLevel, 1, 0)
	seeds := []uint64{41, 42, 43}
	want := seqResults(t, cfg, seeds)

	// A poisoned batch: every delivery panics, so each rep dies on its own
	// first delivery and must report its own recovered panic.
	var br BatchRunner
	boom := cfg
	boom.OnDeliver = func(DeliverEvent) { panic("boom") }
	out, err := br.Run(Batch{Base: boom, Seeds: seeds, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, rr := range out {
		if rr.Err == nil || !strings.Contains(rr.Err.Error(), "panicked") {
			t.Fatalf("rep %d: panic not captured: %+v", i, rr)
		}
	}

	// A fresh batch on the same runner (same engines, same buffers) is
	// unaffected by the poisoned one.
	got, err := br.Run(Batch{Base: cfg, Seeds: seeds, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, rr := range got {
		if rr.Err != nil {
			t.Fatal(rr.Err)
		}
		if !reflect.DeepEqual(rr.Result, want[i]) {
			t.Errorf("rep %d after panic batch differs from sequential", i)
		}
	}
}

// TestBatchValidation rejects empty and invalid batches up front.
func TestBatchValidation(t *testing.T) {
	if _, err := (&BatchRunner{}).Run(Batch{}); err == nil {
		t.Error("empty batch accepted")
	}
	bad := Batch{Base: Config{}, Seeds: []uint64{1}}
	if _, err := (&BatchRunner{}).Run(bad); err == nil {
		t.Error("invalid base config accepted")
	}
}
