package sweep

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"prioritystar/internal/fault"
	"prioritystar/internal/sim"
	"prioritystar/internal/torus"
)

// tableFingerprint renders every metric of a result to one string so two
// results can be compared for exact (bit-identical float formatting)
// equality.
func tableFingerprint(r *Result) string {
	var b strings.Builder
	for m := MetricReception; m <= MetricMaxDimUtil; m++ {
		b.WriteString(r.CSV(m))
	}
	return b.String()
}

// TestCheckpointResumeMatchesUninterrupted is the acceptance scenario: a
// sweep is killed partway (simulated by truncating its checkpoint journal to
// a prefix, with a torn final line), resumed, and must produce the exact
// point table of an uninterrupted sweep.
func TestCheckpointResumeMatchesUninterrupted(t *testing.T) {
	dir := t.TempDir()

	// Uninterrupted reference (no checkpoint at all).
	ref, err := tinyExperiment().Run()
	if err != nil {
		t.Fatal(err)
	}
	want := tableFingerprint(ref)

	// Full run with a journal.
	full := tinyExperiment()
	full.Checkpoint = filepath.Join(dir, "full.jsonl")
	fres, err := full.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := tableFingerprint(fres); got != want {
		t.Fatalf("journaling changed the result:\n%s\nvs\n%s", got, want)
	}

	// Simulate the crash: keep the header, a few intact records, and a torn
	// half-written line.
	data, err := os.ReadFile(full.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	if len(lines) < 5 {
		t.Fatalf("journal too short to truncate: %d lines", len(lines))
	}
	partial := filepath.Join(dir, "crashed.jsonl")
	torn := strings.Join(lines[:4], "") + lines[4][:len(lines[4])/2]
	if err := os.WriteFile(partial, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}

	// Resume from the crashed journal.
	resumed := tinyExperiment()
	resumed.Checkpoint = partial
	resumed.Resume = true
	ran := 0
	resumed.Progress = func(done, total int) { ran = total }
	rres, err := resumed.Run()
	if err != nil {
		t.Fatal(err)
	}
	wholeGrid := len(resumed.Schemes) * len(resumed.Rhos) * resumed.Reps
	if ran == 0 || ran >= wholeGrid {
		t.Errorf("resume ran %d of %d replications; want a proper subset (journal replay skipped the rest)", ran, wholeGrid)
	}
	if got := tableFingerprint(rres); got != want {
		t.Errorf("resumed sweep differs from uninterrupted:\n%s\nvs\n%s", got, want)
	}

	// Resuming the now-complete journal runs nothing and still matches.
	again := tinyExperiment()
	again.Checkpoint = partial
	again.Resume = true
	reran := -1
	again.Progress = func(done, total int) { reran = total }
	ares, err := again.Run()
	if err != nil {
		t.Fatal(err)
	}
	if reran != -1 {
		t.Errorf("second resume re-ran %d replications; journal should cover everything", reran)
	}
	if got := tableFingerprint(ares); got != want {
		t.Errorf("replay-only sweep differs from uninterrupted")
	}
}

// TestResumeRejectsForeignJournal: resuming against a journal written by a
// different experiment must fail loudly, not silently mix data.
func TestResumeRejectsForeignJournal(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.jsonl")
	first := tinyExperiment()
	first.Checkpoint = path
	if _, err := first.Run(); err != nil {
		t.Fatal(err)
	}
	other := tinyExperiment()
	other.BaseSeed++ // different experiment
	other.Checkpoint = path
	other.Resume = true
	if _, err := other.Run(); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Errorf("foreign journal accepted (err = %v)", err)
	}
}

// TestResumeWithMissingJournalStartsFresh: -resume on a first run (no file
// yet) must behave like a plain checkpointed run.
func TestResumeWithMissingJournalStartsFresh(t *testing.T) {
	e := tinyExperiment()
	e.Checkpoint = filepath.Join(t.TempDir(), "new.jsonl")
	e.Resume = true
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 2 {
		t.Fatalf("got %d series", len(res.Series))
	}
	if _, err := os.Stat(e.Checkpoint); err != nil {
		t.Errorf("journal not created: %v", err)
	}
}

// TestRunMatchesPerRepRunner: Run's pooled, batched, striped execution
// must produce the exact point table of the plainest possible reference —
// one sequential sim.Runner call per replication, folded in index order —
// whatever the worker budget.
func TestRunMatchesPerRepRunner(t *testing.T) {
	ref := tinyExperiment()
	shape := torus.MustNew(ref.Dims...)
	records := make(map[RepKey]RepRecord)
	var runner sim.Runner
	for si := range ref.Schemes {
		for ri := range ref.Rhos {
			cfg, err := ref.cellConfig(shape, si, ri)
			if err != nil {
				t.Fatal(err)
			}
			for rep := 0; rep < ref.Reps; rep++ {
				cfg.Seed = ref.repSeed(si, ri, rep)
				res, err := runner.Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				k := RepKey{si, ri, rep}
				records[k] = ref.makeRecord(shape, k, res)
			}
		}
	}
	want := tableFingerprint(ref.Assemble(records, 0, 0))

	for _, workers := range []int{1, 3} { // 3: uneven split across the 4 cells
		e := tinyExperiment()
		e.Workers = workers
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		if got := tableFingerprint(res); got != want {
			t.Errorf("Workers=%d: Run differs from the per-rep Runner reference:\n%s\nvs\n%s", workers, got, want)
		}
	}
}

// fakeRecords is a well-formed record set for sj, for executors that stand
// in for the engine.
func fakeRecords(sj Subjob) []RepRecord {
	recs := make([]RepRecord, len(sj.Reps))
	for i, rep := range sj.Reps {
		recs[i] = RepRecord{Scheme: sj.Scheme, Rho: sj.Rho, Rep: rep, Stable: true}
	}
	return recs
}

// TestExecuteFailureWaitsForInFlight: an executor error fails the
// execution, but Execute returns it only after every executor call in flight
// has returned, starts no sub-job after the failure, and leaves no goroutine
// behind.
func TestExecuteFailureWaitsForInFlight(t *testing.T) {
	before := runtime.NumGoroutine()
	e := tinyExperiment()
	e.Rhos = []float64{0.2, 0.4, 0.6, 0.8} // 8 sub-jobs for a pool of 3
	boom := errors.New("boom")
	var inFlight, calls atomic.Int64
	failing, release := make(chan struct{}), make(chan struct{})
	exec := func(ctx context.Context, sj Subjob, g *Gather) error {
		inFlight.Add(1)
		defer inFlight.Add(-1)
		if calls.Add(1) == 3 { // the first two are parked below
			close(failing)
			return boom
		}
		<-release // deliberately deaf to ctx: a call that outlives the failure
		_, err := g.Deliver(sj, fakeRecords(sj))
		return err
	}

	var err error
	var atReturn int64
	done := make(chan struct{})
	go func() {
		_, err = e.Execute(3, func(int) Executor { return exec })
		atReturn = inFlight.Load()
		close(done)
	}()
	<-failing
	select {
	case <-done:
		t.Error("Execute returned while executor calls were still in flight")
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	<-done
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want the executor's error", err)
	}
	if atReturn != 0 {
		t.Errorf("%d executor call(s) still in flight when Execute returned", atReturn)
	}
	if n := calls.Load(); n != 3 {
		t.Errorf("%d executor calls, want 3: dispatch went on after the failure", n)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after Execute, %d before", n, before)
	}
}

// TestExecuteCheckpointAppendFailure: a checkpoint append that fails
// mid-run fails the execution with the append's error and stops dispatch.
func TestExecuteCheckpointAppendFailure(t *testing.T) {
	e := tinyExperiment()
	e.Checkpoint = filepath.Join(t.TempDir(), "ckpt.jsonl")
	var calls atomic.Int64
	_, err := e.Execute(1, func(int) Executor {
		return func(ctx context.Context, sj Subjob, g *Gather) error {
			if calls.Add(1) == 1 {
				g.mu.Lock()
				g.jnl.Close() // every later append fails
				g.mu.Unlock()
			}
			_, err := g.Deliver(sj, fakeRecords(sj))
			return err
		}
	})
	if err == nil || !strings.Contains(err.Error(), "writing checkpoint") {
		t.Fatalf("err = %v, want the failed checkpoint append", err)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("%d executor calls, want 1: dispatch went on after the failed append", n)
	}
}

// TestExecuteDispatchesHeaviestFirst: Execute hands sub-jobs out by
// descending reps × rho with ties in index order, weighing a sub-job the
// journal left partial by the replications it still has to run, and the
// order changes nothing in the result.
func TestExecuteDispatchesHeaviestFirst(t *testing.T) {
	dir := t.TempDir()
	mk := func() *Experiment {
		e := tinyExperiment()
		e.Rhos = []float64{0.25, 0.75} // exact weights, so ties are ties
		e.Reps = 10                    // each cell splits into 8 + 2 reps
		return e
	}
	ref := mk()
	ref.Checkpoint = filepath.Join(dir, "full.jsonl")
	want, err := ref.Run()
	if err != nil {
		t.Fatal(err)
	}

	// A journal holding reps 0..6 of cell (0,1), as a crash might leave it.
	records, jnl, err := openCheckpoint(ref.Checkpoint, ref.fingerprint(), true)
	if err != nil {
		t.Fatal(err)
	}
	jnl.Close()
	partial := filepath.Join(dir, "partial.jsonl")
	if _, jnl, err = openCheckpoint(partial, ref.fingerprint(), false); err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 7; rep++ {
		if err := jnl.Append(records[RepKey{0, 1, rep}]); err != nil {
			t.Fatal(err)
		}
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name       string
		checkpoint string
		resumed    int
		order      []string
	}{
		{"fresh", "", 0, []string{
			"s0r1@0.1.2.3.4.5.6.7", "s1r1@0.1.2.3.4.5.6.7", // 8 × 0.75
			"s0r0@0.1.2.3.4.5.6.7", "s1r0@0.1.2.3.4.5.6.7", // 8 × 0.25
			"s0r1@8.9", "s1r1@8.9", // 2 × 0.75
			"s0r0@8.9", "s1r0@8.9", // 2 × 0.25
		}},
		{"resumed", partial, 7, []string{
			"s1r1@0.1.2.3.4.5.6.7",                         // 8 × 0.75
			"s0r1@7.8.9",                                   // 3 × 0.75
			"s0r0@0.1.2.3.4.5.6.7", "s1r0@0.1.2.3.4.5.6.7", // 8 × 0.25
			"s1r1@8.9",             // 2 × 0.75
			"s0r0@8.9", "s1r0@8.9", // 2 × 0.25
		}},
	}
	for _, tc := range cases {
		e := mk()
		e.Checkpoint, e.Resume = tc.checkpoint, tc.checkpoint != ""
		shape := torus.MustNew(e.Dims...)
		var order []string
		res, err := e.Execute(1, func(int) Executor {
			var br sim.BatchRunner
			return func(ctx context.Context, sj Subjob, g *Gather) error {
				order = append(order, sj.Key())
				recs, err := e.runSubjob(ctx, &br, shape, sj, 1)
				if err != nil {
					return err
				}
				_, err = g.Deliver(sj, recs)
				return err
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !slices.Equal(order, tc.order) {
			t.Errorf("%s: dispatch order\n%q\nwant\n%q", tc.name, order, tc.order)
		}
		if res.ResumedReps != tc.resumed {
			t.Errorf("%s: %d resumed reps, want %d", tc.name, res.ResumedReps, tc.resumed)
		}
		if got := tableFingerprint(res); got != tableFingerprint(want) {
			t.Errorf("%s: result differs from Run's:\n%s\nvs\n%s", tc.name, got, tableFingerprint(want))
		}
	}
}

// TestResumeLandsMidBatch: a crash that journals only some replications of a
// (scheme, rho) cell forces the resumed batched sweep to dispatch a partial
// batch for that cell — only the missing reps, with their original seeds.
func TestResumeLandsMidBatch(t *testing.T) {
	dir := t.TempDir()
	mk := func() *Experiment {
		e := tinyExperiment()
		e.Reps = 4 // big enough cells that a truncation lands inside one
		return e
	}

	ref, err := mk().Run()
	if err != nil {
		t.Fatal(err)
	}
	want := tableFingerprint(ref)

	full := mk()
	full.Checkpoint = filepath.Join(dir, "full.jsonl")
	if _, err := full.Run(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(full.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	// Keep the header plus 6 records: the first cell delivered complete (4
	// reps; a rho = 0.8 cell, since the heaviest run first) and the next one
	// half done (2 of 4), so the resume must run a 2-rep partial batch for
	// that cell and full batches for the untouched cells.
	lines := strings.SplitAfter(string(data), "\n")
	if len(lines) < 8 {
		t.Fatalf("journal too short: %d lines", len(lines))
	}
	partial := filepath.Join(dir, "midbatch.jsonl")
	if err := os.WriteFile(partial, []byte(strings.Join(lines[:7], "")), 0o644); err != nil {
		t.Fatal(err)
	}

	resumed := mk()
	resumed.Checkpoint = partial
	resumed.Resume = true
	ran := 0
	resumed.Progress = func(done, total int) { ran = total }
	rres, err := resumed.Run()
	if err != nil {
		t.Fatal(err)
	}
	wholeGrid := len(resumed.Schemes) * len(resumed.Rhos) * resumed.Reps
	if missing := wholeGrid - 6; ran != missing {
		t.Errorf("resume ran %d replications, want %d (journal covered 6)", ran, missing)
	}
	if got := tableFingerprint(rres); got != want {
		t.Errorf("mid-batch resume differs from uninterrupted:\n%s\nvs\n%s", got, want)
	}
}

// TestExperimentRecordsPerPointErrors: a fault schedule that fails to
// compile for the shape is rejected up front, but a panic mid-sweep lands in
// Point.FailedReps. Exercised here through the record-aggregation path.
func TestExperimentRecordsPerPointErrors(t *testing.T) {
	e := tinyExperiment()
	e.Faults = &fault.Schedule{Links: []torus.LinkID{99999}}
	if _, err := e.Run(); err == nil {
		t.Error("invalid fault schedule accepted")
	}

	// Error records aggregate into FailedReps without killing the sweep.
	shape := torus.MustNew(4, 4)
	e2 := tinyExperiment()
	recs := map[RepKey]RepRecord{
		{0, 0, 0}: {Scheme: 0, Rho: 0, Rep: 0, Err: "simulated failure"},
	}
	_ = shape
	// Aggregate through the public path: run the sweep, then overlay the
	// failure by rebuilding points from records via a resumed journal.
	dir := t.TempDir()
	path := filepath.Join(dir, "err.jsonl")
	_, j, err := openCheckpoint(path, e2.fingerprint(), false)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	e2.Checkpoint = path
	e2.Resume = true
	res, err := e2.Run()
	if err != nil {
		t.Fatal(err)
	}
	p := res.Series[0].Points[0]
	if p.FailedReps != 1 || p.Error != "simulated failure" {
		t.Errorf("FailedReps=%d Error=%q; want the journaled failure surfaced", p.FailedReps, p.Error)
	}
	if p.Reception.N() != e2.Reps-1 {
		t.Errorf("failed rep leaked into aggregates: N=%d", p.Reception.N())
	}
}

// TestSweepContextCancellation: a cancelled context aborts the sweep with
// the context's error.
func TestSweepContextCancellation(t *testing.T) {
	e := tinyExperiment()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e.Context = ctx
	if _, err := e.Run(); err != context.Canceled {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestSweepWithFaultsAndWatchdog runs a faulted, guarded sweep end to end:
// the rho=1.4 column must be cut short by the watchdog and feed the
// instability marking.
func TestSweepWithFaultsAndWatchdog(t *testing.T) {
	e := tinyExperiment()
	e.Rhos = []float64{0.3, 1.4}
	e.Schemes = []SchemeSpec{PrioritySTARSpec}
	e.Faults = &fault.Schedule{Seed: 3, RandomLinks: 1}
	e.Guard = sim.DefaultGuard(torus.MustNew(e.Dims...))
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	pts := res.Series[0].Points
	if pts[1].DivergedReps != e.Reps {
		t.Errorf("rho=1.4: DivergedReps=%d, want %d", pts[1].DivergedReps, e.Reps)
	}
	if pts[1].UnstableReps != e.Reps {
		t.Errorf("rho=1.4: UnstableReps=%d, want %d (diverged reps are unstable)", pts[1].UnstableReps, e.Reps)
	}
	if pts[0].DivergedReps != 0 {
		t.Errorf("rho=0.3 diverged %d reps under a single link fault", pts[0].DivergedReps)
	}
}
