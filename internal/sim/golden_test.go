package sim

import (
	"context"
	"fmt"
	"testing"

	"prioritystar/internal/core"
	"prioritystar/internal/fault"
)

// goldenFingerprint condenses every float aggregate of a Result into one
// exact string (full float64 precision, no rounding), so two runs match iff
// they followed bit-identical trajectories.
func goldenFingerprint(r *Result) string {
	return fmt.Sprintf("rcp=%d/%v bc=%d/%v uni=%d/%v q0=%v q1=%v q2=%v gb=%d gu=%d ib=%d iu=%d be=%d mb=%d du=%v",
		r.Reception.Count(), r.Reception.Mean(),
		r.Broadcast.Count(), r.Broadcast.Mean(),
		r.Unicast.Count(), r.Unicast.Mean(),
		r.QueueWait[0].Mean(), r.QueueWait[1].Mean(), r.QueueWait[2].Mean(),
		r.GeneratedBroadcasts, r.GeneratedUnicasts,
		r.IncompleteBroadcasts, r.IncompleteUnicasts,
		r.BacklogEnd, r.MaxBacklog, r.DimUtilization)
}

// goldenCases are fingerprints captured from the engine BEFORE fault
// injection and runtime guards existed (commit 023e8d3). They pin the
// contract that a run with an empty fault schedule and zero-value guards is
// bit-identical to the historical engine. The last two rows, captured at
// commit 3471600 before packets moved into a per-engine slab, reach what the
// first four do not: the d = 3 shape of Figs. 4 and 7, and fig8's mixed
// traffic with three priority classes.
func goldenCases(t *testing.T) []struct {
	cfg  Config
	want string
} {
	t.Helper()
	return []struct {
		cfg  Config
		want string
	}{
		{detCase(t, []int{8, 8}, 0.8, 1, core.TwoLevel, 1, 101),
			"rcp=162981/6.971505881053673 bc=2587/16.260146888287615 uni=0/0 q0=0.023590365430193442 q1=1.367210300429183 q2=0 gb=2587 gu=0 ib=0 iu=0 be=276 mb=567 du=[0.818203125 0.78109375]"},
		{detCase(t, []int{4, 5}, 0.5, 0.7, core.FCFS, 1, 102),
			"rcp=22667/3.3959500595579524 bc=1193/6.338642078792961 uni=4150/3.4672289156626563 q0=0.42793029805936383 q1=0 q2=0 gb=1193 gu=4150 ib=0 iu=0 be=10 mb=60 du=[0.506125 0.50353125]"},
		{detCase(t, []int{4, 4, 8}, 0.6, 0.5, core.ThreeLevel, 4, 103),
			"rcp=43561/28.685062326393 bc=343/94.69387755102045 uni=11395/32.677226853883376 q0=2.243608297153889 q1=4.015062058265807 q2=6.814846546923211 gb=343 gu=11395 ib=0 iu=0 be=563 mb=985 du=[0.5650048828125 0.5576416015625 0.5786962890625]"},
		{detCase(t, []int{2, 2, 2, 2}, 0.7, 1, core.TwoLevel, 2, 104),
			"rcp=17895/9.57004749930152 bc=1193/22.90360435875943 uni=0/0 q0=1.366875300914781 q1=5.451428571428566 q2=0 gb=1193 gu=0 ib=0 iu=0 be=104 mb=211 du=[0.73046875 0.718125 0.703125 0.686640625]"},
		{d3Case(t),
			"rcp=1031198/10.011250991565266 bc=2018/25.86471754212088 uni=0/0 q0=0.02721443012383134 q1=1.8542677937153422 q2=0 gb=2018 gu=0 ib=0 iu=0 be=4166 mb=6758 du=[0.84794677734375 0.86495361328125 0.7861181640625]"},
		{fig8Case(t, false),
			"rcp=82908/10.99566989916521 bc=1316/35.57522796352576 uni=20302/5.347453452861835 q0=0.011289622231871427 q1=0.31629854368932037 q2=3.2822908260268755 gb=1316 gu=20302 ib=0 iu=0 be=452 mb=626 du=[0.8227734375 0.785830078125]"},
	}
}

// d3Case is the d = 3 shape of Figs. 4 and 7: 8×8×8 under broadcast-only
// priority STAR at ρ 0.8, on a 600-slot horizon so the race build stays
// quick.
func d3Case(t *testing.T) Config {
	t.Helper()
	cfg := detCase(t, []int{8, 8, 8}, 0.8, 1, core.TwoLevel, 1, 105)
	cfg.Warmup, cfg.Measure, cfg.Drain = 100, 400, 100
	return cfg
}

// fig8Case is fig8's traffic on 8×8 at ρ 0.8: half the load unicast, routed
// by priority STAR with three classes. faulted adds two permanently failed
// links (broadcast subtrees are dropped, unicasts reroute) and transient
// faults on every link (queues wait for recovery wake-ups).
func fig8Case(t *testing.T, faulted bool) Config {
	t.Helper()
	cfg := detCase(t, []int{8, 8}, 0.8, 0.5, core.ThreeLevel, 1, 106)
	if faulted {
		cfg.Faults = &fault.Schedule{Seed: 5, RandomLinks: 2, MTBF: 300, MTTR: 30}
	}
	return cfg
}

// TestGoldenPrePREngine proves the fault-free, guard-free engine reproduces
// the pre-PR engine exactly.
func TestGoldenPrePREngine(t *testing.T) {
	for i, c := range goldenCases(t) {
		res, err := Run(c.cfg)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got := goldenFingerprint(res); got != c.want {
			t.Errorf("case %d: engine diverged from pre-PR golden run\n got %s\nwant %s", i, got, c.want)
		}
		if res.Status != StatusOK {
			t.Errorf("case %d: status %v, want ok", i, res.Status)
		}
	}
}

// TestGoldenWithInertRobustness proves that attaching the whole robustness
// apparatus in inert form — an empty (but non-nil) fault schedule, an armed
// divergence watchdog that does not fire, and a live context — still yields
// the pre-PR trajectory bit for bit.
func TestGoldenWithInertRobustness(t *testing.T) {
	for i, c := range goldenCases(t) {
		cfg := c.cfg
		cfg.Faults = &fault.Schedule{Seed: 99} // empty: injects nothing
		cfg.Guard = DefaultGuard(cfg.Shape)
		cfg.Context = context.Background()
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got := goldenFingerprint(res); got != c.want {
			t.Errorf("case %d: inert robustness features perturbed the run\n got %s\nwant %s", i, got, c.want)
		}
		if res.Status != StatusOK {
			t.Errorf("case %d: status %v, want ok", i, res.Status)
		}
	}
}

// TestGoldenFaulted pins one faulted trajectory, fig8Case with faults,
// captured at commit 3471600. The other fault tests compare the engine only
// with itself, so a change that drops or reorders work on the fault paths
// (subtree drops, adaptive reroutes, recovery wake-ups) would pass them all.
func TestGoldenFaulted(t *testing.T) {
	res, err := Run(fig8Case(t, true))
	if err != nil {
		t.Fatal(err)
	}
	got := goldenFingerprint(res) + fmt.Sprintf(" lost=%d deg=%d reach=%d/%v",
		res.LostCopies, res.DegradedTasks, res.Reachability.Count(), res.Reachability.Mean())
	const want = "rcp=80448/69.47694162688958 bc=639/338.99530516431923 uni=19597/16.460070418941672 q0=2.489750692520775 q1=2.983827828574971 q2=25.54875200366375 gb=1320 gu=19935 ib=61 iu=338 be=3995 mb=4608 du=[0.765029296875 0.7478125] lost=2613 deg=620 reach=1259/0.9684682980949855"
	if got != want {
		t.Errorf("faulted run diverged from its golden\n got %s\nwant %s", got, want)
	}
	if res.Status != StatusOK {
		t.Errorf("status %v, want ok", res.Status)
	}
}
