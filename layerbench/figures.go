package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"time"

	"prioritystar/internal/obs"
	"prioritystar/internal/sim"
	"prioritystar/internal/sweep"
	"prioritystar/internal/torus"
	"prioritystar/internal/traffic"
)

// figureIDs are the paper presets the figures workload regenerates: d=2
// and d=3 broadcast-only tori and the heterogeneous 50 % unicast mix.
var figureIDs = []string{"fig2+5", "fig4+7", "fig8-hetero-delay"}

// figureDigests pins the simulated statistics of every preset at
// DefaultSeed, per engine version. A change to sim.EngineVersion needs new
// digests; the failure message of a mismatching run prints the value seen.
var figureDigests = map[string]map[string]string{
	"prioritystar-sim/1": {
		"fig2+5":            "51e2654e2e3ef4a7075e03a80bfe8b65c879bc0b8ca32e4987764d536e5280bb",
		"fig4+7":            "37916929e11d36ac69e716a1f532be251a5d457668d7ceb054cc657d84b2d56f",
		"fig8-hetero-delay": "3a75fbd262f1e24269b6db00892f3c274f584c3e4dd8991fe40a251e4e357069",
	},
}

// utilTol bounds |mean link utilisation - rho| at stable points. The quick
// scale measures 3000 slots over 2 replications, so the estimate carries a
// few percent of sampling noise.
const utilTol = 0.05

// figures is the batch workload; tests shrink ids and swap digests.
type figures struct {
	ids     []string
	digests map[string]map[string]string
	// tamper, when set, edits each result before it is checked.
	tamper func(id string, res *sweep.Result)
}

func runFigures(o Options) (*Report, error) {
	return figures{ids: figureIDs, digests: figureDigests}.run(o)
}

// figureExperiment builds one preset as cmd/figures does, with the
// workload seed folded into its base seed (DefaultSeed keeps the preset's).
func figureExperiment(id string, seed uint64) (*sweep.Experiment, error) {
	exp, err := sweep.Figure(id, sweep.Quick)
	if err != nil {
		return nil, err
	}
	if seed != DefaultSeed {
		exp.BaseSeed ^= mix64(seed)
	}
	return exp, nil
}

// slotsOf is the simulated slot count of one experiment.
func slotsOf(e *sweep.Experiment) float64 {
	return float64((e.Warmup + e.Measure + e.Drain) * int64(len(e.Schemes)*len(e.Rhos)*e.Reps))
}

// figureCell is the prepared simulation input of one sub-job.
type figureCell struct {
	sj  sweep.Subjob
	cfg sim.Config
}

// prepared is the figures set-up: each preset with its sub-jobs and the
// simulation config of every cell, built through the same public calls
// the engine's callers use.
type prepared struct {
	exps  map[string]*sweep.Experiment
	cells map[string][]figureCell
}

func (f figures) prepare(seed uint64) (*prepared, error) {
	p := &prepared{exps: map[string]*sweep.Experiment{}, cells: map[string][]figureCell{}}
	for _, id := range f.ids {
		exp, err := figureExperiment(id, seed)
		if err != nil {
			return nil, err
		}
		shape, err := torus.New(exp.Dims...)
		if err != nil {
			return nil, err
		}
		sjs, err := exp.Subjobs(nil)
		if err != nil {
			return nil, err
		}
		for _, sj := range sjs {
			rates, err := traffic.RatesForRho(shape, exp.Rhos[sj.Rho], exp.BroadcastFrac, exp.Length.Mean(), exp.Model)
			if err != nil {
				return nil, err
			}
			sch, err := exp.Schemes[sj.Scheme].Build(shape, rates, exp.Model)
			if err != nil {
				return nil, err
			}
			p.cells[id] = append(p.cells[id], figureCell{sj: sj, cfg: sim.Config{
				Shape: shape, Scheme: sch, Rates: rates, Length: exp.Length,
				Warmup: exp.Warmup, Measure: exp.Measure, Drain: exp.Drain,
				MaxBacklog: exp.MaxBacklog,
			}})
		}
		p.exps[id] = exp
	}
	return p, nil
}

// encodeStats is the canonical byte form of a result's simulated
// statistics: every aggregate at full float precision, in index order.
// Wall-clock fields are left out, so equal bytes mean equal simulations.
func encodeStats(res *sweep.Result) []byte {
	var b bytes.Buffer
	f := func(v float64) { binary.Write(&b, binary.LittleEndian, math.Float64bits(v)) }
	n := func(v int64) { binary.Write(&b, binary.LittleEndian, v) }
	for _, s := range res.Series {
		b.WriteString(s.Scheme.Name)
		for _, p := range s.Points {
			f(p.Rho)
			for _, sm := range []interface{ Mean() float64 }{&p.Reception, &p.Broadcast, &p.Unicast, &p.HighWait, &p.LowWait, &p.AvgUtil, &p.MaxDimUtil} {
				f(sm.Mean())
			}
			for i := range p.DimUtil {
				f(p.DimUtil[i].Mean())
			}
			n(int64(p.Reception.N()))
			n(p.GeneratedBroadcasts)
			n(p.IncompleteBroadcasts)
			n(int64(p.UnstableReps))
			n(int64(p.DivergedReps))
			n(int64(p.FailedReps))
		}
	}
	return b.Bytes()
}

// digest hashes encodeStats.
func digest(res *sweep.Result) string {
	sum := sha256.Sum256(encodeStats(res))
	return hex.EncodeToString(sum[:])
}

// check verifies one preset's result and returns what is wrong with it.
// first is the digest this run saw for the preset on its first pass ("" on
// the first pass): every later pass must reproduce it exactly.
func (f figures) check(id string, seed uint64, res *sweep.Result, first string) []string {
	var bad []string
	d := digest(res)
	if seed == DefaultSeed {
		want, ok := f.digests[sim.EngineVersion][id]
		switch {
		case !ok || want == "":
			bad = append(bad, fmt.Sprintf("%s: no digest recorded for engine %s (this run: %s)", id, sim.EngineVersion, d))
		case want != d:
			bad = append(bad, fmt.Sprintf("%s: digest %s, recorded %s", id, d, want))
		}
	}
	if first != "" && d != first {
		bad = append(bad, fmt.Sprintf("%s: digest %s differs from this run's first pass %s", id, d, first))
	}
	var star, fcfs *sweep.Series
	for i := range res.Series {
		s := &res.Series[i]
		switch s.Scheme.Name {
		case sweep.PrioritySTARSpec.Name:
			star = s
		case sweep.FCFSDirectSpec.Name:
			fcfs = s
		}
		for _, p := range s.Points {
			if p.FailedReps > 0 {
				bad = append(bad, fmt.Sprintf("%s %s rho %.2f: %d failed reps: %s", id, s.Scheme.Name, p.Rho, p.FailedReps, p.Error))
			}
			if u := p.AvgUtil.Mean(); p.UnstableReps == 0 && math.Abs(u-p.Rho) > utilTol {
				bad = append(bad, fmt.Sprintf("%s %s rho %.2f: mean link utilisation %.4f outside ±%.2f", id, s.Scheme.Name, p.Rho, u, utilTol))
			}
		}
	}
	if res.Exp.BroadcastFrac == 1 {
		if star == nil || fcfs == nil {
			return append(bad, fmt.Sprintf("%s: missing priority-STAR or FCFS-direct series", id))
		}
		for i, p := range star.Points {
			if p.Rho != 0.8 {
				continue
			}
			if s, q := p.Reception.Mean(), fcfs.Points[i].Reception.Mean(); !(s < q) {
				bad = append(bad, fmt.Sprintf("%s rho 0.8: priority-STAR reception %.4f not below FCFS-direct %.4f", id, s, q))
			}
		}
	}
	return bad
}

// pass is one timed regeneration of every preset.
type pass struct {
	slots, reps float64
	runs        []time.Duration // per preset, in f.ids order
	ok          bool
}

func (p pass) wall() time.Duration {
	var t time.Duration
	for _, d := range p.runs {
		t += d
	}
	return t
}

// runPreset runs one preset cold through sweep.Figure + Experiment.Run and
// checks the result. The span goes to tr (nil when untraced). It returns
// the result and the Run call's wall time, or nil when the run failed.
func (f figures) runPreset(o Options, rep *Report, firsts map[string]string, tr *Tracer, id string) (*sweep.Result, time.Duration) {
	rep.Attempted++
	exp, err := figureExperiment(id, o.Seed)
	if err != nil {
		rep.fail("%s: %v", id, err)
		return nil, 0
	}
	t0 := time.Now()
	res, err := exp.Run()
	t1 := time.Now()
	tr.Record("sweep.run", id, 0, t0, t1)
	if err != nil {
		rep.fail("%s: %v", id, err)
		return nil, 0
	}
	if f.tamper != nil {
		f.tamper(id, res)
	}
	if bad := f.check(id, o.Seed, res, firsts[id]); len(bad) > 0 {
		for _, b := range bad {
			rep.fail("%s", b)
		}
		return nil, 0
	}
	if firsts[id] == "" {
		firsts[id] = digest(res)
	}
	return res, t1.Sub(t0)
}

// runPass runs every preset once, untraced.
func (f figures) runPass(o Options, rep *Report, firsts map[string]string) pass {
	ps := pass{ok: true}
	for _, id := range f.ids {
		res, d := f.runPreset(o, rep, firsts, nil, id)
		if res == nil {
			ps.ok = false
			continue
		}
		exp := res.Exp
		ps.slots += slotsOf(exp)
		ps.reps += float64(len(exp.Schemes) * len(exp.Rhos) * exp.Reps)
		ps.runs = append(ps.runs, d)
	}
	o.Logf("figures: pass %.2fs ok=%v runs %v", ps.wall().Seconds(), ps.ok, ps.runs)
	return ps
}

func (f figures) run(o Options) (*Report, error) {
	rep := &Report{}
	p, setupS, err := timeSetup(51, func() (*prepared, error) { return f.prepare(o.Seed) }, func(*prepared) {})
	if err != nil {
		return nil, err
	}
	firsts := map[string]string{}
	if o.Trace {
		return f.traced(o, rep, p, firsts)
	}

	// Whole passes, at least two, as many as fill the window most closely,
	// so a run measures about o.Seconds rather than up to a pass more.
	var good []pass
	start := time.Now()
	for n := 0; ; n++ {
		if el := time.Since(start).Seconds(); n >= 2 && el+el/float64(n)/2 >= o.Seconds {
			break
		}
		if ps := f.runPass(o, rep, firsts); ps.ok {
			good = append(good, ps)
		}
	}
	if len(good) == 0 {
		return rep, nil // every pass failed: nothing to fold into a metric
	}
	// The batch path has no requests or jobs of its own: a request here is
	// one Experiment.Run call and a job one pass over every preset. Rates
	// are totals over the passes: pass times on a 2-vCPU host vary by up
	// to 20 % (fig4+7 in two clusters near 6.7 s and 8.1 s), and a total
	// over the passes moves less than a median of them. Run latencies come
	// in three sizes, one per preset, so a pass's p50 and p90 are its
	// fig8-hetero-delay and fig4+7 Run; they are reported as medians over
	// the passes, which do not depend on how many passes fit the window.
	var slots, reps, runs, wall float64
	var passMs, runP50, runP90 []float64
	for _, ps := range good {
		slots += ps.slots
		reps += ps.reps
		runs += float64(len(ps.runs))
		wall += ps.wall().Seconds()
		passMs = append(passMs, ps.wall().Seconds()*1e3)
		var runMs []float64
		for _, d := range ps.runs {
			runMs = append(runMs, float64(d)/1e6)
		}
		runP50 = append(runP50, quantile(runMs, 0.5))
		runP90 = append(runP90, quantile(runMs, 0.9))
	}
	set(&rep.E2E, "sim_slots_per_s", "1/s", slots/wall)
	set(&rep.E2E, "serve_rps", "1/s", runs/wall)
	set(&rep.E2E, "serve_p50_ms", "ms", quantile(runP50, 0.5))
	set(&rep.E2E, "serve_p90_ms", "ms", quantile(runP90, 0.5))
	set(&rep.E2E, "fleet_reps_per_s", "1/s", reps/wall)
	set(&rep.E2E, "job_p50_ms", "ms", quantile(passMs, 0.5))
	set(&rep.E2E, "job_p90_ms", "ms", quantile(passMs, 0.9))
	set(&rep.E2E, "setup_s", "s", setupS)
	return rep, nil
}

// traced runs every preset twice, once untraced as the overhead reference
// and once traced, then decomposes every preset through Subjobs →
// RunSubjob → Assemble and replays each sub-job under an obs.Counters
// probe.
func (f figures) traced(o Options, rep *Report, p *prepared, firsts map[string]string) (*Report, error) {
	tr := NewTracer()
	// The two runs of a preset are neighbours, and which goes first
	// alternates from preset to preset, so host speed drifting over the
	// run weighs on both sides alike.
	results := map[string]*sweep.Result{}
	var wall [2]time.Duration // untraced, traced
	complete := true
	for i, id := range f.ids {
		for k := 0; k < 2; k++ {
			traced := (i+k)%2 == 1
			var t *Tracer
			if traced {
				t = tr
			}
			res, d := f.runPreset(o, rep, firsts, t, id)
			if res == nil {
				complete = false
				continue
			}
			if traced {
				results[id] = res
				wall[1] += d
			} else {
				wall[0] += d
			}
		}
	}

	var (
		counters   obs.Counters
		subjobNs   float64
		failedReps float64
		unstable   float64
	)
	perFig := map[string]obs.Counters{}
	figNs := map[string]float64{}
	for _, id := range f.ids {
		res, ok := results[id]
		if !ok {
			continue
		}
		exp := p.exps[id]
		root := tr.Reserve()
		r0 := time.Now()
		t0 := time.Now()
		sjs, err := exp.Subjobs(nil)
		tr.Record("sweep.subjobs", id, root, t0, time.Now())
		if err != nil {
			rep.fail("%s: Subjobs: %v", id, err)
			continue
		}
		records := map[sweep.RepKey]sweep.RepRecord{}
		for _, sj := range sjs {
			rep.Attempted++
			t0 := time.Now()
			recs, err := exp.RunSubjob(sj)
			t1 := time.Now()
			tr.Record("sim.run_subjob", id, root, t0, t1)
			if err != nil {
				rep.fail("%s %s: RunSubjob: %v", id, sj.Key(), err)
				continue
			}
			subjobNs += float64(t1.Sub(t0))
			figNs[id] += float64(t1.Sub(t0))
			for _, rec := range recs {
				records[sweep.RepKey{Scheme: rec.Scheme, Rho: rec.Rho, Rep: rec.Rep}] = rec
			}
		}
		t0 = time.Now()
		asm := exp.Assemble(records, 0, 0)
		tr.Record("sweep.assemble", id, root, t0, time.Now())
		tr.Finish(root, "sweep.decomposed", id, 0, r0, time.Now())
		rep.Attempted++
		if !bytes.Equal(encodeStats(asm), encodeStats(res)) {
			rep.fail("%s: Subjobs→RunSubjob→Assemble differs from Run", id)
		}
		for _, s := range res.Series {
			for _, pt := range s.Points {
				failedReps += float64(pt.FailedReps)
				unstable += float64(pt.UnstableReps)
			}
		}

		// Probe replay: exact engine work counts, one cell at a time.
		var c obs.Counters
		for _, cell := range p.cells[id] {
			cfg := cell.cfg
			cfg.Probe = &c
			rep.Attempted++
			t0 := time.Now()
			var br sim.BatchRunner
			outs, err := br.Run(sim.Batch{Base: cfg, Seeds: cell.sj.Seeds, Workers: 1})
			tr.Record("probe.replay", id, 0, t0, time.Now())
			if err != nil {
				rep.fail("%s %s: probe replay: %v", id, cell.sj.Key(), err)
				continue
			}
			for i, out := range outs {
				k := sweep.RepKey{Scheme: cell.sj.Scheme, Rho: cell.sj.Rho, Rep: cell.sj.Reps[i]}
				if out.Err != nil || float64(records[k].Reception) != out.Result.Reception.Mean() {
					rep.fail("%s %v: probed replay diverged from RunSubjob", id, k)
				}
			}
		}
		perFig[id] = c
		counters.Enqueues += c.Enqueues
		counters.Services += c.Services
		counters.Delivers += c.Delivers
		counters.Spawns += c.Spawns
		counters.MaxQueued = max(counters.MaxQueued, c.MaxQueued)
	}

	spans := tr.Spans()
	L := &rep.Layer
	set(L, "sim.services", "count", float64(counters.Services))
	set(L, "sim.enqueues", "count", float64(counters.Enqueues))
	set(L, "sim.delivers", "count", float64(counters.Delivers))
	set(L, "sim.spawns", "count", float64(counters.Spawns))
	set(L, "sim.max_queued", "count", float64(counters.MaxQueued))
	set(L, "sim.ns_per_service", "ns", ratio(subjobNs, float64(counters.Services)))
	for id, name := range map[string]string{"fig2+5": "fig2", "fig4+7": "fig4", "fig8-hetero-delay": "fig8"} {
		c := perFig[id]
		set(L, "sim."+name+"_ns_per_service", "ns", ratio(figNs[id], float64(c.Services)))
		set(L, "sweep."+name+"_s", "s", sum(secondsOf(spansNamed(spans, "sweep.run", id))))
	}
	set(L, "sweep.subjob_ms_p50", "ms", quantile(Durations(spans, "sim.run_subjob"), 0.5))
	set(L, "sweep.assemble_ms", "ms", sum(Durations(spans, "sweep.assemble")))
	set(L, "sweep.pool_ratio", "ratio", ratio(sum(Durations(spans, "sweep.run")), sum(Durations(spans, "sim.run_subjob"))))
	set(L, "sweep.failed_reps", "count", failedReps)
	set(L, "sweep.unstable_reps", "count", unstable)
	specFingerprintMetric(L, tr, specDocsOf(p))
	if complete {
		set(L, "trace.overhead_frac", "ratio", wall[1].Seconds()/wall[0].Seconds()-1)
	}
	rep.Spans = tr.Spans()
	finishLayer(rep)
	return rep, nil
}

// spansNamed filters spans by name and job.
func spansNamed(spans []Span, name, job string) []Span {
	var out []Span
	for _, s := range spans {
		if s.Name == name && s.Job == job {
			out = append(out, s)
		}
	}
	return out
}

// secondsOf lists span durations in seconds.
func secondsOf(spans []Span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = s.Dur().Seconds()
	}
	return out
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
