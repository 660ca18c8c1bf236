package main

import (
	"encoding/json"
	"time"

	"prioritystar/internal/spec"
)

// perLayer lists every per-layer metric with its unit. A traced run reports
// all of them; a layer the workload leaves idle reads 0. Names are
// "<layer>.<metric>", the layers being the repository's modules plus
// "bench" (the benchmark's own client code) and "trace" (its overhead).
var perLayer = []struct{ name, unit string }{
	{"sim.services", "count"},
	{"sim.enqueues", "count"},
	{"sim.delivers", "count"},
	{"sim.spawns", "count"},
	{"sim.max_queued", "count"},
	{"sim.ns_per_service", "ns"},
	{"sim.fig2_ns_per_service", "ns"},
	{"sim.fig4_ns_per_service", "ns"},
	{"sim.fig8_ns_per_service", "ns"},
	{"sweep.fig2_s", "s"},
	{"sweep.fig4_s", "s"},
	{"sweep.fig8_s", "s"},
	{"sweep.subjob_ms_p50", "ms"},
	{"sweep.assemble_ms", "ms"},
	{"sweep.pool_ratio", "ratio"},
	{"sweep.failed_reps", "count"},
	{"sweep.unstable_reps", "count"},
	{"spec.fingerprint_us_p50", "us"},
	{"serve.hit_p50_ms", "ms"},
	{"serve.hit_p99_ms", "ms"},
	{"serve.approx_p50_ms", "ms"},
	{"serve.approx_p99_ms", "ms"},
	{"serve.result_p50_ms", "ms"},
	{"serve.result_p99_ms", "ms"},
	{"serve.status_p50_ms", "ms"},
	{"serve.submit_handler_p50_us", "us"},
	{"serve.submit_handler_p99_us", "us"},
	{"serve.result_handler_p50_us", "us"},
	{"serve.transport_frac", "ratio"},
	{"serve.submit_inproc_hit_us", "us"},
	{"serve.submit_inproc_approx_us", "us"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.rejected", "count"},
	{"serve.jobs_retained", "count"},
	{"serve.bytes_per_request", "B"},
	{"serve.admit_ms_p50", "ms"},
	{"serve.queue_wait_ms_p50", "ms"},
	{"serve.finish_ms_p50", "ms"},
	{"surrogate.answer_ratio", "ratio"},
	{"surrogate.fallbacks", "count"},
	{"obs.scrape_ms_p50", "ms"},
	{"obs.scrape_ms_max", "ms"},
	{"cluster.runjob_ms_p50", "ms"},
	{"cluster.runjob_ms_p90", "ms"},
	{"cluster.subjob_ms_p50", "ms"},
	{"cluster.subjob_ms_p90", "ms"},
	{"cluster.subjobs_per_job", "ratio"},
	{"cluster.hedges", "count"},
	{"cluster.duplicates", "count"},
	{"cluster.leases_expired", "count"},
	{"cluster.local_subjobs", "count"},
	{"cluster.useful_ratio", "ratio"},
	{"cluster.fleet_vs_local", "ratio"},
	{"self_ms.bench", "ms"},
	{"self_ms.spec", "ms"},
	{"self_ms.serve", "ms"},
	{"self_ms.obs", "ms"},
	{"self_ms.sweep", "ms"},
	{"self_ms.sim", "ms"},
	{"self_ms.cluster", "ms"},
	{"trace.overhead_frac", "ratio"},
}

// finishLayer adds self time per layer from the report's spans and reads
// every per-layer metric the workload did not reach as 0.
func finishLayer(rep *Report) {
	for layer, d := range LayerSelfTimes(rep.Spans) {
		set(&rep.Layer, "self_ms."+layer, "ms", float64(d)/1e6)
	}
	for _, m := range perLayer {
		if _, ok := rep.Layer[m.name]; !ok {
			set(&rep.Layer, m.name, m.unit, 0)
		}
	}
	for name := range rep.Layer {
		if !isPerLayer(name) {
			delete(rep.Layer, name) // e.g. self time of a layer not listed
		}
	}
}

func isPerLayer(name string) bool {
	for _, m := range perLayer {
		if m.name == name {
			return true
		}
	}
	return false
}

// specDocsOf renders the prepared presets as spec documents.
func specDocsOf(p *prepared) [][]byte {
	var docs [][]byte
	for _, id := range figureIDs {
		if e, ok := p.exps[id]; ok {
			b, err := json.Marshal(spec.FromSweep(e))
			if err == nil {
				docs = append(docs, b)
			}
		}
	}
	return docs
}

// specFingerprintMetric times spec.Decode + spec.Stamp — what the daemon
// does to every submission and a worker to every sub-job — over docs, and
// sets spec.fingerprint_us_p50.
func specFingerprintMetric(L *map[string]Metric, tr *Tracer, docs [][]byte) {
	var us []float64
	for i := 0; i < 200 && len(docs) > 0; i++ {
		doc := docs[i%len(docs)]
		t0 := time.Now()
		exp, err := spec.Decode(doc)
		if err == nil {
			err = spec.Stamp(exp)
		}
		t1 := time.Now()
		if err != nil {
			continue
		}
		tr.Record("spec.fingerprint", exp.Fingerprint, 0, t0, t1)
		us = append(us, float64(t1.Sub(t0))/1e3)
	}
	set(L, "spec.fingerprint_us_p50", "us", quantile(us, 0.5))
}
