package sim

import (
	"testing"

	"prioritystar/internal/balance"
	"prioritystar/internal/core"
	"prioritystar/internal/obs"
	"prioritystar/internal/torus"
	"prioritystar/internal/traffic"
)

// benchSlots is the measured horizon of every engine benchmark run.
const benchSlots = 2000

// benchConfig is the engine benchmarks' operating point: priority STAR on
// dims under broadcast-only traffic at rho, measured for benchSlots slots
// with no warmup or drain.
func benchConfig(b *testing.B, dims []int, rho float64) Config {
	s := torus.MustNew(dims...)
	rates, err := traffic.RatesForRho(s, rho, 1, 1, balance.ExactDistance)
	if err != nil {
		b.Fatal(err)
	}
	sch, err := core.PrioritySTAR(s, rates, balance.ExactDistance)
	if err != nil {
		b.Fatal(err)
	}
	return Config{Shape: s, Scheme: sch, Rates: rates, Measure: benchSlots}
}

// benchEngine measures raw engine throughput (simulated slots per run) for
// one topology/load combination. With probe set, every run carries the
// standard observability bundle, so a probed/unprobed pair measures what
// attaching it costs.
func benchEngine(b *testing.B, dims []int, rho float64, probe bool) {
	cfg := benchConfig(b, dims, rho)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		if probe {
			cfg.Probe = obs.NewStandard(cfg.Shape, 0, benchSlots)
		}
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(benchSlots)*float64(b.N)/b.Elapsed().Seconds(), "slots/s")
}

func BenchmarkEngine8x8LowLoad(b *testing.B)       { benchEngine(b, []int{8, 8}, 0.2, false) }
func BenchmarkEngine8x8LowLoadProbed(b *testing.B) { benchEngine(b, []int{8, 8}, 0.2, true) }
func BenchmarkEngine8x8HighLoad(b *testing.B)      { benchEngine(b, []int{8, 8}, 0.9, false) }
func BenchmarkEngine16x16(b *testing.B)            { benchEngine(b, []int{16, 16}, 0.8, false) }
func BenchmarkEngine8x8x8(b *testing.B)            { benchEngine(b, []int{8, 8, 8}, 0.8, false) }
func BenchmarkEngineHypercube8(b *testing.B) {
	benchEngine(b, []int{2, 2, 2, 2, 2, 2, 2, 2}, 0.8, false)
}

// BenchmarkEngineBatched measures the batched path the sweep runs: each
// iteration advances benchReps replications through one warm BatchRunner.
// Its slots/s counts the slots of every replication.
func BenchmarkEngineBatched(b *testing.B) {
	const benchReps = 8
	for _, c := range []struct {
		name string
		dims []int
		rho  float64
	}{
		{"8x8/rho0.2", []int{8, 8}, 0.2},
		{"8x8/rho0.9", []int{8, 8}, 0.9},
		{"16x16/rho0.3", []int{16, 16}, 0.3},
	} {
		b.Run(c.name, func(b *testing.B) {
			base := benchConfig(b, c.dims, c.rho)
			seeds := make([]uint64, benchReps)
			var br BatchRunner
			batch := func(i int) {
				for r := range seeds {
					seeds[r] = uint64(i*benchReps+r) + 1
				}
				out, err := br.Run(Batch{Base: base, Seeds: seeds})
				if err != nil {
					b.Fatal(err)
				}
				for _, rr := range out {
					if rr.Err != nil {
						b.Fatal(rr.Err)
					}
				}
			}
			batch(0) // warm the runner's engines and arenas
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				batch(i)
			}
			b.ReportMetric(float64(benchSlots*benchReps)*float64(b.N)/b.Elapsed().Seconds(), "slots/s")
		})
	}
}
