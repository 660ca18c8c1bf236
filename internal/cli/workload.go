package cli

import (
	"flag"
	"fmt"

	"prioritystar/internal/balance"
	"prioritystar/internal/sweep"
)

// Workload collects the flags that describe one experiment workload — the
// part of the command line shared by starsim (which runs it locally) and
// psctl (which submits it to a starsimd daemon). Register installs the
// flags; Experiment resolves them into a sweep.Experiment.
type Workload struct {
	Shape   string
	Scheme  string
	Rho     float64
	Sweep   string
	Frac    float64
	Len     string
	Seed    uint64
	Warmup  int64
	Measure int64
	Drain   int64
	Reps    int
	Floor   bool
}

// Register installs the workload flags on fs with starsim's defaults.
func (w *Workload) Register(fs *flag.FlagSet) {
	fs.StringVar(&w.Shape, "shape", "8x8", "torus shape, e.g. 8x8 or 4x4x8")
	fs.StringVar(&w.Scheme, "scheme", "priority-star", "routing scheme: "+SchemeNames())
	fs.Float64Var(&w.Rho, "rho", 0.8, "throughput factor for a single run")
	fs.StringVar(&w.Sweep, "sweep", "", "comma-separated rho grid (overrides -rho)")
	fs.Float64Var(&w.Frac, "frac", 1, "fraction of transmission load from broadcasts")
	fs.StringVar(&w.Len, "len", "fixed:1", "packet lengths: fixed:N or geom:MEAN")
	fs.Uint64Var(&w.Seed, "seed", 1, "base RNG seed")
	fs.Int64Var(&w.Warmup, "warmup", 3000, "warm-up slots")
	fs.Int64Var(&w.Measure, "measure", 10000, "measurement slots")
	fs.Int64Var(&w.Drain, "drain", 4000, "drain slots")
	fs.IntVar(&w.Reps, "reps", 3, "replications per sweep point")
	fs.BoolVar(&w.Floor, "floor", false, "use the paper's floor(n/4) distance model")
}

// Experiment resolves the flags into an experiment with the given labels.
func (w *Workload) Experiment(id, title string) (*sweep.Experiment, error) {
	dims, err := ParseShape(w.Shape)
	if err != nil {
		return nil, err
	}
	schemeSpec, err := SchemeByName(w.Scheme)
	if err != nil {
		return nil, err
	}
	length, err := ParseLength(w.Len)
	if err != nil {
		return nil, err
	}
	rhos := []float64{w.Rho}
	if w.Sweep != "" {
		if rhos, err = ParseRhos(w.Sweep); err != nil {
			return nil, err
		}
	}
	model := balance.ExactDistance
	if w.Floor {
		model = balance.PaperFloorDistance
	}
	if title == "" {
		title = fmt.Sprintf("%s on %s", w.Scheme, w.Shape)
	}
	return &sweep.Experiment{
		ID: id, Title: title,
		Dims: dims, Rhos: rhos, BroadcastFrac: w.Frac,
		Schemes: []sweep.SchemeSpec{schemeSpec},
		Length:  length, Model: model,
		Warmup: w.Warmup, Measure: w.Measure, Drain: w.Drain,
		Reps: w.Reps, BaseSeed: w.Seed,
	}, nil
}
