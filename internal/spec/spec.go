// Package spec serializes experiment definitions to and from JSON so
// sweeps can be stored in files, shared, and replayed exactly (the
// `starsim -spec` flag). A spec file mirrors sweep.Experiment with
// human-friendly string encodings for schemes, packet lengths, and the
// distance model.
package spec

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"prioritystar/internal/balance"
	"prioritystar/internal/cli"
	"prioritystar/internal/core"
	"prioritystar/internal/sim"
	"prioritystar/internal/sweep"
	"prioritystar/internal/torus"
	"prioritystar/internal/traffic"
)

// Scheme is the JSON form of a sweep.SchemeSpec: either a predefined name
// ("priority-star", "fcfs-direct", ...) or explicit fields.
type Scheme struct {
	Name       string `json:"name,omitempty"`
	Discipline string `json:"discipline,omitempty"` // fcfs | 2-level | 3-level
	Rotation   string `json:"rotation,omitempty"`   // balanced | uniform | fixed
	Separate   bool   `json:"separate,omitempty"`   // Eq. 2 balancing despite unicast
}

// Experiment is the JSON form of a sweep.Experiment.
type Experiment struct {
	ID            string    `json:"id"`
	Title         string    `json:"title,omitempty"`
	Notes         string    `json:"notes,omitempty"`
	Dims          []int     `json:"dims"`
	Rhos          []float64 `json:"rhos"`
	BroadcastFrac float64   `json:"broadcastFrac"`
	Schemes       []Scheme  `json:"schemes"`
	Length        string    `json:"length,omitempty"` // fixed:N | geom:MEAN
	Model         string    `json:"model,omitempty"`  // exact | floor
	Warmup        int64     `json:"warmup"`
	Measure       int64     `json:"measure"`
	Drain         int64     `json:"drain"`
	Reps          int       `json:"reps"`
	Seed          uint64    `json:"seed"`
	// MaxBacklog truncates a run whose queued-packet total exceeds it (0
	// keeps the engine default). It changes measured results, so it is part
	// of the spec and of Fingerprint.
	MaxBacklog int64 `json:"maxBacklog,omitempty"`

	// Execution is the retired dispatch-mode knob. Documents written before
	// it was retired may carry "batched" or "sequential"; both decode and
	// are ignored, since every sweep now runs one way. Never written.
	Execution string `json:"execution,omitempty"`

	// Mode selects how the daemon may answer the submission: "" or "exact"
	// requires a real simulation; "approx" lets the analytic surrogate
	// answer from the closed-form model plus interpolation over cached
	// exact results, falling back to simulation when uncertain. The mode
	// cannot change simulated results, so it is excluded from Fingerprint —
	// an approx submission shares its cache identity with the exact one.
	Mode string `json:"mode,omitempty"`
	// ApproxTol is the relative reception-delay error tolerance accepted in
	// approx mode (0: the daemon's default). Excluded from Fingerprint.
	ApproxTol float64 `json:"approxTol,omitempty"`

	// Faults is a fault-schedule description in the -faults CLI syntax
	// (e.g. "perm:2,trans:500/50,seed:7"); empty means a fault-free run.
	Faults string `json:"faults,omitempty"`
	// Guard configures the divergence watchdog; nil leaves it disabled.
	Guard *Guard `json:"guard,omitempty"`
}

// Guard is the JSON form of sim.Guard (watchdog thresholds). Zero fields
// keep the engine defaults; Default swaps in sim.DefaultGuard for the
// experiment's shape and lets explicit fields override it.
type Guard struct {
	Default        bool  `json:"default,omitempty"`
	DivergeBacklog int64 `json:"divergeBacklog,omitempty"`
	GrowthWindow   int64 `json:"growthWindow,omitempty"`
	GrowthRuns     int   `json:"growthRuns,omitempty"`
	GrowthSlack    int64 `json:"growthSlack,omitempty"`
}

func parseDiscipline(s string) (core.Discipline, error) {
	switch strings.ToLower(s) {
	case "", "fcfs":
		return core.FCFS, nil
	case "2-level", "two-level":
		return core.TwoLevel, nil
	case "3-level", "three-level":
		return core.ThreeLevel, nil
	default:
		return 0, fmt.Errorf("spec: unknown discipline %q", s)
	}
}

func parseRotation(s string) (core.Rotation, error) {
	switch strings.ToLower(s) {
	case "", "balanced":
		return core.BalancedRotation, nil
	case "uniform":
		return core.UniformRotation, nil
	case "fixed":
		return core.FixedEnding, nil
	default:
		return 0, fmt.Errorf("spec: unknown rotation %q", s)
	}
}

// resolve converts the JSON scheme into a sweep.SchemeSpec.
func (s Scheme) resolve() (sweep.SchemeSpec, error) {
	if s.Name != "" && s.Discipline == "" && s.Rotation == "" {
		return cli.SchemeByName(s.Name)
	}
	d, err := parseDiscipline(s.Discipline)
	if err != nil {
		return sweep.SchemeSpec{}, err
	}
	r, err := parseRotation(s.Rotation)
	if err != nil {
		return sweep.SchemeSpec{}, err
	}
	name := s.Name
	if name == "" {
		name = fmt.Sprintf("%s/%s", d, r)
		if s.Separate {
			name += "/separate"
		}
	}
	return sweep.SchemeSpec{Name: name, Discipline: d, Rotation: r, SeparateBalance: s.Separate}, nil
}

// ToSweep converts a decoded spec into a runnable experiment.
func (e *Experiment) ToSweep() (*sweep.Experiment, error) {
	out := &sweep.Experiment{
		ID: e.ID, Title: e.Title, Notes: e.Notes,
		Dims: e.Dims, Rhos: e.Rhos, BroadcastFrac: e.BroadcastFrac,
		Warmup: e.Warmup, Measure: e.Measure, Drain: e.Drain,
		Reps: e.Reps, BaseSeed: e.Seed, MaxBacklog: e.MaxBacklog,
	}
	for _, s := range e.Schemes {
		spec, err := s.resolve()
		if err != nil {
			return nil, err
		}
		out.Schemes = append(out.Schemes, spec)
	}
	if e.Length != "" {
		l, err := cli.ParseLength(e.Length)
		if err != nil {
			return nil, fmt.Errorf("spec: %v", err)
		}
		out.Length = l
	}
	switch strings.ToLower(e.Model) {
	case "", "exact":
		out.Model = balance.ExactDistance
	case "floor", "paper", "paper-floor":
		out.Model = balance.PaperFloorDistance
	default:
		return nil, fmt.Errorf("spec: unknown distance model %q", e.Model)
	}
	switch strings.ToLower(e.Execution) {
	case "", "batched", "sequential":
	default:
		return nil, fmt.Errorf("spec: unknown execution mode %q", e.Execution)
	}
	switch strings.ToLower(e.Mode) {
	case "", "exact":
	case "approx", "approximate":
		out.Approx = true
	default:
		return nil, fmt.Errorf("spec: unknown mode %q (want \"exact\" or \"approx\")", e.Mode)
	}
	if e.ApproxTol < 0 {
		return nil, fmt.Errorf("spec: negative approxTol %g", e.ApproxTol)
	}
	out.ApproxTol = e.ApproxTol
	if e.Faults != "" {
		f, err := cli.ParseFaults(e.Faults)
		if err != nil {
			return nil, fmt.Errorf("spec: %v", err)
		}
		out.Faults = f
	}
	if e.Guard != nil {
		g := sim.Guard{
			DivergeBacklog: e.Guard.DivergeBacklog,
			GrowthWindow:   e.Guard.GrowthWindow,
			GrowthRuns:     e.Guard.GrowthRuns,
			GrowthSlack:    e.Guard.GrowthSlack,
		}
		if e.Guard.Default {
			shape, err := torus.New(e.Dims...)
			if err != nil {
				return nil, fmt.Errorf("spec: %v", err)
			}
			d := sim.DefaultGuard(shape)
			if g.DivergeBacklog == 0 {
				g.DivergeBacklog = d.DivergeBacklog
			}
			if g.GrowthWindow == 0 {
				g.GrowthWindow = d.GrowthWindow
			}
		}
		out.Guard = g
	}
	return out, nil
}

// Load decodes a JSON experiment spec and converts it.
func Load(r io.Reader) (*sweep.Experiment, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var e Experiment
	if err := dec.Decode(&e); err != nil {
		return nil, fmt.Errorf("spec: %v", err)
	}
	return e.ToSweep()
}

// Decode is Load over in-memory bytes — the daemon's job WAL stores each
// accepted spec as canonical JSON and rebuilds the experiment from it on
// crash recovery.
func Decode(data []byte) (*sweep.Experiment, error) {
	return Load(strings.NewReader(string(data)))
}

// FromSweep converts a runnable experiment back into its JSON form.
func FromSweep(e *sweep.Experiment) *Experiment {
	out := &Experiment{
		ID: e.ID, Title: e.Title, Notes: e.Notes,
		Dims: e.Dims, Rhos: e.Rhos, BroadcastFrac: e.BroadcastFrac,
		Warmup: e.Warmup, Measure: e.Measure, Drain: e.Drain,
		Reps: e.Reps, Seed: e.BaseSeed, MaxBacklog: e.MaxBacklog,
	}
	for _, s := range e.Schemes {
		out.Schemes = append(out.Schemes, Scheme{
			Name:       s.Name,
			Discipline: s.Discipline.String(),
			Rotation:   s.Rotation.String(),
			Separate:   s.SeparateBalance,
		})
	}
	switch e.Length.Kind() {
	case traffic.KindGeometric:
		out.Length = fmt.Sprintf("geom:%g", e.Length.Mean())
	default:
		out.Length = fmt.Sprintf("fixed:%d", int(e.Length.Mean()))
	}
	if e.Model == balance.PaperFloorDistance {
		out.Model = "floor"
	} else {
		out.Model = "exact"
	}
	if e.Approx {
		out.Mode = "approx"
	}
	out.ApproxTol = e.ApproxTol
	out.Faults = e.Faults.String()
	if e.Guard.DivergeBacklog != 0 || e.Guard.GrowthWindow != 0 ||
		e.Guard.GrowthRuns != 0 || e.Guard.GrowthSlack != 0 {
		out.Guard = &Guard{
			DivergeBacklog: e.Guard.DivergeBacklog,
			GrowthWindow:   e.Guard.GrowthWindow,
			GrowthRuns:     e.Guard.GrowthRuns,
			GrowthSlack:    e.Guard.GrowthSlack,
		}
	}
	return out
}

// Save encodes the experiment as indented JSON.
func Save(w io.Writer, e *sweep.Experiment) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(FromSweep(e))
}
