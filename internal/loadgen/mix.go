package loadgen

// Workload mixes: what a synthetic client does next. Each virtual client
// draws its next operation from a weighted mix with its own seeded RNG, so
// two runs with the same seed, mix, and client count issue the same
// operation sequences (wall-clock effects — how many ops fit in the
// duration, which submissions win races — naturally still vary).

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// Op is one operation class a synthetic client can perform.
type Op int

const (
	// OpSubmitHit replays a spec whose result is already cached: the
	// daemon's steady-state fast path (content-addressed cache hit).
	OpSubmitHit Op = iota
	// OpSubmitMiss submits a fresh spec nobody has run: full admission,
	// queue, and simulation path.
	OpSubmitMiss
	// OpSubmitDedup submits one of a small set of in-flight "storm" specs:
	// concurrent identical submissions that must coalesce onto one job.
	OpSubmitDedup
	// OpOverloadBurst fires a back-to-back volley of fresh submissions with
	// no retry, deliberately overrunning the admission queue to draw 429s.
	OpOverloadBurst
	// OpWatch submits a fresh fast spec and follows it over SSE to the
	// terminal event; the recorded latency is time-to-first-event.
	OpWatch
	// OpResult fetches the result document of a known-finished job.
	OpResult
	// OpMetrics scrapes /metrics.
	OpMetrics
	// OpApprox submits an approx-mode spec inside a pre-anchored family:
	// the surrogate fast path, answered without simulation.
	OpApprox

	numOps
)

// opNames are the mix-string and report keys, in Op order.
var opNames = [numOps]string{
	"hit", "miss", "dedup", "burst", "watch", "result", "metrics", "approx",
}

// String returns the op's mix-string key.
func (o Op) String() string {
	if o < 0 || o >= numOps {
		return fmt.Sprintf("op(%d)", int(o))
	}
	return opNames[o]
}

// Mix is a weighted distribution over operation classes.
type Mix struct {
	Name    string
	Weights [numOps]int
}

// namedMixes are the built-in workload profiles. "mixed" is the default
// and the one `make load-smoke` runs: every service path — cache hit, fresh
// miss, dedup storm, overload burst, SSE watch, result fetch, metrics
// scrape, surrogate answer — exercised in one run.
var namedMixes = []Mix{
	{Name: "mixed", Weights: [numOps]int{5, 2, 2, 1, 2, 2, 1, 2}},
	{Name: "cache-hit", Weights: [numOps]int{10, 0, 0, 0, 0, 2, 1, 0}},
	{Name: "cache-miss", Weights: [numOps]int{0, 8, 0, 0, 2, 0, 1, 0}},
	{Name: "dedup-storm", Weights: [numOps]int{1, 0, 8, 0, 1, 0, 1, 0}},
	{Name: "overload", Weights: [numOps]int{2, 0, 0, 6, 0, 0, 1, 0}},
	{Name: "watch-heavy", Weights: [numOps]int{2, 0, 0, 0, 6, 1, 1, 0}},
	{Name: "approx-heavy", Weights: [numOps]int{2, 0, 0, 0, 1, 1, 1, 8}},
}

// MixNames returns the built-in mix names for help texts.
func MixNames() []string {
	out := make([]string, len(namedMixes))
	for i, m := range namedMixes {
		out[i] = m.Name
	}
	sort.Strings(out)
	return out
}

// ParseMix resolves a mix: a built-in name ("mixed", "overload", ...) or an
// explicit weight list "hit=5,miss=2,dedup=2,burst=1,watch=2,result=2,
// metrics=1" (omitted classes get weight 0).
func ParseMix(s string) (Mix, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		s = "mixed"
	}
	if !strings.Contains(s, "=") {
		for _, m := range namedMixes {
			if m.Name == s {
				return m, nil
			}
		}
		return Mix{}, fmt.Errorf("loadgen: unknown mix %q (have %s, or pass hit=N,miss=N,...)",
			s, strings.Join(MixNames(), ", "))
	}
	m := Mix{Name: s}
	for _, part := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return Mix{}, fmt.Errorf("loadgen: bad mix term %q (want class=weight)", part)
		}
		n, err := strconv.Atoi(strings.TrimSpace(val))
		if err != nil || n < 0 {
			return Mix{}, fmt.Errorf("loadgen: bad mix weight %q for %q", val, key)
		}
		found := false
		for op, name := range opNames {
			if name == strings.TrimSpace(key) {
				m.Weights[op] = n
				found = true
				break
			}
		}
		if !found {
			return Mix{}, fmt.Errorf("loadgen: unknown op class %q (have %s)",
				key, strings.Join(opNames[:], ", "))
		}
	}
	if m.total() == 0 {
		return Mix{}, fmt.Errorf("loadgen: mix %q has zero total weight", s)
	}
	return m, nil
}

// total sums the weights.
func (m Mix) total() int {
	t := 0
	for _, w := range m.Weights {
		t += w
	}
	return t
}

// Has reports whether the mix can ever draw op.
func (m Mix) Has(op Op) bool { return m.Weights[op] > 0 }

// pick draws one operation.
func (m Mix) pick(rng *rand.Rand) Op {
	n := rng.Intn(m.total())
	for op, w := range m.Weights {
		if n < w {
			return Op(op)
		}
		n -= w
	}
	return OpMetrics // unreachable: total() > 0
}

// String renders the mix for reports: its name for built-ins, the explicit
// weights otherwise.
func (m Mix) String() string {
	if m.Name != "" {
		return m.Name
	}
	var parts []string
	for op, w := range m.Weights {
		if w > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", opNames[op], w))
		}
	}
	return strings.Join(parts, ",")
}
