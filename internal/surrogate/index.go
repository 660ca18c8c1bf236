package surrogate

// The interpolation index: every exact result the daemon has ever computed,
// keyed by experiment family and scheme, as sorted per-rho anchors. The
// index is fed from two directions — live sweep results as jobs finish
// (AddExact) and the cache journal's raw result documents at daemon start
// (AddResult), both through one anchor rule (add) — and read by the
// evaluator, which interpolates residuals between bracketing anchors.
//
// A family is everything about an experiment except its rho grid (and the
// label/serving fields that never affect results): two cached results
// belong to the same family exactly when a sweep point of one could have
// appeared in the other. The key is the canonical spec document with those
// fields blanked, so it inherits the fingerprint machinery's normalization
// guarantees.

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"prioritystar/internal/spec"
	"prioritystar/internal/sweep"
)

// Metric indexes the delay metrics the surrogate answers.
type Metric int

// The answered metrics, in result-document order.
const (
	MReception Metric = iota
	MBroadcast
	MUnicast
	MHighWait
	MLowWait

	numMetrics
)

// metricNames are the result-document field names, in Metric order.
var metricNames = [numMetrics]string{"reception", "broadcast", "unicast", "highWait", "lowWait"}

// String names the metric.
func (m Metric) String() string {
	if m < 0 || m >= numMetrics {
		return fmt.Sprintf("metric(%d)", int(m))
	}
	return metricNames[m]
}

// values holds one number per metric; NaN marks "not measured" (a cell with
// no unicast traffic has no unicast delay).
type values [numMetrics]float64

// anchor is one exact (rho -> measurements) cell of a cached result.
type anchor struct {
	rho float64
	val values // across-replication means
	ci  values // 95% confidence half-widths; NaN when the document predates them
}

// Index holds the anchors, grouped by family key then scheme name.
type Index struct {
	mu       sync.RWMutex
	families map[string]map[string][]anchor // family -> scheme -> anchors sorted by rho
	anchors  int
	results  int
}

// NewIndex returns an empty index.
func NewIndex() *Index {
	return &Index{families: make(map[string]map[string][]anchor)}
}

// FamilyKey returns the experiment's interpolation-family key: the
// canonical spec document with the rho grid and every non-result field
// (labels, execution, serving mode) blanked.
func FamilyKey(e *sweep.Experiment) string {
	return familyKeyDoc(spec.FromSweep(e))
}

// familyKeyDoc blanks and marshals a spec document into a family key.
func familyKeyDoc(doc *spec.Experiment) string {
	d := *doc
	d.ID, d.Title, d.Notes, d.Execution, d.Mode = "", "", "", "", ""
	d.ApproxTol = 0
	d.Rhos = nil
	b, err := json.Marshal(&d)
	if err != nil {
		// Marshalling a spec document cannot fail (plain data, no cycles);
		// an empty key would alias every broken doc together, so make the
		// impossible loud instead.
		panic(fmt.Sprintf("surrogate: family key encoding: %v", err))
	}
	return string(b)
}

// Anchors reports how many (family, scheme, rho) anchors are indexed.
func (ix *Index) Anchors() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.anchors
}

// Results reports how many result documents fed the index.
func (ix *Index) Results() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.results
}

// insert adds one anchor under (family, scheme), keeping the slice sorted
// by rho. Like the result cache, the first write wins: re-adding the same
// (family, scheme, rho) is a no-op, so reloading a journal never flaps the
// surrogate's answers. The grown slice is a new one: lookup's callers read
// the old one without the lock.
func (ix *Index) insert(family, scheme string, a anchor) {
	schemes := ix.families[family]
	if schemes == nil {
		schemes = make(map[string][]anchor)
		ix.families[family] = schemes
	}
	as := schemes[scheme]
	i := sort.Search(len(as), func(i int) bool { return as[i].rho >= a.rho })
	if i < len(as) && as[i].rho == a.rho {
		return
	}
	grown := make([]anchor, len(as)+1)
	copy(grown, as[:i])
	grown[i] = a
	copy(grown[i+1:], as[i:])
	schemes[scheme] = grown
	ix.anchors++
}

// add is the one anchor rule both feeds apply: a cell anchors
// interpolation only with a finite rho and at least one finite metric. It
// reports whether a usable anchor was offered; a repeat of an indexed rho
// counts, though insert keeps the first. ix.mu must be held.
func (ix *Index) add(family, scheme string, a anchor) bool {
	if math.IsNaN(a.rho) || math.IsInf(a.rho, 0) {
		return false
	}
	for _, v := range a.val {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			ix.insert(family, scheme, a)
			return true
		}
	}
	return false
}

// lookup returns the anchors for (family, scheme), sorted by rho.
func (ix *Index) lookup(family, scheme string) []anchor {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.families[family][scheme]
}

// AddExact indexes a completed sweep result under the same rule as
// AddResult, so an index rebuilt from the cache at boot holds what the live
// one did. Cells with failed or diverged replications are skipped: their
// aggregates are not trustworthy anchors. The result counts only when it
// anchored a cell.
func (ix *Index) AddExact(res *sweep.Result) {
	if res == nil || res.Exp == nil {
		return
	}
	family := FamilyKey(res.Exp)
	ix.mu.Lock()
	defer ix.mu.Unlock()
	added := false
	for _, s := range res.Series {
		for _, p := range s.Points {
			if p.FailedReps > 0 || p.DivergedReps > 0 {
				continue
			}
			a := anchor{rho: p.Rho}
			sums := [numMetrics]interface {
				Mean() float64
				HalfWidth95() float64
			}{&p.Reception, &p.Broadcast, &p.Unicast, &p.HighWait, &p.LowWait}
			for m, sum := range sums {
				a.val[m] = sum.Mean()
				a.ci[m] = sum.HalfWidth95()
			}
			added = ix.add(family, s.Scheme.Name, a) || added
		}
	}
	if added {
		ix.results++
	}
}

// resultDoc mirrors the slice of the serve layer's result document the
// index needs. Decoding is deliberately lenient about extra fields (the
// serving layer owns the full schema) but strict about the parts the
// anchors are built from.
type resultDoc struct {
	Spec   *spec.Experiment `json:"spec"`
	Series []struct {
		Scheme string `json:"scheme"`
		Points []struct {
			Rho          float64  `json:"rho"`
			Reception    *float64 `json:"reception"`
			Broadcast    *float64 `json:"broadcast"`
			Unicast      *float64 `json:"unicast"`
			HighWait     *float64 `json:"highWait"`
			LowWait      *float64 `json:"lowWait"`
			ReceptionCI  *float64 `json:"receptionCI"`
			BroadcastCI  *float64 `json:"broadcastCI"`
			UnicastCI    *float64 `json:"unicastCI"`
			HighWaitCI   *float64 `json:"highWaitCI"`
			LowWaitCI    *float64 `json:"lowWaitCI"`
			DivergedReps int      `json:"divergedReps"`
			FailedReps   int      `json:"failedReps"`
		} `json:"points"`
	} `json:"series"`
	// Approx guards against feeding a surrogate answer back into the
	// index: only exact simulation results may anchor interpolation.
	Approx bool `json:"approx"`
}

// fv converts an optional JSON number (null for NaN) to a float.
func fv(p *float64) float64 {
	if p == nil {
		return math.NaN()
	}
	return *p
}

// AddResult indexes one raw result document (the cache journal's stored
// bytes). It never panics on malformed input — FuzzSurrogateTable holds it
// to that — and returns an error for documents that cannot anchor
// interpolation (approximate results, missing spec, no finite points).
func (ix *Index) AddResult(raw []byte) error {
	var doc resultDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return fmt.Errorf("surrogate: decoding result document: %w", err)
	}
	if doc.Approx {
		return errors.New("surrogate: refusing to index an approximate result as an anchor")
	}
	if doc.Spec == nil {
		return errors.New("surrogate: result document has no spec")
	}
	// Normalize through the sweep form so a family key always compares in
	// canonical spelling, whatever form the stored spec used.
	exp, err := doc.Spec.ToSweep()
	if err != nil {
		return fmt.Errorf("surrogate: result document spec: %w", err)
	}
	family := FamilyKey(exp)
	added := false
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for _, s := range doc.Series {
		for _, p := range s.Points {
			if p.FailedReps > 0 || p.DivergedReps > 0 {
				continue
			}
			a := anchor{
				rho: p.Rho,
				val: values{fv(p.Reception), fv(p.Broadcast), fv(p.Unicast), fv(p.HighWait), fv(p.LowWait)},
				ci:  values{fv(p.ReceptionCI), fv(p.BroadcastCI), fv(p.UnicastCI), fv(p.HighWaitCI), fv(p.LowWaitCI)},
			}
			added = ix.add(family, s.Scheme, a) || added
		}
	}
	if !added {
		return errors.New("surrogate: result document carries no usable anchors")
	}
	ix.results++
	return nil
}
