package sweep

// Crash-resilient sweep checkpoints, built on the shared JSONL journal
// machinery in internal/journal: a header line carrying the experiment's
// fingerprint, then one line per completed replication with every per-rep
// value the aggregation step consumes. An execution with Checkpoint set
// appends each replication as it folds (flushed per line, so a killed
// process loses at most the line being written); one with Resume set
// replays the journal first and only runs the replications it does not
// cover. Because aggregation is order-deterministic over (scheme, rho, rep)
// — never over completion order — a resumed sweep produces the exact table
// an uninterrupted one would, whether the local pool or the fleet wrote the
// journal and whichever of them resumes it.

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"

	journalpkg "prioritystar/internal/journal"
)

// journalMagic identifies sweep checkpoint journals.
const journalMagic = "pssweep1"

// jsonFloat is a float64 whose JSON form maps non-finite values to null
// (encoding/json rejects NaN and the infinities).
type jsonFloat float64

// MarshalJSON implements json.Marshaler.
func (f jsonFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return []byte("null"), nil
	}
	return json.Marshal(v)
}

// UnmarshalJSON implements json.Unmarshaler.
func (f *jsonFloat) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*f = jsonFloat(math.NaN())
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*f = jsonFloat(v)
	return nil
}

// RepKey identifies one replication of one (scheme, rho) cell by index.
type RepKey struct{ Scheme, Rho, Rep int }

// RepRecord is one completed replication: everything aggregation needs, so
// a resumed sweep never re-runs the simulation behind it. It is both the
// checkpoint-journal line format and the wire format cluster workers return
// sub-job results in.
type RepRecord struct {
	Scheme int `json:"s"`
	Rho    int `json:"r"`
	Rep    int `json:"rep"`

	Reception  jsonFloat   `json:"rcp"`
	Broadcast  jsonFloat   `json:"bc"`
	Unicast    jsonFloat   `json:"uni"`
	HighWait   jsonFloat   `json:"hw"`
	LowWait    jsonFloat   `json:"lw"`
	AvgUtil    jsonFloat   `json:"au"`
	MaxDimUtil jsonFloat   `json:"mdu"`
	DimUtil    []jsonFloat `json:"du"`

	GeneratedBroadcasts  int64 `json:"gb"`
	IncompleteBroadcasts int64 `json:"ib"`

	Stable bool   `json:"st"`
	Status string `json:"status,omitempty"` // sim.Status name when not "ok"
	Err    string `json:"err,omitempty"`    // per-rep failure (panic, bad config)
}

// Key returns the record's (scheme, rho, rep) index key.
func (r RepRecord) Key() RepKey { return RepKey{r.Scheme, r.Rho, r.Rep} }

// fingerprint identifies the experiment a journal belongs to: resuming with
// a different grid, scheme list, seed, or fault schedule must error rather
// than silently mix results. When the caller stamped a canonical fingerprint
// on the experiment (spec.Fingerprint does; starsim and the daemon stamp
// it), that is used verbatim; otherwise a legacy descriptor string is
// derived from the fields.
func (e *Experiment) fingerprint() string {
	if e.Fingerprint != "" {
		return e.Fingerprint
	}
	var b strings.Builder
	fmt.Fprintf(&b, "id=%s dims=%v rhos=%v frac=%g reps=%d seed=%d w=%d m=%d d=%d mb=%d len=%g model=%d",
		e.ID, e.Dims, e.Rhos, e.BroadcastFrac, e.Reps, e.BaseSeed,
		e.Warmup, e.Measure, e.Drain, e.MaxBacklog, e.Length.Mean(), e.Model)
	for _, s := range e.Schemes {
		fmt.Fprintf(&b, " scheme=%s/%d/%d/%t", s.Name, s.Discipline, s.Rotation, s.SeparateBalance)
	}
	fmt.Fprintf(&b, " faults=%q guard=%+v", e.Faults.String(), e.Guard)
	return b.String()
}

// JournalFingerprint is the identity a checkpoint journal for this
// experiment is keyed by: the stamped canonical fingerprint when present,
// else a legacy descriptor derived from the fields.
func (e *Experiment) JournalFingerprint() string { return e.fingerprint() }

// openCheckpoint is the one place a checkpoint journal is replayed or
// created. With resume set, an existing journal's header must carry
// fingerprint; its intact records are returned and it is reopened for
// appending past its intact prefix, so a torn final line from a crash
// cannot swallow the first record written after it. Without resume, or
// when no journal exists yet, a fresh one is created.
func openCheckpoint(path, fingerprint string, resume bool) (map[RepKey]RepRecord, *journalpkg.Writer, error) {
	records := make(map[RepKey]RepRecord)
	if resume {
		validLen, found, err := journalpkg.Load(path, journalMagic, fingerprint, func(line []byte) error {
			var rec RepRecord
			if err := json.Unmarshal(line, &rec); err != nil {
				return err // torn tail from a crash: keep what we have
			}
			records[rec.Key()] = rec
			return nil
		})
		var fpErr *journalpkg.ErrFingerprint
		if errors.As(err, &fpErr) {
			return nil, nil, fmt.Errorf("sweep: checkpoint %s belongs to a different experiment (fingerprint mismatch); delete it or drop -resume", path)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("sweep: %w", err)
		}
		if found {
			w, err := journalpkg.OpenAppend(path, validLen)
			if err != nil {
				return nil, nil, fmt.Errorf("sweep: opening checkpoint: %w", err)
			}
			return records, w, nil
		}
	}
	w, err := journalpkg.Create(path, journalMagic, fingerprint)
	if err != nil {
		return nil, nil, fmt.Errorf("sweep: creating checkpoint: %w", err)
	}
	return records, w, nil
}
