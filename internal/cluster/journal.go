package cluster

// The coordinator's lease journal ("psfleet1"), a sibling of the daemon's
// job WAL built on the same JSONL machinery: every sub-job lease grant,
// completion, and expiry is appended as it happens. Replay on restart
// yields the in-flight leases a crashed coordinator left behind — keyed by
// (experiment fingerprint, sub-job key) and remembering which worker
// address held each lease — so a restarted coordinator re-adopts them: the
// re-dispatch of a pending sub-job prefers the worker that was already
// running it, whose content-addressed sub-job cache answers instantly if
// the work finished while the coordinator was down. That preference is what
// turns a coordinator crash into zero re-simulated replications.
//
// Like the job WAL, the journal is compacted on every replay
// (journal.Rewrite: a temp file and a rename) down to the still-pending
// grants, and the header carries the engine version: leases journaled by a
// different engine name work this engine would not reproduce, so they are
// discarded.

import (
	"encoding/json"
	"errors"
	"fmt"

	"prioritystar/internal/journal"
)

// fleetMagic identifies coordinator lease journals.
const fleetMagic = "psfleet1"

// Lease journal operations.
const (
	fleetOpGrant  = "grant"
	fleetOpDone   = "done"
	fleetOpExpire = "expire"
)

// fleetRecord is one lease-journal line.
type fleetRecord struct {
	Op string `json:"op"`
	// FP and Key content-address the sub-job across coordinator restarts.
	FP  string `json:"fp"`
	Key string `json:"key"`
	// Addr is the advertised address of the worker holding the lease —
	// the stable worker identity (IDs are minted per join and do not
	// survive a coordinator restart).
	Addr    string `json:"addr,omitempty"`
	Attempt int    `json:"n,omitempty"`
	Time    string `json:"time,omitempty"`
}

// leaseKey joins the content address of one sub-job.
func leaseKey(fp, key string) string { return fp + "|" + key }

// openFleetJournal replays and compacts the lease journal at path. adopted
// maps leaseKey(fp, key) -> worker address for every grant that never
// reached done or expire; skipped counts corrupt records the replay
// dropped.
func openFleetJournal(path, engine string, logf func(string, ...any)) (w *journal.Writer, adopted map[string]string, skipped int, err error) {
	grants := make(map[string]fleetRecord) // leaseKey -> its pending grant
	_, _, skipped, err = journal.Load(path, fleetMagic, engine, func(line []byte) error {
		var rec fleetRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return err
		}
		if rec.FP == "" || rec.Key == "" {
			return fmt.Errorf("cluster: lease record without fp/key")
		}
		k := leaseKey(rec.FP, rec.Key)
		switch rec.Op {
		case fleetOpGrant:
			grants[k] = rec
		case fleetOpDone, fleetOpExpire:
			delete(grants, k)
		default:
			return fmt.Errorf("cluster: unknown lease op %q", rec.Op)
		}
		return nil
	})
	var fpErr *journal.ErrFingerprint
	if errors.As(err, &fpErr) {
		if logf != nil {
			logf("cluster: lease journal %s was written by engine %q; starting fresh", path, fpErr.Got)
		}
		err = nil
	}
	if err != nil {
		return nil, nil, 0, err
	}
	if skipped > 0 && logf != nil {
		logf("cluster: lease journal %s: skipped %d corrupt record(s)", path, skipped)
	}

	// Compact down to the pending grants.
	adopted = make(map[string]string, len(grants))
	w, err = journal.Rewrite(path, fleetMagic, engine, func(jw *journal.Writer) error {
		for k, rec := range grants {
			adopted[k] = rec.Addr
			if err := jw.Append(rec); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, 0, fmt.Errorf("cluster: compacting lease journal: %w", err)
	}
	return w, adopted, skipped, nil
}
