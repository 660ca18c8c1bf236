package serve

// The job write-ahead log: the daemon's crash-recovery record, built on the
// shared JSONL journal machinery (internal/journal, "psjobs1" header). Every
// accepted job appends its canonical spec; every attempt start and every
// terminal transition appends a marker. On restart the WAL is replayed:
// jobs that never reached a terminal record are re-enqueued under their
// original IDs (so a client watching across the restart keeps its handle)
// and their sweeps resume from fingerprint-keyed checkpoint journals, so a
// SIGKILL loses at most the replication in flight — never a whole job and
// never already-simulated points. Attempt markers survive crashes, so a
// poison job that kills the process repeatedly runs out of retry budget
// across restarts and lands in quarantine instead of crash-looping the
// recovery path.
//
// The WAL is compacted on every replay: terminal jobs' records are dropped
// and the pending ones are rewritten (journal.Rewrite: a temp file and a
// rename, so a crash mid-compaction keeps the old WAL), which bounds the
// file to the set of unfinished jobs. Appends fsync
// (journal.Writer.SetSync): an acknowledged accept survives power loss,
// not just a killed process.

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"prioritystar/internal/journal"
)

// walMagic identifies job WAL journals.
const walMagic = "psjobs1"

// WAL record operations. The terminal ops are spelled exactly like the job
// states they record.
const (
	walOpAccept  = "accept"
	walOpAttempt = "attempt"
)

// walRecord is one WAL line.
type walRecord struct {
	Op          string          `json:"op"`
	ID          string          `json:"id"`
	Fingerprint string          `json:"fp,omitempty"`
	Spec        json.RawMessage `json:"spec,omitempty"` // canonical spec JSON (accept only)
	Attempt     int             `json:"attempt,omitempty"`
	Error       string          `json:"error,omitempty"`
	Time        string          `json:"time,omitempty"`
}

// walTerminal reports whether op records a terminal state.
func walTerminalOp(op string) bool {
	switch op {
	case StateDone, StateFailed, StateCanceled, StateQuarantined:
		return true
	}
	return false
}

// walJob is a job reconstructed from the WAL that never reached a terminal
// record — the unit of crash recovery.
type walJob struct {
	id       string
	fp       string
	spec     json.RawMessage
	attempts int // attempts started before the crash
}

// openWAL replays the WAL at path (skipping interior corruption, trimming
// a torn tail), compacts it down to its pending jobs, and returns an
// fsync-on-append writer positioned after the compacted records. pending
// holds the unfinished jobs in acceptance order; maxSeq is the largest
// numeric job-ID suffix seen, so freshly submitted jobs never collide with
// recovered ones; skipped counts corrupt records dropped by the replay
// (surfaced as the journal_records_skipped metric). A WAL written by a
// different engine version is discarded: its fingerprints no longer name
// what this engine would compute.
func openWAL(path, engine string, logf func(string, ...any)) (w *journal.Writer, pending []walJob, maxSeq, skipped int, err error) {
	byID := make(map[string]*walJob)
	var order []string
	terminal := make(map[string]bool)
	_, _, skipped, err = journal.Load(path, walMagic, engine, func(line []byte) error {
		var rec walRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return err
		}
		if rec.ID == "" {
			return fmt.Errorf("serve: WAL record without id")
		}
		if n, ok := jobSeq(rec.ID); ok && n > maxSeq {
			maxSeq = n
		}
		switch {
		case rec.Op == walOpAccept:
			j := &walJob{id: rec.ID, fp: rec.Fingerprint, spec: rec.Spec, attempts: rec.Attempt}
			if _, dup := byID[rec.ID]; !dup {
				order = append(order, rec.ID)
			}
			byID[rec.ID] = j
		case rec.Op == walOpAttempt:
			if j, ok := byID[rec.ID]; ok && rec.Attempt > j.attempts {
				j.attempts = rec.Attempt
			}
		case walTerminalOp(rec.Op):
			terminal[rec.ID] = true
		default:
			return fmt.Errorf("serve: unknown WAL op %q", rec.Op)
		}
		return nil
	})
	var fpErr *journal.ErrFingerprint
	if errors.As(err, &fpErr) {
		if logf != nil {
			logf("serve: job WAL %s was written by engine %q; starting fresh", path, fpErr.Got)
		}
		err = nil
	}
	if err != nil {
		return nil, nil, 0, 0, err
	}
	if skipped > 0 && logf != nil {
		logf("serve: job WAL %s: skipped %d corrupt record(s)", path, skipped)
	}
	for _, id := range order {
		if !terminal[id] {
			pending = append(pending, *byID[id])
		}
	}

	// Compact: rewrite just the pending accepts, attempt counts folded in.
	w, err = journal.Rewrite(path, walMagic, engine, func(jw *journal.Writer) error {
		for _, pj := range pending {
			if err := jw.Append(walRecord{
				Op: walOpAccept, ID: pj.id, Fingerprint: pj.fp,
				Spec: pj.spec, Attempt: pj.attempts,
			}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, 0, 0, fmt.Errorf("serve: compacting job WAL: %w", err)
	}
	w.SetSync(true) // accepted jobs are promises: survive power loss
	return w, pending, maxSeq, skipped, nil
}

// jobSeq extracts the numeric suffix of a "j%06d" job ID.
func jobSeq(id string) (int, bool) {
	s := strings.TrimPrefix(id, "j")
	if s == id {
		return 0, false
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}
