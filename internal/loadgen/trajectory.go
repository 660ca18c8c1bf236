package loadgen

// BENCH_serve.json is the service-level performance trajectory: one
// JSON-lines file whose first line is a versioned header and every later
// line one load-harness run, appended over time so the latency/throughput
// history of the service layer stays comparable across changes. The
// reader is strict — unknown schema versions, interior corruption, and
// torn tails are typed errors, never panics (see FuzzTrajectoryReader) —
// while AppendRecord is lenient the way the daemon's journals are: a tail
// torn by a killed psload is trimmed before the new record is written.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
)

// TrajectorySchema is the accepted (and written) header schema.
const TrajectorySchema = "prioritystar-serve/v1"

// ErrTornTail marks a trajectory whose final record was cut mid-write:
// the bytes up to it are intact, the tail is not a complete JSON line.
var ErrTornTail = errors.New("loadgen: trajectory has a torn final record")

// FormatError locates a trajectory parse failure. Use errors.Is to test
// for ErrTornTail through it.
type FormatError struct {
	Line int // 1-based line number
	Err  error
}

// Error implements error.
func (e *FormatError) Error() string {
	return fmt.Sprintf("loadgen: trajectory line %d: %v", e.Line, e.Err)
}

// Unwrap exposes the underlying cause.
func (e *FormatError) Unwrap() error { return e.Err }

// OpRecord is one operation class's measurements in a trajectory record.
// The headline quantiles are denormalized for human diffing; Sketch holds
// the full distribution so any quantile can be recomputed later.
type OpRecord struct {
	Count  int64   `json:"count"`
	Errors int64   `json:"errors,omitempty"`
	P50us  int64   `json:"p50_us"`
	P95us  int64   `json:"p95_us"`
	P99us  int64   `json:"p99_us"`
	MaxUs  int64   `json:"max_us"`
	MeanUs float64 `json:"mean_us"`
	Sketch *Sketch `json:"sketch,omitempty"`
}

// Record is one load-harness run.
type Record struct {
	Time        string  `json:"time"`
	GoVersion   string  `json:"go_version"`
	GOOS        string  `json:"goos"`
	GOARCH      string  `json:"goarch"`
	Clients     int     `json:"clients"`
	DurationSec float64 `json:"duration_sec"`
	Seed        uint64  `json:"seed"`
	Mix         string  `json:"mix"`
	Race        bool    `json:"race,omitempty"`
	// Workers counts the fleet worker daemons behind the target daemon
	// (psload -boot -workers N); 0 is a single-node run.
	Workers int `json:"workers,omitempty"`

	// Ops maps endpoint keys ("submit", "watch", "result", "metrics",
	// "submit_rejected") to their latency records.
	Ops map[string]OpRecord `json:"ops"`

	ThroughputOps float64 `json:"throughput_ops_per_sec"`
	TotalOps      int64   `json:"total_ops"`
	ErrorRate     float64 `json:"error_rate"`
	Rejected429   int64   `json:"rejected_429"`
	Deduped       int64   `json:"deduped"`
	CacheHits     int64   `json:"cache_hits"`
	ApproxHits    int64   `json:"approx_hits,omitempty"`
	Retries       int64   `json:"client_retries"`
	Reconnects    int64   `json:"client_reconnects"`
}

// trajectoryHeader is the first line of the file.
type trajectoryHeader struct {
	Schema string `json:"schema"`
}

// Trajectory is a decoded BENCH_serve.json.
type Trajectory struct {
	Records []Record
}

// Last returns the most recent record, or nil for an empty trajectory.
func (t *Trajectory) Last() *Record {
	if len(t.Records) == 0 {
		return nil
	}
	return &t.Records[len(t.Records)-1]
}

// ParseTrajectory decodes a trajectory document. intact is the byte length
// of the valid prefix (header plus complete records); on ErrTornTail a
// caller may truncate to intact and keep appending.
func ParseTrajectory(data []byte) (t *Trajectory, intact int, err error) {
	if len(data) == 0 {
		return nil, 0, &FormatError{Line: 1, Err: errors.New("empty file (no header)")}
	}
	t = &Trajectory{}
	line := 0
	sawHeader := false
	for off := 0; off < len(data); {
		line++
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			// No terminating newline: a write was cut mid-line.
			return t, off, &FormatError{Line: line, Err: ErrTornTail}
		}
		raw := data[off : off+nl]
		end := off + nl + 1
		if len(bytes.TrimSpace(raw)) == 0 {
			off = end
			continue
		}
		if !sawHeader {
			// The first non-blank line must be the header.
			var h trajectoryHeader
			dec := json.NewDecoder(bytes.NewReader(raw))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&h); err != nil {
				return nil, 0, &FormatError{Line: line, Err: fmt.Errorf("bad header: %w", err)}
			}
			if h.Schema != TrajectorySchema {
				return nil, 0, &FormatError{Line: line,
					Err: fmt.Errorf("unknown schema %q (want %q)", h.Schema, TrajectorySchema)}
			}
			sawHeader = true
			off = end
			continue
		}
		var rec Record
		if err := json.Unmarshal(raw, &rec); err != nil {
			if end >= len(data) {
				// The last line: corruption here is a torn tail.
				return t, off, &FormatError{Line: line, Err: fmt.Errorf("%w: %v", ErrTornTail, err)}
			}
			return nil, 0, &FormatError{Line: line, Err: err}
		}
		if err := rec.validate(); err != nil {
			return nil, 0, &FormatError{Line: line, Err: err}
		}
		t.Records = append(t.Records, rec)
		off = end
	}
	if !sawHeader {
		return nil, 0, &FormatError{Line: 1, Err: errors.New("no header line")}
	}
	return t, len(data), nil
}

// validate rejects records that cannot describe a real run.
func (r *Record) validate() error {
	if r.DurationSec < 0 || r.Clients < 0 {
		return fmt.Errorf("negative duration (%g) or clients (%d)", r.DurationSec, r.Clients)
	}
	if r.TotalOps < 0 || r.ThroughputOps < 0 {
		return fmt.Errorf("negative ops (%d) or throughput (%g)", r.TotalOps, r.ThroughputOps)
	}
	for name, op := range r.Ops {
		// Count tallies successful measurements, Errors failed attempts;
		// under heavy overload Errors can legitimately exceed Count.
		if op.Count < 0 || op.Errors < 0 {
			return fmt.Errorf("op %q has negative counts (%d ops, %d errors)", name, op.Count, op.Errors)
		}
		if op.P50us < 0 || op.P95us < op.P50us || op.P99us < op.P95us || op.MaxUs < op.P99us {
			return fmt.Errorf("op %q has non-monotone quantiles (%d/%d/%d/max %d)",
				name, op.P50us, op.P95us, op.P99us, op.MaxUs)
		}
		if op.Sketch != nil && op.Sketch.Count() != op.Count {
			return fmt.Errorf("op %q sketch counts %d observations, record says %d",
				name, op.Sketch.Count(), op.Count)
		}
	}
	return nil
}

// ReadTrajectory loads and strictly parses a trajectory file.
func ReadTrajectory(path string) (*Trajectory, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	t, _, err := ParseTrajectory(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}

// AppendRecord appends one run to the trajectory at path, creating the
// file (with its header) when absent. A torn tail from an interrupted
// earlier append is trimmed; any other corruption is surfaced instead of
// silently extended.
func AppendRecord(path string, rec Record) error {
	if err := rec.validate(); err != nil {
		return fmt.Errorf("loadgen: refusing to append invalid record: %w", err)
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	data, err := os.ReadFile(path)
	switch {
	case errors.Is(err, os.ErrNotExist), err == nil && len(bytes.TrimSpace(data)) == 0:
		header, _ := json.Marshal(trajectoryHeader{Schema: TrajectorySchema})
		out := append(append(header, '\n'), append(line, '\n')...)
		return os.WriteFile(path, out, 0o644)
	case err != nil:
		return err
	}
	if _, intact, perr := ParseTrajectory(data); perr != nil {
		if !errors.Is(perr, ErrTornTail) {
			return perr
		}
		data = data[:intact] // drop the torn tail, keep every intact record
	}
	if len(bytes.TrimSpace(data)) == 0 {
		// Even the header was torn: start the file over.
		header, _ := json.Marshal(trajectoryHeader{Schema: TrajectorySchema})
		data = append(header, '\n')
	}
	out := append(append([]byte(nil), data...), append(line, '\n')...)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, out, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// sloOps are the op classes whose latency quantiles the gate judges. The
// ancillary ops (result fetches, metrics scrapes) are light and rare, so
// their tail quantiles swing ~2x between identical back-to-back runs on a
// saturated box — they stay in the trajectory for human inspection but
// cannot fail the gate.
var sloOps = map[string]bool{KeySubmit: true, KeyWatch: true}

// Gate compares a fresh run against a committed baseline record: a
// regression is an SLO op class present in both (with enough samples to
// make quantiles meaningful) whose p95 or p99 latency exceeds the baseline
// by more than tol (fractional, e.g. 0.75 allows 1.75x), or throughput
// falling more than tol below the baseline. Returned strings describe
// each failure; empty means the gate passed.
func Gate(fresh, baseline *Record, tol float64) []string {
	const minSamples = 20
	var failures []string
	check := func(name, metric string, got, limit, base int64) {
		if got > limit {
			failures = append(failures, fmt.Sprintf(
				"%s %s: %dus is %.0f%% over baseline %dus (tolerance %.0f%%)",
				name, metric, got, 100*(float64(got)/float64(base)-1), base, 100*tol))
		}
	}
	for name, b := range baseline.Ops {
		f, ok := fresh.Ops[name]
		if !ok || !sloOps[name] || b.Count < minSamples || f.Count < minSamples {
			continue
		}
		// Floor tiny baselines at 1ms: sub-millisecond quantiles on a loaded
		// box gate on noise, not regressions.
		floor := func(v int64) int64 { return max(v, 1000) }
		check(name, "p95", f.P95us, int64(float64(floor(b.P95us))*(1+tol)), floor(b.P95us))
		check(name, "p99", f.P99us, int64(float64(floor(b.P99us))*(1+tol)), floor(b.P99us))
	}
	if baseline.ThroughputOps > 0 && fresh.ThroughputOps < baseline.ThroughputOps/(1+tol) {
		failures = append(failures, fmt.Sprintf(
			"throughput: %.0f ops/s is %.0f%% below baseline %.0f (tolerance %.0f%%)",
			fresh.ThroughputOps, 100*(1-fresh.ThroughputOps/baseline.ThroughputOps),
			baseline.ThroughputOps, 100*tol))
	}
	return failures
}

// DoctorBaseline scales a record's latencies down (and throughput up) by
// factor, fabricating a baseline from a machine factor-times faster. The
// harness's self-test feeds a doctored baseline to Gate to prove the gate
// actually fails when the service regresses.
func DoctorBaseline(r *Record, factor float64) *Record {
	if factor <= 0 {
		factor = 1
	}
	out := *r
	out.Ops = make(map[string]OpRecord, len(r.Ops))
	for name, op := range r.Ops {
		op.P50us = int64(float64(op.P50us) / factor)
		op.P95us = int64(float64(op.P95us) / factor)
		op.P99us = int64(float64(op.P99us) / factor)
		op.MaxUs = int64(float64(op.MaxUs) / factor)
		op.MeanUs /= factor
		op.Sketch = nil // quantiles no longer match any real distribution
		out.Ops[name] = op
	}
	out.ThroughputOps *= factor
	return &out
}
