// Package journal is the one owner of how a JSONL journal is replayed,
// written, compacted and identified: the sweep checkpoints, the daemon's
// result cache and job WAL, and the coordinator's lease journal all sit on
// it. A journal is a header line carrying a magic string and a fingerprint
// of whatever the journal belongs to, then one JSON record per line.
//
// # Replay
//
// Load is the one replay rule: a record line the caller rejects is skipped
// and counted, and replay goes on, so one corrupt interior record never
// discards the intact records after it. A rejected run at the very end of
// the file is the torn tail of a crashed append instead; it is not counted,
// and OpenAppend trims it before anything is written after it.
//
// # Writing
//
// A Writer flushes per record, so a killed process loses at most the line
// in flight, and it is safe for concurrent use. A nil *Writer stands for a
// journal that is switched off: Append discards the record and Close
// returns nil. A closed Writer refuses Append with an error, and a second
// Close returns nil. Rewrite replaces a journal atomically through a
// temporary file and a rename, so a crash or a failed rewrite leaves the
// old journal whole; the job WAL and the lease journal compact themselves
// through it on every replay.
//
// # Durability
//
// By default Append flushes to the operating system (a crashed *process*
// loses at most the record in flight) but does not fsync, so a machine
// crash or power loss can lose recently flushed records still in the page
// cache. SetSync(true) adds an fsync per Append: every acknowledged record
// survives power loss, at the cost of a disk round trip per record —
// roughly three orders of magnitude slower on spinning media, and still
// substantial on SSDs. High-volume journals whose records are cheap to
// recompute (sweep checkpoints, the result cache) keep the default;
// low-volume journals whose records are promises to a client (the daemon's
// job WAL) turn fsync on.
package journal

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// header is the first line of every journal.
type header struct {
	Magic       string `json:"journal"`
	Fingerprint string `json:"fingerprint"`
}

// Writer appends JSON records to a journal file, flushing per record.
type Writer struct {
	mu   sync.Mutex
	f    *os.File // nil once closed
	w    *bufio.Writer
	sync bool
}

// SetSync toggles fsync-per-Append (off by default). See the package
// comment for the durability trade-off.
func (j *Writer) SetSync(on bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.sync = on
}

// Create truncates (or creates) path and writes the header line.
func Create(path, magic, fingerprint string) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("journal: creating %s: %w", path, err)
	}
	j := &Writer{f: f, w: bufio.NewWriter(f)}
	if err := j.Append(header{Magic: magic, Fingerprint: fingerprint}); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// OpenAppend opens an existing journal for appending new records, first
// truncating it to validLen (as reported by Load) so a torn final line from
// a crash does not swallow the next record written after it.
func OpenAppend(path string, validLen int64) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: opening %s: %w", path, err)
	}
	if err := f.Truncate(validLen); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: trimming torn tail of %s: %w", path, err)
	}
	if _, err := f.Seek(validLen, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: seeking %s: %w", path, err)
	}
	return &Writer{f: f, w: bufio.NewWriter(f)}, nil
}

// Rewrite atomically replaces the journal at path with a header line and
// the records fill appends, and returns a Writer appending after them. It
// writes path+".tmp" and renames it over path only once fill and the flush
// have succeeded, so a crash or a failed fill leaves the old journal whole.
func Rewrite(path, magic, fingerprint string, fill func(*Writer) error) (*Writer, error) {
	tmp := path + ".tmp"
	w, err := Create(tmp, magic, fingerprint)
	if err != nil {
		return nil, err
	}
	err = fill(w)
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return nil, err
	}
	if err := os.Rename(tmp, path); err != nil {
		return nil, fmt.Errorf("journal: replacing %s: %w", path, err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	return OpenAppend(path, fi.Size())
}

// Append marshals v onto its own line and flushes, so a crash loses at most
// the record in flight. Appending to a nil Writer does nothing; appending
// to a closed one is an error.
func (j *Writer) Append(v any) error {
	if j == nil {
		return nil
	}
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("journal: encoding record: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("journal: append: %w", os.ErrClosed)
	}
	if _, err := j.w.Write(append(b, '\n')); err != nil {
		return err
	}
	if err := j.w.Flush(); err != nil {
		return err
	}
	if j.sync {
		return j.f.Sync()
	}
	return nil
}

// Close flushes and closes the underlying file. Closing a nil or an
// already closed Writer returns nil.
func (j *Writer) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.w.Flush()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}

// ErrFingerprint reports a journal whose header fingerprint does not match
// the caller's expectation; callers wrap it with domain-specific advice.
type ErrFingerprint struct {
	Path string
	Got  string
}

// Error implements error.
func (e *ErrFingerprint) Error() string {
	return fmt.Sprintf("journal: %s has a mismatched fingerprint", e.Path)
}

// Load replays a journal. It verifies the header magic (and, when want is
// non-empty, the header fingerprint), then calls each for every record line
// in order; a line each rejects is skipped. skipped counts the rejected
// lines followed by an accepted record. validLen is the byte offset just
// past the last accepted record: interior corrupt lines lie inside it, so
// appending never overwrites good records, and the torn tail lies past it,
// so OpenAppend(validLen) trims the tear. A missing or empty file is not an
// error: found is false and the caller starts from scratch.
func Load(path, magic, want string, each func(line []byte) error) (validLen int64, found bool, skipped int, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return 0, false, 0, nil
	}
	if err != nil {
		return 0, false, 0, fmt.Errorf("journal: opening %s: %w", path, err)
	}
	defer f.Close()

	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	if !sc.Scan() {
		return 0, false, 0, nil // empty file: treat as absent
	}
	var hdr header
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil || hdr.Magic != magic {
		return 0, false, 0, fmt.Errorf("journal: %s is not a %s journal", path, magic)
	}
	if want != "" && hdr.Fingerprint != want {
		return 0, false, 0, &ErrFingerprint{Path: path, Got: hdr.Fingerprint}
	}
	validLen = int64(len(sc.Bytes())) + 1
	var badLines int   // rejected lines not yet known to be interior
	var badBytes int64 // their byte length, including newlines
	for sc.Scan() {
		n := int64(len(sc.Bytes())) + 1
		if err := each(sc.Bytes()); err != nil {
			badLines++
			badBytes += n
			continue
		}
		// A good record after bad lines proves they were interior
		// corruption, not the torn tail: keep them inside the valid prefix.
		skipped += badLines
		validLen += badBytes + n
		badLines, badBytes = 0, 0
	}
	if err := sc.Err(); err != nil {
		return 0, false, 0, fmt.Errorf("journal: reading %s: %w", path, err)
	}
	return validLen, true, skipped, nil
}
