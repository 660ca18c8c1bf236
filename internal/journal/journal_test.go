package journal

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

type rec struct {
	N int    `json:"n"`
	S string `json:"s"`
}

// collect replays path and returns the decoded records.
func collect(t *testing.T, path, magic, want string) ([]rec, int64, bool) {
	t.Helper()
	var out []rec
	validLen, found, _, err := Load(path, magic, want, func(line []byte) error {
		var r rec
		if err := json.Unmarshal(line, &r); err != nil {
			return err
		}
		out = append(out, r)
		return nil
	})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return out, validLen, found
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	w, err := Create(path, "m1", "fp1")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := w.Append(rec{N: i, S: "x"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs, validLen, found := collect(t, path, "m1", "fp1")
	if !found || len(recs) != 3 || recs[2].N != 2 {
		t.Fatalf("replay = %v found=%v", recs, found)
	}
	st, _ := os.Stat(path)
	if validLen != st.Size() {
		t.Fatalf("validLen %d != file size %d", validLen, st.Size())
	}
}

func TestMissingAndEmpty(t *testing.T) {
	dir := t.TempDir()
	if _, found, _, err := Load(filepath.Join(dir, "absent"), "m", "", nil); err != nil || found {
		t.Fatalf("missing file: found=%v err=%v", found, err)
	}
	empty := filepath.Join(dir, "empty")
	os.WriteFile(empty, nil, 0o644)
	if _, found, _, err := Load(empty, "m", "", nil); err != nil || found {
		t.Fatalf("empty file: found=%v err=%v", found, err)
	}
}

func TestBadMagicAndFingerprint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	w, _ := Create(path, "m1", "fp1")
	w.Append(rec{N: 1})
	w.Close()
	if _, _, _, err := Load(path, "other", "", func([]byte) error { return nil }); err == nil {
		t.Fatal("wrong magic accepted")
	}
	_, _, _, err := Load(path, "m1", "fp2", func([]byte) error { return nil })
	var fp *ErrFingerprint
	if !errors.As(err, &fp) || fp.Got != "fp1" {
		t.Fatalf("want ErrFingerprint with got=fp1, have %v", err)
	}
	// Empty want skips the check.
	if recs, _, _ := collect(t, path, "m1", ""); len(recs) != 1 {
		t.Fatalf("want 1 record, got %v", recs)
	}
}

func TestTornTailTrimmedOnAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	w, _ := Create(path, "m1", "fp")
	w.Append(rec{N: 1})
	w.Append(rec{N: 2})
	w.Close()

	// Simulate a crash mid-write: chop the final line in half.
	b, _ := os.ReadFile(path)
	os.WriteFile(path, b[:len(b)-5], 0o644)

	recs, validLen, found := collect(t, path, "m1", "fp")
	if !found || len(recs) != 1 || recs[0].N != 1 {
		t.Fatalf("torn replay = %v", recs)
	}

	// Appending after OpenAppend(validLen) must yield a clean journal.
	w2, err := OpenAppend(path, validLen)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Append(rec{N: 3}); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	recs, _, _ = collect(t, path, "m1", "fp")
	if len(recs) != 2 || recs[1].N != 3 {
		t.Fatalf("post-trim replay = %v", recs)
	}
}

// collectLenient replays path with Load, rejecting undecodable lines and
// records marked "bad".
func collectLenient(t *testing.T, path, magic, want string) (out []rec, validLen int64, skipped int) {
	t.Helper()
	validLen, _, skipped, err := Load(path, magic, want, func(line []byte) error {
		var r rec
		if err := json.Unmarshal(line, &r); err != nil {
			return err
		}
		if r.S == "bad" {
			return errors.New("rejected by each")
		}
		out = append(out, r)
		return nil
	})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return out, validLen, skipped
}

// TestLoadSkipsInteriorCorruption: a corrupt record in the middle of the
// file is skipped and counted, while every record around it — including
// ones after it — is kept. validLen covers the whole intact file so a later
// append never overwrites good records.
func TestLoadSkipsInteriorCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	w, _ := Create(path, "m1", "fp")
	w.Append(rec{N: 1})
	w.Append(rec{N: 2, S: "bad"}) // decodes, but the callback rejects it
	w.Append(rec{N: 3})
	w.Close()
	// A second flavor of corruption: garbage bytes on their own line.
	f, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	f.WriteString("{{{ not json\n")
	f.Close()
	w2, err := OpenAppend(path, fileSize(t, path))
	if err != nil {
		t.Fatal(err)
	}
	w2.Append(rec{N: 4})
	w2.Close()

	recs, validLen, skipped := collectLenient(t, path, "m1", "fp")
	if skipped != 2 {
		t.Fatalf("skipped = %d, want 2", skipped)
	}
	if len(recs) != 3 || recs[0].N != 1 || recs[1].N != 3 || recs[2].N != 4 {
		t.Fatalf("lenient replay = %v", recs)
	}
	if validLen != fileSize(t, path) {
		t.Fatalf("validLen %d != file size %d (interior corruption must stay inside the valid prefix)", validLen, fileSize(t, path))
	}
}

// TestLoadTrimsTornTail: a rejected run at the very end of the file is the
// torn tail of a crashed append, not interior corruption — it is not
// counted as skipped and sits past validLen so OpenAppend trims it.
func TestLoadTrimsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	w, _ := Create(path, "m1", "fp")
	w.Append(rec{N: 1})
	w.Append(rec{N: 2})
	w.Close()
	b, _ := os.ReadFile(path)
	os.WriteFile(path, b[:len(b)-5], 0o644)

	recs, validLen, skipped := collectLenient(t, path, "m1", "fp")
	if skipped != 0 {
		t.Fatalf("skipped = %d, want 0 (a torn tail is not interior corruption)", skipped)
	}
	if len(recs) != 1 || recs[0].N != 1 {
		t.Fatalf("torn replay = %v", recs)
	}
	w2, err := OpenAppend(path, validLen)
	if err != nil {
		t.Fatal(err)
	}
	w2.Append(rec{N: 3})
	w2.Close()
	recs, _, skipped = collectLenient(t, path, "m1", "fp")
	if skipped != 0 || len(recs) != 2 || recs[1].N != 3 {
		t.Fatalf("post-trim replay = %v skipped=%d", recs, skipped)
	}
}

// TestSetSync: fsync-per-append must not change what is written, only when
// it reaches the disk (which a unit test cannot observe — this pins the
// read-back equivalence and that the toggle does not error).
func TestSetSync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	w, err := Create(path, "m1", "fp")
	if err != nil {
		t.Fatal(err)
	}
	w.SetSync(true)
	for i := 0; i < 3; i++ {
		if err := w.Append(rec{N: i}); err != nil {
			t.Fatalf("synced append %d: %v", i, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _, found := collect(t, path, "m1", "fp")
	if !found || len(recs) != 3 {
		t.Fatalf("synced journal replay = %v found=%v", recs, found)
	}
}

// TestAppendRace: Appends from several goroutines at once each land as one
// intact line; the replay sees every record and skips none.
func TestAppendRace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	w, err := Create(path, "m1", "fp")
	if err != nil {
		t.Fatal(err)
	}
	const writers, each = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := w.Append(rec{N: g*each + i, S: "concurrent"}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _, skipped := collectLenient(t, path, "m1", "fp")
	seen := make(map[int]bool)
	for _, r := range recs {
		seen[r.N] = true
	}
	if skipped != 0 || len(recs) != writers*each || len(seen) != writers*each {
		t.Fatalf("replayed %d records (%d distinct), skipped %d; want %d intact", len(recs), len(seen), skipped, writers*each)
	}
}

// TestWriterNilAndClosed: a nil Writer is a switched-off journal, a closed
// one refuses appends, and closing twice is harmless.
func TestWriterNilAndClosed(t *testing.T) {
	var off *Writer
	if err := off.Append(rec{N: 1}); err != nil {
		t.Fatalf("append to a nil Writer: %v", err)
	}
	if err := off.Close(); err != nil {
		t.Fatalf("close of a nil Writer: %v", err)
	}
	path := filepath.Join(t.TempDir(), "j.jsonl")
	w, err := Create(path, "m1", "fp")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(rec{N: 1}); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("append to a closed Writer: err = %v, want os.ErrClosed", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if recs, _, _ := collect(t, path, "m1", "fp"); len(recs) != 0 {
		t.Fatalf("refused append reached the file: %v", recs)
	}
}

// TestRewrite: a Rewrite whose fill fails leaves the old journal byte for
// byte; one that succeeds replaces it and appends after the new records.
func TestRewrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	w, _ := Create(path, "m1", "fp")
	w.Append(rec{N: 1})
	w.Append(rec{N: 2})
	w.Close()
	before, _ := os.ReadFile(path)

	boom := errors.New("boom")
	_, err := Rewrite(path, "m1", "fp2", func(w *Writer) error {
		w.Append(rec{N: 9})
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the fill's error", err)
	}
	if after, _ := os.ReadFile(path); string(after) != string(before) {
		t.Fatalf("failed rewrite changed the journal:\n%s\nvs\n%s", after, before)
	}

	w, err = Rewrite(path, "m1", "fp2", func(w *Writer) error { return w.Append(rec{N: 3}) })
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(rec{N: 4}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	recs, validLen, _ := collect(t, path, "m1", "fp2")
	if len(recs) != 2 || recs[0].N != 3 || recs[1].N != 4 || validLen != fileSize(t, path) {
		t.Fatalf("rewritten journal replays %v (validLen %d)", recs, validLen)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}
