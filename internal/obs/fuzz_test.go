package obs_test

import (
	"bytes"
	"io"
	"testing"

	"prioritystar/internal/obs"
)

// fuzzSeedTrace builds a small, valid trace touching every opcode so the
// fuzzer starts from structurally meaningful bytes.
func fuzzSeedTrace(tb testing.TB) []byte {
	tb.Helper()
	m := obs.NewManifest([]int{4, 4}, "priority-STAR", 7, 0.01, 0.02, 10, 100, 20)
	var buf bytes.Buffer
	tw, err := obs.NewTraceWriter(&buf, m)
	if err != nil {
		tb.Fatal(err)
	}
	tw.Spawn(0, true, true)
	tw.Enqueue(0, 3, 0, 1, 2)
	tw.Service(1, 3, 0, 1, 4, 1)
	tw.Deliver(2, 5, true, false, 2)
	tw.Fault(2, 9, true, 15)
	tw.Fault(3, 10, false, 0)
	tw.Deliver(3, 6, true, true, 3)
	tw.SlotEnd(3, 1)
	if err := tw.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzTraceReader feeds arbitrary bytes to the trace decoder. The decoder
// must return an error for malformed input — never panic, hang, or allocate
// unboundedly. The seed corpus covers the clean trace, truncations at every
// interesting boundary, and single-bit flips; `go test` runs all seeds even
// without -fuzz.
func FuzzTraceReader(f *testing.F) {
	seed := fuzzSeedTrace(f)
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte("not a trace at all"))
	f.Add(seed[:len(seed)/2])                      // truncated mid-stream
	f.Add(seed[:12])                               // truncated inside the header
	f.Add(append([]byte{}, seed[:len(seed)-1]...)) // last byte missing

	// Bit-flip a spread of positions: header magic, manifest, opcodes, fields.
	for _, pos := range []int{0, 4, 10, len(seed) / 2, len(seed) - 3} {
		if pos < 0 || pos >= len(seed) {
			continue
		}
		flipped := append([]byte{}, seed...)
		flipped[pos] ^= 0x40
		f.Add(flipped)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := obs.NewTraceReader(bytes.NewReader(data))
		if err != nil {
			return // malformed header: rejected cleanly
		}
		// Decode until clean EOF or a decode error; bound the event count so
		// a decoder bug that loops without consuming input still fails fast.
		for i := 0; i < 1<<20; i++ {
			_, err := tr.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				return // corruption surfaced as an error, as required
			}
		}
		t.Fatalf("decoded over %d events from %d bytes without EOF", 1<<20, len(data))
	})
}

// FuzzSummarize replays arbitrary bytes through the higher-level summary
// path, which additionally aggregates per-dimension counters.
func FuzzSummarize(f *testing.F) {
	seed := fuzzSeedTrace(f)
	f.Add(seed)
	f.Add(seed[:len(seed)-2])
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := obs.NewTraceReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		s, err := obs.Summarize(tr)
		if err != nil {
			return
		}
		if len(s.DimServices) > 1<<11 {
			t.Fatalf("summary grew %d dimension counters", len(s.DimServices))
		}
	})
}

// TestTraceReaderRejectsCorruption pins the specific corruption classes the
// fuzz targets explore, so regressions fail with a readable message even in
// non-fuzz CI runs.
func TestTraceReaderRejectsCorruption(t *testing.T) {
	seed := fuzzSeedTrace(t)

	t.Run("truncated-record", func(t *testing.T) {
		tr, err := obs.NewTraceReader(bytes.NewReader(seed[:len(seed)-1]))
		if err != nil {
			t.Fatal(err)
		}
		for {
			if _, err := tr.Next(); err != nil {
				if err == io.EOF {
					t.Fatal("truncated trace ended cleanly")
				}
				return
			}
		}
	})

	t.Run("unknown-opcode", func(t *testing.T) {
		bad := append([]byte{}, seed...)
		bad = append(bad, 0xee, 0x00)
		tr, err := obs.NewTraceReader(bytes.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		for {
			ev, err := tr.Next()
			if err == io.EOF {
				t.Fatal("unknown opcode not rejected")
			}
			if err != nil {
				return
			}
			_ = ev
		}
	})

	t.Run("absurd-dimension", func(t *testing.T) {
		var buf bytes.Buffer
		tw, err := obs.NewTraceWriter(&buf, obs.NewManifest([]int{4}, "x", 1, 0, 0, 0, 1, 0))
		if err != nil {
			t.Fatal(err)
		}
		tw.Service(0, 0, 1<<30, 0, 1, 0)
		if err := tw.Flush(); err != nil {
			t.Fatal(err)
		}
		tr, err := obs.NewTraceReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tr.Next(); err == nil {
			t.Fatal("dimension 2^30 decoded without error")
		}
	})
}
