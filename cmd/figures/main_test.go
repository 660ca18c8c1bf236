package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"prioritystar"
	"prioritystar/internal/cli"
	"prioritystar/internal/spec"
)

// TestCheckpointHeaderIsSpecFingerprint: a figures checkpoint is keyed by
// the figure's canonical spec fingerprint — engine version and the whole
// traffic mix included — so -resume never replays another experiment's
// records.
func TestCheckpointHeaderIsSpecFingerprint(t *testing.T) {
	dir := t.TempDir()
	if err := run("quick", "fig2+5", "", false, dir, false); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(filepath.Join(dir, "fig2+5_quick.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		t.Fatalf("empty checkpoint: %v", sc.Err())
	}
	var hdr struct {
		Fingerprint string `json:"fingerprint"`
	}
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		t.Fatal(err)
	}

	scale, err := cli.ParseScale("quick")
	if err != nil {
		t.Fatal(err)
	}
	exp, err := prioritystar.Figure("fig2+5", scale)
	if err != nil {
		t.Fatal(err)
	}
	want, err := spec.Fingerprint(exp)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Fingerprint != want {
		t.Fatalf("checkpoint header fingerprint %q, want spec.Fingerprint %q", hdr.Fingerprint, want)
	}
}
