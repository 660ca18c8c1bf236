package spec

// Canonical encoding and fingerprinting of experiment specs. Two
// experiments that mean the same thing — whether built from CLI flags, a
// hand-written spec file with fields in any order, or the library API —
// must produce the same fingerprint, because the fingerprint is the
// identity everything durable hangs off: the daemon's content-addressed
// result cache and the sweep checkpoint-journal header both key on it.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"prioritystar/internal/sim"
	"prioritystar/internal/sweep"
)

// Canonical returns the canonical, key-order-stable JSON encoding of the
// experiment: the spec form produced by FromSweep, marshalled compactly.
// Struct marshalling fixes the key order (declaration order) and FromSweep
// normalizes every field — scheme names resolve to their full
// discipline/rotation encoding, lengths and distance models to their
// canonical strings — so semantically identical experiments byte-match
// regardless of how they were written down.
func Canonical(e *sweep.Experiment) ([]byte, error) {
	b, err := json.Marshal(FromSweep(e))
	if err != nil {
		return nil, fmt.Errorf("spec: canonical encoding: %w", err)
	}
	return b, nil
}

// Fingerprint hashes the canonical encoding together with the engine
// version into the experiment's content address. Identical fingerprints
// mean bit-identical results: every input that can change a measured number
// — topology, rho grid, schemes, traffic, horizon, seeds, fault schedule,
// watchdog thresholds, backlog cap — is inside the canonical encoding, and
// sim.EngineVersion covers changes to the engine itself. Fields that cannot
// change results (worker counts, checkpoint paths, progress callbacks,
// wall-clock timeouts) are deliberately outside it, so a re-run on a bigger
// machine still hits the cache.
func Fingerprint(e *sweep.Experiment) (string, error) {
	doc := FromSweep(e)
	// Human labels don't change results; a renamed experiment must still
	// hit the cache. The approx mode and its tolerance are serving-side
	// knobs: an approx submission must share the exact submission's
	// identity, so a cached exact result can answer it and a fallback
	// simulation lands in the exact cache.
	doc.ID, doc.Title, doc.Notes, doc.Mode = "", "", "", ""
	doc.ApproxTol = 0
	b, err := json.Marshal(doc)
	if err != nil {
		return "", fmt.Errorf("spec: canonical encoding: %w", err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "ps-spec/1 %s\n", sim.EngineVersion)
	h.Write(b)
	return "ps1-" + hex.EncodeToString(h.Sum(nil)), nil
}

// Stamp computes the experiment's fingerprint and stores it on the
// experiment, where the checkpoint journal and the daemon's cache pick it
// up. Call it after every field that affects results is final.
func Stamp(e *sweep.Experiment) error {
	fp, err := Fingerprint(e)
	if err != nil {
		return err
	}
	e.Fingerprint = fp
	return nil
}
