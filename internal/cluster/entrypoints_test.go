package cluster

// Every entry point computes one spec's result through the same
// Subjobs -> executor -> Assemble path, so every one of them must produce
// the same bits: the local sweep, a resume of it, the fleet, a fleet resume
// of a journal the local sweep wrote, the fleet degraded to local
// execution, and the daemon with and without the fleet behind it.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"prioritystar/internal/chaosnet"
	"prioritystar/internal/obs"
	"prioritystar/internal/serve"
	"prioritystar/internal/sweep"
)

// guardSpec is a faulted one-scheme sweep whose rho=1.4 column the
// divergence watchdog cuts short.
func guardSpec(seed int) []byte {
	return []byte(fmt.Sprintf(`{
		"id": "t-guard", "dims": [4, 4], "rhos": [0.3, 1.4],
		"broadcastFrac": 1, "schemes": [{"name": "priority-star"}],
		"warmup": 500, "measure": 2500, "drain": 1000,
		"reps": 3, "seed": %d,
		"faults": "perm:1,seed:3", "guard": {"default": true}
	}`, seed))
}

// TestGoldenFingerprint pins one document's canonical fingerprint. The
// fingerprint keys every deployed result cache and checkpoint journal, so
// a change to the canonical encoding must fail here rather than silently
// orphan them. The retired "execution" field stays outside it.
func TestGoldenFingerprint(t *testing.T) {
	const want = "ps1-0b5f3c86e5e65854ec8462463ffaaf5f7d8b1141e2d8ecc561dafa18ed544547"
	old := bytes.Replace(faultedSpec(11), []byte(`"id": "t-fleet",`), []byte(`"id": "t-fleet", "execution": "sequential",`), 1)
	if !bytes.Contains(old, []byte(`"execution"`)) {
		t.Fatal("test document lost its execution field")
	}
	for _, doc := range [][]byte{faultedSpec(11), old} {
		if got := decodeSpec(t, doc).Fingerprint; got != want {
			t.Errorf("fingerprint = %s, want %s\n%s", got, want, doc)
		}
	}
}

// startDaemon boots an in-process daemon; runJob nil runs jobs locally.
func startDaemon(t *testing.T, runJob func(*sweep.Experiment) (*sweep.Result, error)) *serve.Client {
	t.Helper()
	s, err := serve.New(serve.Config{
		Addr: "127.0.0.1:0", Workers: 1, QueueCap: 4,
		Metrics: &obs.MetricSet{}, Logf: t.Logf, RunJob: runJob,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	return serve.NewClient(addr)
}

// daemonResult submits doc, waits for it, and returns the result document.
func daemonResult(t *testing.T, cl *serve.Client, doc []byte) []byte {
	t.Helper()
	ctx := context.Background()
	st, err := cl.SubmitJSON(ctx, doc)
	if err != nil {
		t.Fatal(err)
	}
	final, err := cl.Watch(ctx, st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != serve.StateDone {
		t.Fatalf("job ended %q: %s", final.State, final.Error)
	}
	body, err := cl.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestEntryPointsAgree is the cross-entry-point differential table.
func TestEntryPointsAgree(t *testing.T) {
	fleet, fsrv := startCoordinator(t, CoordinatorConfig{
		Heartbeat: 50 * time.Millisecond, LeaseTTL: 30 * time.Second,
	})
	for i := 0; i < 2; i++ {
		joinWorker(t, fsrv.URL, startWorker(t, 1, nil), fmt.Sprintf("w%d", i))
	}
	waitAlive(t, fsrv.URL, 2)

	tr := chaosnet.New(1, nil)
	cutOff, dsrv := startCoordinator(t, CoordinatorConfig{
		Heartbeat: 50 * time.Millisecond, LeaseTTL: 30 * time.Second,
		DegradeAfter: 400 * time.Millisecond, BreakerThreshold: 2,
		transport: tr,
	})
	for i := 0; i < 2; i++ {
		tw := startWorker(t, 1, nil)
		joinWorker(t, dsrv.URL, tw, fmt.Sprintf("cut%d", i))
		tr.Partition(tw.addr)
	}
	waitAlive(t, dsrv.URL, 2)

	var mu sync.Mutex
	var hookedRes *sweep.Result
	hooked := startDaemon(t, func(exp *sweep.Experiment) (*sweep.Result, error) {
		res, err := fleet.RunJob(exp)
		mu.Lock()
		hookedRes = res
		mu.Unlock()
		return res, err
	})
	plain := startDaemon(t, nil)

	for _, tc := range []struct {
		name string
		doc  []byte
	}{{"faulted", faultedSpec(91)}, {"guard", guardSpec(92)}} {
		name, doc := tc.name, tc.doc
		t.Run(name, func(t *testing.T) {
			ref, err := decodeSpec(t, doc).Run()
			if err != nil {
				t.Fatal(err)
			}
			want := resultSignature(t, ref)
			if name == "guard" && !strings.Contains(want, "diverged=3") {
				t.Fatalf("guard spec not cut short by the watchdog:\n%s", want)
			}
			check := func(entry string, res *sweep.Result, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s: %v", entry, err)
				}
				if got := resultSignature(t, res); got != want {
					t.Errorf("%s diverges from sweep.Run:\n%s\nvs\n%s", entry, got, want)
				}
			}

			// A journal cut two records in: mid-way through the cell of the
			// first sub-job that folded.
			dir := t.TempDir()
			full := decodeSpec(t, doc)
			full.Checkpoint = filepath.Join(dir, "full.jsonl")
			if _, err := full.Run(); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(full.Checkpoint)
			if err != nil {
				t.Fatal(err)
			}
			cut := []byte(strings.Join(strings.SplitAfter(string(data), "\n")[:3], ""))
			resume := func(entry string, run func(*sweep.Experiment) (*sweep.Result, error)) {
				exp := decodeSpec(t, doc)
				exp.Checkpoint = filepath.Join(dir, entry+".jsonl")
				exp.Resume = true
				if err := os.WriteFile(exp.Checkpoint, cut, 0o644); err != nil {
					t.Fatal(err)
				}
				res, err := run(exp)
				check(entry, res, err)
				if err == nil && res.ResumedReps != 2 {
					t.Errorf("%s resumed %d reps, want 2", entry, res.ResumedReps)
				}
			}
			resume("resumed-run", (*sweep.Experiment).Run)
			resume("resumed-fleet", fleet.RunJob)

			res, err := fleet.RunJob(decodeSpec(t, doc))
			check("fleet", res, err)
			res, err = cutOff.RunJob(decodeSpec(t, doc))
			check("degraded", res, err)

			hookedDoc := daemonResult(t, hooked, doc)
			mu.Lock()
			res = hookedRes
			mu.Unlock()
			check("daemon+fleet", res, nil)
			if plainDoc := daemonResult(t, plain, doc); !bytes.Equal(plainDoc, hookedDoc) {
				t.Errorf("daemon result documents differ with and without the fleet:\n%s\nvs\n%s", plainDoc, hookedDoc)
			}
		})
	}
	if got := cutOff.Metrics().Counter("subjobs_local"); got == 0 {
		t.Error("the partitioned fleet ran no sub-job locally")
	}
}
