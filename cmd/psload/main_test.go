package main

import (
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// buildPsload compiles the psload command into a temporary directory.
func buildPsload(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "psload")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building psload: %v\n%s", err, out)
	}
	return bin
}

// TestPsloadDrivesBootedDaemon runs the binary against its own in-process
// daemon, single-node and fleet-backed: each run must exit 0, report a
// submit row with a nonzero count, and report no failures.
func TestPsloadDrivesBootedDaemon(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the psload binary")
	}
	bin := buildPsload(t)
	for _, tc := range []struct {
		name  string
		extra []string
	}{{"single-node", nil}, {"fleet", []string{"-workers", "2"}}} {
		t.Run(tc.name, func(t *testing.T) {
			args := append([]string{"-boot", "-clients", "20", "-duration", "1s", "-mix", "cache-hit", "-q"}, tc.extra...)
			out, err := exec.Command(bin, args...).CombinedOutput()
			if err != nil {
				t.Fatalf("psload %s: %v\n%s", strings.Join(args, " "), err, out)
			}
			if strings.Contains(string(out), "FAILURES") {
				t.Errorf("psload reported failures:\n%s", out)
			}
			submits := int64(-1)
			for _, line := range strings.Split(string(out), "\n") {
				if f := strings.Fields(line); len(f) > 1 && f[0] == "submit" {
					submits, _ = strconv.ParseInt(f[1], 10, 64)
				}
			}
			if submits <= 0 {
				t.Errorf("no submit row with a nonzero count:\n%s", out)
			}
		})
	}
}
