// Command psctl is the command-line client for a starsimd daemon.
//
//	psctl submit -shape 8x8 -scheme priority-star -sweep 0.5,0.7 -watch
//	psctl submit -shape 8x8 -rho 0.3 -approx        # surrogate fast path
//	psctl submit -spec experiment.json
//	psctl ls                                        # queued jobs only
//	psctl get j000001
//	psctl watch j000001
//	psctl result j000001 > result.json
//	psctl cancel j000001
//	psctl metrics
//
// An ID names a queued job (j000001) or an answer, a submission the daemon
// completed at once. A cache hit's ID is its fingerprint (ps1-...), read
// through the daemon's result cache, so it stays valid across restarts. A
// surrogate answer's ID names the daemon process, which keeps only its
// latest 1024 answers: read the result right after submitting (submit
// -watch -out does), because an older ID reads as unknown.
//
// The daemon address comes from -addr, the PSCTL_ADDR environment
// variable, or the default 127.0.0.1:7077, in that order.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"prioritystar/internal/cli"
	"prioritystar/internal/cluster"
	"prioritystar/internal/obs"
	"prioritystar/internal/serve"
	"prioritystar/internal/spec"
)

const defaultAddr = "127.0.0.1:7077"

func usage() {
	fmt.Fprintf(os.Stderr, `usage: psctl [-addr HOST:PORT] COMMAND [ARGS]

commands:
  submit   submit a job from -spec FILE or workload flags; -watch follows it
  ls       list queued jobs in submission order (answers are not listed)
  get ID   print one job's status
  watch ID follow a job's progress to completion
  result ID  print a finished job's result document (verbatim cached bytes)
  cancel ID  request cancellation (best effort)
  metrics  print the daemon's metric snapshot
  workers  print a coordinator's fleet roster

run "psctl COMMAND -h" for command flags
`)
}

func main() {
	addr := flag.String("addr", "", "daemon address (default $PSCTL_ADDR or "+defaultAddr+")")
	flag.Usage = usage
	flag.Parse()
	if *addr == "" {
		*addr = os.Getenv("PSCTL_ADDR")
	}
	if *addr == "" {
		*addr = defaultAddr
	}
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	c := serve.NewClient(*addr)
	c.Metrics = &obs.MetricSet{} // counts client-side retries/reconnects
	ctx := context.Background()
	var err error
	switch cmd := args[0]; cmd {
	case "submit":
		err = cmdSubmit(ctx, c, args[1:])
	case "ls":
		err = cmdList(ctx, c)
	case "get":
		err = withID(cmd, args[1:], func(id string) error {
			st, err := c.Get(ctx, id)
			if err != nil {
				return err
			}
			return printJSON(st)
		})
	case "watch":
		err = withID(cmd, args[1:], func(id string) error {
			return watch(ctx, c, id)
		})
	case "result":
		err = withID(cmd, args[1:], func(id string) error {
			body, err := c.Result(ctx, id)
			if err != nil {
				return err
			}
			os.Stdout.Write(body)
			fmt.Println()
			return nil
		})
	case "cancel":
		err = withID(cmd, args[1:], func(id string) error {
			st, err := c.Cancel(ctx, id)
			if err != nil {
				return err
			}
			return printJSON(st)
		})
	case "metrics":
		var snap obs.Snapshot
		snap, err = c.MetricsSnapshot(ctx)
		if err == nil {
			// Fold the client's own counters (retries, reconnects) into the
			// daemon snapshot so one document shows both ends.
			snap.Merge(c.Metrics.Snapshot())
			err = printJSON(snap)
		}
	case "workers":
		err = cmdWorkers(ctx, *addr)
	default:
		fmt.Fprintf(os.Stderr, "psctl: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "psctl:", err)
		os.Exit(1)
	}
}

// withID runs fn with the single ID argument commands like get/watch take.
func withID(cmd string, args []string, fn func(id string) error) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: psctl %s JOB-ID", cmd)
	}
	return fn(args[0])
}

func printJSON(v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// cmdSubmit builds a spec — from a file or from the shared workload flags —
// and submits it; -watch then follows the job and -out saves its result.
func cmdSubmit(ctx context.Context, c *serve.Client, args []string) error {
	fs := flag.NewFlagSet("psctl submit", flag.ExitOnError)
	var w cli.Workload
	w.Register(fs)
	specFile := fs.String("spec", "", "submit this JSON experiment spec file instead of the workload flags")
	id := fs.String("id", "psctl", "spec id label (workload flags only)")
	approx := fs.Bool("approx", false, "accept an approximate answer from the daemon's analytic surrogate (workload flags only; spec files set \"mode\": \"approx\" themselves)")
	approxTol := fs.Float64("approx-tol", 0, "relative error tolerance for -approx answers (0: daemon default)")
	follow := fs.Bool("watch", false, "follow the job to completion")
	out := fs.String("out", "", "with -watch: write the result document here when the job succeeds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out != "" && !*follow {
		return fmt.Errorf("-out needs -watch")
	}

	var (
		st  *serve.JobStatus
		err error
	)
	if *specFile != "" {
		data, rerr := os.ReadFile(*specFile)
		if rerr != nil {
			return rerr
		}
		st, err = c.SubmitJSON(ctx, data)
	} else {
		exp, berr := w.Experiment(*id, "")
		if berr != nil {
			return berr
		}
		exp.Approx = *approx
		exp.ApproxTol = *approxTol
		st, err = c.Submit(ctx, spec.FromSweep(exp))
	}
	if err != nil {
		if serve.IsQueueFull(err) {
			return fmt.Errorf("%v (daemon queue is full; retry shortly)", err)
		}
		return err
	}
	how := "queued"
	switch {
	case st.Cached:
		how = "served from cache"
	case st.Approx:
		how = "answered by the analytic surrogate (result carries error bounds)"
	case st.Deduped:
		how = "joined identical in-flight job"
	}
	fmt.Fprintf(os.Stderr, "job %s %s (fingerprint %s)\n", st.ID, how, st.Fingerprint)
	if !*follow {
		return printJSON(st)
	}
	if err := watch(ctx, c, st.ID); err != nil {
		return err
	}
	if *out != "" {
		body, err := c.Result(ctx, st.ID)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(body, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
	}
	return nil
}

// watch follows a job over SSE (falling back to polling) and prints its
// progress; the terminal status decides the message and the error.
func watch(ctx context.Context, c *serve.Client, id string) error {
	last := ""
	st, err := c.Watch(ctx, id, func(ev serve.JobStatus) {
		line := fmt.Sprintf("%s %s", ev.ID, ev.State)
		if ev.Total > 0 {
			line = fmt.Sprintf("%s %d/%d replications", line, ev.Done, ev.Total)
		}
		if line != last {
			fmt.Fprintln(os.Stderr, line)
			last = line
		}
	})
	if err != nil {
		return err
	}
	switch st.State {
	case serve.StateDone:
		if st.Partial {
			fmt.Fprintf(os.Stderr, "job %s done (partial: some replications failed or diverged)\n", st.ID)
		}
		if st.ResumedReps > 0 {
			fmt.Fprintf(os.Stderr, "job %s resumed %d checkpointed replication(s)\n", st.ID, st.ResumedReps)
		}
		return nil
	case serve.StateCanceled:
		return fmt.Errorf("job %s was canceled", st.ID)
	case serve.StateQuarantined:
		return fmt.Errorf("job %s was quarantined after %d attempt(s): %s", st.ID, st.Attempt, st.Error)
	default:
		return fmt.Errorf("job %s failed: %s", st.ID, st.Error)
	}
}

// cmdWorkers prints a coordinator's fleet roster.
func cmdWorkers(ctx context.Context, addr string) error {
	ws, err := cluster.NewClient(addr).Workers(ctx)
	if err != nil {
		return err
	}
	if len(ws) == 0 {
		fmt.Println("no workers registered")
		return nil
	}
	fmt.Printf("%-7s %-16s %-22s %-6s %-6s %-7s %-6s %-9s %-5s %-8s %s\n",
		"ID", "NAME", "ADDR", "SLOTS", "DEPTH", "LEASES", "ALIVE", "BREAKER", "FAILS", "EWMA", "LAST-SEEN")
	for _, w := range ws {
		alive := "yes"
		if !w.Alive {
			alive = "NO"
		}
		breaker := w.Breaker
		if breaker == "" {
			breaker = "closed"
		}
		ewma := "-"
		if w.LatencyEWMAMillis > 0 {
			ewma = fmt.Sprintf("%.1fms", w.LatencyEWMAMillis)
		}
		fmt.Printf("%-7s %-16s %-22s %-6d %-6d %-7d %-6s %-9s %-5d %-8s %dms ago\n",
			w.ID, w.Name, w.Addr, w.Slots, w.Depth, w.Leases, alive, breaker, w.BreakerFails, ewma, w.LastSeenMillisAgo)
	}
	return nil
}

// cmdList prints a compact table of the daemon's jobs.
func cmdList(ctx context.Context, c *serve.Client) error {
	jobs, err := c.List(ctx)
	if err != nil {
		return err
	}
	if len(jobs) == 0 {
		fmt.Println("no jobs")
		return nil
	}
	fmt.Printf("%-10s %-12s %-12s %-7s %s\n", "ID", "STATE", "PROGRESS", "CACHED", "FINGERPRINT")
	for _, j := range jobs {
		prog := "-"
		if j.Total > 0 {
			prog = fmt.Sprintf("%d/%d", j.Done, j.Total)
		}
		cached := "-"
		if j.Cached {
			cached = "yes"
		}
		fmt.Printf("%-10s %-12s %-12s %-7s %s\n", j.ID, j.State, prog, cached, j.Fingerprint)
	}
	return nil
}
