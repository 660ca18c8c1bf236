// Command figures regenerates every figure of the paper's evaluation
// section from the predefined experiment registry and prints the data
// series as text tables (and optionally CSV files under -out).
//
//	figures -scale standard            # all figures
//	figures -scale quick -id fig2+5    # one figure, smoke-sized
//	figures -scale full -out results/  # also write CSV series
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"prioritystar"
	"prioritystar/internal/cli"
	"prioritystar/internal/spec"
)

// metricsFor maps each experiment to the metrics its paper figures plot.
func metricsFor(id string) []struct {
	m     prioritystar.Metric
	label string
} {
	type mm = struct {
		m     prioritystar.Metric
		label string
	}
	switch id {
	case "fig2+5":
		return []mm{{prioritystar.MetricReception, "Fig. 2"}, {prioritystar.MetricBroadcast, "Fig. 5"}}
	case "fig3+6":
		return []mm{{prioritystar.MetricReception, "Fig. 3"}, {prioritystar.MetricBroadcast, "Fig. 6"}}
	case "fig4+7":
		return []mm{{prioritystar.MetricReception, "Fig. 4"}, {prioritystar.MetricBroadcast, "Fig. 7"}}
	case "fig8-hetero-delay":
		return []mm{
			{prioritystar.MetricUnicast, "Fig. 8 / Sec. 4 (unicast delay)"},
			{prioritystar.MetricReception, "Fig. 8 / Sec. 4 (reception delay)"},
		}
	case "fig8-balance":
		return []mm{
			{prioritystar.MetricMaxDimUtil, "Sec. 1/4 (max dimension utilization)"},
			{prioritystar.MetricUnicast, "Sec. 1/4 (unicast delay)"},
		}
	default:
		return []mm{{prioritystar.MetricReception, id}, {prioritystar.MetricAvgUtil, id + " (utilization)"}}
	}
}

func main() {
	var (
		scaleFlag    = flag.String("scale", "standard", "quick, standard, or full")
		idFlag       = flag.String("id", "", "run a single experiment (default: all)")
		outFlag      = flag.String("out", "", "directory for CSV series (optional)")
		progressFlag = flag.Bool("progress", true, "report live sweep progress on stderr")
		ckptFlag     = flag.String("checkpoint", "",
			"directory for per-figure JSONL checkpoint journals")
		resumeFlag = flag.Bool("resume", false,
			"replay existing checkpoint journals and run only missing replications")
	)
	flag.Parse()
	if err := run(*scaleFlag, *idFlag, *outFlag, *progressFlag, *ckptFlag, *resumeFlag); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

func run(scaleStr, id, out string, progress bool, ckptDir string, resume bool) error {
	scale, err := cli.ParseScale(scaleStr)
	if err != nil {
		return err
	}
	ids := prioritystar.FigureIDs()
	if id != "" {
		ids = []string{id}
	}
	if out != "" {
		if err := os.MkdirAll(out, 0o755); err != nil {
			return err
		}
	}
	if resume && ckptDir == "" {
		return fmt.Errorf("-resume needs -checkpoint DIR")
	}
	if ckptDir != "" {
		if err := os.MkdirAll(ckptDir, 0o755); err != nil {
			return err
		}
	}
	for _, fid := range ids {
		exp, err := prioritystar.Figure(fid, scale)
		if err != nil {
			return err
		}
		if ckptDir != "" {
			// The journal header is the canonical fingerprint, so a resume
			// never replays records of another engine or traffic mix.
			if err := spec.Stamp(exp); err != nil {
				return err
			}
			exp.Checkpoint = filepath.Join(ckptDir, fmt.Sprintf("%s_%s.jsonl", fid, scaleStr))
			exp.Resume = resume
		}
		fmt.Printf("=== %s: %s ===\n%s\n\n", exp.ID, exp.Title, exp.Notes)
		if progress {
			// The sweep serializes Progress calls, so a bare \r
			// rewrite is safe; the final newline lands before the tables.
			exp.Progress = func(done, total int) {
				fmt.Fprintf(os.Stderr, "\r%s: %d/%d runs", exp.ID, done, total)
				if done == total {
					fmt.Fprintln(os.Stderr)
				}
			}
		}
		res, err := exp.Run()
		if err != nil {
			return err
		}
		for _, mm := range metricsFor(fid) {
			fmt.Printf("--- %s ---\n%s\n", mm.label, res.Table(mm.m))
			if len(exp.Rhos) > 3 {
				fmt.Println(res.Plot(mm.m))
			}
			if out != "" {
				name := fmt.Sprintf("%s_%s.csv", fid, sanitize(mm.m.String()))
				if err := os.WriteFile(filepath.Join(out, name), []byte(res.CSV(mm.m)), 0o644); err != nil {
					return err
				}
			}
		}
		fmt.Printf("(elapsed %s)\n\n", res.Elapsed.Round(1e7))
	}
	return nil
}

func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			return r
		case r == ' ' || r == '-':
			return '_'
		default:
			return -1
		}
	}, strings.ToLower(s))
}
