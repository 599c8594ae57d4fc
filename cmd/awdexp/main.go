// Command awdexp regenerates the paper's evaluation artifacts: Table 1,
// Table 2, Fig. 6, Fig. 7, Fig. 8, the extended threat-model scenarios,
// the detection-triggered recovery study, the threshold sweep, and the
// ablation studies.
//
// Usage:
//
//	awdexp -exp all                 # everything, paper-scale (100 runs)
//	awdexp -exp table2 -runs 20     # quicker smoke of one experiment
//	awdexp -exp fig7 -runs 100 -step 5
//	awdexp -exp all -csvdir out/    # also emit machine-readable CSVs
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/exp"
	"repro/internal/obs"
)

func main() {
	var (
		which       = flag.String("exp", "all", "experiment: table1|table2|fig6|fig7|fig8|ablations|extended|recovery|threshold|traces|validate|magnitude|overhead|stealthy|all")
		runs        = flag.Int("runs", 100, "Monte-Carlo runs per case (Table 2, Fig 7, Fig 8 campaign, ablations)")
		step        = flag.Int("step", 5, "window-size stride for the Fig 7 sweep")
		seed        = flag.Uint64("seed", 2022, "base seed")
		csvdir      = flag.String("csvdir", "", "directory for machine-readable CSV copies (created if missing)")
		metricsAddr = flag.String("metrics-addr", "", "serve Prometheus /metrics, expvar, and pprof on this address while experiments run")
		traceOut    = flag.String("trace-out", "", "write per-step JSONL trace events to this file (- = stdout)")
	)
	flag.Parse()

	obsrv, boundAddr, shutdownObs, err := obs.Bootstrap(*metricsAddr, *traceOut)
	if err != nil {
		fmt.Fprintln(os.Stderr, "awdexp:", err)
		os.Exit(1)
	}
	defer func() {
		if err := shutdownObs(); err != nil {
			fmt.Fprintln(os.Stderr, "awdexp: telemetry:", err)
		}
	}()
	if boundAddr != "" {
		fmt.Fprintf(os.Stderr, "awdexp: telemetry on http://%s/metrics\n", boundAddr)
	}

	if *csvdir != "" {
		if err := os.MkdirAll(*csvdir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "awdexp:", err)
			os.Exit(1)
		}
	}

	emit := func(name string, write func(io.Writer) error) {
		if *csvdir == "" {
			return
		}
		path := filepath.Join(*csvdir, name)
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "awdexp: %s: %v\n", name, err)
			os.Exit(1)
		}
		if err := write(f); err != nil {
			f.Close()
			fmt.Fprintf(os.Stderr, "awdexp: %s: %v\n", name, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "awdexp: %s: %v\n", name, err)
			os.Exit(1)
		}
	}

	run := func(name string, fn func() error) {
		if *which != "all" && *which != name {
			return
		}
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "awdexp: %s: %v\n", name, err)
			os.Exit(1)
		}
	}

	run("table1", func() error {
		fmt.Println("== Table 1: simulation settings ==")
		fmt.Println(exp.Table1())
		return nil
	})

	run("fig7", func() error {
		fmt.Println("== Fig 7: window-size profiling (aircraft pitch, 15-step bias) ==")
		pts, err := exp.Fig7(exp.Fig7Config{Runs: *runs, MaxWindow: 100, Step: *step, Seed: *seed, Observer: obsrv})
		if err != nil {
			return err
		}
		fmt.Println(exp.RenderFig7(pts, *runs))
		tol := *runs * 3 / 100 // the paper tolerates 3 of 100
		fmt.Printf("suggested maximum window w_m (tolerating %d FN): %d\n\n",
			tol, exp.SuggestMaxWindow(pts, tol))
		emit("fig7.csv", func(w io.Writer) error { return exp.Fig7CSV(pts, w) })
		return nil
	})

	run("table2", func() error {
		fmt.Println("== Table 2: adaptive vs fixed, 5 simulators x 3 attacks ==")
		rows, err := exp.Table2(exp.Table2Config{Runs: *runs, Seed: *seed, Observer: obsrv})
		if err != nil {
			return err
		}
		fmt.Println(exp.RenderTable2(rows, *runs))
		emit("table2.csv", func(w io.Writer) error { return exp.Table2CSV(rows, w) })
		return nil
	})

	run("fig6", func() error {
		fmt.Println("== Fig 6: detection traces, vehicle turning & series RLC ==")
		panels, err := exp.Fig6(exp.Fig6Config{Seed: *seed})
		if err != nil {
			return err
		}
		fmt.Println(exp.RenderFig6(panels))
		emit("fig6.csv", func(w io.Writer) error { return exp.Fig6CSV(panels, w) })
		return nil
	})

	run("traces", func() error {
		fmt.Println("== All detection traces: 5 simulators x 3 attacks (Fig 6 appendix) ==")
		panels, err := exp.AllTraces(*seed)
		if err != nil {
			return err
		}
		fmt.Println(exp.RenderFig6(panels))
		emit("traces.csv", func(w io.Writer) error { return exp.Fig6CSV(panels, w) })
		return nil
	})

	run("fig8", func() error {
		fmt.Println("== Fig 8: RC-car testbed, +2.5 m/s speed bias ==")
		r, err := exp.Fig8(exp.Fig8Config{Seed: *seed, Observer: obsrv})
		if err != nil {
			return err
		}
		fmt.Println(exp.RenderFig8(r))
		emit("fig8.csv", func(w io.Writer) error { return exp.Fig8CSV(r, w) })
		c, err := exp.Fig8Campaign(*runs, *seed, obsrv)
		if err != nil {
			return err
		}
		fmt.Println(exp.RenderFig8Campaign(c))
		return nil
	})

	run("extended", func() error {
		fmt.Println("== Extended threat-model scenarios (freeze / ramp / noise) ==")
		rows, err := exp.ExtendedScenarios(*runs, *seed)
		if err != nil {
			return err
		}
		fmt.Println(exp.RenderTable2(rows, *runs))
		emit("extended.csv", func(w io.Writer) error { return exp.Table2CSV(rows, w) })
		return nil
	})

	run("threshold", func() error {
		fmt.Println("== Threshold (τ) profiling — the Sec. 4.3 knob the paper defers ==")
		pts, err := exp.ThresholdSweep(*runs, *seed, nil)
		if err != nil {
			return err
		}
		fmt.Println(exp.RenderThresholdSweep(pts, *runs))
		emit("threshold.csv", func(w io.Writer) error { return exp.ThresholdCSV(pts, w) })
		return nil
	})

	run("recovery", func() error {
		fmt.Println("== Detection-triggered recovery (extension, after refs [13, 14]) ==")
		rows, err := exp.RecoveryStudy(*runs, *seed)
		if err != nil {
			return err
		}
		fmt.Println(exp.RenderRecovery(rows, *runs))
		emit("recovery.csv", func(w io.Writer) error { return exp.RecoveryCSV(rows, w) })
		return nil
	})

	run("validate", func() error {
		fmt.Println("== Deadline conservativeness validation (Definition 3.1) ==")
		rows, err := exp.DeadlineValidation(*runs/5, 10, *seed)
		if err != nil {
			return err
		}
		fmt.Println(exp.RenderDeadlineValidation(rows))
		emit("validate.csv", func(w io.Writer) error { return exp.ValidationCSV(rows, w) })
		return nil
	})

	run("magnitude", func() error {
		fmt.Println("== Attack-magnitude sweep: the detectability boundary ==")
		pts, err := exp.MagnitudeSweep(*runs, *seed, nil)
		if err != nil {
			return err
		}
		fmt.Println(exp.RenderMagnitudeSweep(pts, *runs))
		emit("magnitude.csv", func(w io.Writer) error { return exp.MagnitudeCSV(pts, w) })
		return nil
	})

	run("stealthy", func() error {
		fmt.Println("== Stealthy-adversary impact (the residual-detection limit) ==")
		rows, err := exp.StealthyImpact(*runs/5, *seed, nil)
		if err != nil {
			return err
		}
		fmt.Println(exp.RenderStealthy(rows, *runs/5))
		emit("stealthy.csv", func(w io.Writer) error { return exp.StealthyCSV(rows, w) })
		return nil
	})

	run("overhead", func() error {
		fmt.Println("== Run-time overhead (the paper's efficiency requirement) ==")
		rows, err := exp.Overhead()
		if err != nil {
			return err
		}
		fmt.Println(exp.RenderOverhead(rows))
		emit("overhead.csv", func(w io.Writer) error { return exp.OverheadCSV(rows, w) })
		return nil
	})

	run("ablations", func() error {
		fmt.Println("== Ablations ==")
		rows, err := exp.AblationComplementary(*runs, *seed)
		if err != nil {
			return err
		}
		fmt.Println(exp.RenderAblation("Complementary detection on/off", rows, *runs))
		emit("ablation_complementary.csv", func(w io.Writer) error { return exp.AblationCSV(rows, w) })

		rows, err = exp.AblationMaxWindow(*runs, *seed, nil)
		if err != nil {
			return err
		}
		fmt.Println(exp.RenderAblation("Maximum window w_m sweep (aircraft/bias)", rows, *runs))
		emit("ablation_maxwindow.csv", func(w io.Writer) error { return exp.AblationCSV(rows, w) })

		rows, err = exp.AblationCUSUM(*runs, *seed)
		if err != nil {
			return err
		}
		fmt.Println(exp.RenderAblation("Adaptive window vs CUSUM/EWMA baselines (bias)", rows, *runs))
		emit("ablation_baselines.csv", func(w io.Writer) error { return exp.AblationCSV(rows, w) })
		return nil
	})
}
