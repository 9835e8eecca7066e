// Command mobbr-repro regenerates the paper's tables and figures from the
// simulated testbed and prints paper-style rows.
//
// Usage:
//
//	mobbr-repro                 # run everything
//	mobbr-repro -exp fig8       # run one experiment
//	mobbr-repro -dur 10s -seeds 5
//	mobbr-repro -exp all -archive runA/   # archive every grid point
//	mobbr-repro -rollup         # per-cell (device×cpu×cc×network) view
//	mobbr-repro -list
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"mobbr/internal/obs"
	"mobbr/internal/profiling"
	"mobbr/internal/repro"
	"mobbr/internal/telemetry"
)

func main() {
	exp := flag.String("exp", "", "experiment id (empty = all); see -list")
	dur := flag.Duration("dur", repro.DefaultDuration, "simulated transfer duration per run")
	seeds := flag.Int("seeds", repro.DefaultSeeds, "seeds per point")
	list := flag.Bool("list", false, "list experiment ids and exit")
	trFile := flag.String("trace-file", "", "with -exp trace: replay this dataset trace (.csv, .jsonl)")
	trPre := flag.String("trace-preset", "driving", "with -exp trace: synthesize this commute when no -trace-file")
	trSeed := flag.Int64("trace-seed", 1, "with -exp trace: synthesis seed")
	trTick := flag.Duration("trace-tick", 0, "with -exp trace: synthesis sample spacing (default 100ms)")
	traceTo := flag.String("trace", "", "write the last point's last-seed telemetry events as JSONL to FILE (- = stdout)")
	metrics := flag.Bool("metrics", false, "collect metrics and print the last point's snapshot + engine self-metrics")
	profile := flag.Bool("profile", false, "profile CPU cycles and add the pace% column; prints the last point's table")
	jobs := flag.Int("j", 0, "experiment points run in parallel (0 = one per CPU); results are identical at any -j")
	journal := flag.String("journal", "", "checkpoint each finished point to this JSONL file (implies fault-tolerant per-point execution)")
	resume := flag.Bool("resume", false, "with -journal: skip points already checkpointed; resumed output is byte-identical")
	retries := flag.Int("retries", 0, "retry attempts for infra-class failures (wall deadline); deterministic failures never retry")
	keepGoing := flag.Bool("keep-going", false, "contain per-point failures as FAILED rows and run the rest of the grid")
	cpuProf := flag.String("cpuprofile", "", "write a pprof CPU profile of the whole grid to FILE")
	memProf := flag.String("memprofile", "", "write a pprof heap profile at exit to FILE")
	archiveDir := flag.String("archive", "", "write a run archive (manifest + per-point artifacts) under DIR/<exp-id>/; compare archives with mobbr-diff")
	rollup := flag.Bool("rollup", false, "print the per-cell (device×cpu×cc×network) rollup after each experiment table")
	progress := flag.Bool("progress", false, "live stderr progress: per-worker current point, done/failed, events/sec, ETA")
	forceStride := flag.Float64("force-stride", 0, "override every point's pacing stride (deliberate perturbation for mobbr-diff demos)")
	flag.Parse()
	if *exp == "all" {
		*exp = "" // alias: -exp all ≡ run everything
	}
	if err := repro.CheckJobs(*jobs); err != nil {
		fmt.Fprintln(os.Stderr, "mobbr-repro:", err)
		os.Exit(1)
	}

	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer stopProf()

	tel := telemetry.Config{Trace: *traceTo != "", Metrics: *metrics, Profile: *profile}

	var archFlags map[string]string
	if *forceStride > 0 {
		archFlags = map[string]string{"force-stride": fmt.Sprint(*forceStride)}
	}
	archOpts := func(wall time.Duration) repro.ArchiveOpts {
		return repro.ArchiveOpts{
			Dir: *archiveDir, Dur: *dur, Seeds: *seeds,
			Telemetry: tel, Flags: archFlags, Wall: wall,
		}
	}
	// printRollup renders the per-cell view of one assembled run; fatal is
	// reserved for archive I/O, not aggregation.
	printRollup := func(run *obs.Run) {
		if err := obs.WriteRollup(os.Stdout, run, obs.Rollup(run)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	rec := repro.Recovery()
	if *forceStride > 0 {
		for i := range rec.Points {
			rec.Points[i].Spec.Stride = *forceStride
		}
	}
	if *list {
		for _, e := range repro.All() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		sc := repro.Scale()
		fmt.Printf("%-10s %s\n", sc.ID, sc.Title)
		fmt.Printf("%-10s %s\n", rec.ID, rec.Title)
		fmt.Printf("%-10s %s\n", "trace", "Trace replay: BBR vs BBRv2 vs Cubic over a measured or synthesized commute (-trace-file / -trace-preset)")
		return
	}

	// The recovery experiment has its own runner: its metric comes from the
	// interval series and its duration is fixed by the fault timeline.
	runRecovery := func() {
		recStart := time.Now()
		rows, err := repro.RunRecoveryPool(rec, *seeds, *jobs)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		repro.PrintRecovery(os.Stdout, rec, rows)
		if *archiveDir != "" {
			if err := repro.ArchiveRecovery(rec, rows, archOpts(time.Since(recStart))); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		if *rollup {
			run, err := repro.BuildRecoveryRun(rec, rows, archOpts(0))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			printRollup(run)
		}
	}

	start := time.Now()
	exps := repro.All()
	if *exp != "" {
		if *exp == "trace" {
			tr, err := repro.LoadTrace(*trFile, *trPre, *dur, *trTick, *trSeed)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			e, err := repro.NewTraceExperiment(tr)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if *forceStride > 0 {
				for i := range e.Points {
					e.Points[i].Spec.Stride = *forceStride
				}
			}
			rows, err := repro.RunTracePool(e, *seeds, *jobs)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			repro.PrintTrace(os.Stdout, e, rows)
			if *archiveDir != "" {
				if err := repro.ArchiveTrace(e, rows, archOpts(time.Since(start))); err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
			}
			if *rollup {
				run, err := repro.BuildTraceRun(e, rows, archOpts(0))
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				printRollup(run)
			}
			fmt.Printf("(wall time %v)\n", time.Since(start).Round(time.Millisecond))
			return
		}
		if *exp == rec.ID {
			runRecovery()
			fmt.Printf("(wall time %v)\n", time.Since(start).Round(time.Millisecond))
			return
		}
		e, err := repro.ByID(*exp)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		exps = []repro.Experiment{e}
	}

	resilient := *journal != "" || *resume || *retries > 0 || *keepGoing
	if *resume && *journal == "" {
		fmt.Fprintln(os.Stderr, "-resume needs -journal")
		os.Exit(1)
	}
	if resilient && len(exps) > 1 && *journal != "" {
		fmt.Fprintln(os.Stderr, "-journal covers one experiment; pick it with -exp")
		os.Exit(1)
	}

	failed := 0
	var lastRows []repro.Row
	for _, e := range exps {
		if *forceStride > 0 {
			for i := range e.Points {
				e.Points[i].Spec.Stride = *forceStride
			}
		}
		expStart := time.Now()
		var prog *obs.Progress
		var observer repro.Observer
		if *progress {
			prog = obs.NewProgress(os.Stderr, 0)
			observer = prog
		}
		var rows []repro.Row
		var err error
		if resilient {
			rows, err = repro.RunExperimentResilient(e, repro.RunOpts{
				Dur: *dur, Seeds: *seeds, Telemetry: tel, Workers: *jobs,
				Journal: *journal, Resume: *resume, Retries: *retries,
				Progress: observer,
			})
			failed += repro.FailedRows(rows)
		} else {
			rows, err = repro.RunExperimentPoolObserved(e, *dur, *seeds, tel, *jobs, observer)
		}
		if prog != nil {
			prog.Stop()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		repro.Print(os.Stdout, e, rows)
		if *archiveDir != "" {
			if err := repro.ArchiveExperiment(e, rows, archOpts(time.Since(expStart))); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		if *rollup {
			run, err := repro.BuildExperimentRun(e, rows, archOpts(0))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			printRollup(run)
		}
		lastRows = rows
	}
	if failed > 0 {
		if *journal != "" {
			fmt.Fprintf(os.Stderr, "%d point(s) failed; repro lines are in %s\n", failed, *journal)
		} else {
			fmt.Fprintf(os.Stderr, "%d point(s) failed; add -journal to keep their repro lines\n", failed)
		}
	}
	if *exp == "" {
		runRecovery()
	}
	if tel.Any() && len(lastRows) > 0 {
		writeTelemetry(lastRows[len(lastRows)-1], *traceTo, *metrics, *profile)
	}
	fmt.Printf("(wall time %v)\n", time.Since(start).Round(time.Millisecond))
	if failed > 0 {
		stopProf() // os.Exit skips the deferred call
		os.Exit(1)
	}
}

// writeTelemetry emits the enabled observability outputs from one row's
// sample run: JSONL trace, cycle-profile table, metrics + engine snapshot.
func writeTelemetry(row repro.Row, traceTo string, metrics, profile bool) {
	res := row.Sample
	if res == nil {
		return
	}
	if traceTo != "" && res.Events != nil {
		w := os.Stdout
		if traceTo != "-" {
			f, err := os.Create(traceTo)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer f.Close()
			w = f
		}
		if err := res.Events.WriteJSONL(w); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if profile && res.Profile != nil {
		fmt.Printf("cycle profile (%s, last seed):\n", row.Point.Label)
		if err := res.Profile.WriteTable(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if metrics {
		if res.Report != nil && res.Report.Metrics != nil {
			fmt.Printf("metrics (%s, last seed):\n", row.Point.Label)
			if err := res.Report.Metrics.Write(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		if res.Engine != nil {
			fmt.Println("engine self-metrics:")
			if err := res.Engine.Write(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}
}
