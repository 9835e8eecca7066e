// Command mobbr-figures runs the paper's headline figures on the simulated
// testbed and draws them as terminal bar charts.
//
//	mobbr-figures            # Figures 2 (Low-End), 4 and 8
//	mobbr-figures -dur 6s
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"mobbr/internal/core"
	"mobbr/internal/device"
	"mobbr/internal/mobility"
	"mobbr/internal/render"
	"mobbr/internal/repro"
)

// goodputs runs every spec for dur across the worker pool and returns each
// run's goodput in Mbps, indexed like specs — completion order never leaks
// into the figures.
func goodputs(specs []core.Spec, dur time.Duration, jobs int) []float64 {
	out := make([]float64, len(specs))
	err := repro.ForEach(len(specs), jobs, func(i int) error {
		spec := specs[i]
		spec.Duration = dur
		spec.Warmup = dur / 5
		res, err := core.Run(spec)
		if err != nil {
			return err
		}
		out[i] = float64(res.Report.Goodput) / 1e6
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	return out
}

func main() {
	dur := flag.Duration("dur", 3*time.Second, "simulated duration per point")
	trFile := flag.String("trace-file", "", "trace figure: replay this dataset trace (.csv, .jsonl)")
	trPre := flag.String("trace-preset", "driving", "trace figure: synthesize this commute when no -trace-file")
	trSeed := flag.Int64("trace-seed", 1, "trace figure: synthesis seed")
	jobs := flag.Int("j", 0, "figure points run in parallel (0 = one per CPU); output is identical at any -j")
	flag.Parse()
	if err := repro.CheckJobs(*jobs); err != nil {
		fmt.Fprintln(os.Stderr, "mobbr-figures:", err)
		os.Exit(1)
	}

	// Figure 2a: Low-End, BBR vs Cubic across connection counts.
	fmt.Println("═══ Figure 2a — Pixel 4 Low-End, Ethernet ═══")
	f2cc := []string{"cubic", "bbr"}
	f2n := []int{1, 5, 10, 20}
	var f2specs []core.Spec
	for _, cc := range f2cc {
		for _, n := range f2n {
			f2specs = append(f2specs, core.Spec{CPU: device.LowEnd, CC: cc, Conns: n, Network: core.Ethernet})
		}
	}
	f2paper := map[string]string{
		"cubic/1": "paper: 364", "cubic/20": "paper: 310",
		"bbr/1": "paper: 325", "bbr/20": "paper: 138",
	}
	f2g := goodputs(f2specs, *dur, *jobs)
	var f2 []render.Chart
	for ci, cc := range f2cc {
		ch := render.Chart{Title: cc}
		for ni, n := range f2n {
			ch.Bars = append(ch.Bars, render.Bar{
				Label: fmt.Sprintf("%2d conns", n),
				Value: f2g[ci*len(f2n)+ni],
				Note:  f2paper[fmt.Sprintf("%s/%d", cc, n)],
			})
		}
		f2 = append(f2, ch)
	}
	if err := render.Grouped(os.Stdout, "Mbps", 400, f2...); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// Figure 4: pacing on/off at 20 connections.
	fmt.Println("═══ Figure 4 — BBR pacing on/off, 20 conns ═══")
	off := false
	f4cfgs := []device.Config{device.LowEnd, device.MidEnd, device.Default}
	var f4specs []core.Spec
	for _, cfg := range f4cfgs {
		f4specs = append(f4specs,
			core.Spec{CPU: cfg, CC: "bbr", Conns: 20, Network: core.Ethernet},
			core.Spec{CPU: cfg, CC: "bbr", Conns: 20, Network: core.Ethernet, PacingOverride: &off},
		)
	}
	f4g := goodputs(f4specs, *dur, *jobs)
	f4 := render.Chart{Title: "goodput"}
	for i, cfg := range f4cfgs {
		f4.Bars = append(f4.Bars,
			render.Bar{Label: fmt.Sprintf("%v paced", cfg), Value: f4g[2*i]},
			render.Bar{Label: fmt.Sprintf("%v unpaced", cfg), Value: f4g[2*i+1]},
		)
	}
	if err := render.Grouped(os.Stdout, "Mbps", 0, f4); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// Figure 8: the stride sweep.
	fmt.Println("═══ Figure 8 — pacing-stride sweep, 20 conns ═══")
	f8cfgs := []device.Config{device.LowEnd, device.Default}
	f8strides := []float64{1, 2, 5, 10, 20, 50}
	var f8specs []core.Spec
	for _, cfg := range f8cfgs {
		for _, st := range f8strides {
			f8specs = append(f8specs, core.Spec{CPU: cfg, CC: "bbr", Conns: 20,
				Network: core.Ethernet, Stride: st})
		}
	}
	f8g := goodputs(f8specs, *dur, *jobs)
	var f8 []render.Chart
	for ci, cfg := range f8cfgs {
		ch := render.Chart{Title: cfg.String()}
		for si, st := range f8strides {
			ch.Bars = append(ch.Bars, render.Bar{
				Label: fmt.Sprintf("%3.0fx", st),
				Value: f8g[ci*len(f8strides)+si],
			})
		}
		f8 = append(f8, ch)
	}
	if err := render.Grouped(os.Stdout, "Mbps", 700, f8...); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	traceFigure(*trFile, *trPre, *trSeed)
}

// traceFigure replays a commute trace (dataset file or synthesized preset)
// with BBR on the Low-End configuration and draws goodput over time, with
// the trace's outage and degraded segments shaded.
func traceFigure(file, preset string, seed int64) {
	tr, err := repro.LoadTrace(file, preset, 12*time.Second, 0, seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	e, err := repro.NewTraceExperiment(tr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	spec := e.Points[0].Spec // bbr Low-End
	spec.Seed = 1
	spec.Interval = 500 * time.Millisecond
	res, err := core.Run(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	segAt := func(at time.Duration) *mobility.Segment {
		for i := range e.Compiled.Segments {
			s := &e.Compiled.Segments[i]
			if at >= s.Start && at < s.End {
				return s
			}
		}
		return nil
	}
	fmt.Printf("═══ Trace replay — %s, bbr Low-End (▒ = outage/degraded) ═══\n", e.Compiled.Trace.Name)
	tl := render.Timeline{Title: "goodput over time", Unit: "Mbps", Width: 40}
	var lastSeg *mobility.Segment
	for _, iv := range res.Report.Intervals {
		mid := iv.Start + (iv.End-iv.Start)/2
		seg := segAt(mid)
		b := render.TimeBucket{
			Label: fmt.Sprintf("%5.1fs", iv.Start.Seconds()),
			Value: iv.Goodput.Mbit(),
		}
		if seg != nil && seg.Kind != mobility.SegNominal {
			b.Shaded = true
		}
		if seg != nil && seg != lastSeg && seg.Kind != mobility.SegNominal {
			b.Note = "◀ " + seg.Kind.String()
		}
		lastSeg = seg
		tl.Buckets = append(tl.Buckets, b)
	}
	if err := tl.Write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
