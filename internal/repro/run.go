package repro

import (
	"fmt"
	"io"
	"runtime/debug"
	"time"

	"mobbr/internal/core"
	"mobbr/internal/telemetry"
	"mobbr/internal/units"
)

// Row is the measured outcome of one experiment point.
type Row struct {
	Point Point
	// GoodputMbps and GoodputCI are the seed-mean and 95% CI half-width.
	GoodputMbps float64
	GoodputCI   float64
	// RTTms is the mean sampled smoothed RTT.
	RTTms float64
	// MinRTTms is the mean minimum RTT.
	MinRTTms float64
	// Retransmits is the seed-mean total retransmissions.
	Retransmits float64
	// SKBKbits is the mean socket-buffer (skb) length per pacing period
	// in kilobits, as Table 2 reports it.
	SKBKbits float64
	// IdleMs is the mean pacing idle time per period in milliseconds.
	IdleMs float64
	// ExpectedMbps is Table 2's expected throughput skb×conns/idle.
	ExpectedMbps float64
	// MaxBufKB is the peak total socket-buffer occupancy in KB (§7.1.1).
	MaxBufKB float64
	// CPUUtil is the netstack CPU busy fraction.
	CPUUtil float64
	// Jain is the mean Jain fairness index of per-connection goodputs.
	Jain float64
	// PacingShare is the pacing-timer fraction of netstack-core cycles
	// from the cycle profiler (0 when profiling was off) — the §6.1
	// per-event-overhead signal.
	PacingShare float64
	// AppKind names the application workload the point ran ("" for bulk
	// iperf points). When set, Requests counts completed operations across
	// the point's seeds, LatP50ms/LatP90ms/LatP99ms are request-latency
	// percentiles over every completed operation, and RebufferPct is the
	// streaming workload's stall share of playback time. Like Profiled,
	// they survive the checkpoint journal.
	AppKind     string
	Requests    int64
	LatP50ms    float64
	LatP90ms    float64
	LatP99ms    float64
	RebufferPct float64
	// FlowsStarted through FastPathShare are the churn grid's metrics
	// ("scale", Spec.Flows): flows admitted and completed across the
	// point's seeds, peak concurrency, flow-completion-time percentiles
	// pooled over every completed flow, and the fast-path share of
	// flow-table lookups. FlowsStarted > 0 marks a flows point; like the
	// app columns they survive the checkpoint journal.
	FlowsStarted   int64
	FlowsCompleted int64
	FlowsPeakLive  int
	FCTP50ms       float64
	FCTP99ms       float64
	FastPathShare  float64
	// Events is the total simulator events executed across the point's
	// seeds. Deterministic per spec+seed, so it survives the checkpoint
	// journal and the run archive unchanged.
	Events uint64
	// Sample is the last seed's full result, carrying the telemetry bus,
	// profile and engine stats when they were enabled.
	Sample *core.Result
	// Profiled records whether the point's runs carried a cycle profile.
	// Unlike Sample (which is in-memory only), it survives the checkpoint
	// journal, so a resumed grid renders the same columns.
	Profiled bool
	// Failure is the contained failure of this point under the resilient
	// runner (nil on success): the rest of the grid kept running and this
	// row records what went wrong and how to reproduce it.
	Failure *Failure
}

// RunExperiment executes every point of e over the given duration and seed
// count, returning one row per point.
func RunExperiment(e Experiment, dur time.Duration, seeds int) ([]Row, error) {
	return RunExperimentTelemetry(e, dur, seeds, telemetry.Config{})
}

// RunExperimentTelemetry is RunExperiment with an observability config
// applied to every run: each row's Sample carries the last seed's trace
// bus, cycle profile and engine stats, and PacingShare is filled from the
// profile when enabled.
func RunExperimentTelemetry(e Experiment, dur time.Duration, seeds int, tel telemetry.Config) ([]Row, error) {
	return RunExperimentPool(e, dur, seeds, tel, 1)
}

// RunExperimentPool is RunExperimentTelemetry fanned across up to workers
// OS threads, one grid point per task (each point's seeds stay serial so
// per-seed determinism is untouched). Rows come back in point order and are
// identical to a serial run's; the error, if any, is the
// smallest-index point's.
func RunExperimentPool(e Experiment, dur time.Duration, seeds int, tel telemetry.Config, workers int) ([]Row, error) {
	return RunExperimentPoolObserved(e, dur, seeds, tel, workers, nil)
}

// Observer receives grid-run lifecycle callbacks (obs.Progress implements
// it). Observers live on the wall-clock side only: the runner never lets
// one influence point order, specs, or results, so enabling progress cannot
// perturb a deterministic run. Methods must be safe for concurrent workers.
type Observer interface {
	// BeginExperiment announces the grid: experiment id and point count.
	BeginExperiment(id string, total int)
	// PointStart fires when a worker picks up a point.
	PointStart(worker, index int, label string)
	// PointDone fires when a point finishes (events = simulator events
	// executed across its seeds; failed = the point carries a contained
	// failure). Resumed points report Done without a prior Start.
	PointDone(worker, index int, events uint64, failed bool)
}

// RunExperimentPoolObserved is RunExperimentPool reporting per-point
// lifecycle to obs (nil means no observation).
func RunExperimentPoolObserved(e Experiment, dur time.Duration, seeds int, tel telemetry.Config, workers int, obs Observer) ([]Row, error) {
	if obs != nil {
		obs.BeginExperiment(e.ID, len(e.Points))
	}
	rows := make([]Row, len(e.Points))
	err := ForEachW(len(e.Points), workers, func(w, i int) (err error) {
		p := e.Points[i]
		spec := pointSpec(p, dur, tel)
		if obs != nil {
			obs.PointStart(w, i, p.Label)
			defer func() { obs.PointDone(w, i, rows[i].Events, err != nil) }()
		}
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("repro %s/%s: panic: %v\nrepro: %s\n%s",
					e.ID, p.Label, r, core.ReproLine(spec), debug.Stack())
			}
		}()
		agg, err := core.RunSeeds(spec, seeds)
		if err != nil {
			return fmt.Errorf("repro %s/%s: %w", e.ID, p.Label, err)
		}
		rows[i] = rowFromAggregate(p, agg)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// pointSpec is the one place a grid point's spec is finalized for a run, so
// the plain and resilient runners (and a journal resume) agree exactly.
func pointSpec(p Point, dur time.Duration, tel telemetry.Config) core.Spec {
	spec := p.Spec
	spec.Duration = dur
	spec.Warmup = dur / 5
	spec.Telemetry = tel
	return spec
}

// rowFromAggregate folds one point's multi-seed aggregate into a Row.
func rowFromAggregate(p Point, agg *core.Aggregate) Row {
	var jain float64
	var events uint64
	for _, run := range agg.Runs {
		jain += run.Report.Fairness.Jain
		events += run.Processed
	}
	jain /= float64(len(agg.Runs))
	sample := agg.Runs[len(agg.Runs)-1]
	var paceShare float64
	if sample.Profile != nil {
		paceShare = sample.Profile.Share("net", "pacing_timer")
	}
	row := Row{
		Point:        p,
		GoodputMbps:  agg.Goodput.Mean() / 1e6,
		GoodputCI:    agg.Goodput.CI95() / 1e6,
		RTTms:        agg.AvgRTT.Mean() / 1e6,
		MinRTTms:     agg.MinRTT.Mean() / 1e6,
		Retransmits:  agg.Retransmits.Mean(),
		SKBKbits:     units.DataSize(agg.AvgSKB.Mean()).Kilobits(),
		IdleMs:       agg.AvgIdle.Mean() / 1e6,
		ExpectedMbps: agg.ExpectedTx.Mean() / 1e6,
		MaxBufKB:     agg.MaxBufOcc.Mean() / 1024,
		CPUUtil:      agg.CPUUtil.Mean(),
		Jain:         jain,
		PacingShare:  paceShare,
		Events:       events,
		Sample:       sample,
		Profiled:     sample.Profile != nil,
	}
	if agg.App != nil {
		row.AppKind = agg.App.Kind
		row.Requests = agg.App.Completed
		row.LatP50ms = agg.App.LatP(50)
		row.LatP90ms = agg.App.LatP(90)
		row.LatP99ms = agg.App.LatP(99)
		row.RebufferPct = agg.App.RebufferRatio * 100
	}
	if agg.Flows != nil {
		row.FlowsStarted = agg.Flows.Started
		row.FlowsCompleted = agg.Flows.Completed
		row.FlowsPeakLive = agg.Flows.PeakLive
		row.FCTP50ms = agg.Flows.FCTP(50)
		row.FCTP99ms = agg.Flows.FCTP(99)
		row.FastPathShare = agg.Flows.FlowTable.FastShare()
	}
	return row
}

// Print writes rows as an aligned table to w, including the paper's values
// where the text states them. A pace% column (pacing-timer share of
// netstack cycles) appears when any row carries a cycle profile;
// application columns (requests, latency percentiles, rebuffer share)
// appear when any row ran an app workload; flow-churn columns (flows
// started/done, peak concurrency, FCT percentiles, fast-path share) when
// any row ran the flows workload.
func Print(w io.Writer, e Experiment, rows []Row) {
	profiled := false
	hasApp := false
	hasFlows := false
	for _, r := range rows {
		if r.Profiled || (r.Sample != nil && r.Sample.Profile != nil) {
			profiled = true
		}
		if r.AppKind != "" {
			hasApp = true
		}
		if r.FlowsStarted > 0 {
			hasFlows = true
		}
	}
	fmt.Fprintf(w, "== %s: %s\n", e.ID, e.Title)
	fmt.Fprintf(w, "%-36s %9s %7s %8s %8s %9s %8s %8s %9s %6s",
		"point", "Mbps", "±CI", "paper", "rtt ms", "retx", "skb Kb", "idle ms", "expect", "jain")
	if profiled {
		fmt.Fprintf(w, " %6s", "pace%")
	}
	if hasApp {
		fmt.Fprintf(w, " %7s %7s %8s %8s %8s %6s",
			"app", "reqs", "p50 ms", "p90 ms", "p99 ms", "rbuf%")
	}
	if hasFlows {
		fmt.Fprintf(w, " %8s %8s %8s %9s %9s %6s",
			"flows", "done", "peak", "fct50 ms", "fct99 ms", "fast%")
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		if r.Failure != nil {
			// Failed points render deterministically (class + rule, no
			// stacks or timings), so a resumed grid prints byte-identically.
			fmt.Fprintf(w, "%-36s FAILED %s", r.Point.Label, r.Failure.Class)
			if r.Failure.Rule != "" {
				fmt.Fprintf(w, " (%s)", r.Failure.Rule)
			}
			if r.Failure.Attempts > 1 {
				fmt.Fprintf(w, " after %d attempts", r.Failure.Attempts)
			}
			fmt.Fprintln(w)
			continue
		}
		paper := "-"
		if r.Point.PaperMbps > 0 {
			paper = fmt.Sprintf("%.0f", r.Point.PaperMbps)
		}
		fmt.Fprintf(w, "%-36s %9.1f %7.1f %8s %8.2f %9.0f %8.1f %8.2f %9.0f %6.3f",
			r.Point.Label, r.GoodputMbps, r.GoodputCI, paper,
			r.RTTms, r.Retransmits, r.SKBKbits, r.IdleMs, r.ExpectedMbps, r.Jain)
		if profiled {
			fmt.Fprintf(w, " %6.1f", r.PacingShare*100)
		}
		if hasApp {
			if r.AppKind != "" {
				fmt.Fprintf(w, " %7s %7d %8.1f %8.1f %8.1f %6.2f",
					r.AppKind, r.Requests, r.LatP50ms, r.LatP90ms, r.LatP99ms, r.RebufferPct)
			} else {
				fmt.Fprintf(w, " %7s %7s %8s %8s %8s %6s", "-", "-", "-", "-", "-", "-")
			}
		}
		if hasFlows {
			if r.FlowsStarted > 0 {
				fmt.Fprintf(w, " %8d %8d %8d %9.1f %9.1f %6.1f",
					r.FlowsStarted, r.FlowsCompleted, r.FlowsPeakLive,
					r.FCTP50ms, r.FCTP99ms, r.FastPathShare*100)
			} else {
				fmt.Fprintf(w, " %8s %8s %8s %9s %9s %6s", "-", "-", "-", "-", "-", "-")
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}
