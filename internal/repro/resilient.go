// Fault-tolerant grid execution: one broken point must never cost the rest
// of a long sweep. The resilient runner contains per-point panics and
// deadline blowouts into structured failure rows, checkpoints every
// finished point to a JSONL journal, resumes a killed grid byte-identically
// from that journal, and retries infra-class failures (wall deadline on a
// loaded machine) with backoff — never deterministic simulation errors,
// which would reproduce exactly.
package repro

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime/debug"
	"sync"
	"time"

	"mobbr/internal/core"
	"mobbr/internal/telemetry"
)

// RunOpts configures a resilient grid run.
type RunOpts struct {
	// Dur is the simulated transfer time per run (default DefaultDuration).
	Dur time.Duration
	// Seeds is the seed count per point (default DefaultSeeds).
	Seeds int
	// Telemetry is applied to every run.
	Telemetry telemetry.Config
	// Workers caps the points running in parallel (0 = one per CPU).
	Workers int
	// Journal is the JSONL checkpoint path ("" = no journal): a header
	// line describing the grid, then one entry per finished point, written
	// as each point completes.
	Journal string
	// Resume skips points already recorded in Journal. The reconstructed
	// rows print byte-identically to the original run's. A missing journal
	// file starts fresh.
	Resume bool
	// Retries is how many extra attempts an infra-class failure (wall
	// deadline) gets before its row records the failure. Deterministic
	// failures are never retried.
	Retries int
	// Backoff is the first retry's delay, doubling per attempt
	// (default 100ms).
	Backoff time.Duration
	// Progress, when set, receives per-point lifecycle callbacks (live
	// progress reporting). Journal-resumed points report PointDone without a
	// preceding PointStart. Never influences execution.
	Progress Observer
}

func (o RunOpts) withDefaults() RunOpts {
	if o.Dur <= 0 {
		o.Dur = DefaultDuration
	}
	if o.Seeds <= 0 {
		o.Seeds = DefaultSeeds
	}
	if o.Backoff <= 0 {
		o.Backoff = 100 * time.Millisecond
	}
	return o
}

// Failure records one contained point failure.
type Failure struct {
	// Class is the core failure class (core.FailPanic, core.FailViolation,
	// core.FailMaxEvents, core.FailWallClock, core.FailStall,
	// core.FailError).
	Class string `json:"class"`
	// Rule is the first violated invariant rule (violation class only).
	Rule string `json:"rule,omitempty"`
	// Msg is the failure text.
	Msg string `json:"msg"`
	// Repro is the one-command reproduction line (spec JSON + seed).
	Repro string `json:"repro,omitempty"`
	// Attempts is how many times the point ran (>1 only after infra
	// retries).
	Attempts int `json:"attempts"`
}

// FailedRows counts rows carrying a contained failure.
func FailedRows(rows []Row) int {
	n := 0
	for _, r := range rows {
		if r.Failure != nil {
			n++
		}
	}
	return n
}

// RunExperimentResilient executes the grid with per-point fault
// containment: a panic, invariant violation or budget trip in one point
// becomes that row's Failure while every other point still runs. The
// returned error reports journal I/O problems only — per-point outcomes,
// including failures, are in the rows.
func RunExperimentResilient(e Experiment, opts RunOpts) ([]Row, error) {
	opts = opts.withDefaults()
	rows := make([]Row, len(e.Points))
	done := make([]bool, len(e.Points))
	var jw *journalWriter
	if opts.Journal != "" {
		var entries []journalEntry
		existed := false
		if opts.Resume {
			var err error
			entries, existed, err = readJournal(opts.Journal, e, opts)
			if err != nil {
				return nil, err
			}
			for _, ent := range entries {
				rows[ent.I] = ent.row(e.Points[ent.I])
				done[ent.I] = true
			}
		}
		var err error
		jw, err = openJournal(opts.Journal, e, opts, existed)
		if err != nil {
			return nil, err
		}
		defer jw.close()
	}
	if opts.Progress != nil {
		opts.Progress.BeginExperiment(e.ID, len(e.Points))
		for i, d := range done {
			if d {
				opts.Progress.PointDone(0, i, rows[i].Events, rows[i].Failure != nil)
			}
		}
	}
	err := ForEachW(len(e.Points), opts.Workers, func(w, i int) error {
		if done[i] {
			return nil
		}
		if opts.Progress != nil {
			opts.Progress.PointStart(w, i, e.Points[i].Label)
		}
		rows[i] = runPointResilient(e.Points[i], opts)
		if opts.Progress != nil {
			opts.Progress.PointDone(w, i, rows[i].Events, rows[i].Failure != nil)
		}
		if jw != nil {
			return jw.append(entryFromRow(i, rows[i]))
		}
		return nil
	})
	if err != nil {
		return rows, fmt.Errorf("repro %s: checkpoint journal: %w", e.ID, err)
	}
	return rows, nil
}

// runPointResilient runs one point to a Row, retrying infra-class failures
// with doubling backoff and folding any terminal failure into Row.Failure.
func runPointResilient(p Point, opts RunOpts) Row {
	spec := pointSpec(p, opts.Dur, opts.Telemetry)
	backoff := opts.Backoff
	for attempt := 1; ; attempt++ {
		row, err := runPointAttempt(p, spec, opts.Seeds)
		if err == nil {
			return row
		}
		class, rule := classifyPointFailure(err)
		if core.InfraFailure(class) && attempt <= opts.Retries {
			time.Sleep(backoff)
			backoff *= 2
			continue
		}
		repro := core.ReproLine(spec)
		var re *core.RunError
		if errors.As(err, &re) {
			// The exact failing spec (exact seed) when the run got far
			// enough to know it.
			repro = core.ReproLine(re.Spec)
		}
		return Row{Point: p, Failure: &Failure{
			Class:    class,
			Rule:     rule,
			Msg:      err.Error(),
			Repro:    repro,
			Attempts: attempt,
		}}
	}
}

// runPointAttempt is one guarded execution of a point: a panic anywhere in
// the simulation surfaces as a *panicError instead of killing the grid.
func runPointAttempt(p Point, spec core.Spec, seeds int) (row Row, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &panicError{val: r, stack: debug.Stack()}
		}
	}()
	agg, err := core.RunSeeds(spec, seeds)
	if err != nil {
		return Row{}, err
	}
	return rowFromAggregate(p, agg), nil
}

// panicError carries a recovered panic through the error-classification
// path.
type panicError struct {
	val   any
	stack []byte
}

func (p *panicError) Error() string { return fmt.Sprintf("panic: %v", p.val) }

// classifyPointFailure extends core.ClassifyFailure with the panic class
// only runners can observe.
func classifyPointFailure(err error) (class, rule string) {
	var pe *panicError
	if errors.As(err, &pe) {
		return core.FailPanic, ""
	}
	return core.ClassifyFailure(err)
}

// journalVersion guards the checkpoint format.
const journalVersion = 1

// journalHeader is the journal's first line: enough of the run
// configuration to refuse resuming under different settings (different
// duration or seeds would silently mix incompatible rows).
type journalHeader struct {
	V       int    `json:"v"`
	Exp     string `json:"exp"`
	Dur     string `json:"dur"`
	Seeds   int    `json:"seeds"`
	Points  int    `json:"points"`
	Trace   bool   `json:"trace,omitempty"`
	Metrics bool   `json:"metrics,omitempty"`
	Profile bool   `json:"profile,omitempty"`
}

func headerFor(e Experiment, opts RunOpts) journalHeader {
	return journalHeader{
		V:       journalVersion,
		Exp:     e.ID,
		Dur:     opts.Dur.String(),
		Seeds:   opts.Seeds,
		Points:  len(e.Points),
		Trace:   opts.Telemetry.Trace,
		Metrics: opts.Telemetry.Metrics,
		Profile: opts.Telemetry.Profile,
	}
}

// journalEntry is one finished point. All measured fields are JSON numbers;
// Go's float64 round-trips exactly through encoding/json, so a resumed row
// prints byte-identically to the original.
type journalEntry struct {
	I              int      `json:"i"`
	Label          string   `json:"label"`
	GoodputMbps    float64  `json:"goodput_mbps"`
	GoodputCI      float64  `json:"goodput_ci"`
	RTTms          float64  `json:"rtt_ms"`
	MinRTTms       float64  `json:"min_rtt_ms"`
	Retransmits    float64  `json:"retransmits"`
	SKBKbits       float64  `json:"skb_kbits"`
	IdleMs         float64  `json:"idle_ms"`
	ExpectedMbps   float64  `json:"expected_mbps"`
	MaxBufKB       float64  `json:"max_buf_kb"`
	CPUUtil        float64  `json:"cpu_util"`
	Jain           float64  `json:"jain"`
	PacingShare    float64  `json:"pacing_share"`
	AppKind        string   `json:"app_kind,omitempty"`
	Requests       int64    `json:"requests,omitempty"`
	LatP50ms       float64  `json:"lat_p50_ms,omitempty"`
	LatP90ms       float64  `json:"lat_p90_ms,omitempty"`
	LatP99ms       float64  `json:"lat_p99_ms,omitempty"`
	RebufferPct    float64  `json:"rebuffer_pct,omitempty"`
	FlowsStarted   int64    `json:"flows_started,omitempty"`
	FlowsCompleted int64    `json:"flows_completed,omitempty"`
	FlowsPeakLive  int      `json:"flows_peak_live,omitempty"`
	FCTP50ms       float64  `json:"fct_p50_ms,omitempty"`
	FCTP99ms       float64  `json:"fct_p99_ms,omitempty"`
	FastPathShare  float64  `json:"fast_path_share,omitempty"`
	Events         uint64   `json:"events,omitempty"`
	Profiled       bool     `json:"profiled,omitempty"`
	Failure        *Failure `json:"failure,omitempty"`
}

func entryFromRow(i int, r Row) journalEntry {
	return journalEntry{
		I:              i,
		Label:          r.Point.Label,
		GoodputMbps:    r.GoodputMbps,
		GoodputCI:      r.GoodputCI,
		RTTms:          r.RTTms,
		MinRTTms:       r.MinRTTms,
		Retransmits:    r.Retransmits,
		SKBKbits:       r.SKBKbits,
		IdleMs:         r.IdleMs,
		ExpectedMbps:   r.ExpectedMbps,
		MaxBufKB:       r.MaxBufKB,
		CPUUtil:        r.CPUUtil,
		Jain:           r.Jain,
		PacingShare:    r.PacingShare,
		AppKind:        r.AppKind,
		Requests:       r.Requests,
		LatP50ms:       r.LatP50ms,
		LatP90ms:       r.LatP90ms,
		LatP99ms:       r.LatP99ms,
		RebufferPct:    r.RebufferPct,
		FlowsStarted:   r.FlowsStarted,
		FlowsCompleted: r.FlowsCompleted,
		FlowsPeakLive:  r.FlowsPeakLive,
		FCTP50ms:       r.FCTP50ms,
		FCTP99ms:       r.FCTP99ms,
		FastPathShare:  r.FastPathShare,
		Events:         r.Events,
		Profiled:       r.Profiled,
		Failure:        r.Failure,
	}
}

// row reconstructs the Row for point p. Sample is nil — the in-memory
// result is gone — but every printed field survives.
func (ent journalEntry) row(p Point) Row {
	return Row{
		Point:          p,
		GoodputMbps:    ent.GoodputMbps,
		GoodputCI:      ent.GoodputCI,
		RTTms:          ent.RTTms,
		MinRTTms:       ent.MinRTTms,
		Retransmits:    ent.Retransmits,
		SKBKbits:       ent.SKBKbits,
		IdleMs:         ent.IdleMs,
		ExpectedMbps:   ent.ExpectedMbps,
		MaxBufKB:       ent.MaxBufKB,
		CPUUtil:        ent.CPUUtil,
		Jain:           ent.Jain,
		PacingShare:    ent.PacingShare,
		AppKind:        ent.AppKind,
		Requests:       ent.Requests,
		LatP50ms:       ent.LatP50ms,
		LatP90ms:       ent.LatP90ms,
		LatP99ms:       ent.LatP99ms,
		RebufferPct:    ent.RebufferPct,
		FlowsStarted:   ent.FlowsStarted,
		FlowsCompleted: ent.FlowsCompleted,
		FlowsPeakLive:  ent.FlowsPeakLive,
		FCTP50ms:       ent.FCTP50ms,
		FCTP99ms:       ent.FCTP99ms,
		FastPathShare:  ent.FastPathShare,
		Events:         ent.Events,
		Profiled:       ent.Profiled,
		Failure:        ent.Failure,
	}
}

// readJournal loads and validates an existing journal. A missing file is a
// fresh start (nil entries, existed false). A trailing line that does not
// parse is tolerated — the writer died mid-entry — but a malformed line
// followed by valid ones means corruption and fails.
func readJournal(path string, e Experiment, opts RunOpts) ([]journalEntry, bool, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, false, nil
		}
		return nil, false, fmt.Errorf("repro: journal %s: %w", path, err)
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		if len(sc.Text()) > 0 {
			lines = append(lines, sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		return nil, false, fmt.Errorf("repro: journal %s: %w", path, err)
	}
	if len(lines) == 0 {
		return nil, false, nil
	}
	var hdr journalHeader
	if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil {
		return nil, false, fmt.Errorf("repro: journal %s: bad header: %w", path, err)
	}
	if want := headerFor(e, opts); hdr != want {
		return nil, false, fmt.Errorf("repro: journal %s was written by a different run configuration (journal %+v, this run %+v)", path, hdr, want)
	}
	var entries []journalEntry
	for n, line := range lines[1:] {
		var ent journalEntry
		if err := json.Unmarshal([]byte(line), &ent); err != nil {
			if n == len(lines)-2 {
				break // torn final write: re-run that point
			}
			return nil, false, fmt.Errorf("repro: journal %s: entry %d: %w", path, n, err)
		}
		if ent.I < 0 || ent.I >= len(e.Points) {
			return nil, false, fmt.Errorf("repro: journal %s: entry %d: point index %d out of range", path, n, ent.I)
		}
		if ent.Label != e.Points[ent.I].Label {
			return nil, false, fmt.Errorf("repro: journal %s: entry %d: label %q does not match point %d (%q)", path, n, ent.Label, ent.I, e.Points[ent.I].Label)
		}
		entries = append(entries, ent)
	}
	return entries, true, nil
}

// journalWriter appends entries under a lock (grid points finish on
// arbitrary workers). Each entry is one Write call, so a crash tears at
// most the final line.
type journalWriter struct {
	mu sync.Mutex
	f  *os.File
}

// openJournal opens the checkpoint for appending. When the file was not a
// valid prior journal for this run, it is truncated and a fresh header
// written.
func openJournal(path string, e Experiment, opts RunOpts, existed bool) (*journalWriter, error) {
	flags := os.O_CREATE | os.O_WRONLY | os.O_APPEND
	if !existed {
		flags |= os.O_TRUNC
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, fmt.Errorf("repro: journal %s: %w", path, err)
	}
	jw := &journalWriter{f: f}
	if !existed {
		data, err := json.Marshal(headerFor(e, opts))
		if err != nil {
			f.Close()
			return nil, err
		}
		if _, err := f.Write(append(data, '\n')); err != nil {
			f.Close()
			return nil, fmt.Errorf("repro: journal %s: %w", path, err)
		}
	}
	return jw, nil
}

func (jw *journalWriter) append(ent journalEntry) error {
	data, err := json.Marshal(ent)
	if err != nil {
		return err
	}
	jw.mu.Lock()
	defer jw.mu.Unlock()
	_, err = jw.f.Write(append(data, '\n'))
	return err
}

func (jw *journalWriter) close() error { return jw.f.Close() }
