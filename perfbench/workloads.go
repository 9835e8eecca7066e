package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"mobbr/internal/core"
	"mobbr/internal/obs"
	"mobbr/internal/repro"
	"mobbr/internal/telemetry"
)

// minDuration is the virtual run length of a set-up pass: long enough for
// every component to be built, started, torn down and collected, too short
// for any steady-state traffic. setup_s times passes of this length.
const minDuration = time.Millisecond

// workload is one benchmark input. Each pass derives everything it runs
// from the simulation seed it is handed.
type workload struct {
	name string
	// seeds is how many simulation seeds one benchmark run cycles through;
	// every seed runs at least twice so each run checks determinism.
	seeds int
	// setups is how many set-up passes run before each full pass. A
	// set-up pass costs a few percent of a full one, so several fit.
	setups int
	// pass runs the workload once at virtual length dur (0 = the
	// workload's own) inside dir, a fresh temporary directory. The timed part
	// is pass itself; the returned outcome's verify runs afterwards,
	// untimed.
	pass func(seed int64, dur time.Duration, dir string) outcome
	// trace runs one traced pass inside dir.
	trace func(seed int64, dir string) traceOut
}

// outcome is what one pass produced.
type outcome struct {
	// failures lists the errors that ended the pass early; verify is nil
	// then.
	failures []string
	// verify runs the output checks, outside the timed region, and returns
	// a digest of the simulated output (equal seeds must give equal
	// digests) and every failed check.
	verify func() (digest string, failures []string)
}

func workloads() []workload {
	return []workload{
		{name: "bulk-lowend-bbr20", seeds: 2, setups: 4, pass: bulkPass, trace: bulkTrace},
		{name: "churn-10k-checked", seeds: 2, setups: 3, pass: churnPass, trace: churnTrace},
		{name: "grid-all", seeds: 1, setups: 8, pass: gridPass, trace: gridTrace},
	}
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// registryPoint returns the named point of a repro experiment, so the
// benchmark runs exactly the spec (and paper value) the grid runs.
func registryPoint(e repro.Experiment, label string) (repro.Point, error) {
	for _, p := range e.Points {
		if p.Label == label {
			return p, nil
		}
	}
	return repro.Point{}, fmt.Errorf("experiment %s has no point %q", e.ID, label)
}

// bulkSpec is `mobbr -cc bbr -config low -conns 20 -dur 60s`: the fig2
// point "Low-End/bbr/20" (Pixel 4, Ethernet) run for 60 s of virtual time
// with the CLI's 20% warmup. Its paper value is the 138 Mbps anchor.
func bulkSpec(seed int64, dur time.Duration) (core.Spec, float64, error) {
	p, err := registryPoint(repro.Figure2(), "Low-End/bbr/20")
	if err != nil {
		return core.Spec{}, 0, err
	}
	if dur == 0 {
		dur = 60 * time.Second
	}
	s := p.Spec
	s.Duration, s.Warmup, s.Seed = dur, dur/5, seed
	return s, p.PaperMbps, nil
}

// churnSpec is the scale grid's "10k Low-End/bbr" point — 10k live flows,
// 2000 arrivals/s, 4 KB mice, invariant checker armed — at 10 s virtual.
func churnSpec(seed int64, dur time.Duration) (core.Spec, error) {
	p, err := registryPoint(repro.Scale(), "10k Low-End/bbr")
	if err != nil {
		return core.Spec{}, err
	}
	if dur == 0 {
		dur = 10 * time.Second
	}
	s := p.Spec
	s.Duration, s.Warmup, s.Seed = dur, dur/5, seed
	return s, nil
}

func bulkPass(seed int64, dur time.Duration, _ string) outcome {
	spec, _, err := bulkSpec(seed, dur)
	if err != nil {
		return outcome{failures: []string{err.Error()}}
	}
	return singlePass(spec)
}

func churnPass(seed int64, dur time.Duration, _ string) outcome {
	spec, err := churnSpec(seed, dur)
	if err != nil {
		return outcome{failures: []string{err.Error()}}
	}
	return singlePass(spec)
}

// singlePass is one core.Run, the path the mobbr CLI takes.
func singlePass(spec core.Spec) outcome {
	res, err := core.Run(spec)
	if err != nil {
		return outcome{failures: []string{err.Error()}}
	}
	return outcome{verify: func() (string, []string) { return resultDigest(res), resultFailures(res) }}
}

// resultFailures checks a finished run's censuses: the packet/ACK pool and,
// under churn, the connection pool must balance to zero after reclaim.
func resultFailures(res *core.Result) []string {
	var f []string
	if ps := res.Report.Pool; ps.OutstandingPackets != 0 || ps.OutstandingAcks != 0 || ps.Violations != 0 {
		f = append(f, fmt.Sprintf("seg pool unbalanced: %+v", ps))
	}
	if res.Flows != nil && !res.Flows.Pool.Balanced() {
		f = append(f, fmt.Sprintf("conn pool unbalanced: %+v", res.Flows.Pool))
	}
	return f
}

// resultDigest fingerprints every simulated output of a run. fmt prints
// maps in key order and floats in their shortest exact form, so equal
// outputs give equal digests.
func resultDigest(res *core.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "%+v|%d", *res.Report, res.Processed)
	if res.Flows != nil {
		fmt.Fprintf(h, "|%+v", *res.Flows)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// gridDur and gridSeeds size grid-all: `mobbr-repro -exp all -dur 1s
// -seeds 1 -archive DIR` with one worker per CPU.
const (
	gridDur   = time.Second
	gridSeeds = 1
)

// gridExperiments returns -exp all's experiments with every point seeded
// from seed, and the recovery experiment (whose runner fixes its own seeds
// and fault timeline). A dur of minDuration cuts every point, recovery's
// included, to the set-up length.
func gridExperiments(seed int64, dur time.Duration) ([]repro.Experiment, repro.RecoveryExperiment) {
	exps := repro.All()
	for i := range exps {
		for j := range exps[i].Points {
			exps[i].Points[j].Spec.Seed = seed
		}
	}
	rec := repro.Recovery()
	if dur == minDuration {
		for i := range rec.Points {
			rec.Points[i].Spec.Duration = dur
			rec.Points[i].Spec.Warmup = 0
		}
	}
	return exps, rec
}

// gridRun is one finished grid-all pass: its experiments, rows and the
// host time spent running and archiving them.
type gridRun struct {
	exps    []repro.Experiment
	rows    [][]repro.Row
	rec     repro.RecoveryExperiment
	recRows []repro.RecoveryRow
	opts    repro.ArchiveOpts

	// observedNs is the runner time of the standard experiments (the part
	// a repro.Observer sees); archiveNs the time spent writing archives.
	observedNs, archiveNs int64
}

// gridWorkers is grid-all's worker count: one per CPU, as -j 0 gives.
func gridWorkers() int { return runtime.NumCPU() }

// runGrid runs and archives every experiment, as mobbr-repro -exp all
// -archive does: each experiment's points fan out over the workers, then
// its archive is written; recovery runs last.
func runGrid(seed int64, dur time.Duration, dir string, o repro.Observer) (*gridRun, error) {
	if dur == 0 {
		dur = gridDur
	}
	exps, rec := gridExperiments(seed, dur)
	g := &gridRun{exps: exps, rec: rec}
	workers := gridWorkers()
	g.opts = repro.ArchiveOpts{Dir: dir, Dur: dur, Seeds: gridSeeds}
	for _, e := range exps {
		t0 := time.Now()
		rows, err := repro.RunExperimentPoolObserved(e, dur, gridSeeds, telemetry.Config{}, workers, o)
		t1 := time.Now()
		g.observedNs += t1.Sub(t0).Nanoseconds()
		if err != nil {
			return nil, err
		}
		if err := repro.ArchiveExperiment(e, rows, g.opts); err != nil {
			return nil, err
		}
		g.archiveNs += time.Since(t1).Nanoseconds()
		g.rows = append(g.rows, rows)
	}
	rrows, err := repro.RunRecoveryPool(rec, gridSeeds, workers)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := repro.ArchiveRecovery(rec, rrows, g.opts); err != nil {
		return nil, err
	}
	g.archiveNs += time.Since(t0).Nanoseconds()
	g.recRows = rrows
	return g, nil
}

// paperErr is the mean |sim/paper − 1| in percent over every grid point
// that carries a paper value in the repro registry.
func (g *gridRun) paperErr() (float64, int) {
	var sum float64
	n := 0
	for _, rows := range g.rows {
		for _, r := range rows {
			if r.Point.PaperMbps > 0 {
				sum += math.Abs(r.GoodputMbps/r.Point.PaperMbps - 1)
				n++
			}
		}
	}
	if n == 0 {
		return 0, 0
	}
	return 100 * sum / float64(n), n
}

// events sums the simulator events of every standard grid point.
func (g *gridRun) events() uint64 {
	var n uint64
	for _, rows := range g.rows {
		for _, r := range rows {
			n += r.Events
		}
	}
	return n
}

// check reloads the archive and requires an empty self-diff against the
// rows still in memory, no FAILED rows, and returns a digest of the
// archived point files (byte-stable per seed).
func (g *gridRun) check(dir string) (digest string, failures []string, loadNs, diffNs int64) {
	t0 := time.Now()
	loaded, err := obs.LoadArchive(dir)
	loadNs = time.Since(t0).Nanoseconds()
	if err != nil {
		return "", []string{err.Error()}, loadNs, 0
	}
	mem := &obs.Archive{Root: "memory", Runs: map[string]*obs.Run{}}
	for i, e := range g.exps {
		for _, r := range g.rows[i] {
			if r.Failure != nil {
				failures = append(failures, fmt.Sprintf("FAILED row %s/%s: %s", e.ID, r.Point.Label, r.Failure.Msg))
			}
		}
		run, err := repro.BuildExperimentRun(e, g.rows[i], g.opts)
		if err != nil {
			return "", append(failures, err.Error()), loadNs, 0
		}
		mem.Runs[e.ID] = run
	}
	run, err := repro.BuildRecoveryRun(g.rec, g.recRows, g.opts)
	if err != nil {
		return "", append(failures, err.Error()), loadNs, 0
	}
	mem.Runs[g.rec.ID] = run
	for id := range mem.Runs {
		mem.Order = append(mem.Order, id)
	}
	sort.Strings(mem.Order)
	t1 := time.Now()
	deltas, sum, err := obs.Diff(mem, loaded, obs.DiffOpts{})
	diffNs = time.Since(t1).Nanoseconds()
	switch {
	case err != nil:
		failures = append(failures, err.Error())
	case len(deltas) != 0 || sum.Regressed != 0 || sum.Unmatched != 0 || len(sum.SkippedExps) != 0 || sum.Experiments != len(mem.Runs):
		failures = append(failures, fmt.Sprintf("archive self-diff not empty: %d deltas, %+v", len(deltas), sum))
	}
	digest, err = archiveDigest(dir)
	if err != nil {
		failures = append(failures, err.Error())
	}
	return digest, failures, loadNs, diffNs
}

// archiveDigest hashes every archived point file in path order. Manifests
// are left out: they carry the wall-clock time.
func archiveDigest(dir string) (string, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*", "points", "*.json"))
	if err != nil {
		return "", err
	}
	if len(files) == 0 {
		return "", fmt.Errorf("archive %s holds no point files", dir)
	}
	sort.Strings(files)
	h := sha256.New()
	for _, name := range files {
		rel, _ := filepath.Rel(dir, name) // both come from dir's glob
		fmt.Fprintf(h, "%s\n", rel)
		f, err := os.Open(name)
		if err != nil {
			return "", err
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}

func gridPass(seed int64, dur time.Duration, dir string) outcome {
	g, err := runGrid(seed, dur, dir, nil)
	if err != nil {
		return outcome{failures: []string{err.Error()}}
	}
	return outcome{verify: func() (string, []string) {
		digest, failures, _, _ := g.check(dir)
		return digest, failures
	}}
}
