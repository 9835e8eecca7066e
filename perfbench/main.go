// Command perfbench is mobbr's benchmark program. It runs one workload for a
// fixed host-time budget and prints, as its last line of standard output,
// one JSON object with the end-to-end metrics (--trace 0) or the per-layer
// metrics of a traced run (--trace 1):
//
//	bash perfbench/run.sh --workload bulk-lowend-bbr20 --seed 1 --seconds 35 --trace 0
//
// Every pass runs in a fresh child process (the same binary, re-executed
// with -child), so each pass's CPU time, allocation and peak resident
// memory are its own. The workloads, their specs and the metric-to-workload
// predictions are described in perfbench/README.md.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(childMain(os.Args[2:]))
	}
	os.Exit(parentMain(os.Args[1:]))
}

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the --trace 0 metrics.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"setup_s", "s"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the --trace 1 metrics. A layer a workload does not
// exercise (flows on bulk, repro on churn, …) reports 0.
var perLayer = []metricDef{
	{"sim.events", "count"},
	{"sim.max_pending", "count"},
	{"sim.run_ms", "ms"},
	{"sim.ns_per_event", "ns"},
	{"sim.self_ms", "ms"},
	{"cc.ms", "ms"},
	{"cc.calls", "count"},
	{"tcp.rx_ms", "ms"},
	{"tcp.rx_calls", "count"},
	{"tcp.ack_arrival_ms", "ms"},
	{"tcp.ack_arrival_calls", "count"},
	{"tcp.retransmits", "count"},
	{"cpumodel.ops.pacing_timer", "count"},
	{"cpumodel.ops.ack_process", "count"},
	{"cpumodel.ops.seg_xmit", "count"},
	{"cpumodel.ops.skb_xmit", "count"},
	{"cpumodel.ops.cc_update", "count"},
	{"cpumodel.cycles.pacing_timer", "cycles"},
	{"cpumodel.cycles.ack_process", "cycles"},
	{"cpumodel.cycles.seg_xmit", "cycles"},
	{"cpumodel.cycles.skb_xmit", "cycles"},
	{"cpumodel.cycles.cc_update", "cycles"},
	{"cpumodel.net_util", "ratio"},
	{"cpumodel.pacing_share", "ratio"},
	{"seg.packet_gets", "count"},
	{"seg.packet_news", "count"},
	{"seg.ack_gets", "count"},
	{"seg.ack_news", "count"},
	{"seg.reuse", "ratio"},
	{"netem.drops", "count"},
	{"netem.tombstoned_acks", "count"},
	{"netem.max_queue", "packets"},
	{"flows.start_ms", "ms"},
	{"flows.finish_ms", "ms"},
	{"flows.started", "count"},
	{"flows.completed", "count"},
	{"flows.rejected", "count"},
	{"flows.fast_share", "ratio"},
	{"flows.pool_reuse", "ratio"},
	{"check.ms", "ms"},
	{"check.passes", "count"},
	{"core.assemble_ms", "ms"},
	{"iperf.finish_ms", "ms"},
	{"repro.points", "count"},
	{"repro.point_ms_p50", "ms"},
	{"repro.point_ms_p90", "ms"},
	{"repro.worker_idle_frac", "ratio"},
	{"obs.archive_ms", "ms"},
	{"obs.archive_bytes", "bytes"},
	{"obs.load_ms", "ms"},
	{"obs.diff_ms", "ms"},
	{"bench.trace_overhead_pct", "%"},
	{"paper_err_pct", "%"},
	{"paper_points", "count"},
	{"fail_frac", "ratio"},
}

func parentMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name: bulk-lowend-bbr20, churn-10k-checked or grid-all")
	seed := fs.Int64("seed", 1, "benchmark seed; every simulation seed of the run derives from it")
	seconds := fs.Int("seconds", 35, "host seconds of measured passes")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: bad arguments:", err)
		return 2
	}
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	stamp, err := json.Marshal(map[string]any{"machine": machine(), "workload": w.name, "seed": *seed, "sim_seeds": simSeeds(*seed, w.seeds)})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(stamp))

	b := &bench{w: w, seeds: simSeeds(*seed, w.seeds), budget: time.Duration(*seconds) * time.Second, digests: map[string]string{}}
	var res result
	if *trace == 1 {
		res = b.traced()
	} else {
		res = b.endToEnd()
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// workRoot holds the children's temporary directories, inside the checkout.
const workRoot = ".bench_build/work"

// simSeeds derives a run's simulation seeds from the benchmark seed
// (splitmix64), so different benchmark seeds run different inputs and the
// same benchmark seed runs the same ones.
func simSeeds(seed int64, n int) []int64 {
	out := make([]int64, n)
	x := uint64(seed)
	for i := range out {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		out[i] = int64(z>>33) + 1 // positive and nonzero: core.Run maps seed 0 to 1
	}
	return out
}

// bench is one benchmark run's bookkeeping.
type bench struct {
	w         workload
	seeds     []int64
	budget    time.Duration
	attempted int
	failed    int
	// digests maps mode/seed to the first digest seen; every repeat of the
	// same seed must reproduce it.
	digests map[string]string
}

// childOut is a child's report of one pass.
type childOut struct {
	WallS      float64            `json:"wall_s"`
	CPUS       float64            `json:"cpu_s"`
	AllocBytes uint64             `json:"alloc_bytes"`
	Digest     string             `json:"digest"`
	Failures   []string           `json:"failures"`
	Counts     map[string]float64 `json:"counts,omitempty"`
	Times      map[string]float64 `json:"times,omitempty"`
	// MaxRSSKB is the child's peak resident set, which the parent reads
	// from the exited process's rusage.
	MaxRSSKB int64 `json:"-"`
}

// pass runs one child pass and folds its checks into the run's tally. It
// returns ok == false when the pass failed.
func (b *bench) pass(mode string, seed int64) (childOut, bool) {
	b.attempted++
	out, err := runChild(b.w.name, mode, seed)
	if err == nil {
		key := fmt.Sprintf("%s/%d", mode, seed)
		if ref, seen := b.digests[key]; !seen {
			b.digests[key] = out.Digest
		} else if ref != out.Digest {
			err = fmt.Errorf("seed %d is not deterministic: digest %.12s then %.12s", seed, ref, out.Digest)
		}
	}
	if err == nil && len(out.Failures) > 0 {
		err = errors.New(strings.Join(out.Failures, "; "))
	}
	if err != nil {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s %s seed %d failed: %v\n", b.w.name, mode, seed, err)
		return out, false
	}
	return out, true
}

// endToEnd alternates set-up passes and full passes until the budget is
// spent, and reports medians. Interleaving spreads both kinds of sample over
// the whole run, so a burst of host contention does not land on all the
// set-up samples at once. Each full pass is preceded by the workload's
// setups set-up passes: they are short, so several per full pass give
// setup_s a median over enough samples to be steady.
func (b *bench) endToEnd() result {
	var setup, wall, cpu, alloc, rss []float64
	start := time.Now()
	// Every seed runs at least twice, so every run checks determinism.
	for i := 0; i < 2*len(b.seeds) || time.Since(start) < b.budget; i++ {
		seed := b.seeds[i%len(b.seeds)]
		for j := 0; j < b.w.setups; j++ {
			if out, ok := b.pass("setup", seed); ok {
				setup = append(setup, out.WallS)
			}
		}
		out, ok := b.pass("pass", seed)
		if !ok {
			continue
		}
		wall = append(wall, out.WallS)
		cpu = append(cpu, out.CPUS)
		alloc = append(alloc, float64(out.AllocBytes)/1e6)
		rss = append(rss, float64(out.MaxRSSKB)*1024/1e6)
	}
	vals := map[string]float64{
		"wall_s": median(wall), "cpu_s": median(cpu), "setup_s": median(setup),
		"alloc_mb": median(alloc), "peak_rss_mb": median(rss),
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: set-up passes %s\n", b.w.name, fmtSeconds(setup))
	fmt.Fprintf(os.Stderr, "perfbench: %s: full passes %s\n", b.w.name, fmtSeconds(wall))
	return b.result(endToEnd, vals)
}

// traced runs traced passes until the budget is spent. Exact counts come
// from the first seed's pass (and must repeat exactly on every later pass of
// that seed); host times are medians over all passes.
func (b *bench) traced() result {
	var counts map[string]float64
	times := map[string][]float64{}
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < b.budget; i++ {
		seed := b.seeds[i%len(b.seeds)]
		out, ok := b.pass("trace", seed)
		if !ok {
			continue
		}
		if seed == b.seeds[0] {
			if counts == nil {
				counts = out.Counts
			} else if !equalCounts(counts, out.Counts) {
				b.failed++
				fmt.Fprintf(os.Stderr, "perfbench: %s: exact counts of seed %d changed between passes\n", b.w.name, seed)
			}
		}
		for k, v := range out.Times {
			times[k] = append(times[k], v)
		}
	}
	vals := map[string]float64{}
	for k, v := range counts {
		vals[k] = v
	}
	for k, v := range times {
		vals[k] = median(v)
	}
	vals["fail_frac"] = float64(b.failed) / float64(b.attempted)
	return b.result(perLayer, vals)
}

// result assembles the output line over the listed metrics. A metric the
// workload did not produce reports 0; one that could not be measured (no
// successful pass to take a median of) reports 0 and marks the run
// incorrect.
func (b *bench) result(defs []metricDef, vals map[string]float64) result {
	r := result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	for _, m := range defs {
		v := vals[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
			r.Correct = false
		}
		r.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	return r
}

func equalCounts(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// childTimeout bounds one pass; the slowest pass takes a few seconds.
const childTimeout = 150 * time.Second

// runChild re-executes this binary for one pass and waits for it to exit.
func runChild(name, mode string, seed int64) (childOut, error) {
	var out childOut
	exe, err := os.Executable()
	if err != nil {
		return out, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-child", "-workload", name, "-mode", mode, "-seed", strconv.FormatInt(seed, 10))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	if cmd.ProcessState != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			out.MaxRSSKB = ru.Maxrss
		}
	}
	if runErr != nil {
		return out, fmt.Errorf("child: %w", runErr)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		return out, fmt.Errorf("child output: %w", err)
	}
	return out, nil
}

// childMain runs one pass and prints its childOut as JSON.
func childMain(args []string) int {
	fs := flag.NewFlagSet("perfbench -child", flag.ContinueOnError)
	name := fs.String("workload", "", "")
	mode := fs.String("mode", "pass", "pass, setup or trace")
	seed := fs.Int64("seed", 1, "simulation seed")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	dir, err := os.MkdirTemp(workRoot, "pass-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer func() {
		os.RemoveAll(dir)
		// Flush the removal before the next pass starts: unlinks left to
		// background writeback slow the next pass's file creation several
		// times over, so grid-all's archive writes would otherwise time
		// the deletions of earlier passes.
		syscall.Sync()
	}()

	var out childOut
	switch *mode {
	case "trace":
		t := w.trace(*seed, dir)
		out = childOut{Digest: t.digest, Failures: t.failures, Counts: t.counts, Times: t.times}
	case "pass", "setup":
		var dur time.Duration
		if *mode == "setup" {
			dur = minDuration
		}
		out = measure(func() outcome { return w.pass(*seed, dur, dir) })
	default:
		fmt.Fprintln(os.Stderr, "perfbench: unknown mode", *mode)
		return 2
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// measure times one pass: host wall time, this process's user+system CPU
// time and heap bytes allocated. The untimed checks run afterwards.
func measure(pass func() outcome) childOut {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuTime()
	t0 := time.Now()
	o := pass()
	wall := time.Since(t0)
	c1 := cpuTime()
	runtime.ReadMemStats(&m1)
	out := childOut{WallS: wall.Seconds(), CPUS: (c1 - c0).Seconds(), AllocBytes: m1.TotalAlloc - m0.TotalAlloc, Failures: o.failures}
	if o.verify != nil {
		out.Digest, out.Failures = o.verify()
	}
	return out
}

// cpuTime is the user plus system CPU time this process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// fmtSeconds lists pass times for the diagnostic lines on standard error.
func fmtSeconds(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = strconv.FormatFloat(x, 'f', 4, 64)
	}
	return "[" + strings.Join(parts, " ") + "] s"
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile is the linearly interpolated q-quantile of v (NaN when empty).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
