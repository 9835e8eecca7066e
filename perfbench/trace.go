package main

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"sync"
	"time"

	"mobbr/internal/cc"
	"mobbr/internal/cc/bbr"
	"mobbr/internal/cc/bbrv2"
	"mobbr/internal/check"
	"mobbr/internal/core"
	"mobbr/internal/cpumodel"
	"mobbr/internal/device"
	"mobbr/internal/flows"
	"mobbr/internal/iperf"
	"mobbr/internal/netem"
	"mobbr/internal/seg"
	"mobbr/internal/sim"
	"mobbr/internal/tcp"
)

// traceOut is one traced pass: exact counts (deterministic per seed),
// host-time figures, the output digest and any failed checks.
type traceOut struct {
	counts   map[string]float64
	times    map[string]float64
	digest   string
	failures []string
}

// span accumulates the host time and call count of one layer boundary.
type span struct {
	ns    int64
	calls int64
}

// since closes a span opened at t0.
func (s *span) since(t0 time.Time) {
	s.ns += time.Since(t0).Nanoseconds()
	s.calls++
}

func (s *span) ms() float64 { return float64(s.ns) / 1e6 }

// spans holds the layer boundaries one traced run times from outside the
// program: calls into the congestion-control interface, the server demux,
// each connection's ACK-arrival handler and the invariant checker.
type spans struct {
	cc, rx, ack, check span
	// path is sampled at every OnAck for the deepest hop queue seen.
	path     *netem.Path
	maxQueue int
}

// children is the host time spent inside the timed boundaries that run as
// engine events.
func (s *spans) children() int64 { return s.cc.ns + s.rx.ns + s.ack.ns + s.check.ns }

// timedCC wraps a congestion-control module, timing every interface call.
type timedCC struct {
	inner cc.CongestionControl
	sp    *spans
}

func (t *timedCC) Name() string      { return t.inner.Name() }
func (t *timedCC) AckCost() float64  { return t.inner.AckCost() }
func (t *timedCC) WantsPacing() bool { return t.inner.WantsPacing() }

func (t *timedCC) Init(c cc.Conn) {
	t0 := time.Now()
	t.inner.Init(c)
	t.sp.cc.since(t0)
}

func (t *timedCC) OnAck(c cc.Conn, rs *cc.RateSample) {
	t0 := time.Now()
	t.inner.OnAck(c, rs)
	t.sp.cc.since(t0)
	p := t.sp.path
	for i := 0; i < p.NumHops(); i++ {
		if q := p.Hop(i).QueueLen(); q > t.sp.maxQueue {
			t.sp.maxQueue = q
		}
	}
}

func (t *timedCC) OnEvent(c cc.Conn, ev cc.Event) {
	t0 := time.Now()
	t.inner.OnEvent(c, ev)
	t.sp.cc.since(t0)
}

// flowsAuditStride mirrors core.Run's per-pass audit bound under churn.
// The stride does not change the simulated output, so the fidelity guard
// cannot catch a mismatch: when core.Run's checker wiring changes, this
// constant and armChecker must change with it, or check.ms and
// check.passes time a checker core.Run no longer runs.
const flowsAuditStride = 256

// assembly is the serial core.Run testbed rebuilt from public
// constructors, so span boundaries can sit between its phases and around
// its layers. sp == nil builds it without any wrapper (the untraced
// reference for the tracing overhead).
type assembly struct {
	spec  core.Spec
	sp    *spans
	eng   *sim.Engine
	cpu   *cpumodel.CPU
	path  *netem.Path
	pool  *seg.Pool
	sess  *iperf.Session
	fsess *flows.Session
	chk   *check.Checker
}

// assemble builds the testbed in core.Run's order, so every random draw and
// event sequence number matches. It supports the features the bulk and
// churn workloads use and rejects any other spec.
func assemble(spec core.Spec, sp *spans) (*assembly, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Network != core.Ethernet || spec.Workload.Kind != "" || spec.Mobility != nil ||
		!spec.Faults.Empty() || spec.FixedCwnd > 0 || spec.FixedPacingRate > 0 || spec.DisableModel ||
		spec.DisablePool || spec.Interval > 0 || spec.Inject.Kind != "" || spec.Telemetry.Any() ||
		strings.Contains(spec.CC, ",") || spec.Seed == 0 || spec.Duration <= 0 {
		return nil, fmt.Errorf("traced assembly does not support spec %s", core.ReproLine(spec))
	}
	factory := core.Factories()[spec.CC]
	if w := spec.Duration / 3; w < 10*time.Second {
		// core.Run scales BBR's min-RTT filter down on short runs.
		if w < 500*time.Millisecond {
			w = 500 * time.Millisecond
		}
		inner := factory
		factory = func() cc.CongestionControl {
			m := inner()
			switch b := m.(type) {
			case *bbr.BBR:
				b.SetMinRTTWindow(w)
			case *bbrv2.BBRv2:
				b.SetMinRTTWindow(w)
			}
			return m
		}
	}
	a := &assembly{spec: spec, sp: sp}
	a.eng = sim.New(spec.Seed)
	a.eng.SetLimits(sim.Limits{MaxEvents: 200_000_000, WallClock: 2 * time.Minute, MaxStall: 2_000_000})
	cpu, appCPU := device.NewCPUs(a.eng, spec.Device, spec.CPU)
	a.cpu = cpu
	path, err := netem.EthernetLAN(a.eng, spec.TC)
	if err != nil {
		return nil, err
	}
	a.path = path
	if sp != nil {
		sp.path = path
		inner := factory
		factory = func() cc.CongestionControl { return &timedCC{inner: inner(), sp: sp} }
	}
	tcfg := tcp.Config{PacingOverride: spec.PacingOverride, SndBuf: spec.SndBuf}
	tcfg.Pacing.Stride = spec.Stride
	tcfg.Pacing.HardwareOffload = spec.HardwarePacing
	a.pool = seg.NewPool()
	icfg := iperf.Config{
		Conns: spec.Conns, Duration: spec.Duration, Warmup: spec.Warmup,
		TCP: tcfg, AppCPU: appCPU, Pool: a.pool, CC: factory,
	}
	if spec.Flows != nil {
		a.fsess, err = flows.New(a.eng, cpu, path, icfg, *spec.Flows)
	} else {
		a.sess, err = iperf.New(a.eng, cpu, path, icfg)
	}
	if err != nil {
		return nil, err
	}
	if sp != nil && a.sess != nil {
		a.wrapBulk()
	}
	if spec.Check {
		a.armChecker()
	}
	return a, nil
}

// wrapBulk re-registers the fixed connection set's receive path behind
// timed wrappers: a demux equal to the one iperf.New installed, and each
// connection's ACK-arrival handler. Registration replaces handlers in
// place and consumes no event sequence numbers.
func (a *assembly) wrapBulk() {
	sp := a.sp
	demux := tcp.NewDemux()
	demux.SetPool(a.pool)
	for _, rx := range a.sess.Receivers() {
		demux.Add(rx)
	}
	a.path.SetReceiver(func(pkt *seg.Packet) {
		t0 := time.Now()
		demux.Handle(pkt)
		sp.rx.since(t0)
	})
	for _, c := range a.sess.Conns() {
		onAck := c.OnAckArrival
		a.path.RegisterAckHandler(c.ID(), func(ack *seg.Ack) {
			t0 := time.Now()
			onAck(ack)
			sp.ack.since(t0)
		})
	}
}

// armChecker wires the invariant checker the way core.Run does, with the
// periodic audit scheduled here so each pass can be timed.
func (a *assembly) armChecker() {
	spec := a.spec
	a.chk = check.New(a.eng, fmt.Sprintf("%s seed=%d", spec, spec.Seed), 0)
	if a.fsess != nil {
		a.chk.WatchDynamic(a.fsess.Auditables)
		a.chk.SetAuditStride(flowsAuditStride)
		a.chk.SetHeldAcks(a.fsess.Aggregates().HeldAcks)
		a.fsess.SetOnRetire(a.chk.Forget)
	} else {
		for _, c := range a.sess.Conns() {
			a.chk.Watch(c)
		}
	}
	a.chk.WatchPool(a.pool, a.path)
	// Same schedule as check.Checker.Start: one audit per interval, re-armed
	// while the run is clean (a violation fails the pass anyway).
	var tick func()
	tick = func() {
		a.checkNow()
		if len(a.chk.Violations()) == 0 {
			a.eng.Schedule(check.DefaultInterval, tick)
		}
	}
	a.eng.Schedule(check.DefaultInterval, tick)
}

func (a *assembly) checkNow() {
	if a.sp == nil {
		a.chk.CheckNow()
		return
	}
	t0 := time.Now()
	a.chk.CheckNow()
	a.sp.check.since(t0)
}

// phases are the host times of one assembled run.
type phases struct {
	assemble, start, run, finish time.Duration
	// runChildren is the span time recorded while the engine ran.
	runChildren int64
}

// runAssembled builds and runs spec, returning the outputs core.Run would
// return plus per-phase host times.
func runAssembled(spec core.Spec, sp *spans) (*iperf.Report, *flows.Stats, *assembly, phases, error) {
	var ph phases
	t0 := time.Now()
	a, err := assemble(spec, sp)
	ph.assemble = time.Since(t0)
	if err != nil {
		return nil, nil, nil, ph, err
	}
	t0 = time.Now()
	if a.fsess != nil {
		a.fsess.Start()
	} else {
		a.sess.Start()
	}
	ph.start = time.Since(t0)
	var before int64
	if sp != nil {
		before = sp.children()
	}
	t0 = time.Now()
	a.eng.Run(spec.Duration)
	ph.run = time.Since(t0)
	if sp != nil {
		ph.runChildren = sp.children() - before
	}
	t0 = time.Now()
	var (
		rep *iperf.Report
		fst *flows.Stats
	)
	if a.fsess != nil {
		rep, fst = a.fsess.Finish()
	} else {
		rep = a.sess.Finish()
	}
	ph.finish = time.Since(t0)
	if err := a.eng.LimitErr(); err != nil {
		return nil, nil, nil, ph, err
	}
	if a.chk != nil {
		a.checkNow()
		a.chk.CheckLeaks()
		if err := a.chk.Err(); err != nil {
			return nil, nil, nil, ph, err
		}
	}
	return rep, fst, a, ph, nil
}

func bulkTrace(seed int64, _ string) traceOut {
	spec, paper, err := bulkSpec(seed, 0)
	if err != nil {
		return traceOut{failures: []string{err.Error()}}
	}
	return singleTrace(spec, paper)
}

func churnTrace(seed int64, _ string) traceOut {
	spec, err := churnSpec(seed, 0)
	if err != nil {
		return traceOut{failures: []string{err.Error()}}
	}
	return singleTrace(spec, 0)
}

// singleTrace runs spec three ways: through core.Run (the reference
// output), assembled without wrappers (the untraced engine time) and
// assembled with every span wrapper. Both assemblies must reproduce
// core.Run's report and churn stats exactly, or the spans would measure a
// different program and the pass fails.
func singleTrace(spec core.Spec, paperMbps float64) traceOut {
	out := traceOut{counts: map[string]float64{}, times: map[string]float64{}}
	fail := func(err error) traceOut {
		out.failures = append(out.failures, err.Error())
		return out
	}
	ref, err := core.Run(spec)
	if err != nil {
		return fail(err)
	}
	out.digest = resultDigest(ref)
	out.failures = resultFailures(ref)
	plainRep, plainFlows, _, plain, err := runAssembled(spec, nil)
	if err != nil {
		return fail(fmt.Errorf("untraced assembly: %w", err))
	}
	sp := &spans{}
	rep, fst, a, ph, err := runAssembled(spec, sp)
	if err != nil {
		return fail(fmt.Errorf("traced assembly: %w", err))
	}
	if !reflect.DeepEqual(plainRep, ref.Report) || !reflect.DeepEqual(plainFlows, ref.Flows) {
		out.failures = append(out.failures, "untraced assembly output differs from core.Run")
	}
	if !reflect.DeepEqual(rep, ref.Report) || !reflect.DeepEqual(fst, ref.Flows) || a.eng.Processed() != ref.Processed {
		out.failures = append(out.failures, "traced assembly output differs from core.Run")
	}

	events := float64(a.eng.Processed())
	c, t := out.counts, out.times
	c["sim.events"] = events
	c["sim.max_pending"] = float64(a.eng.MaxPending())
	t["sim.run_ms"] = ms(plain.run)
	t["sim.ns_per_event"] = float64(plain.run.Nanoseconds()) / events
	t["sim.self_ms"] = float64(ph.run.Nanoseconds()-ph.runChildren) / 1e6
	t["bench.trace_overhead_pct"] = 100 * (float64(ph.run)/float64(plain.run) - 1)
	t["cc.ms"], c["cc.calls"] = sp.cc.ms(), float64(sp.cc.calls)
	t["tcp.rx_ms"], c["tcp.rx_calls"] = sp.rx.ms(), float64(sp.rx.calls)
	t["tcp.ack_arrival_ms"], c["tcp.ack_arrival_calls"] = sp.ack.ms(), float64(sp.ack.calls)
	c["tcp.retransmits"] = float64(rep.Retransmits)
	for _, op := range []cpumodel.Op{cpumodel.OpPacingTimer, cpumodel.OpAckProcess, cpumodel.OpSegXmit, cpumodel.OpSKBXmit, cpumodel.OpCCUpdate} {
		c["cpumodel.ops."+op.String()] = float64(a.cpu.OpCount(op))
		c["cpumodel.cycles."+op.String()] = a.cpu.OpCycles(op)
	}
	c["cpumodel.net_util"] = rep.CPUUtil
	c["cpumodel.pacing_share"] = rep.CPUBreakdown[cpumodel.OpPacingTimer.String()]
	ps := rep.Pool
	c["seg.packet_gets"], c["seg.packet_news"] = float64(ps.PacketGets), float64(ps.PacketNews)
	c["seg.ack_gets"], c["seg.ack_news"] = float64(ps.AckGets), float64(ps.AckNews)
	c["seg.reuse"] = ratio(float64(ps.PacketsRecycled()+ps.AcksRecycled()), float64(ps.PacketGets+ps.AckGets))
	c["netem.drops"] = float64(rep.PathDrops)
	c["netem.tombstoned_acks"] = float64(a.path.TombstonedAcks())
	c["netem.max_queue"] = float64(sp.maxQueue)
	t["core.assemble_ms"] = ms(ph.assemble)
	if fst != nil {
		t["flows.start_ms"], t["flows.finish_ms"] = ms(ph.start), ms(ph.finish)
		c["flows.started"], c["flows.completed"], c["flows.rejected"] = float64(fst.Started), float64(fst.Completed), float64(fst.Rejected)
		c["flows.fast_share"] = fst.FlowTable.FastShare()
		c["flows.pool_reuse"] = ratio(float64(fst.Pool.Reuses), float64(fst.Pool.Gets))
	} else {
		// iperf's Start only arms the fixed connection set: it is part of
		// assembly here, and Finish is the iperf teardown.
		t["core.assemble_ms"] += ms(ph.start)
		t["iperf.finish_ms"] = ms(ph.finish)
	}
	t["check.ms"], c["check.passes"] = sp.check.ms(), float64(sp.check.calls)
	if paperMbps > 0 {
		c["paper_err_pct"] = 100 * math.Abs(float64(ref.Report.Goodput)/1e6/paperMbps-1)
		c["paper_points"] = 1
	}
	return out
}

// pointSpans is a repro.Observer recording each grid point's host time.
type pointSpans struct {
	mu    sync.Mutex
	start map[int]time.Time
	ms    []float64
}

func (p *pointSpans) BeginExperiment(string, int) {}

func (p *pointSpans) PointStart(_, index int, _ string) {
	p.mu.Lock()
	p.start[index] = time.Now()
	p.mu.Unlock()
}

func (p *pointSpans) PointDone(_, index int, _ uint64, _ bool) {
	p.mu.Lock()
	if t0, ok := p.start[index]; ok {
		p.ms = append(p.ms, ms(time.Since(t0)))
		delete(p.start, index)
	}
	p.mu.Unlock()
}

// gridTrace runs grid-all with a per-point span observer, timing the
// runner, the archive writes and the archive reload and self-diff.
func gridTrace(seed int64, dir string) traceOut {
	out := traceOut{counts: map[string]float64{}, times: map[string]float64{}}
	ps := &pointSpans{start: map[int]time.Time{}}
	g, err := runGrid(seed, 0, dir, ps)
	if err != nil {
		out.failures = []string{err.Error()}
		return out
	}
	digest, failures, loadNs, diffNs := g.check(dir)
	out.digest, out.failures = digest, failures
	bytes, err := dirBytes(dir)
	if err != nil {
		out.failures = append(out.failures, err.Error())
	}
	c, t := out.counts, out.times
	c["sim.events"] = float64(g.events())
	c["repro.points"] = float64(len(ps.ms))
	sort.Float64s(ps.ms)
	t["repro.point_ms_p50"] = quantile(ps.ms, 0.5)
	t["repro.point_ms_p90"] = quantile(ps.ms, 0.9)
	var busy float64
	for _, v := range ps.ms {
		busy += v
	}
	// The observer covers the standard experiments; recovery has no
	// observer hook, so its runner time is left out of the idle base too.
	t["repro.worker_idle_frac"] = 1 - busy/(float64(gridWorkers())*float64(g.observedNs)/1e6)
	t["obs.archive_ms"] = float64(g.archiveNs) / 1e6
	c["obs.archive_bytes"] = float64(bytes)
	t["obs.load_ms"] = float64(loadNs) / 1e6
	t["obs.diff_ms"] = float64(diffNs) / 1e6
	errPct, points := g.paperErr()
	c["paper_err_pct"], c["paper_points"] = errPct, float64(points)
	return out
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
