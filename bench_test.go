// Benchmarks regenerating every table and figure of "Are Mobiles Ready for
// BBR?" (IMC '22). Each benchmark runs the corresponding experiment on the
// simulated testbed and reports goodput (and where relevant RTT or
// retransmissions) as custom metrics, so `go test -bench=. -benchmem`
// reproduces the paper's evaluation end to end. Durations are kept short;
// use cmd/mobbr-repro for longer, averaged runs.
package mobbr_test

import (
	"fmt"
	"testing"
	"time"

	"mobbr/internal/core"
	"mobbr/internal/device"
	"mobbr/internal/flows"
	"mobbr/internal/netem"
	"mobbr/internal/repro"
	"mobbr/internal/telemetry"
	"mobbr/internal/units"
)

const benchDur = 2 * time.Second

// runSpec executes spec once per benchmark iteration and reports goodput.
func runSpec(b *testing.B, spec core.Spec) *core.Result {
	b.Helper()
	spec.Duration = benchDur
	spec.Warmup = benchDur / 5
	var res *core.Result
	var err error
	for i := 0; i < b.N; i++ {
		spec.Seed = int64(i + 1)
		res, err = core.Run(spec)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Report.Goodput)/1e6, "goodput-Mbps")
	b.ReportMetric(float64(res.Report.AvgRTT)/1e6, "rtt-ms")
	return res
}

// benchExperiment runs every point of a repro experiment as a sub-benchmark.
func benchExperiment(b *testing.B, e repro.Experiment) {
	for _, p := range e.Points {
		p := p
		b.Run(p.Label, func(b *testing.B) {
			res := runSpec(b, p.Spec)
			if p.PaperMbps > 0 {
				b.ReportMetric(p.PaperMbps, "paper-Mbps")
			}
			_ = res
		})
	}
}

// BenchmarkFigure2 regenerates Figure 2: BBR vs Cubic goodput across the
// four Table 1 CPU configurations and 1–20 connections on the Pixel 4.
func BenchmarkFigure2(b *testing.B) { benchExperiment(b, repro.Figure2()) }

// BenchmarkFigure3 regenerates Figure 3: the Pixel 6 Low-End sweep.
func BenchmarkFigure3(b *testing.B) { benchExperiment(b, repro.Figure3()) }

// BenchmarkBBR2WiFi regenerates §4.2: BBRv2 vs BBR vs Cubic over WiFi.
func BenchmarkBBR2WiFi(b *testing.B) { benchExperiment(b, repro.BBR2WiFi()) }

// BenchmarkModelOff regenerates §5.1.1: BBR with the model disabled and a
// fixed Cubic-like cwnd.
func BenchmarkModelOff(b *testing.B) { benchExperiment(b, repro.ModelOff()) }

// BenchmarkFixedPacingRate regenerates §5.1.2: the fixed pacing-rate sweep.
func BenchmarkFixedPacingRate(b *testing.B) { benchExperiment(b, repro.FixedPacingRate()) }

// BenchmarkFigure4 regenerates Figure 4: pacing on/off goodput at 20 conns.
func BenchmarkFigure4(b *testing.B) { benchExperiment(b, repro.Figure4()) }

// BenchmarkFigure5 regenerates Figure 5: pacing on/off across conn counts.
func BenchmarkFigure5(b *testing.B) { benchExperiment(b, repro.Figure5()) }

// BenchmarkFigure6 regenerates Figure 6: Cubic with pacing enabled.
func BenchmarkFigure6(b *testing.B) { benchExperiment(b, repro.Figure6()) }

// BenchmarkFigure7 regenerates Figure 7: RTT with and without pacing.
func BenchmarkFigure7(b *testing.B) {
	for _, p := range repro.Figure7().Points {
		p := p
		b.Run(p.Label, func(b *testing.B) {
			res := runSpec(b, p.Spec)
			b.ReportMetric(float64(res.Report.MinRTT)/1e6, "minrtt-ms")
		})
	}
}

// BenchmarkShallowBuffer regenerates §5.2.3: retransmissions against a
// 10-packet buffer with pacing on vs off.
func BenchmarkShallowBuffer(b *testing.B) {
	for _, p := range repro.ShallowBuffer().Points {
		p := p
		b.Run(p.Label, func(b *testing.B) {
			res := runSpec(b, p.Spec)
			b.ReportMetric(float64(res.Report.Retransmits), "retransmits")
		})
	}
}

// BenchmarkFigure8 regenerates Figure 8: the pacing-stride sweep.
func BenchmarkFigure8(b *testing.B) { benchExperiment(b, repro.Figure8()) }

// BenchmarkTable2 regenerates Table 2: per-stride skb length, idle time,
// expected vs actual throughput and RTT under the Default configuration.
func BenchmarkTable2(b *testing.B) {
	for _, p := range repro.Table2().Points {
		p := p
		b.Run(p.Label, func(b *testing.B) {
			res := runSpec(b, p.Spec)
			r := res.Report
			b.ReportMetric(units.DataSize(r.AvgSKB).Kilobits(), "skb-Kb")
			b.ReportMetric(float64(r.AvgIdle)/1e6, "idle-ms")
			b.ReportMetric(float64(r.ExpectedTx)/1e6, "expected-Mbps")
			if p.PaperMbps > 0 {
				b.ReportMetric(p.PaperMbps, "paper-Mbps")
			}
		})
	}
}

// BenchmarkFigure9 regenerates Figure 9 (Appendix A.1): LTE parity.
func BenchmarkFigure9(b *testing.B) { benchExperiment(b, repro.Figure9()) }

// BenchmarkMemory regenerates §7.1.1: peak socket-buffer occupancy across
// strides (the paper finds RAM unaffected).
func BenchmarkMemory(b *testing.B) {
	for _, p := range repro.Memory().Points {
		p := p
		b.Run(p.Label, func(b *testing.B) {
			res := runSpec(b, p.Spec)
			b.ReportMetric(float64(res.Report.MaxBufferOcc)/1024, "sndbuf-KB")
		})
	}
}

// BenchmarkAblationTimerCost is an ablation for the design choice DESIGN.md
// calls out: how strongly the pacing-timer CPU cost drives the 20-connection
// collapse. It compares stock BBR against BBR with pacing disabled (no
// timer events at all) on each configuration.
func BenchmarkAblationTimerCost(b *testing.B) {
	off := false
	for _, cfg := range []device.Config{device.LowEnd, device.MidEnd, device.HighEnd} {
		for _, pacing := range []bool{true, false} {
			spec := core.Spec{CPU: cfg, CC: "bbr", Conns: 20, Network: core.Ethernet}
			name := fmt.Sprintf("%s/pacing=%v", cfg, pacing)
			if !pacing {
				spec.PacingOverride = &off
			}
			b.Run(name, func(b *testing.B) { runSpec(b, spec) })
		}
	}
}

// BenchmarkAblationStrideVsDisable contrasts the paper's two remedies at
// Low-End/20conns: stride pacing (keeps pacing's low RTT) versus disabling
// pacing outright (highest goodput, congested network).
func BenchmarkAblationStrideVsDisable(b *testing.B) {
	off := false
	specs := map[string]core.Spec{
		"stock":      {CPU: device.LowEnd, CC: "bbr", Conns: 20},
		"stride-10x": {CPU: device.LowEnd, CC: "bbr", Conns: 20, Stride: 10},
		"pacing-off": {CPU: device.LowEnd, CC: "bbr", Conns: 20, PacingOverride: &off},
	}
	for name, spec := range specs {
		spec.Network = core.Ethernet
		b.Run(name, func(b *testing.B) { runSpec(b, spec) })
	}
}

// BenchmarkEngineThroughput measures the simulator itself: events processed
// per second of wall time for a heavy 20-connection run (a regression guard
// for the discrete-event core).
func BenchmarkEngineThroughput(b *testing.B) {
	spec := core.Spec{CPU: device.HighEnd, CC: "cubic", Conns: 20,
		Network: core.Ethernet, Duration: time.Second}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		spec.Seed = int64(i + 1)
		if _, err := core.Run(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDataPath measures the pooled segment data path: a BBR run sized
// so packet/ACK churn (mkPacket, GRO receive, ACK return, scoreboard walks)
// dominates over setup. With the per-run recycler this path allocates no
// per-segment objects, so allocs/op is a direct regression guard for the
// zero-alloc contract.
func BenchmarkDataPath(b *testing.B) {
	spec := core.Spec{CPU: device.Default, CC: "bbr", Conns: 8,
		Network: core.Ethernet, Duration: time.Second}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		spec.Seed = int64(i + 1)
		if _, err := core.Run(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineOverhead measures what the telemetry layer costs: the same
// heavy 20-connection run with telemetry disabled (the default nil-check-only
// hot path) versus fully enabled (trace + metrics + profile). The disabled
// variant is the PR 2 overhead contract: allocs/op must match the
// pre-telemetry engine and wall time must stay within noise of it.
func BenchmarkEngineOverhead(b *testing.B) {
	base := core.Spec{CPU: device.HighEnd, CC: "cubic", Conns: 20,
		Network: core.Ethernet, Duration: time.Second}
	for _, bc := range []struct {
		name string
		tel  telemetry.Config
	}{
		{"disabled", telemetry.Config{}},
		{"enabled", telemetry.Config{Trace: true, Metrics: true, Profile: true}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			spec := base
			spec.Telemetry = bc.tel
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				spec.Seed = int64(i + 1)
				if _, err := core.Run(spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkManyFlows measures the million-flow data path: heavy-tailed
// churn through the pooled conn lifecycle at 10k concurrent flows, with the
// O(1) aggregate counters carrying all periodic accounting. It is the
// regression guard for the churn machinery itself (pool recycling, demux
// add/remove, flow-table lookups); the per-sample O(1) contract has its own
// micro-benchmark in internal/flows (BenchmarkSamplePath).
func BenchmarkManyFlows(b *testing.B) {
	spec := core.Spec{CPU: device.LowEnd, CC: "bbr", Network: core.Ethernet,
		// 2 s: the synchronized 10k-flow burst costs ~1 s of modeled CPU
		// before the first completions, so a shorter run never recycles.
		Duration: 2 * time.Second,
		Flows: &flows.Config{
			ArrivalRate:  2000,
			MaxLive:      10_000,
			InitialFlows: 10_000,
			MiceBytes:    4 * units.KB,
		}}
	b.ReportAllocs()
	var res *core.Result
	for i := 0; i < b.N; i++ {
		spec.Seed = int64(i + 1)
		var err error
		res, err = core.Run(spec)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Flows.Started), "flows-started")
	b.ReportMetric(float64(res.Flows.Completed), "flows-completed")
	b.ReportMetric(float64(res.Flows.Pool.Reuses)/float64(res.Flows.Pool.Gets), "pool-reuse")
}

// BenchmarkWiFiPath exercises the WiFi medium model under load.
func BenchmarkWiFiPath(b *testing.B) {
	runSpec(b, core.Spec{CPU: device.Default, CC: "bbr", Conns: 10, Network: core.WiFi})
}

// BenchmarkShallowBufferLoss sanity-checks loss accounting under tc-induced
// random loss.
func BenchmarkShallowBufferLoss(b *testing.B) {
	res := runSpec(b, core.Spec{
		CPU: device.HighEnd, CC: "cubic", Conns: 4, Network: core.Ethernet,
		TC: netem.TC{Loss: 0.001},
	})
	b.ReportMetric(float64(res.Report.Retransmits), "retransmits")
}

// BenchmarkFairnessVsStride probes §7.1.3: Jain's index across strides.
func BenchmarkFairnessVsStride(b *testing.B) {
	for _, p := range repro.FairnessVsStride().Points {
		p := p
		b.Run(p.Label, func(b *testing.B) {
			res := runSpec(b, p.Spec)
			b.ReportMetric(res.Report.Fairness.Jain, "jain")
		})
	}
}

// BenchmarkHardwarePacing probes §7.1.4: NIC pacing offload vs stride.
func BenchmarkHardwarePacing(b *testing.B) { benchExperiment(b, repro.HardwarePacing()) }

// BenchmarkFiveG probes the paper's 5G prediction: the pacing gap
// reappears once the uplink outruns the CPU.
func BenchmarkFiveG(b *testing.B) { benchExperiment(b, repro.FiveG()) }

// BenchmarkRecovery runs the fault-recovery experiment: goodput recovery
// after a 2 s blackout and an LTE→WiFi handover, with the invariant checker
// armed. The recovery spec carries its own duration (the fault timeline is
// fixed), so it does not go through runSpec's duration override.
func BenchmarkRecovery(b *testing.B) {
	for _, p := range repro.Recovery().Points {
		p := p
		b.Run(p.Label, func(b *testing.B) {
			var res *core.Result
			spec := p.Spec
			for i := 0; i < b.N; i++ {
				spec.Seed = int64(i + 1)
				var err error
				res, err = core.Run(spec)
				if err != nil {
					b.Fatal(err)
				}
			}
			_, rec, ok := p.RecoveryTime(res.Report.Intervals)
			if !ok {
				b.Fatalf("%s: never regained 90%% of pre-fault goodput", p.Label)
			}
			b.ReportMetric(float64(rec)/1e6, "recovery-ms")
			b.ReportMetric(float64(res.Report.Goodput)/1e6, "goodput-Mbps")
		})
	}
}

// BenchmarkECN contrasts ECN marking with drop-only AQM (extension): same
// goodput, far fewer retransmissions.
func BenchmarkECN(b *testing.B) {
	for _, p := range repro.ECN().Points {
		p := p
		b.Run(p.Label, func(b *testing.B) {
			res := runSpec(b, p.Spec)
			b.ReportMetric(float64(res.Report.Retransmits), "retransmits")
		})
	}
}
