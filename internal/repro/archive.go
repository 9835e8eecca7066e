// Run archiving: every experiment runner can write its finished rows as an
// obs run archive — manifest plus one strictly-versioned artifact per grid
// point — for rollup, live comparison, and mobbr-diff regression gating.
// Archives are written wholly after the run from the final rows, so a
// journal-resumed grid archives byte-identically to an uninterrupted one
// (modulo the manifest's wall-clock field and digests, which need the
// in-memory telemetry sample journal resumes no longer have).
package repro

import (
	"fmt"
	"path/filepath"
	"time"

	"mobbr/internal/core"
	"mobbr/internal/obs"
	"mobbr/internal/telemetry"
)

// ArchiveOpts configures run archiving. Dir is the archive root; each
// experiment writes into Dir/<exp-id>/.
type ArchiveOpts struct {
	// Dir is the archive root directory.
	Dir string
	// Dur and Seeds echo the run configuration into the manifest (standard
	// experiments; recovery and trace carry their own durations).
	Dur   time.Duration
	Seeds int
	// Telemetry records the flag set the run used.
	Telemetry telemetry.Config
	// Flags carries extra invocation knobs worth recording (e.g. a
	// deliberate -force-stride perturbation).
	Flags map[string]string
	// Wall is the grid's wall-clock time (manifest only, never in points).
	Wall time.Duration
}

func (o ArchiveOpts) manifest(id, title string, points int, seeds int, dur time.Duration) obs.Manifest {
	return obs.Manifest{
		Exp: id, Title: title, Points: points, Seeds: seeds, Dur: dur.String(),
		Trace: o.Telemetry.Trace, Metrics: o.Telemetry.Metrics, Profile: o.Telemetry.Profile,
		Flags: o.Flags, Git: obs.GitDescribe(), WallMs: float64(o.Wall) / 1e6,
	}
}

// archiveFailure converts a contained failure for the archive. The repro
// line is the load-bearing field: it replays the exact failing spec+seed.
func archiveFailure(f *Failure) *obs.Failure {
	if f == nil {
		return nil
	}
	return &obs.Failure{Class: f.Class, Rule: f.Rule, Msg: f.Msg, Repro: f.Repro, Attempts: f.Attempts}
}

// BuildExperimentRun assembles one standard experiment's rows into an
// in-memory obs run (the -rollup view uses it without writing anything).
// Points carry the exact defaulted spec (core.EncodeSpec), the measured
// row, the deterministic engine event total, and — when the row still holds
// an in-memory metrics sample — the per-instrument histogram digest.
func BuildExperimentRun(e Experiment, rows []Row, o ArchiveOpts) (*obs.Run, error) {
	if len(rows) != len(e.Points) {
		return nil, fmt.Errorf("repro: archive %s: %d rows for %d points", e.ID, len(rows), len(e.Points))
	}
	pts := make([]obs.PointRecord, len(rows))
	var events uint64
	for i, r := range rows {
		spec, err := core.EncodeSpec(pointSpec(e.Points[i], o.Dur, o.Telemetry))
		if err != nil {
			return nil, fmt.Errorf("repro: archive %s/%s: %w", e.ID, e.Points[i].Label, err)
		}
		rec := obs.PointRecord{
			I: i, Label: e.Points[i].Label, Spec: spec,
			Events:  r.Events,
			Failure: archiveFailure(r.Failure),
		}
		if r.Failure == nil {
			rec.Metrics = obs.Metrics{
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
				Profiled:       r.Profiled,
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
			}
		}
		if r.Sample != nil {
			if r.Sample.Report != nil && r.Sample.Report.Metrics != nil {
				rec.Digest, rec.DigestSkipped = obs.DigestSnapshot(r.Sample.Report.Metrics)
			}
			if r.Sample.Engine != nil {
				rec.MaxPending = r.Sample.Engine.MaxPending
			}
		}
		events += r.Events
		pts[i] = rec
	}
	m := o.manifest(e.ID, e.Title, len(pts), o.Seeds, o.Dur)
	m.Events = events
	return &obs.Run{Manifest: m, Points: pts}, nil
}

// ArchiveExperiment writes one standard experiment's rows under
// o.Dir/<e.ID>/.
func ArchiveExperiment(e Experiment, rows []Row, o ArchiveOpts) error {
	run, err := BuildExperimentRun(e, rows, o)
	if err != nil {
		return err
	}
	return obs.WriteRun(filepath.Join(o.Dir, e.ID), run.Manifest, run.Points)
}

// BuildRecoveryRun assembles the recovery experiment's rows into an
// in-memory obs run.
func BuildRecoveryRun(e RecoveryExperiment, rows []RecoveryRow, o ArchiveOpts) (*obs.Run, error) {
	if len(rows) != len(e.Points) {
		return nil, fmt.Errorf("repro: archive %s: %d rows for %d points", e.ID, len(rows), len(e.Points))
	}
	pts := make([]obs.PointRecord, len(rows))
	for i, r := range rows {
		spec, err := core.EncodeSpec(e.Points[i].Spec)
		if err != nil {
			return nil, fmt.Errorf("repro: archive %s/%s: %w", e.ID, e.Points[i].Label, err)
		}
		pts[i] = obs.PointRecord{
			I: i, Label: e.Points[i].Label, Spec: spec,
			Metrics: obs.Metrics{
				GoodputMbps:  r.PreFaultMbps,
				RecoveryMs:   r.RecoveryMs,
				RecoveryCI:   r.RecoveryCI,
				Recovered:    r.Recovered,
				SpuriousRTOs: r.SpuriousRTOs,
				Retransmits:  r.Retransmits,
			},
		}
	}
	m := o.manifest(e.ID, e.Title, len(pts), o.Seeds, RecoveryDuration)
	return &obs.Run{Manifest: m, Points: pts}, nil
}

// ArchiveRecovery writes the recovery experiment's rows under
// o.Dir/<e.ID>/.
func ArchiveRecovery(e RecoveryExperiment, rows []RecoveryRow, o ArchiveOpts) error {
	run, err := BuildRecoveryRun(e, rows, o)
	if err != nil {
		return err
	}
	return obs.WriteRun(filepath.Join(o.Dir, e.ID), run.Manifest, run.Points)
}

// BuildTraceRun assembles the trace experiment's rows into an in-memory
// obs run.
func BuildTraceRun(e TraceExperiment, rows []TraceRow, o ArchiveOpts) (*obs.Run, error) {
	if len(rows) != len(e.Points) {
		return nil, fmt.Errorf("repro: archive %s: %d rows for %d points", e.ID, len(rows), len(e.Points))
	}
	var dur time.Duration
	pts := make([]obs.PointRecord, len(rows))
	for i, r := range rows {
		spec, err := core.EncodeSpec(e.Points[i].Spec)
		if err != nil {
			return nil, fmt.Errorf("repro: archive %s/%s: %w", e.ID, e.Points[i].Label, err)
		}
		dur = e.Points[i].Spec.Duration
		pts[i] = obs.PointRecord{
			I: i, Label: e.Points[i].Label, Spec: spec,
			Metrics: obs.Metrics{
				GoodputMbps: r.GoodputMbps,
				GoodputCI:   r.GoodputCI,
				RTTms:       r.RTTms,
				Retransmits: r.Retransmits,
			},
		}
	}
	m := o.manifest(e.ID, e.Title, len(pts), o.Seeds, dur)
	return &obs.Run{Manifest: m, Points: pts}, nil
}

// ArchiveTrace writes the trace experiment's rows under o.Dir/<e.ID>/.
func ArchiveTrace(e TraceExperiment, rows []TraceRow, o ArchiveOpts) error {
	run, err := BuildTraceRun(e, rows, o)
	if err != nil {
		return err
	}
	return obs.WriteRun(filepath.Join(o.Dir, e.ID), run.Manifest, run.Points)
}
