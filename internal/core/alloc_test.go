package core

import (
	"runtime"
	"testing"
	"time"

	"mobbr/internal/device"
)

// runMallocs returns how many heap allocations one Run of spec makes.
func runMallocs(t *testing.T, spec Spec) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Run(spec); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestSteadyStateAllocsFlat pins the allocation-free ACK path: on the
// paper's collapse point (Low-End, bbr, 20 connections, Ethernet) a run
// four times longer must allocate about the same as a short one. Set-up
// and ramp-up allocate; the steady state of ACKs, pacing timers, RTO
// re-arms and app copies must not. An escape on the per-ACK path adds
// tens of thousands of allocations per extra simulated second.
func TestSteadyStateAllocsFlat(t *testing.T) {
	spec := Spec{CPU: device.LowEnd, CC: "bbr", Conns: 20, Network: Ethernet, Seed: 1}
	spec.Duration = 2 * time.Second
	runMallocs(t, spec) // warm package-level state before measuring
	short := runMallocs(t, spec)
	spec.Duration = 8 * time.Second
	long := runMallocs(t, spec)
	t.Logf("mallocs: %d at 2 s, %d at 8 s", short, long)
	if long > short+500 {
		t.Fatalf("8 s run made %d allocations vs %d for 2 s: the steady state allocates (%d extra)",
			long, short, long-short)
	}
}
