package repro

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mobbr/internal/telemetry"
)

// TestCheckJobs pins the -j validation shared by mobbr, mobbr-repro and
// mobbr-figures.
func TestCheckJobs(t *testing.T) {
	cases := []struct {
		name    string
		jobs    int
		wantErr bool
	}{
		{name: "default", jobs: 0},
		{name: "explicit jobs", jobs: 4},
		{name: "negative jobs", jobs: -3, wantErr: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := CheckJobs(tc.jobs)
			if tc.wantErr {
				if err == nil || !strings.Contains(err.Error(), "-j must be at least 0") {
					t.Fatalf("want -j error, got %v", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
		})
	}
}

func TestForEachRunsEveryIndex(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		var hits [50]atomic.Int32
		if err := ForEach(len(hits), workers, func(i int) error {
			hits[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range hits {
			if n := hits[i].Load(); n != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, n)
			}
		}
	}
}

func TestForEachSmallestIndexError(t *testing.T) {
	for _, workers := range []int{1, 8} {
		err := ForEach(20, workers, func(i int) error {
			if i == 3 || i == 17 {
				return fmt.Errorf("point %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "point 3 failed" {
			t.Fatalf("workers=%d: err = %v, want the smallest-index failure", workers, err)
		}
	}
}

func TestForEachCapturesPanic(t *testing.T) {
	for _, workers := range []int{1, 8} {
		err := ForEach(10, workers, func(i int) error {
			if i == 4 {
				panic("boom")
			}
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "point 4 panicked: boom") {
			t.Fatalf("workers=%d: panic not captured: %v", workers, err)
		}
	}
}

func TestForEachZeroAndNegative(t *testing.T) {
	if err := ForEach(0, 4, func(int) error { return errors.New("never") }); err != nil {
		t.Fatalf("n=0: %v", err)
	}
	ran := 0
	if err := ForEach(3, -1, func(int) error { ran++; return nil }); err != nil {
		t.Fatal(err)
	}
	if ran != 3 {
		t.Fatalf("workers=-1 ran %d of 3", ran)
	}
}

// stripNondeterministic clears the per-row fields that legitimately differ
// across processes or scheduling: Sample carries wall-clock engine
// self-metrics. The virtual-time Report inside it is checked separately.
func stripSample(rows []Row) []Row {
	out := make([]Row, len(rows))
	copy(out, rows)
	for i := range out {
		out[i].Sample = nil
	}
	return out
}

// TestParallelMatchesSerial is the tentpole's determinism gate: every
// experiment's report must be deep-equal at -j 1 and -j 8. Simulations are
// per-run deterministic, so fanning points across goroutines must not
// change a single measured value.
func TestParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment grid twice")
	}
	dur := 300 * time.Millisecond
	const seeds = 1
	for _, e := range All() {
		serial, err := RunExperimentPool(e, dur, seeds, telemetry.Config{}, 1)
		if err != nil {
			t.Fatalf("%s serial: %v", e.ID, err)
		}
		par, err := RunExperimentPool(e, dur, seeds, telemetry.Config{}, 8)
		if err != nil {
			t.Fatalf("%s parallel: %v", e.ID, err)
		}
		if !reflect.DeepEqual(stripSample(serial), stripSample(par)) {
			t.Errorf("%s: rows differ between -j 1 and -j 8", e.ID)
		}
		for i := range serial {
			if !reflect.DeepEqual(serial[i].Sample.Report, par[i].Sample.Report) {
				t.Errorf("%s point %d: sample report differs between -j 1 and -j 8", e.ID, i)
			}
		}
	}
}

// TestParallelRecoveryMatchesSerial covers the recovery runner's pool path
// (interval-series metric, checker armed) the same way.
func TestParallelRecoveryMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the recovery grid twice")
	}
	e := Recovery()
	e.Points = e.Points[:3] // one CPU config's worth is plenty
	serial, err := RunRecoveryPool(e, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunRecoveryPool(e, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Error("recovery rows differ between -j 1 and -j 8")
	}
}

// TestForEachPanicOnLastIndex: a panic in the final index must not deadlock
// the pool or skip earlier indices (regression guard for off-by-one in the
// work handout).
func TestForEachPanicOnLastIndex(t *testing.T) {
	for _, workers := range []int{1, 8} {
		var hits [7]atomic.Int32
		err := ForEach(len(hits), workers, func(i int) error {
			hits[i].Add(1)
			if i == len(hits)-1 {
				panic("last index")
			}
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "point 6 panicked: last index") {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		for i := range hits {
			if n := hits[i].Load(); n != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, n)
			}
		}
	}
}

// TestForEachWorkersExceedN: more workers than work items must still run
// every index exactly once and terminate.
func TestForEachWorkersExceedN(t *testing.T) {
	var hits [5]atomic.Int32
	if err := ForEach(len(hits), 32, func(i int) error {
		hits[i].Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range hits {
		if n := hits[i].Load(); n != 1 {
			t.Fatalf("index %d ran %d times", i, n)
		}
	}
}
