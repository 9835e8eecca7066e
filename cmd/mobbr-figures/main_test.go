package main

import (
	"strings"
	"testing"

	"mobbr/internal/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

// TestCheckParallelism runs the CLI itself: a negative -j must be rejected
// by the shared repro.CheckJobs rather than mapped to one worker per CPU.
func TestCheckParallelism(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{name: "default", args: []string{"-dur", "5ms"}},
		{name: "explicit jobs", args: []string{"-dur", "5ms", "-j", "2"}},
		{name: "negative jobs", args: []string{"-dur", "5ms", "-j", "-3"}, wantErr: "-j must be at least 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stderr, code := clitest.Run(t, tc.args...)
			if tc.wantErr == "" {
				if code != 0 {
					t.Fatalf("exit %d, stderr:\n%s", code, stderr)
				}
				return
			}
			if code == 0 || !strings.Contains(stderr, tc.wantErr) {
				t.Fatalf("want failure mentioning %q, got exit %d, stderr:\n%s", tc.wantErr, code, stderr)
			}
		})
	}
}
