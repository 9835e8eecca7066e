package main

import (
	"strings"
	"testing"

	"mobbr/internal/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

// TestCheckParallelism runs the CLI itself: -j goes through the shared
// repro.CheckJobs before any simulation starts, and -shards, removed with
// the sharded engine, fails loudly instead of being ignored.
func TestCheckParallelism(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{name: "serial default", args: []string{"-dur", "20ms"}},
		{name: "serial explicit jobs", args: []string{"-dur", "20ms", "-j", "4"}},
		{name: "negative jobs", args: []string{"-dur", "20ms", "-j", "-1"}, wantErr: "-j must be at least 0"},
		{name: "zero shards", args: []string{"-dur", "20ms", "-shards", "0"}, wantErr: "not defined: -shards"},
		{name: "negative shards", args: []string{"-dur", "20ms", "-shards", "-2"}, wantErr: "not defined: -shards"},
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
