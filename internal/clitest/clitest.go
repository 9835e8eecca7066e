// Package clitest runs a command's main in a child process, so a command's
// tests can check how it exits on a given argument list.
//
// A command package wires it in once:
//
//	func TestMain(m *testing.M) { clitest.Main(m, main) }
//
// after which clitest.Run(t, args...) re-executes the test binary as the
// command itself.
package clitest

import (
	"bytes"
	"errors"
	"io"
	"os"
	"os/exec"
	"testing"
)

// envVar marks the child process: set, the test binary runs the command's
// main instead of its tests.
const envVar = "MOBBR_CLITEST_MAIN"

// Main is a command package's TestMain. In a child started by Run it hands
// the process to the command's main (exit 0 when main returns); otherwise it
// runs the package's tests.
func Main(m *testing.M, main func()) {
	if os.Getenv(envVar) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// Run executes the command with args in a child process and returns its
// stderr and exit code. Stdout is discarded.
func Run(t *testing.T, args ...string) (stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), envVar+"=1")
	var errb bytes.Buffer
	cmd.Stdout = io.Discard
	cmd.Stderr = &errb
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exit):
		code = exit.ExitCode()
	default:
		t.Fatalf("run %v: %v", args, err)
	}
	return errb.String(), code
}
