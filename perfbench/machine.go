package main

import (
	"bufio"
	"os"
	"runtime"
	"strings"
)

// machine describes the host a result was measured on: every speed figure
// is only comparable with figures from the same machine.
func machine() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"cpu_model":  cpuModel(),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo ("unknown" when
// the file is missing or has none).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
