// Package cli holds the plumbing the simulator's commands share: the
// -cpuprofile lifecycle, the -oracle-report and -json writers, and
// up-front validation of the -bpred predictor spec.
package cli

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime/pprof"

	"repro/internal/bpred"
	"repro/internal/oracle"
)

// stopProfile flushes and closes the -cpuprofile output; it is a no-op
// until StartCPUProfile succeeds.
var stopProfile = func() {}

// StartCPUProfile starts a CPU profile written to path; "" means no
// profile. On failure it prints "prog: err" and exits 1. Callers defer
// StopCPUProfile and leave early only through Exit, so the profile is
// flushed on every path.
func StartCPUProfile(prog, path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err == nil {
		if err = pprof.StartCPUProfile(f); err != nil {
			f.Close()
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", prog, err)
		Exit(1)
	}
	stopProfile = func() {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
		}
	}
}

// StopCPUProfile flushes and closes a running CPU profile.
func StopCPUProfile() {
	stopProfile()
	stopProfile = func() {}
}

// Exit flushes a running CPU profile, then exits with code.
func Exit(code int) {
	StopCPUProfile()
	os.Exit(code)
}

// WriteOracleReport writes err's divergence list as JSON to path, for CI
// artifacts. It does nothing when path is empty or err is not an oracle
// divergence.
func WriteOracleReport(prog, path string, err error) {
	var de *oracle.DivergenceError
	if path == "" || !errors.As(err, &de) {
		return
	}
	if werr := os.WriteFile(path, de.WriteReport(), 0o644); werr != nil {
		fmt.Fprintf(os.Stderr, "%s: oracle report: %v\n", prog, werr)
	} else {
		fmt.Fprintf(os.Stderr, "%s: oracle report written to %s\n", prog, path)
	}
}

// PrintJSON writes v to standard output as indented JSON (-json). On
// failure it prints the error and exits 1.
func PrintJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fmt.Fprintln(os.Stderr, err)
		Exit(1)
	}
}

// CheckPredictors resolves the direction predictor spec up front, so a
// typo fails with the registry's name listing instead of deep inside a
// run. On failure it prints the registry's error and exits 1.
func CheckPredictors(dirSpec string) {
	if _, err := bpred.NewDir(dirSpec); err != nil {
		fmt.Fprintln(os.Stderr, err)
		Exit(1)
	}
}
