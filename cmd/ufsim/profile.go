package main

import (
	"fmt"
	"os"
	"runtime/pprof"
)

// startCPUProfile starts a CPU profile written to path, for `go tool
// pprof`, and returns the function that stops it and closes the file. An
// empty path profiles nothing.
func startCPUProfile(path string) (stop func(), err error) {
	if path == "" {
		return func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "ufsim: cpu profile: %v\n", err)
		}
	}, nil
}
