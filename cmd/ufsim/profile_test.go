package main

import (
	"compress/gzip"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// -cpuprofile writes a gzip-compressed pprof profile of the run.
func TestCPUProfileFlag(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	// run parses os.Args on flag.CommandLine; give it a fresh set and put
	// the test binary's own flags, args and stdout back afterwards.
	args, stdout, flags := os.Args, os.Stdout, flag.CommandLine
	defer func() { os.Args, os.Stdout, flag.CommandLine = args, stdout, flags }()
	devnull, err := os.Open(os.DevNull)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	os.Stdout = devnull
	flag.CommandLine = flag.NewFlagSet("ufsim", flag.ExitOnError)
	os.Args = []string{"ufsim", "-list", "-cpuprofile", path}
	if code := run(); code != exitOK {
		t.Fatalf("ufsim -list -cpuprofile exited %d", code)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("profile is not gzip: %v", err)
	}
	body, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("reading profile: %v", err)
	}
	if len(body) == 0 {
		t.Fatal("profile is empty")
	}
}

// A removed or misspelled subcommand is a usage error, not a run that
// prints the catalog and exits 0.
func TestUnknownSubcommandIsUsageError(t *testing.T) {
	args, flags := os.Args, flag.CommandLine
	defer func() { os.Args, flag.CommandLine = args, flags }()
	flag.CommandLine = flag.NewFlagSet("ufsim", flag.ExitOnError)
	os.Args = []string{"ufsim", "bench", "-short"}
	if code := run(); code != exitUsage {
		t.Fatalf("ufsim bench -short exited %d, want %d", code, exitUsage)
	}
}
