package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/bench"
	"repro/internal/vfs"
)

// benchCmd is the `ufsim bench` subcommand: it runs the performance
// harness of internal/bench — the simulator's hot-path micro-benchmarks
// plus (in full mode) whole quick experiment trials — optionally merges a
// parsed `go test -bench` output, and writes the normalized BENCH_*.json
// report. The exit status enforces the zero-allocation contract: any
// tagged case that allocates in steady state fails the command, which is
// what CI gates on.
func benchCmd(args []string) int {
	if len(args) > 0 && args[0] == "compare" {
		benchCompareCmd(args[1:])
		return exitOK
	}
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	var (
		short = fs.Bool("short", false, "skip the multi-second trial cases (the CI gate)")
		out   = fs.String("out", "", "report path (default BENCH_<date>.json)")
		merge = fs.String("merge", "", "`go test -bench -benchmem` output file to fold into the report")
		quiet = fs.Bool("quiet", false, "suppress per-case progress lines")
		prof  = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: ufsim bench [-short] [-out FILE] [-merge go-bench.txt] [-quiet] [-cpuprofile FILE]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	stopProfile, err := startCPUProfile(*prof)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ufsim bench: %v\n", err)
		return exitFailures
	}
	defer stopProfile()

	date := time.Now().Format("2006-01-02")
	path := *out
	if path == "" {
		path = "BENCH_" + date + ".json"
	}

	var log io.Writer = os.Stderr
	if *quiet {
		log = nil
	}
	rep, runErr := bench.Run(bench.Config{Short: *short, Log: log})
	rep.Date = date

	if *merge != "" {
		f, err := os.Open(*merge)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ufsim bench: %v\n", err)
			return exitFailures
		}
		parsed, err := bench.ParseGoBench(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "ufsim bench: %v\n", err)
			return exitFailures
		}
		rep.Results = append(rep.Results, parsed...)
	}

	// Persist even a failing run: the regressed numbers are the
	// evidence the failure message points at.
	if err := vfs.WriteFileAtomic(vfs.OS{}, path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}); err != nil {
		fmt.Fprintf(os.Stderr, "ufsim bench: writing %s: %v\n", path, err)
		return exitFailures
	}
	fmt.Printf("bench: %d results -> %s\n", len(rep.Results), path)
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "ufsim bench: %v\n", runErr)
		return exitFailures
	}
	return exitOK
}

// benchCompareCmd is `ufsim bench compare BASELINE.json CURRENT.json`:
// it diffs two normalized reports, prints the delta table, optionally
// writes the delta as a JSON artifact, and exits non-zero when a gated
// case regresses past the tolerances (ns/op and bytes/op percent over
// baseline). scripts/bench_compare.sh and the CI bench job drive it.
func benchCompareCmd(args []string) {
	fs := flag.NewFlagSet("bench compare", flag.ExitOnError)
	var (
		out      = fs.String("out", "", "write the delta report as JSON to this path")
		nsTol    = fs.Float64("ns-tol", bench.DefaultNsTolerancePct, "ns/op regression tolerance (percent over baseline)")
		bytesTol = fs.Float64("bytes-tol", bench.DefaultBytesTolerancePct, "bytes/op regression tolerance (percent over baseline)")
	)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: ufsim bench compare [-out delta.json] [-ns-tol PCT] [-bytes-tol PCT] BASELINE.json CURRENT.json")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	if fs.NArg() != 2 {
		fs.Usage()
		os.Exit(2)
	}

	load := func(path string) bench.Report {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ufsim bench compare: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		var rep bench.Report
		if err := json.NewDecoder(f).Decode(&rep); err != nil {
			fmt.Fprintf(os.Stderr, "ufsim bench compare: %s: %v\n", path, err)
			os.Exit(1)
		}
		return rep
	}
	base, cur := load(fs.Arg(0)), load(fs.Arg(1))
	delta := bench.Compare(base, cur, *nsTol, *bytesTol)

	if *out != "" {
		if err := vfs.WriteFileAtomic(vfs.OS{}, *out, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(delta)
		}); err != nil {
			fmt.Fprintf(os.Stderr, "ufsim bench compare: writing %s: %v\n", *out, err)
			os.Exit(1)
		}
	}
	if err := delta.Render(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "ufsim bench compare: %v\n", err)
		os.Exit(1)
	}
	if regs := delta.Regressions(); len(regs) > 0 {
		fmt.Fprintf(os.Stderr, "ufsim bench compare: %d regression(s):\n", len(regs))
		for _, r := range regs {
			fmt.Fprintf(os.Stderr, "  %s\n", r)
		}
		os.Exit(1)
	}
}
