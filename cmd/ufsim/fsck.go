package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/sweepd"
)

// fsckCmd is `ufsim fsck <statedir>`: offline verification of a sweep
// state dir. It checks every journal record's checksum, the
// snapshot/journal/manifest generation consistency, and every per-unit
// artifact (results, crash and quarantine records) for parseability and
// ownership. Warnings (torn tails recovery would absorb, stale files,
// orphans) exit 0; corruption — anything recovery could not trust —
// exits 1.
func fsckCmd(args []string) int {
	fs := flag.NewFlagSet("fsck", flag.ExitOnError)
	quiet := fs.Bool("q", false, "print nothing; report via exit code only")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: ufsim fsck [-q] STATEDIR")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return exitUsage
	}
	dir := fs.Arg(0)

	rep, err := sweepd.Fsck(nil, dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ufsim fsck: %v\n", err)
		return exitFailures
	}
	if !*quiet {
		mode := "no journal"
		if rep.Journaled {
			mode = fmt.Sprintf("journal generation %d", rep.Generation)
		}
		fmt.Printf("ufsim fsck: %s: %s, %d unit(s), %d journal record(s)\n", dir, mode, rep.Units, rep.Records)
		for _, w := range rep.Warnings {
			fmt.Printf("  warning: %s\n", w)
		}
		for _, c := range rep.Corruptions {
			fmt.Printf("  CORRUPT: %s\n", c)
		}
	}
	if !rep.Clean() {
		if !*quiet {
			fmt.Printf("ufsim fsck: %s: %d corruption(s) found\n", dir, len(rep.Corruptions))
		}
		return exitFailures
	}
	if !*quiet {
		fmt.Printf("ufsim fsck: %s: clean (%d warning(s))\n", dir, len(rep.Warnings))
	}
	return exitOK
}
