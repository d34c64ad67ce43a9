package sweepd

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"regexp"
	"sort"
	"strings"

	"repro/internal/vfs"
)

// FsckReport is the result of verifying a sweep state dir. Corruptions
// are findings an operator must act on (damaged state that recovery
// cannot silently absorb, or artifacts that no longer parse);
// Warnings are survivable oddities (torn journal tails, stale
// generations, orphaned artifacts).
type FsckReport struct {
	Dir string `json:"dir"`
	// Journaled reports whether the dir holds a journal at all (a dir
	// without journal-manifest.json is a fresh sweep's).
	Journaled  bool   `json:"journaled"`
	Generation uint64 `json:"generation,omitempty"`
	// Units is how many units the recovered state tracks; Records how
	// many journal records decoded cleanly.
	Units   int `json:"units"`
	Records int `json:"records"`

	Warnings    []string `json:"warnings,omitempty"`
	Corruptions []string `json:"corruptions,omitempty"`
}

// Clean reports whether the dir verified with no corruption.
func (r FsckReport) Clean() bool { return len(r.Corruptions) == 0 }

func (r *FsckReport) warnf(format string, args ...any) {
	r.Warnings = append(r.Warnings, fmt.Sprintf(format, args...))
}

func (r *FsckReport) corruptf(format string, args ...any) {
	r.Corruptions = append(r.Corruptions, fmt.Sprintf(format, args...))
}

// crashArtifactRE matches per-failure crash artifacts: <id>.<n>.crash.json.
var crashArtifactRE = regexp.MustCompile(`^(.*)\.\d+\.crash\.json$`)

// Fsck verifies a sweep state dir offline: journal record checksums,
// snapshot/journal/manifest consistency, and that every per-unit artifact parses and belongs to a tracked unit.
// The error return is reserved for an unreadable dir; damage is
// reported in the FsckReport so callers can render everything found,
// not just the first problem.
func Fsck(fsys vfs.FS, dir string) (FsckReport, error) {
	if fsys == nil {
		fsys = vfs.OS{}
	}
	rep := FsckReport{Dir: dir}
	if _, err := fsys.ReadDir(dir); err != nil {
		return rep, fmt.Errorf("sweepd: fsck: %w", err)
	}

	jr := readJournal(fsys, dir)
	rep.Journaled, rep.Generation, rep.Records, rep.Units = jr.journaled, jr.gen, jr.scan.records, len(jr.entries)
	for _, err := range jr.problems {
		rep.corruptf("%v", err)
	}
	walPath := filepath.Join(dir, journalFileName(jr.gen))
	switch {
	case !jr.journaled:
		// No journal: nothing to verify but the artifacts below.
	case jr.walMissing:
		rep.warnf("journal %s missing (recovery would continue from the snapshot alone)", walPath)
	case jr.scan.corruptAt >= 0:
		rep.corruptf("journal %s: bad record checksum at offset %d with intact data after it (mid-stream corruption; recovery falls back to %s)", walPath, jr.scan.corruptAt, snapshotFileName(jr.gen))
	case jr.scan.tornAt >= 0:
		rep.warnf("journal %s: torn tail record at offset %d (%d bytes; truncated on recovery)", walPath, jr.scan.tornAt, jr.scan.size-jr.scan.tornAt)
	}
	known := map[UnitID]bool{}
	for _, e := range jr.entries {
		known[e.Unit.ID] = true
	}

	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return rep, fmt.Errorf("sweepd: fsck: %w", err)
	}
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() {
			continue
		}
		path := filepath.Join(dir, name)
		switch {
		case name == JournalManifestName || name == SalvageName:
			// Handled above (salvage just below).
		case name == FinalStatusName:
			if !jsonParses(fsys, path) {
				rep.corruptf("final status %s does not parse", path)
			}
		case strings.HasPrefix(name, "snapshot-") || strings.HasPrefix(name, "journal-"):
			if rep.Journaled && name != snapshotFileName(rep.Generation) && name != journalFileName(rep.Generation) {
				rep.warnf("stale generation file %s (active generation is %d; safe to delete)", name, rep.Generation)
			}
		case strings.HasSuffix(name, ".quarantine.json"):
			id := strings.TrimSuffix(name, ".quarantine.json")
			if !jsonParses(fsys, path) {
				rep.corruptf("quarantine artifact %s does not parse (torn write?)", path)
			} else if len(known) > 0 && !known[UnitID(id)] {
				rep.warnf("orphaned quarantine artifact %s: unit %q not in sweep state", name, id)
			}
		case crashArtifactRE.MatchString(name):
			id := crashArtifactRE.FindStringSubmatch(name)[1]
			if !jsonParses(fsys, path) {
				rep.corruptf("crash artifact %s does not parse (torn write?)", path)
			} else if len(known) > 0 && !known[UnitID(id)] {
				rep.warnf("orphaned crash artifact %s: unit %q not in sweep state", name, id)
			}
		case strings.HasSuffix(name, ".txt"):
			id := strings.TrimSuffix(name, ".txt")
			if len(known) > 0 && !known[UnitID(id)] {
				rep.warnf("orphaned result %s: unit %q not in sweep state", name, id)
			}
		case strings.Contains(name, ".tmp-"):
			rep.warnf("abandoned temp file %s (an interrupted atomic write; safe to delete)", name)
		}
	}

	if rep2, err := ReadSalvageReport(fsys, dir); err == nil {
		rep.warnf("previous recovery was lossy (%s, generation %d): %s", rep2.Kind, rep2.Generation, rep2.Detail)
	} else if !errors.Is(err, fs.ErrNotExist) {
		rep.corruptf("salvage report %s does not parse: %v", filepath.Join(dir, SalvageName), err)
	}

	sort.Strings(rep.Warnings)
	sort.Strings(rep.Corruptions)
	return rep, nil
}

// jsonParses reports whether path holds syntactically valid JSON.
func jsonParses(fsys vfs.FS, path string) bool {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return false
	}
	return json.Valid(data)
}
