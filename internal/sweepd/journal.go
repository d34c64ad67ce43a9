package sweepd

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"path/filepath"

	"repro/internal/vfs"
)

// The durable sweep journal: O(1) durability per transition, with
// failure first-class:
//
//   - journal-manifest.json names the active generation G.
//   - snapshot-<G>.json is the full unit table as of the last
//     compaction (a stateFile document, written atomically).
//   - journal-<G>.wal is an append-only log of per-unit transitions,
//     each a CRC-32C-framed, length-prefixed JSON stateEntry, fsynced
//     as it is appended.
//
// A transition appends one record (one small write + one fsync); every
// SnapshotEvery records the store compacts: write snapshot-<G+1>,
// create an empty journal-<G+1>, then atomically swing the manifest —
// the manifest write is the commit point, so a crash anywhere in
// compaction leaves either the old generation fully intact or the new
// one fully live. Recovery replays snapshot + journal, truncates a torn
// tail record (a crash mid-append — routine, never fatal), and treats a
// bad CRC *followed by more data* as mid-stream corruption: the journal
// is no longer trustworthy past the snapshot, so recovery falls back to
// the snapshot alone and says so in salvage-report.json rather than
// silently replaying doubtful state. Recovery itself always compacts
// into a fresh generation, which is also how the torn tail is
// physically discarded (no truncate needed on the FS seam).
const (
	// JournalManifestName points at the active journal generation.
	JournalManifestName = "journal-manifest.json"
	// SalvageName is the recovery report left behind whenever resume
	// had to drop bytes (torn tail) or whole journals (corruption).
	SalvageName = "salvage-report.json"
)

// snapshotFileName and journalFileName name one generation's files.
func snapshotFileName(gen uint64) string { return fmt.Sprintf("snapshot-%d.json", gen) }
func journalFileName(gen uint64) string  { return fmt.Sprintf("journal-%d.wal", gen) }

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frameOverhead is the per-record header: 4-byte little-endian payload
// length, 4-byte CRC-32C of the payload.
const frameOverhead = 8

// maxRecordLen rejects absurd length prefixes (a bit-flipped length
// field) before they cause a gigabyte allocation.
const maxRecordLen = 1 << 24

// encodeFrame wraps one payload in the journal framing.
func encodeFrame(payload []byte) []byte {
	frame := make([]byte, frameOverhead+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
	copy(frame[frameOverhead:], payload)
	return frame
}

// journalManifest is the on-disk generation pointer.
type journalManifest struct {
	Generation uint64 `json:"generation"`
}

// SalvageReport records what journal recovery had to throw away. It is
// written to SalvageName inside the state dir so operators (and CI
// artifact uploads) can see that a resume was lossy and exactly how.
type SalvageReport struct {
	// Kind is "torn-tail" (a crash mid-append; the partial record was
	// truncated, nothing committed was lost) or
	// "mid-stream-corruption" (a bad checksum with more data after it;
	// the journal was abandoned and state fell back to the snapshot).
	Kind string `json:"kind"`
	// Generation is the journal generation that was salvaged.
	Generation uint64 `json:"generation"`
	// RecordsReplayed counts records applied on top of the snapshot
	// (zero under mid-stream corruption: the journal was not trusted).
	RecordsReplayed int `json:"records_replayed"`
	// RecordsScanned counts records that decoded cleanly before the
	// damage, whether or not they were applied.
	RecordsScanned int `json:"records_scanned"`
	// DamageOffset is the byte offset where decoding stopped.
	DamageOffset int64 `json:"damage_offset"`
	// DroppedBytes is how many journal bytes were discarded.
	DroppedBytes int64  `json:"dropped_bytes"`
	Detail       string `json:"detail,omitempty"`
}

// journalScan is one pass over a journal's raw bytes.
type journalScan struct {
	entries []stateEntry
	records int
	// tornAt/corruptAt are -1 when absent; at most one is set.
	tornAt    int64
	corruptAt int64
	size      int64
}

// scanJournal decodes framed records until clean EOF, a torn tail, or
// mid-stream corruption. A record that fails to decode and reaches EOF
// is torn (a crash mid-append); one with intact bytes after it is
// corruption — the distinction decides whether replay is trustworthy.
func scanJournal(data []byte) journalScan {
	s := journalScan{tornAt: -1, corruptAt: -1, size: int64(len(data))}
	off := 0
	for off < len(data) {
		rest := len(data) - off
		if rest < frameOverhead {
			s.tornAt = int64(off)
			return s
		}
		n := int(binary.LittleEndian.Uint32(data[off : off+4]))
		wantCRC := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if n > maxRecordLen || frameOverhead+n > rest {
			// The frame claims bytes the file does not have. Either a
			// crash truncated it, or a flipped length bit sent us past
			// EOF — in both cases nothing after this offset can be
			// re-synchronized, and nothing intact provably follows.
			s.tornAt = int64(off)
			return s
		}
		payload := data[off+frameOverhead : off+frameOverhead+n]
		last := off+frameOverhead+n == len(data)
		var e stateEntry
		if crc32.Checksum(payload, castagnoli) != wantCRC || json.Unmarshal(payload, &e) != nil {
			if last {
				s.tornAt = int64(off)
			} else {
				s.corruptAt = int64(off)
			}
			return s
		}
		s.entries = append(s.entries, e)
		s.records++
		off += frameOverhead + n
	}
	return s
}

// errWalDirty marks a journal whose active file may hold a torn frame
// from a failed append; the only safe next write is a compaction into a
// fresh generation.
var errWalDirty = errors.New("sweepd: journal file dirty after failed append; compaction required")

// journalStore owns one state dir's journal generation.
type journalStore struct {
	fsys vfs.FS
	dir  string
	log  io.Writer

	gen      uint64
	wal      vfs.File
	appended int  // records since the last compaction
	dirty    bool // a failed append may have left a torn frame
}

// loadJournal opens dir's journal and returns the store plus the
// recovered entries. With resume unset any previous state is ignored;
// with it set, recovery replays manifest → snapshot → journal, and a
// dir without a journal manifest is a fresh sweep. The store comes back
// dirty, owning no durable generation yet: the caller makes its first
// one durable through the same retried persist path as every
// transition. A lossy recovery writes salvage-report.json and returns
// the report; a corrupt snapshot or manifest is an explicit error
// (resume must never silently invent a fresh sweep over damaged state).
func loadJournal(fsys vfs.FS, dir string, resume bool, log io.Writer) (*journalStore, []stateEntry, *SalvageReport, error) {
	if log == nil {
		log = io.Discard
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, nil, fmt.Errorf("sweepd: state dir: %w", err)
	}
	// A fresh sweep ignores the state on disk, a different run's, but
	// starts its generations above it so stale files never collide with
	// live ones. The store starts dirty: the caller's first persist rolls
	// a fresh generation, and recovery-by-compaction is what physically
	// discards torn or abandoned journal bytes.
	jr := readJournal(fsys, dir)
	js := &journalStore{fsys: fsys, dir: dir, log: log, gen: jr.gen, dirty: true}
	if !resume {
		return js, nil, nil, nil
	}
	if len(jr.problems) > 0 {
		return nil, nil, nil, fmt.Errorf("sweepd: %w", jr.problems[0])
	}
	var salvage *SalvageReport
	walPath, scan := filepath.Join(dir, journalFileName(js.gen)), jr.scan
	switch {
	case scan.corruptAt >= 0:
		// The journal lies beyond this point; only the snapshot is
		// trustworthy. Records before the damage decoded cleanly but
		// applying a prefix of a log whose integrity is broken would
		// present a state no coordinator ever had as recent — fall back
		// to the snapshot and say so.
		salvage = &SalvageReport{
			Kind:           "mid-stream-corruption",
			Generation:     js.gen,
			RecordsScanned: scan.records,
			DamageOffset:   scan.corruptAt,
			// The whole journal is dropped, not just the damaged
			// suffix — the clean-looking prefix is untrusted too.
			DroppedBytes: scan.size,
			Detail:       fmt.Sprintf("%s: bad record checksum at offset %d with %d bytes after it; journal abandoned, state restored from %s", walPath, scan.corruptAt, scan.size-scan.corruptAt, snapshotFileName(js.gen)),
		}
	case scan.tornAt >= 0:
		salvage = &SalvageReport{
			Kind:            "torn-tail",
			Generation:      js.gen,
			RecordsReplayed: scan.records,
			RecordsScanned:  scan.records,
			DamageOffset:    scan.tornAt,
			DroppedBytes:    scan.size - scan.tornAt,
			Detail:          fmt.Sprintf("%s: partial record at offset %d truncated (%d bytes); all committed records replayed", walPath, scan.tornAt, scan.size-scan.tornAt),
		}
	}
	if salvage != nil {
		fmt.Fprintf(log, "sweepd: journal recovery was lossy (%s): %s\n", salvage.Kind, salvage.Detail)
		if err := writeSalvage(fsys, dir, *salvage); err != nil {
			fmt.Fprintf(log, "sweepd: warning: salvage report not written: %v\n", err)
		}
	}
	return js, jr.entries, salvage, nil
}

// journalRead is one pass over a state dir's journal: what resume
// replays and what fsck verifies.
type journalRead struct {
	// journaled reports a readable journal manifest; gen is the
	// generation it names.
	journaled bool
	gen       uint64
	// entries is the snapshot with the journal's records folded in,
	// unless the journal is corrupt mid-stream (then the snapshot alone).
	entries []stateEntry
	// scan classifies the journal's bytes; walMissing marks a
	// generation whose journal file does not exist.
	scan       journalScan
	walMissing bool
	// problems is the damage that makes the state unresumable, in the
	// order found: an unreadable or corrupt manifest, snapshot or
	// journal file.
	problems []error
}

// readJournal reads dir's manifest → snapshot → journal and classifies
// the journal's tail. A dir without a journal manifest reads as
// unjournaled with no problems. Reading goes on past a damaged snapshot,
// so fsck can report the journal too.
func readJournal(fsys vfs.FS, dir string) journalRead {
	jr := journalRead{scan: journalScan{tornAt: -1, corruptAt: -1}}
	manifestPath := filepath.Join(dir, JournalManifestName)
	manData, err := fsys.ReadFile(manifestPath)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		return jr
	case err != nil:
		jr.problems = append(jr.problems, fmt.Errorf("reading %s: %w", manifestPath, err))
		return jr
	}
	jr.journaled = true
	var man journalManifest
	if err := json.Unmarshal(manData, &man); err != nil {
		jr.problems = append(jr.problems, fmt.Errorf("journal manifest %s is corrupt: %w", manifestPath, err))
		return jr
	}
	jr.gen = man.Generation

	snapPath := filepath.Join(dir, snapshotFileName(jr.gen))
	if snapData, err := fsys.ReadFile(snapPath); err != nil {
		jr.problems = append(jr.problems, fmt.Errorf("reading snapshot %s: %w", snapPath, err))
	} else {
		var doc stateFile
		if err := json.Unmarshal(snapData, &doc); err != nil {
			jr.problems = append(jr.problems, fmt.Errorf("snapshot %s is corrupt: %w", snapPath, err))
		} else {
			jr.entries = doc.Units
		}
	}

	walPath := filepath.Join(dir, journalFileName(jr.gen))
	walData, err := fsys.ReadFile(walPath)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		jr.walMissing = true
	case err != nil:
		jr.problems = append(jr.problems, fmt.Errorf("reading journal %s: %w", walPath, err))
	default:
		jr.scan = scanJournal(walData)
		if jr.scan.corruptAt < 0 {
			jr.entries = applyJournal(jr.entries, jr.scan.entries)
		}
	}
	return jr
}

// applyJournal folds journal records over the snapshot: last write per
// unit wins, unknown units append (they are filtered against the live
// grid at restore time).
func applyJournal(base []stateEntry, records []stateEntry) []stateEntry {
	index := make(map[UnitID]int, len(base))
	for i, e := range base {
		index[e.Unit.ID] = i
	}
	for _, e := range records {
		if i, ok := index[e.Unit.ID]; ok {
			base[i] = e
		} else {
			index[e.Unit.ID] = len(base)
			base = append(base, e)
		}
	}
	return base
}

// writeSalvage persists the salvage report atomically.
func writeSalvage(fsys vfs.FS, dir string, rep SalvageReport) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return vfs.WriteFileAtomic(fsys, filepath.Join(dir, SalvageName), func(w io.Writer) error {
		_, err := w.Write(append(data, '\n'))
		return err
	})
}

// ReadSalvageReport loads a state dir's salvage report, if any resume
// there was lossy. For tooling and tests.
func ReadSalvageReport(fsys vfs.FS, dir string) (SalvageReport, error) {
	var rep SalvageReport
	if fsys == nil {
		fsys = vfs.OS{}
	}
	data, err := fsys.ReadFile(filepath.Join(dir, SalvageName))
	if err != nil {
		return rep, err
	}
	err = json.Unmarshal(data, &rep)
	return rep, err
}

// appendAll group-commits a batch of transitions: every record's frame
// in one write, then one fsync — batch durability at single-record disk
// latency. A failed write or sync may leave a torn frame; appending
// after it would turn a recoverable tail into mid-stream corruption, so
// failure poisons the handle until a compaction rolls a clean
// generation.
func (js *journalStore) appendAll(entries []stateEntry) error {
	if js.dirty {
		return errWalDirty
	}
	var buf []byte
	for _, e := range entries {
		payload, err := json.Marshal(e)
		if err != nil {
			return err
		}
		buf = append(buf, encodeFrame(payload)...)
	}
	if _, err := js.wal.Write(buf); err != nil {
		js.dirty = true
		return err
	}
	if err := js.wal.Sync(); err != nil {
		js.dirty = true
		return err
	}
	js.appended += len(entries)
	return nil
}

// shouldCompact reports whether the journal tail has grown enough that
// folding it into a snapshot is worth the O(units) write.
func (js *journalStore) shouldCompact(every int) bool {
	return every > 0 && js.appended >= every
}

// compact writes entries as the next generation's snapshot, opens its
// empty journal, and commits by swinging the manifest. Crash-safe at
// every boundary: until the manifest rename lands, recovery still sees
// the old generation whole; stale next-generation files are truncated
// or overwritten when that generation number is reused.
func (js *journalStore) compact(entries []stateEntry) error {
	next := js.gen + 1
	doc := stateFile{Units: entries}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := vfs.WriteFileAtomic(js.fsys, filepath.Join(js.dir, snapshotFileName(next)), func(w io.Writer) error {
		_, werr := w.Write(append(data, '\n'))
		return werr
	}); err != nil {
		return fmt.Errorf("sweepd: writing snapshot: %w", err)
	}
	wal, err := js.fsys.Create(filepath.Join(js.dir, journalFileName(next)))
	if err != nil {
		return fmt.Errorf("sweepd: creating journal: %w", err)
	}
	if err := wal.Sync(); err != nil {
		wal.Close()
		return fmt.Errorf("sweepd: syncing journal: %w", err)
	}
	if err := js.fsys.SyncDir(js.dir); err != nil {
		wal.Close()
		return fmt.Errorf("sweepd: syncing state dir: %w", err)
	}
	man, err := json.Marshal(journalManifest{Generation: next})
	if err != nil {
		wal.Close()
		return err
	}
	if err := vfs.WriteFileAtomic(js.fsys, filepath.Join(js.dir, JournalManifestName), func(w io.Writer) error {
		_, werr := w.Write(append(man, '\n'))
		return werr
	}); err != nil {
		wal.Close()
		return fmt.Errorf("sweepd: committing journal manifest: %w", err)
	}

	// The new generation is live. Retire the old one; failures here
	// cost only disk space (fsck flags leftovers as stale, recovery
	// ignores them).
	if js.wal != nil {
		js.wal.Close()
	}
	if js.gen > 0 {
		js.fsys.Remove(filepath.Join(js.dir, snapshotFileName(js.gen)))
		js.fsys.Remove(filepath.Join(js.dir, journalFileName(js.gen)))
	}
	js.fsys.SyncDir(js.dir)

	js.gen = next
	js.wal = wal
	js.appended = 0
	js.dirty = false
	return nil
}

// Close releases the journal handle (the data is already durable; this
// is hygiene, not a flush).
func (js *journalStore) Close() error {
	if js == nil || js.wal == nil {
		return nil
	}
	err := js.wal.Close()
	js.wal = nil
	return err
}
