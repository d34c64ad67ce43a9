package runner

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"

	"repro/internal/vfs"
)

// ManifestName is the sweep-manifest filename inside ArtifactDir.
const ManifestName = "manifest.json"

// manifestEntry is one experiment's recorded outcome.
type manifestEntry struct {
	Status   Status `json:"status"`
	Seed     uint64 `json:"seed"`
	Attempts int    `json:"attempts"`
	// DurationMS is wall clock across attempts, for operator
	// bookkeeping only (never compared on resume).
	DurationMS int64  `json:"duration_ms"`
	Error      string `json:"error,omitempty"`
	Artifact   string `json:"artifact,omitempty"`
}

// manifest is the on-disk sweep state. A sweep is identified by its
// (Seed, Quick) configuration; resuming under a different configuration
// starts a fresh manifest so stale completions can never mask a
// different sweep's work.
type manifest struct {
	Seed        uint64                   `json:"seed"`
	Quick       bool                     `json:"quick"`
	Experiments map[string]manifestEntry `json:"experiments"`

	path string
	fsys vfs.FS
}

// openManifest prepares dir and returns the sweep manifest: a fresh one,
// or — when resume is set and the stored configuration matches — the
// previous sweep's state.
func openManifest(fsys vfs.FS, dir string, seed uint64, quick, resume bool) (*manifest, error) {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runner: artifact dir: %w", err)
	}
	m := &manifest{Seed: seed, Quick: quick, Experiments: map[string]manifestEntry{}, path: filepath.Join(dir, ManifestName), fsys: fsys}
	if !resume {
		return m, nil
	}
	data, err := fsys.ReadFile(m.path)
	if errors.Is(err, fs.ErrNotExist) {
		return m, nil // nothing to resume from; start fresh
	}
	if err != nil {
		return nil, fmt.Errorf("runner: reading manifest: %w", err)
	}
	var prev manifest
	if err := json.Unmarshal(data, &prev); err != nil {
		return nil, fmt.Errorf("runner: manifest %s is corrupt: %w", m.path, err)
	}
	if prev.Seed != seed || prev.Quick != quick {
		// A different sweep's state; its completions do not apply.
		return m, nil
	}
	prev.path = m.path
	prev.fsys = fsys
	if prev.Experiments == nil {
		prev.Experiments = map[string]manifestEntry{}
	}
	return &prev, nil
}

// completed reports whether id finished successfully in the recorded
// sweep (failed and skipped entries re-run on resume).
func (m *manifest) completed(id string) bool {
	return m.Experiments[id].Status == StatusDone
}

// record checkpoints one outcome and atomically rewrites the manifest,
// so an interrupted sweep resumes from its last completion.
func (m *manifest) record(rep Report) error {
	ent := manifestEntry{
		Status:     rep.Status,
		Seed:       rep.Seed,
		Attempts:   rep.Attempts,
		DurationMS: rep.Duration.Milliseconds(),
		Artifact:   rep.Artifact,
	}
	if rep.Err != nil {
		ent.Error = rep.Err.Error()
	}
	if rep.Cached {
		// Keep the original record (real attempts/duration), not the
		// synthetic cached report.
		if prev, ok := m.Experiments[rep.ID]; ok {
			ent = prev
		}
	}
	m.Experiments[rep.ID] = ent
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return vfs.WriteFileAtomic(m.fsys, m.path, func(w io.Writer) error {
		_, err := w.Write(append(data, '\n'))
		return err
	})
}
