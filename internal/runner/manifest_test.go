package runner

import (
	"io"
	"testing"

	"repro/internal/faults"
	"repro/internal/vfs"
)

// TestWriteFileAtomicPowerFailAfterRename: the rename alone is not
// durability — it is a directory entry that can be lost on power
// failure until the parent directory is fsynced. Replay the manifest
// write over the crash-model filesystem, killing it right after the
// rename: without the trailing directory fsync the "successful" write
// would roll back to the old manifest, which is exactly the state a
// resume must never trust. With it, a crash after a successful
// WriteFileAtomic return always keeps the new content.
func TestWriteFileAtomicPowerFailAfterRename(t *testing.T) {
	newManifest := func(seed uint64) *faults.DiskFS {
		d := faults.NewDiskFS(seed)
		if err := d.MkdirAll("artifacts", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := vfs.WriteFileAtomic(d, "artifacts/manifest.json", func(w io.Writer) error {
			_, err := io.WriteString(w, `{"generation": 1}`)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		return d
	}

	// Count the boundaries of one rewrite, then kill at each in turn.
	clean := newManifest(1)
	base := clean.Ops()
	rewrite := func(d *faults.DiskFS) error {
		return vfs.WriteFileAtomic(d, "artifacts/manifest.json", func(w io.Writer) error {
			_, err := io.WriteString(w, `{"generation": 2}`)
			return err
		})
	}
	if err := rewrite(clean); err != nil {
		t.Fatal(err)
	}
	total := clean.Ops() - base

	for k := 0; k < total; k++ {
		d := newManifest(uint64(10 + k))
		d.CrashAfter(base + k)
		err := rewrite(d)
		d.Crash()
		data, rerr := d.ReadFile("artifacts/manifest.json")
		if rerr != nil {
			t.Fatalf("boundary %d: manifest missing after crash: %v", k, rerr)
		}
		switch string(data) {
		case `{"generation": 1}`:
			if err == nil {
				t.Fatalf("boundary %d: write reported success but power loss rolled the rename back", k)
			}
		case `{"generation": 2}`:
			// New content survived; fine whether or not the call errored.
		default:
			t.Fatalf("boundary %d: torn manifest %q", k, data)
		}
	}
}
