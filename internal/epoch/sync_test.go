package epoch

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestPublishSyncsBeforeRename: every file of a new epoch and its
// assembly directory reach stable storage while the set is still under
// its dot-name, and epochs/ is synced once the rename has made it
// visible — so after a power loss CURRENT can only name an epoch whose
// files are whole.
func TestPublishSyncsBeforeRename(t *testing.T) {
	published, names, rep, det := auditedBuild(t)
	root := t.TempDir()
	var synced []string
	real := fsync
	fsync = func(path string) error {
		// The path must exist as named: a sync of the assembly dir's
		// members after the rename would find nothing there.
		if _, err := os.Stat(path); err != nil {
			t.Errorf("synced %s, which does not exist: %v", path, err)
		}
		synced = append(synced, path)
		return real(path)
	}
	defer func() { fsync = real }()
	n, err := (&Publisher{Root: root}).PublishWithReport(published, names, 2, rep, det)
	if err != nil {
		t.Fatal(err)
	}
	at := func(path string) int {
		t.Helper()
		i := slices.Index(synced, path)
		if i < 0 {
			t.Fatalf("%s never synced (synced: %q)", path, synced)
		}
		return i
	}
	tmp := filepath.Join(root, EpochsDir, fmt.Sprintf(".publish-%06d", n))
	dirAt := at(tmp)
	entries, err := os.ReadDir(Dir(root, n))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 5 {
		t.Fatalf("epoch holds %d files, want 5", len(entries))
	}
	for _, e := range entries {
		if i := at(filepath.Join(tmp, e.Name())); i > dirAt {
			t.Errorf("%s synced after its directory", e.Name())
		}
	}
	if at(filepath.Join(root, EpochsDir)) < dirAt {
		t.Error("epochs/ synced before the assembly dir")
	}
}
