// Package epoch manages the versioned re-publication lifecycle of a
// served ε-PPI. The paper publishes M' once; a production locator must
// re-publish periodically — providers churn, and the Eq. 2 noise baked in
// at publication only guards the matrix actually being served — without
// ever stopping the fleet.
//
// An epoch store is a directory:
//
//	<root>/
//	  CURRENT            # text file: the active epoch number, e.g. "3\n"
//	  epochs/
//	    000001/          # one complete shard set per epoch
//	      manifest.eppi
//	      shard-000.idx …
//	    000002/
//	    000003/
//
// A Publisher writes each new shard set, with its privacy report and
// detail, into a hidden temp directory, fsyncs every file and the
// directory, renames it to epochs/<n>/ (so a half-written set is never
// visible under its final name) and fsyncs epochs/, then flips CURRENT
// via write-temp + fsync + rename — the POSIX-atomic pointer swap.
// Readers (Watcher, Load) go the other way: read CURRENT, verify the
// manifest and every member checksum, and reject anything inconsistent —
// a corrupted pointer or a torn epoch directory leaves the node serving
// its current epoch, never a broken one.
package epoch

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/bitmat"
	"repro/internal/index"
	"repro/internal/privacy"
	"repro/internal/shard"
)

const (
	// CurrentName is the pointer file naming the active epoch.
	CurrentName = "CURRENT"
	// EpochsDir is the subdirectory holding one shard set per epoch.
	EpochsDir = "epochs"
)

var (
	// ErrNoCurrent reports a store with no CURRENT pointer — nothing has
	// been published yet.
	ErrNoCurrent = errors.New("epoch: no CURRENT pointer (nothing published)")
	// ErrBadCurrent reports a CURRENT pointer that does not parse as a
	// positive epoch number — a torn write or outside interference.
	ErrBadCurrent = errors.New("epoch: corrupted CURRENT pointer")
)

// Dir returns the shard-set directory of epoch n under root.
func Dir(root string, n uint64) string {
	return filepath.Join(root, EpochsDir, fmt.Sprintf("%06d", n))
}

// Current reads the active epoch number from the store's CURRENT pointer.
func Current(root string) (uint64, error) {
	raw, err := os.ReadFile(filepath.Join(root, CurrentName))
	if err != nil {
		if os.IsNotExist(err) {
			return 0, fmt.Errorf("%w: %s", ErrNoCurrent, root)
		}
		return 0, fmt.Errorf("epoch: %w", err)
	}
	text := strings.TrimSpace(string(raw))
	n, perr := strconv.ParseUint(text, 10, 64)
	if perr != nil || n == 0 {
		return 0, fmt.Errorf("%w: %q", ErrBadCurrent, text)
	}
	return n, nil
}

// LoadAt loads shard k of an of-way set from epoch n of the store,
// verifying the manifest, its epoch stamp, and every member's size and
// checksum — a half-written or tampered epoch directory is rejected
// whole. The other members are streamed through a fixed buffer first;
// member k is checked by LoadShard on the one read that loads it.
func LoadAt(root string, n uint64, k, of int) (*index.Server, error) {
	dir := Dir(root, n)
	man, err := shard.ReadManifest(dir)
	if err != nil {
		return nil, fmt.Errorf("epoch %d: %w", n, err)
	}
	if man.Epoch != n {
		return nil, fmt.Errorf("epoch %d: manifest claims epoch %d — misplaced shard set", n, man.Epoch)
	}
	if man.Shards != of {
		return nil, fmt.Errorf("epoch %d: manifest has %d shards, want %d", n, man.Shards, of)
	}
	if err := man.VerifyExcept(dir, k); err != nil {
		return nil, fmt.Errorf("epoch %d: %w", n, err)
	}
	srv, err := man.LoadShard(dir, k)
	if err != nil {
		return nil, fmt.Errorf("epoch %d: %w", n, err)
	}
	return srv, nil
}

// ErrNoReport reports an epoch published without a privacy report —
// a pre-report store or a report-less publisher, not corruption.
var ErrNoReport = errors.New("epoch: no privacy report")

// ErrNoDetail reports an epoch published without the operator-only
// privacy detail document (privacy_detail.json) — a pre-detail store
// or a publisher that deliberately withheld it, not corruption.
var ErrNoDetail = errors.New("epoch: no privacy detail")

// LoadReportAt loads and verifies epoch n's privacy report, rejecting
// a report whose own epoch stamp disagrees with the directory it sits
// in (a copied or misplaced file). Absence is ErrNoReport so callers
// can serve older epochs degraded rather than refusing them.
func LoadReportAt(root string, n uint64) (*privacy.Report, error) {
	rep, err := privacy.ReadFile(Dir(root, n))
	if err != nil {
		if os.IsNotExist(err) || errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("%w: epoch %d", ErrNoReport, n)
		}
		return nil, fmt.Errorf("epoch %d: %w", n, err)
	}
	if rep.Epoch != n {
		return nil, fmt.Errorf("epoch %d: privacy report claims epoch %d — misplaced report", n, rep.Epoch)
	}
	return rep, nil
}

// LoadDetailAt loads and verifies epoch n's operator-only privacy
// detail (identity ε-decile map, full violation records). Only offline
// tooling with filesystem access to the store — cmd/eppi-audit — should
// call this; serving paths work from the public report alone.
func LoadDetailAt(root string, n uint64) (*privacy.Detail, error) {
	det, err := privacy.ReadDetailFile(Dir(root, n))
	if err != nil {
		if os.IsNotExist(err) || errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("%w: epoch %d", ErrNoDetail, n)
		}
		return nil, fmt.Errorf("epoch %d: %w", n, err)
	}
	if det.Epoch != n {
		return nil, fmt.Errorf("epoch %d: privacy detail claims epoch %d — misplaced detail", n, det.Epoch)
	}
	return det, nil
}

// Load resolves CURRENT and loads shard k/of of the active epoch,
// returning the epoch number alongside the server.
func Load(root string, k, of int) (*index.Server, uint64, error) {
	n, err := Current(root)
	if err != nil {
		return nil, 0, err
	}
	srv, err := LoadAt(root, n, k, of)
	if err != nil {
		return nil, 0, err
	}
	return srv, n, nil
}

// SetCurrent atomically flips the store's CURRENT pointer to epoch n.
// It is the consumer half of the pointer protocol: a replication mirror
// that has downloaded, verified, and renamed an epoch directory into
// place calls it to make the epoch visible to the local Watcher. n must
// be a valid epoch number — 0 would write the very pointer value Current
// rejects as corrupted.
func SetCurrent(root string, n uint64) error {
	if n == 0 {
		return fmt.Errorf("%w: refusing to write epoch 0", ErrBadCurrent)
	}
	return writeCurrent(root, n)
}

// Prune deletes the oldest epoch directories from the store, keeping the
// newest keep epochs and — unconditionally — the epoch named by CURRENT,
// even if retention would otherwise drop it (a store whose pointer was
// rolled back must not have the serving epoch deleted out from under its
// nodes). keep <= 0 disables pruning. It returns the epoch numbers it
// removed. A store with no readable CURRENT pointer is never pruned:
// with the pointer torn there is no safe notion of "oldest".
func Prune(root string, keep int) ([]uint64, error) {
	if keep <= 0 {
		return nil, nil
	}
	cur, err := Current(root)
	if err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(filepath.Join(root, EpochsDir))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("epoch: %w", err)
	}
	var epochs []uint64
	for _, e := range entries {
		// Dot-named entries are in-flight publish/mirror assembly dirs;
		// anything else non-numeric is not ours to delete.
		n, perr := strconv.ParseUint(e.Name(), 10, 64)
		if !e.IsDir() || perr != nil || n == 0 {
			continue
		}
		epochs = append(epochs, n)
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
	if len(epochs) <= keep {
		return nil, nil
	}
	var removed []uint64
	for _, n := range epochs[:len(epochs)-keep] {
		if n == cur {
			continue
		}
		if err := os.RemoveAll(Dir(root, n)); err != nil {
			return removed, fmt.Errorf("epoch: prune %d: %w", n, err)
		}
		removed = append(removed, n)
	}
	return removed, nil
}

// Publisher writes successive index publications into an epoch store.
// Each Publish allocates the next epoch number, writes a complete shard
// set for it, and atomically flips CURRENT to point at it.
type Publisher struct {
	// Root is the epoch store directory (created on first Publish).
	Root string
	// Keep, when positive, prunes the store down to the newest Keep
	// epochs after each successful publish (the freshly published epoch —
	// which CURRENT now names — is never pruned). 0 keeps every epoch.
	Keep int
}

// Publish writes the published index as the next epoch's shard set and
// flips CURRENT to it. The set is assembled under a temp name and renamed
// into place before the pointer moves, so a crash at any instant leaves
// either the old epoch fully active or the new one — never a torn store.
// It returns the epoch number it published.
func (p *Publisher) Publish(published *bitmat.Matrix, names []string, shards int) (uint64, error) {
	return p.PublishWithReport(published, names, shards, nil, nil)
}

// PublishWithReport is Publish carrying a privacy audit: the public
// report is sealed for the new epoch number and written as privacy.json
// inside the epoch directory, so it travels with the shard set it
// audits — same temp-dir assembly, same atomic visibility. The
// operator-only detail, when given, lands next to it as
// privacy_detail.json (mode 0600); serving nodes never read it. A nil
// report publishes without one (legacy stores and report-less callers);
// a nil detail publishes the report alone (e.g. when the store is
// handed to an untrusted host and per-identity data must not travel).
func (p *Publisher) PublishWithReport(published *bitmat.Matrix, names []string, shards int, rep *privacy.Report, det *privacy.Detail) (uint64, error) {
	if shards < 1 {
		return 0, fmt.Errorf("epoch: bad shard count %d", shards)
	}
	next := uint64(1)
	switch cur, err := Current(p.Root); {
	case err == nil:
		next = cur + 1
	case errors.Is(err, ErrNoCurrent):
		// Fresh store: publish epoch 1.
	default:
		// A corrupted pointer needs an operator, not a publisher silently
		// restarting the numbering over live serving nodes.
		return 0, err
	}
	if err := os.MkdirAll(filepath.Join(p.Root, EpochsDir), 0o755); err != nil {
		return 0, fmt.Errorf("epoch: %w", err)
	}
	// Assemble under a dot-name: Dir() can never resolve to it, so a
	// crashed half-written set is invisible to readers.
	tmp := filepath.Join(p.Root, EpochsDir, fmt.Sprintf(".publish-%06d", next))
	if err := os.RemoveAll(tmp); err != nil {
		return 0, fmt.Errorf("epoch: %w", err)
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return 0, fmt.Errorf("epoch: %w", err)
	}
	// The audit files are sealed and written while the shard set is.
	setDone := make(chan error, 1)
	go func() {
		_, err := shard.WriteSetAt(tmp, published, names, shards, next)
		setDone <- err
	}()
	var auditErr error
	if rep != nil {
		auditErr = privacy.WriteFile(tmp, rep, next)
	}
	if det != nil && auditErr == nil {
		auditErr = privacy.WriteDetailFile(tmp, det, next)
	}
	if err := errors.Join(<-setDone, auditErr); err != nil {
		return 0, err
	}
	// Every member reaches stable storage before the set becomes visible,
	// so CURRENT can never name an epoch whose files a power loss tore.
	if err := syncTree(tmp); err != nil {
		return 0, err
	}
	final := Dir(p.Root, next)
	// A leftover from a publish that crashed after the rename but before
	// the CURRENT flip: the pointer never moved, so replacing it is safe.
	if err := os.RemoveAll(final); err != nil {
		return 0, fmt.Errorf("epoch: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		return 0, fmt.Errorf("epoch: %w", err)
	}
	syncDir(filepath.Join(p.Root, EpochsDir))
	if err := writeCurrent(p.Root, next); err != nil {
		return 0, err
	}
	// Retention runs last: CURRENT already points at the new epoch, so a
	// prune error below reports a published epoch with stale dirs left
	// behind, never a lost publication.
	if _, err := Prune(p.Root, p.Keep); err != nil {
		return next, fmt.Errorf("epoch %d published, retention failed: %w", next, err)
	}
	return next, nil
}

// fsync flushes the file or directory at path to stable storage. It is
// the publisher's one durability seam: tests replace it to record what is
// synced, and when.
var fsync = func(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// syncTree fsyncs every file of the assembly directory dir, then dir
// itself, so the files and their names are durable before the rename
// publishes them.
func syncTree(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("epoch: %w", err)
	}
	for _, e := range entries {
		if err := fsync(filepath.Join(dir, e.Name())); err != nil {
			return fmt.Errorf("epoch: %w", err)
		}
	}
	syncDir(dir)
	return nil
}

// syncDir fsyncs a directory, persisting the names created or renamed in
// it. Some filesystems reject fsync on a directory handle; the renames
// are still atomic, so that is advisory.
func syncDir(dir string) {
	_ = fsync(dir)
}

// writeCurrent flips the CURRENT pointer: write a temp file, fsync it,
// rename over CURRENT, fsync the directory. Readers see either the old
// number or the new one, never a torn write.
func writeCurrent(root string, n uint64) error {
	tmp := filepath.Join(root, CurrentName+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("epoch: %w", err)
	}
	if _, err := fmt.Fprintf(f, "%d\n", n); err != nil {
		f.Close()
		return fmt.Errorf("epoch: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("epoch: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("epoch: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(root, CurrentName)); err != nil {
		return fmt.Errorf("epoch: %w", err)
	}
	// Persist the rename itself.
	syncDir(root)
	return nil
}
