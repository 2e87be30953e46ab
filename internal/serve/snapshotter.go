// Periodic snapshot-to-disk: the serving engine's durability policy
// (DESIGN.md §12, "Durability").
//
// A background goroutine persists the published view on every tick of
// Config.SnapshotEvery. It reads the view the last batch swapped in, as
// GET /snapshot does, and never takes the writer: the capture is always
// a settled state between batches, a tick never waits behind a long
// write, and the goroutine is never a second writer. The capture is
// persisted with the classic atomic discipline: write to a temp file in
// the target directory, fsync, close, rename over the final generation
// name. A crash at any point leaves either the previous generation or
// the new one, never a torn file under a generation name (temp names do
// not match the generation pattern and are skipped by recovery). The
// retained-generations knob bounds disk use; recovery picks the newest
// generation that parses and skips corrupt ones, so one bad write never
// costs more than one snapshot interval of work.
package serve

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"mcfs"
	"mcfs/internal/obs"
)

// snapPrefix/snapSuffix frame the generation number in a snapshot file
// name: mcfsd-00000042.snap.json.
const (
	snapPrefix = "mcfsd-"
	snapSuffix = ".snap.json"
)

// snapshotName renders the file name for a generation.
func snapshotName(gen int64) string {
	return fmt.Sprintf("%s%08d%s", snapPrefix, gen, snapSuffix)
}

// parseGeneration extracts the generation from a snapshot file name;
// ok is false for anything else (temp files, foreign files).
func parseGeneration(name string) (int64, bool) {
	if !strings.HasPrefix(name, snapPrefix) || !strings.HasSuffix(name, snapSuffix) {
		return 0, false
	}
	digits := strings.TrimSuffix(strings.TrimPrefix(name, snapPrefix), snapSuffix)
	if digits == "" {
		return 0, false
	}
	gen, err := strconv.ParseInt(digits, 10, 64)
	if err != nil || gen < 0 {
		return 0, false
	}
	return gen, true
}

// listGenerations returns the snapshot generations present in dir in
// ascending order. A missing directory is an empty listing, not an
// error (the first snapshot creates it); any other failure to list it
// is an error.
func listGenerations(fsys FS, dir string) ([]int64, error) {
	entries, err := fsys.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var gens []int64
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if gen, ok := parseGeneration(e.Name()); ok {
			gens = append(gens, gen)
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	return gens, nil
}

// LoadNewestSnapshot scans dir for snapshot generations, newest first,
// and returns the first one that parses, its path, and the paths of any
// newer generations skipped as corrupt. A directory with no snapshot
// files (or that does not exist) returns all zero values — the caller
// starts fresh. A directory that cannot be listed, or whose every
// generation is corrupt, is an error: the operator asked to restore and
// nothing is restorable.
func LoadNewestSnapshot(dir string) (*mcfs.ReallocatorSnapshot, string, []string, error) {
	return loadNewestSnapshot(osFS{}, dir)
}

func loadNewestSnapshot(fsys FS, dir string) (*mcfs.ReallocatorSnapshot, string, []string, error) {
	gens, err := listGenerations(fsys, dir)
	if err != nil || len(gens) == 0 {
		return nil, "", nil, err
	}
	var skipped []string
	for i := len(gens) - 1; i >= 0; i-- {
		path := filepath.Join(dir, snapshotName(gens[i]))
		raw, err := fsys.ReadFile(path)
		if err != nil {
			skipped = append(skipped, path)
			continue
		}
		snap, err := mcfs.ReadReallocatorSnapshot(bytes.NewReader(raw))
		if err != nil {
			skipped = append(skipped, path)
			continue
		}
		return snap, path, skipped, nil
	}
	return nil, "", skipped, fmt.Errorf("serve: no loadable snapshot in %s (%d corrupt generation(s))", dir, len(skipped))
}

// snapshotLoop is the periodic policy goroutine: one persisted
// generation per tick, stopping with the server. A failed persist counts
// and logs, but never stops the loop — the next tick retries, and the
// newest prior generation stays loadable (persistSnapshot never touches
// it).
func (s *Server) snapshotLoop() {
	defer s.wg.Done()
	tk := s.clock.NewTicker(s.cfg.SnapshotEvery)
	defer tk.Stop()
	for {
		select {
		case <-s.quit:
			return
		case <-tk.C():
			if err := s.snapshotOnce(); err != nil {
				s.rec.Add(obs.ServeSnapshotFailures, 1)
				if s.cfg.Logger != nil {
					s.cfg.Logger.Error("snapshot failed", "error", err)
				}
			}
		}
	}
}

// snapshotOnce persists the published view as the next generation,
// which snapGen names only once it is on disk. A failed persist creates
// no file under that generation's name, so the next tick reuses it.
// This loop is the only writer of snapGen once New has returned.
func (s *Server) snapshotOnce() error {
	gen := s.snapGen.Load() + 1
	if err := s.persistSnapshot(s.view.Load().Snapshot(), gen); err != nil {
		return err
	}
	s.snapGen.Store(gen)
	s.rec.Add(obs.ServeSnapshots, 1)
	s.lastSnapshotUnix.Store(s.clock.Now().Unix())
	s.pruneSnapshots(gen)
	return nil
}

// persistSnapshot writes one generation with the atomic temp+rename
// discipline. On any failure the temp file is removed (best effort) and
// no generation name is created or modified — prior generations stay
// exactly as they were.
func (s *Server) persistSnapshot(snap *mcfs.ReallocatorSnapshot, gen int64) error {
	dir := s.cfg.SnapshotDir
	f, err := s.fs.CreateTemp(dir, ".snap-*.tmp")
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	err = snap.Write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = s.fs.Remove(f.Name())
		return fmt.Errorf("persist: %w", err)
	}
	if err := s.fs.Rename(f.Name(), filepath.Join(dir, snapshotName(gen))); err != nil {
		_ = s.fs.Remove(f.Name())
		return fmt.Errorf("persist: %w", err)
	}
	return nil
}

// pruneSnapshots removes generations older than the newest
// SnapshotKeep. Removal failures are ignored: retention is a disk-use
// bound, not a correctness property, and the next prune retries.
func (s *Server) pruneSnapshots(newest int64) {
	gens, err := listGenerations(s.fs, s.cfg.SnapshotDir)
	if err != nil {
		return
	}
	keepFrom := newest - int64(s.cfg.SnapshotKeep) + 1
	for _, gen := range gens {
		if gen < keepFrom {
			_ = s.fs.Remove(filepath.Join(s.cfg.SnapshotDir, snapshotName(gen)))
		}
	}
}
