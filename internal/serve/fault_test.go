package serve

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mcfs"
	"mcfs/internal/obs"
)

// --- doubles ----------------------------------------------------------------

// fakeClock is the manual Clock: Now advances only via Advance, tickers
// fire only when the test pushes a tick (including never — the frozen
// case). Every NewTicker is announced on tickers so the test can grab
// the loop's ticker without racing its creation.
type fakeClock struct {
	mu      sync.Mutex
	now     time.Time
	tickers chan *fakeTicker
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1_700_000_000, 0), tickers: make(chan *fakeTicker, 8)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) NewTicker(d time.Duration) Ticker {
	tk := &fakeTicker{c: make(chan time.Time, 1)}
	c.tickers <- tk
	return tk
}

// ticker returns the next ticker a background loop created.
func (c *fakeClock) ticker(t *testing.T) *fakeTicker {
	t.Helper()
	select {
	case tk := <-c.tickers:
		return tk
	case <-time.After(5 * time.Second):
		t.Fatal("no ticker created within 5s")
		return nil
	}
}

type fakeTicker struct{ c chan time.Time }

func (tk *fakeTicker) C() <-chan time.Time { return tk.c }
func (tk *fakeTicker) Stop()               {}
func (tk *fakeTicker) tick()               { tk.c <- time.Unix(0, 0) }

// faultFS wraps the real filesystem with one injectable failure mode at
// a time:
//
//	"create"  CreateTemp fails outright
//	"write"   Write fails without persisting anything
//	"short"   Write persists half the payload and reports an error
//	"sync"    fsync fails after a full write
//	"rename"  the final rename fails
//	"torn"    Write persists half the payload and reports success —
//	          the torn file survives the rename under a generation name
type faultFS struct {
	osFS
	mode atomic.Value // string
}

func (f *faultFS) setMode(m string) { f.mode.Store(m) }
func (f *faultFS) is(m string) bool { v, _ := f.mode.Load().(string); return v == m }

func (f *faultFS) CreateTemp(dir, pattern string) (File, error) {
	if f.is("create") {
		return nil, errors.New("injected create failure")
	}
	file, err := osFS{}.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, fs: f}, nil
}

func (f *faultFS) Rename(oldpath, newpath string) error {
	if f.is("rename") {
		return errors.New("injected rename failure")
	}
	return osFS{}.Rename(oldpath, newpath)
}

type faultFile struct {
	File
	fs *faultFS
}

func (f *faultFile) Write(p []byte) (int, error) {
	switch {
	case f.fs.is("write"):
		return 0, errors.New("injected write failure")
	case f.fs.is("short"):
		n, _ := f.File.Write(p[:len(p)/2])
		return n, errors.New("injected short write")
	case f.fs.is("torn"):
		if _, err := f.File.Write(p[:len(p)/2]); err != nil {
			return 0, err
		}
		return len(p), nil // lies: half the payload is on disk
	}
	return f.File.Write(p)
}

func (f *faultFile) Sync() error {
	if f.fs.is("sync") {
		return errors.New("injected fsync failure")
	}
	return f.File.Sync()
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// generationFiles lists the snapshot generation files present in dir.
func generationFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if _, ok := parseGeneration(e.Name()); ok {
			names = append(names, e.Name())
		}
	}
	return names
}

// --- configuration ----------------------------------------------------------

func TestServeDurabilityConfigValidation(t *testing.T) {
	inst := testInstance(t)
	if _, err := New(Config{Instance: inst, SnapshotEvery: time.Second}); err == nil || !strings.Contains(err.Error(), "SnapshotDir") {
		t.Fatalf("SnapshotEvery without SnapshotDir: %v", err)
	}
	if _, err := New(Config{Instance: inst, DriftFactor: 0.9}); err == nil || !strings.Contains(err.Error(), "must exceed 1") {
		t.Fatalf("sub-1 DriftFactor: %v", err)
	}
}

// --- snapshot policy --------------------------------------------------------

// TestSnapshotPolicy drives the ticker manually: every tick persists
// one generation, retention prunes to SnapshotKeep, and the newest
// generation restores the live state exactly.
func TestSnapshotPolicy(t *testing.T) {
	fc := newFakeClock()
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{
		SnapshotEvery: time.Hour, // ticks are manual; the duration is inert
		SnapshotDir:   dir,
		SnapshotKeep:  2,
		Clock:         fc,
	})
	tk := fc.ticker(t)

	// Churn so the capture is non-trivial, then persist three
	// generations.
	inst := s.cfg.Instance
	var churn ChurnReply
	if code := call(t, "POST", ts.URL+"/arrivals",
		ArrivalsRequest{Nodes: inst.Customers[:3]}, &churn); code != 200 {
		t.Fatalf("arrivals = %d", code)
	}
	for n := int64(1); n <= 3; n++ {
		tk.tick()
		n := n
		waitFor(t, fmt.Sprintf("snapshot %d", n), func() bool { return s.rec.Counter(obs.ServeSnapshots) == n })
	}

	// Retention: only the newest SnapshotKeep generations remain.
	files := generationFiles(t, dir)
	if len(files) != 2 || files[0] != snapshotName(2) || files[1] != snapshotName(3) {
		t.Fatalf("retained files %v, want [%s %s]", files, snapshotName(2), snapshotName(3))
	}

	// The newest generation restores to the live state.
	snap, path, skipped, err := LoadNewestSnapshot(dir)
	if err != nil || len(skipped) != 0 {
		t.Fatalf("LoadNewestSnapshot: %v (skipped %v)", err, skipped)
	}
	if filepath.Base(path) != snapshotName(3) {
		t.Fatalf("newest = %s, want %s", path, snapshotName(3))
	}
	restored, err := New(Config{Instance: inst, Snapshot: snap})
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if restored.Objective() != s.Objective() || restored.View().Customers() != s.View().Customers() {
		t.Fatalf("restored objective/customers %d/%d, want %d/%d",
			restored.Objective(), restored.View().Customers(), s.Objective(), s.View().Customers())
	}

	// Stats and /metrics surface the policy's state.
	var st StatsReply
	if code := call(t, "GET", ts.URL+"/stats", nil, &st); code != 200 {
		t.Fatalf("stats = %d", code)
	}
	if st.Snapshots != 3 || st.SnapshotFailures != 0 || st.SnapshotGeneration != 3 || st.LastSnapshotUnix == 0 {
		t.Fatalf("stats durability fields %+v", st)
	}
}

// TestSnapshotGenerationResume: a server pointed at a directory with
// existing generations continues the sequence instead of overwriting.
func TestSnapshotGenerationResume(t *testing.T) {
	fc := newFakeClock()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapshotName(5)), []byte("stale"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, _ := newTestServer(t, Config{SnapshotEvery: time.Hour, SnapshotDir: dir, Clock: fc})
	tk := fc.ticker(t)
	tk.tick()
	waitFor(t, "resumed snapshot", func() bool { return s.rec.Counter(obs.ServeSnapshots) == 1 })
	if _, err := os.Stat(filepath.Join(dir, snapshotName(6))); err != nil {
		t.Fatalf("generation did not resume past existing files: %v (have %v)", err, generationFiles(t, dir))
	}
}

// TestSnapshotFaultInjection is the acceptance test for the atomic
// persistence discipline: every injected failure mode leaves the newest
// prior generation byte-identical and loadable, creates no new
// generation file, and counts on the failure counter; a torn file that
// does land under a generation name is skipped by recovery.
func TestSnapshotFaultInjection(t *testing.T) {
	fc := newFakeClock()
	ffs := &faultFS{}
	dir := t.TempDir()
	s, _ := newTestServer(t, Config{
		SnapshotEvery: time.Hour,
		SnapshotDir:   dir,
		SnapshotKeep:  10,
		FS:            ffs,
		Clock:         fc,
	})
	tk := fc.ticker(t)

	// Baseline: one good generation.
	tk.tick()
	waitFor(t, "baseline snapshot", func() bool { return s.rec.Counter(obs.ServeSnapshots) == 1 })
	baseline, basePath, _, err := LoadNewestSnapshot(dir)
	if err != nil || baseline == nil {
		t.Fatalf("baseline load: %v", err)
	}
	baseRaw, err := os.ReadFile(basePath)
	if err != nil {
		t.Fatal(err)
	}

	for i, mode := range []string{"create", "write", "short", "sync", "rename"} {
		ffs.setMode(mode)
		tk.tick()
		want := int64(i + 1)
		waitFor(t, mode+" failure counted", func() bool { return s.rec.Counter(obs.ServeSnapshotFailures) == want })

		// The newest prior generation is still the baseline, bytes intact.
		_, path, skipped, err := LoadNewestSnapshot(dir)
		if err != nil || len(skipped) != 0 || path != basePath {
			t.Fatalf("%s: recovery sees %q skipped %v err %v, want %q", mode, path, skipped, err, basePath)
		}
		if raw, err := os.ReadFile(basePath); err != nil || string(raw) != string(baseRaw) {
			t.Fatalf("%s: baseline generation mutated (err %v)", mode, err)
		}
		if files := generationFiles(t, dir); len(files) != 1 {
			t.Fatalf("%s: unexpected generation files %v", mode, files)
		}
		if s.rec.Counter(obs.ServeSnapshots) != 1 {
			t.Fatalf("%s: success counter moved to %d", mode, s.rec.Counter(obs.ServeSnapshots))
		}
	}

	// No temp-file debris: failures clean up after themselves. (The
	// "create" mode never made a file; the others must have removed
	// theirs.)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if _, ok := parseGeneration(e.Name()); !ok {
			t.Fatalf("stray file %q after injected failures", e.Name())
		}
	}

	// Torn write: persist reports success, so a corrupt file lands under
	// a generation name — recovery must skip it back to the baseline.
	ffs.setMode("torn")
	tk.tick()
	waitFor(t, "torn snapshot recorded", func() bool { return s.rec.Counter(obs.ServeSnapshots) == 2 })
	_, path, skipped, err := LoadNewestSnapshot(dir)
	if err != nil {
		t.Fatalf("recovery with torn newest: %v", err)
	}
	if path != basePath || len(skipped) != 1 {
		t.Fatalf("torn: recovery sees %q skipped %v, want %q with 1 skip", path, skipped, basePath)
	}

	// Faults cleared: the next tick persists a loadable generation again.
	ffs.setMode("")
	tk.tick()
	waitFor(t, "recovered snapshot", func() bool { return s.rec.Counter(obs.ServeSnapshots) == 3 })
	snap, path, _, err := LoadNewestSnapshot(dir)
	if err != nil || snap == nil {
		t.Fatalf("post-recovery load: %v", err)
	}
	if path == basePath {
		t.Fatalf("post-recovery newest still the baseline %q", path)
	}
}

// TestSnapshotFrozenClock: a ticker that never fires produces no
// snapshots, no files, and a clean shutdown (no goroutine deadlock).
func TestSnapshotFrozenClock(t *testing.T) {
	fc := newFakeClock()
	dir := t.TempDir()
	s, err := New(Config{Instance: testInstance(t), SnapshotEvery: time.Hour, SnapshotDir: dir, Clock: fc})
	if err != nil {
		t.Fatal(err)
	}
	fc.ticker(t) // the loop's ticker exists; we never tick it
	if _, err := s.do(context.Background(), op{kind: opSnapshot}); err != nil {
		t.Fatal(err)
	}
	if n := s.rec.Counter(obs.ServeSnapshots); n != 0 {
		t.Fatalf("frozen clock persisted %d snapshots", n)
	}
	if files := generationFiles(t, dir); len(files) != 0 {
		t.Fatalf("frozen clock left files %v", files)
	}
	s.Close() // must return despite the never-firing ticker
}

// TestLoadNewestSnapshotCorruptSkip exercises recovery directly:
// newest-first scan, corrupt generations skipped, temp files and
// foreign names ignored.
func TestLoadNewestSnapshotCorruptSkip(t *testing.T) {
	inst := testInstance(t)
	r, err := mcfs.NewReallocator(inst, 0)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var valid strings.Builder
	if err := snap.Write(&valid); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	write := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(snapshotName(1), valid.String())
	write(snapshotName(2), valid.String())
	write(snapshotName(3), valid.String()[:20]) // truncated
	write(snapshotName(9), "garbage")
	write(".snap-123.tmp", "in-flight temp, ignored")
	write("README", "not a snapshot")

	got, path, skipped, err := LoadNewestSnapshot(dir)
	if err != nil || got == nil {
		t.Fatalf("load: %v", err)
	}
	if filepath.Base(path) != snapshotName(2) {
		t.Fatalf("picked %s, want %s", path, snapshotName(2))
	}
	if len(skipped) != 2 || filepath.Base(skipped[0]) != snapshotName(9) || filepath.Base(skipped[1]) != snapshotName(3) {
		t.Fatalf("skipped %v, want [gen9 gen3] newest-first", skipped)
	}

	// All generations corrupt: an explicit error, not a silent fresh
	// start — the operator asked to restore.
	corrupt := t.TempDir()
	if err := os.WriteFile(filepath.Join(corrupt, snapshotName(1)), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := LoadNewestSnapshot(corrupt); err == nil || !strings.Contains(err.Error(), "no loadable snapshot") {
		t.Fatalf("all-corrupt dir: %v", err)
	}

	// Empty and missing directories are a fresh start.
	for _, d := range []string{t.TempDir(), filepath.Join(t.TempDir(), "nope")} {
		snap, path, skipped, err := LoadNewestSnapshot(d)
		if snap != nil || path != "" || skipped != nil || err != nil {
			t.Fatalf("empty dir %s: %v %q %v %v", d, snap, path, skipped, err)
		}
	}
}
