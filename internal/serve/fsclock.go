// Injectable filesystem and clock seams for the durability layer.
//
// The periodic snapshot policy is exactly the kind of code that only
// misbehaves when the world does: a full disk mid-write, a rename that
// fails, a crash between temp file and rename, a ticker that never
// fires. Production uses the thin os/time-backed implementations below;
// the fault-injection suite (fault_test.go) substitutes doubles that
// fail on demand, write short, tear files, and freeze time — so every
// failure path in snapshotter.go is exercised deterministically under
// -race.
package serve

import (
	"io"
	"os"
	"time"
)

// FS is the filesystem surface the snapshot persister needs. The
// contract mirrors the os package; implementations must be safe for use
// from the snapshot goroutine while tests read the same directory.
type FS interface {
	MkdirAll(dir string, perm os.FileMode) error
	// CreateTemp creates a new temp file in dir (pattern as in
	// os.CreateTemp); the persister writes, syncs, closes, then renames
	// it over the final name.
	CreateTemp(dir, pattern string) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	ReadDir(dir string) ([]os.DirEntry, error)
	ReadFile(name string) ([]byte, error)
}

// File is the writable handle CreateTemp returns. Sync is called before
// Close so a rename never publishes data the kernel has not accepted.
type File interface {
	io.Writer
	Sync() error
	Close() error
	Name() string
}

// osFS is the production FS: straight delegation to the os package.
type osFS struct{}

func (osFS) MkdirAll(dir string, perm os.FileMode) error { return os.MkdirAll(dir, perm) }

func (osFS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Rename(oldpath, newpath string) error      { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                  { return os.Remove(name) }
func (osFS) ReadDir(dir string) ([]os.DirEntry, error) { return os.ReadDir(dir) }
func (osFS) ReadFile(name string) ([]byte, error)      { return os.ReadFile(name) }

// Clock is the time surface the snapshot policy needs: a wall reading
// for the last-snapshot timestamp and a ticker for the interval. Tests
// substitute a manual clock whose ticks fire only on demand (including
// never — the frozen-clock case).
type Clock interface {
	Now() time.Time
	NewTicker(d time.Duration) Ticker
}

// Ticker abstracts time.Ticker behind an accessor (time.Ticker.C is a
// struct field, which an interface cannot express).
type Ticker interface {
	C() <-chan time.Time
	Stop()
}

// realClock is the production Clock.
type realClock struct{}

//lint:ignore determinism serving wall clock is operational telemetry, never solver input
func (realClock) Now() time.Time { return time.Now() }

func (realClock) NewTicker(d time.Duration) Ticker { return realTicker{time.NewTicker(d)} }

type realTicker struct{ t *time.Ticker }

func (rt realTicker) C() <-chan time.Time { return rt.t.C }
func (rt realTicker) Stop()               { rt.t.Stop() }
