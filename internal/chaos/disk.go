// Disk-fault injection for the persistent run store: the injector
// substitutes store.Options.OpenFile with a wrapper whose writes and
// syncs fail deterministically in (seed, file, operation index) —
// short writes (a torn tail on disk), outright ENOSPC-style write
// errors, and fsync faults. The store must degrade to memory-only
// serving, never crash and never serve the torn bytes; the 12-seed
// suite in disk_chaos_test.go pins that contract end to end.
package chaos

import (
	"errors"
	"fmt"
	"path/filepath"

	"dscweaver/internal/store"
)

// ErrDisk marks every injected disk fault; errors.Is detects them in
// assertions and distinguishes injected faults from real I/O errors.
var ErrDisk = errors.New("chaos: disk fault")

// OpenFile returns a store.Options.OpenFile whose files inject the
// configured disk faults. Each write claims one attempt index on the
// key "disk/<basename>", so the fault pattern for a seed is a pure
// function of the byte stream the store produces — replayable whatever
// goroutine interleaving drove the writes. Inner files come from open
// (nil = the real filesystem).
func (in *Injector) OpenFile(open func(path string) (store.File, error)) func(path string) (store.File, error) {
	if open == nil {
		open = store.OSOpenFile
	}
	return func(path string) (store.File, error) {
		f, err := open(path)
		if err != nil {
			return nil, err
		}
		return &chaosFile{in: in, key: "disk/" + filepath.Base(path), f: f}, nil
	}
}

// chaosFile wraps one store file with seeded write/sync faults.
type chaosFile struct {
	in  *Injector
	key string
	f   store.File
}

// diskHealed reports whether the configured heal threshold has been
// reached: past it the "device" works again and no disk fault class
// injects.
func (in *Injector) diskHealed() bool {
	if in.cfg.DiskHealAfter <= 0 {
		return false
	}
	total := in.diskErrors.Load() + in.diskShortWrites.Load() + in.diskSyncFaults.Load()
	return total >= in.cfg.DiskHealAfter
}

func (c *chaosFile) Write(p []byte) (int, error) {
	in := c.in
	attempt := in.next(c.key)
	if in.diskHealed() {
		return c.f.Write(p)
	}
	switch u := in.draw("disk", c.key, attempt); {
	case u < in.cfg.DiskErrorP:
		in.diskErrors.Add(1)
		return 0, fmt.Errorf("chaos: write %s attempt %d (seed %d): %w",
			c.key, attempt, in.cfg.Seed, ErrDisk)
	case u < in.cfg.DiskErrorP+in.cfg.DiskShortWriteP && len(p) > 1:
		// A torn write: half the bytes land on disk, then the device
		// gives out. Recovery must quarantine the half-line.
		in.diskShortWrites.Add(1)
		n, _ := c.f.Write(p[: len(p)/2 : len(p)/2])
		return n, fmt.Errorf("chaos: short write %s attempt %d (seed %d, %d/%d bytes): %w",
			c.key, attempt, in.cfg.Seed, n, len(p), ErrDisk)
	}
	return c.f.Write(p)
}

func (c *chaosFile) Sync() error {
	in := c.in
	if in.cfg.DiskSyncFaultP > 0 && !in.diskHealed() &&
		in.draw("disk_sync", c.key, in.next(c.key+"#sync")) < in.cfg.DiskSyncFaultP {
		in.diskSyncFaults.Add(1)
		return fmt.Errorf("chaos: fsync %s (seed %d): %w", c.key, in.cfg.Seed, ErrDisk)
	}
	return c.f.Sync()
}

// Close never injects: a store that cannot close files would leak
// descriptors across a 12-seed suite without testing anything new.
func (c *chaosFile) Close() error { return c.f.Close() }
