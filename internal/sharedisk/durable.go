package sharedisk

import (
	"fmt"
	"sync"
)

// WAL is what Durable needs from a write-ahead log. internal/journal
// implements it; it lives here as an interface so sharedisk does not import
// journal (journal already imports sharedisk for the image types and the
// Recover constructor).
//
// Log* calls must not return until the entry is durable (fsynced) — Durable
// acknowledges a flush to its caller only after the WAL has — and must not
// keep a reference to an image or delta past their return.
type WAL interface {
	// LogCreateFileSet records the birth of an empty file set.
	LogCreateFileSet(fileSet string) error
	// LogDelta records a flushed delta — the unit of durability. trace
	// attributes the append to the client request that forced it
	// (0 = untraced).
	LogDelta(trace uint64, fileSet string, d Delta) error
	// LogFlush records a whole image at the version the store holds it:
	// an adopted image, or the new base after a delta failed to append.
	LogFlush(fileSet string, im Image) error
	// LogDrop records the removal of a file set.
	LogDrop(fileSet string) error
	// Snapshot persists a full consistent cut of the store and lets the log
	// compact everything the cut covers. It takes a closure so the log can
	// capture the cut at a sequence of its choosing (with commits paused).
	Snapshot(images func() map[string]Image) error
	// Close flushes and closes the log.
	Close() error
}

// Installer is optionally implemented by disks that can adopt a complete
// image from elsewhere (fleet handoff). *Store and *Durable implement it.
type Installer interface {
	Install(fileSet string, im Image) error
}

// Dropper is optionally implemented by disks that can remove a file set
// (fleet handoff fencing). *Store and *Durable implement it.
type Dropper interface {
	DropFileSet(fileSet string) error
}

// Durable is a Store variant that write-ahead-logs every mutation, so the
// shared disk's images survive a daemon crash: CreateFileSet and FlushDelta
// return only once the journal has fsynced the entry, and journal.Recover
// rebuilds an equivalent Store on restart. Reads are served from the
// embedded in-memory Store as before.
//
// Ordering note: the in-memory store applies first (it assigns the image
// version), then the entry is journaled. A crash between the two loses an
// un-acknowledged flush, which is exactly the contract callers already
// have — a flush is durable when (and only when) it returns nil.
type Durable struct {
	*Store
	wal WAL

	// snapshotEvery triggers a snapshot + log compaction after that many
	// journaled entries; <= 0 disables automatic snapshots.
	snapshotEvery int
	mu            sync.Mutex
	sinceSnapshot int
	// rebase holds the file sets whose last delta the store took but the
	// journal did not: the log has a hole there, so the next flush journals
	// the whole image instead of a delta replay could not place.
	rebase map[string]struct{}
}

// NewDurable wraps a store with a write-ahead log. The store is typically
// the one journal recovery just rebuilt, so log and memory start aligned.
func NewDurable(st *Store, wal WAL, snapshotEvery int) *Durable {
	return &Durable{Store: st, wal: wal, snapshotEvery: snapshotEvery, rebase: map[string]struct{}{}}
}

// CreateFileSet initializes an empty image and journals the creation.
func (d *Durable) CreateFileSet(fileSet string) error {
	if err := d.Store.CreateFileSet(fileSet); err != nil {
		return err
	}
	return d.settle(fileSet, "create", d.wal.LogCreateFileSet(fileSet))
}

// FlushDelta applies the delta to the image and journals it. After a
// mutation of the file set whose append failed, it journals the whole
// image instead: replay then finds a base that covers the hole rather than
// a delta it must refuse.
func (d *Durable) FlushDelta(trace uint64, fileSet string, dl Delta) (uint64, error) {
	v, err := d.Store.FlushDelta(trace, fileSet, dl)
	if err != nil {
		return 0, err
	}
	d.mu.Lock()
	_, rebase := d.rebase[fileSet]
	d.mu.Unlock()
	if rebase {
		var im Image
		if im, err = d.Store.Load(fileSet); err == nil {
			err = d.wal.LogFlush(fileSet, im)
		}
	} else {
		err = d.wal.LogDelta(trace, fileSet, dl)
	}
	return v, d.settle(fileSet, "flush", err)
}

// Flush replaces the whole image and journals it at the version the store
// assigned, so replay installs exactly what the store held.
func (d *Durable) Flush(fileSet string, im Image) (uint64, error) {
	v, err := d.Store.Flush(fileSet, im)
	if err != nil {
		return 0, err
	}
	im.Version = v
	return v, d.settle(fileSet, "flush", d.wal.LogFlush(fileSet, im))
}

// Install adopts a complete image (fleet handoff) and journals it as a
// flush, so replay after a crash re-installs exactly the adopted state —
// KindFlush replay creates the file set if absent, so no separate create
// entry is needed.
func (d *Durable) Install(fileSet string, im Image) error {
	if err := d.Store.Install(fileSet, im); err != nil {
		return err
	}
	// Journal what the store now holds (Install may have defaulted the
	// version), not the caller's argument.
	installed, err := d.Store.Load(fileSet)
	if err != nil {
		return err
	}
	return d.settle(fileSet, "install", d.wal.LogFlush(fileSet, installed))
}

// DropFileSet removes the file set and journals the drop, so a restarted
// donor cannot resurrect a copy it already donated.
func (d *Durable) DropFileSet(fileSet string) error {
	if err := d.Store.DropFileSet(fileSet); err != nil {
		return err
	}
	return d.settle(fileSet, "drop", d.wal.LogDrop(fileSet))
}

// settle closes one mutation the store has already taken, given the
// journal's answer. A failed append leaves a hole in the file set's log,
// so it is marked for re-basing; a durable one clears the mark, counts
// toward the next snapshot and cuts it (compacting the log) every
// snapshotEvery entries.
func (d *Durable) settle(fileSet, what string, err error) error {
	d.mu.Lock()
	if err != nil {
		d.rebase[fileSet] = struct{}{}
		d.mu.Unlock()
		return fmt.Errorf("sharedisk: journal %s of %q: %w", what, fileSet, err)
	}
	delete(d.rebase, fileSet)
	d.sinceSnapshot++
	due := d.snapshotEvery > 0 && d.sinceSnapshot >= d.snapshotEvery
	if due {
		d.sinceSnapshot = 0
	}
	d.mu.Unlock()
	if !due {
		return nil
	}
	if err := d.wal.Snapshot(d.Store.Images); err != nil {
		return fmt.Errorf("sharedisk: snapshot: %w", err)
	}
	return nil
}

// Snapshot forces a snapshot + compaction now (shutdown path).
func (d *Durable) Snapshot() error {
	return d.wal.Snapshot(d.Store.Images)
}

// Close closes the underlying journal.
func (d *Durable) Close() error { return d.wal.Close() }
