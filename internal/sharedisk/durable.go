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
// keep a reference to an image or delta past their return. LogDelta alone
// is two-phase: it returns once the entry has its place in the log, and the
// LogWait it hands back reports durability.
//
// A WAL fails stop: once an append has failed, every later one fails too.
// Durable relies on it — a delta may be queued behind one whose failure is
// not known yet, and must not reach the log above the hole.
type WAL interface {
	// LogCreateFileSet records the birth of an empty file set.
	LogCreateFileSet(fileSet string) error
	// LogDelta queues a flushed delta — the unit of durability — behind
	// every entry logged before it. An error means nothing was queued.
	// trace attributes the append to the client request that forced it
	// (0 = untraced).
	LogDelta(trace uint64, fileSet string, d Delta) (LogWait, error)
	// LogFlush records a whole image at the version the store holds it
	// (an adopted image).
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

// LogWait is the second half of WAL.LogDelta: Wait blocks until the queued
// entry is durable and must be called exactly once.
type LogWait interface {
	Wait() error
}

// Commit is the second half of Disk.FlushDelta: Wait blocks until the flush
// is durable and returns what a blocking flush would have. The image took
// the delta when FlushDelta returned; Wait only reports whether it will
// survive a crash. The zero Commit (the in-memory Store's, where applied is
// all there is) has nothing to wait for. Call Wait at most once.
type Commit struct {
	d       *Durable
	fileSet string
	entry   LogWait
}

// Wait blocks until the flush is durable.
func (c Commit) Wait() error {
	if c.d == nil {
		return nil
	}
	return c.d.settle(c.fileSet, "flush", c.entry.Wait())
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
// have — a flush is durable when (and only when) its wait returns nil.
// One file set's flushes must come from one goroutine at a time (its
// owner), so that apply order is queue order is version order.
type Durable struct {
	*Store
	wal WAL

	// snapshotEvery triggers a snapshot + log compaction after that many
	// journaled entries; <= 0 disables automatic snapshots.
	snapshotEvery int
	mu            sync.Mutex
	sinceSnapshot int
}

// NewDurable wraps a store with a write-ahead log. The store is typically
// the one journal recovery just rebuilt, so log and memory start aligned.
func NewDurable(st *Store, wal WAL, snapshotEvery int) *Durable {
	return &Durable{Store: st, wal: wal, snapshotEvery: snapshotEvery}
}

// CreateFileSet initializes an empty image and journals the creation.
func (d *Durable) CreateFileSet(fileSet string) error {
	if err := d.Store.CreateFileSet(fileSet); err != nil {
		return err
	}
	return d.settle(fileSet, "create", d.wal.LogCreateFileSet(fileSet))
}

// FlushDelta applies the delta to the image and queues it in the journal;
// the Commit's Wait reports when it is durable. A refused append returns
// the stepped version with the error: the image holds the delta, the log
// never will.
func (d *Durable) FlushDelta(trace uint64, fileSet string, dl Delta) (uint64, Commit, error) {
	v, _, err := d.Store.FlushDelta(trace, fileSet, dl)
	if err != nil {
		return 0, Commit{}, err
	}
	entry, err := d.wal.LogDelta(trace, fileSet, dl)
	if err != nil {
		return v, Commit{}, d.settle(fileSet, "flush", err)
	}
	return v, Commit{d: d, fileSet: fileSet, entry: entry}, nil
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
// journal's answer: a durable one counts toward the next snapshot and cuts
// it (compacting the log) every snapshotEvery entries. A failed one needs
// no repair here — the WAL fails stop, so nothing can be logged above the
// hole it left.
func (d *Durable) settle(fileSet, what string, err error) error {
	if err != nil {
		return fmt.Errorf("sharedisk: journal %s of %q: %w", what, fileSet, err)
	}
	d.mu.Lock()
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
