package journal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"

	"anufs/internal/sharedisk"
)

// Log shipping support. A primary's journal is already a self-delimiting,
// CRC-checksummed stream of framed entries, so replication is "send the
// frames": the committer offers each one as it takes it (SetOffer, batch.go)
// and the Tailer reads back whatever the shipper did not get that way —
// sealed and in-progress segments from any sequence, capped at the durable
// boundary. AppendShipped, InstallSnapshot and ResetTo are the standby-side
// mirrors that persist shipped entries under the primary's sequence
// numbering, so a standby's DurableSeq IS its replication ack and survives
// standby restarts via the ordinary recovery path. A standby may be ahead
// of its primary's durable boundary; ResetTo is how a primary's next
// incarnation takes that suffix away again.

// Shipped is one journal entry in transit: the primary-assigned sequence
// and the raw entry payload (the bytes inside the frame, CRC-verified on
// read and re-framed plus re-verified on apply).
type Shipped struct {
	Seq     uint64
	Payload []byte
}

// DecodeEntry parses a shipped entry payload; ErrCorrupt on malformation.
func DecodeEntry(payload []byte) (Entry, error) { return decodeEntry(payload) }

// EncodeEntry serializes an entry payload (no frame header) — the inverse
// of DecodeEntry, exported for tests and tooling.
func EncodeEntry(e Entry) []byte { return encodeEntry(e) }

// Apply folds one entry into an image map exactly as recovery replay does:
// idempotent, version-guarded, ErrCorrupt for a delta that does not follow
// the version it finds. The standby uses it to keep a warm in-memory state
// alongside its journal; a delta is applied to the map's image in place.
func Apply(images map[string]sharedisk.Image, e Entry) error { return applyEntry(images, e) }

// EncodeImages serializes a full store cut for snapshot shipping.
func EncodeImages(images map[string]sharedisk.Image) []byte { return encodeImages(images) }

// DecodeImages parses a shipped store cut; ErrCorrupt on malformation.
func DecodeImages(payload []byte) (map[string]sharedisk.Image, error) {
	return decodeImages(payload)
}

// CaptureCut returns a consistent (sequence, images) pair for snapshot
// shipping: the durable sequence and the store cut are read with commits
// paused, so the cut covers every entry at or below the sequence. (Because
// the store applies before the journal appends, the cut may additionally
// include a not-yet-journaled mutation; replay on the far side is
// version-guarded, so re-shipping that entry later is harmless.)
func (j *Journal) CaptureCut(images func() map[string]sharedisk.Image) (uint64, map[string]sharedisk.Image) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.durable.Load(), images()
}

// segmentFor locates the segment whose entries include seq: the segment on
// disk with the largest first sequence <= seq. ok is false when every such
// segment has been compacted away (the caller needs a snapshot instead).
func (j *Journal) segmentFor(seq uint64) (path string, first uint64, ok bool, err error) {
	segs, err := filepath.Glob(filepath.Join(j.dir, "wal-*.log"))
	if err != nil {
		return "", 0, false, err
	}
	sort.Strings(segs)
	for _, p := range segs {
		f, nameOK := seqFromName(filepath.Base(p), "wal-", ".log")
		if !nameOK || f > seq {
			continue
		}
		if !ok || f > first {
			path, first, ok = p, f, true
		}
	}
	return path, first, ok, nil
}

// Tailer reads the journal's entries back in sequence order, following
// segment rotations and stopping at the durable boundary. One Tailer is a
// single-goroutine cursor; the shipper owns one per standby connection.
//
// A Tailer keeps its current segment file open, so compaction deleting the
// file mid-read is harmless (the inode lives until Close); only entries it
// has not reached yet can be compacted out from under it, which Next
// reports as snapshotNeeded.
type Tailer struct {
	j    *Journal
	next uint64 // sequence of the next entry to deliver

	f        *os.File
	segFirst uint64
	off      int64
}

// NewTailer starts a cursor that will deliver entries from sequence `from`
// (clamped to 1) onward.
func (j *Journal) NewTailer(from uint64) *Tailer {
	if from == 0 {
		from = 1
	}
	return &Tailer{j: j, next: from}
}

// NextSeq reports the sequence the tailer will deliver next.
func (t *Tailer) NextSeq() uint64 { return t.next }

// Close releases the open segment file. The Tailer is reusable after Close
// (the next Next reopens).
func (t *Tailer) Close() {
	if t.f != nil {
		t.f.Close()
		t.f = nil
	}
}

// Next returns the next run of durable entries, bounded by maxEntries and
// maxBytes (both must be positive). An empty result with snapshotNeeded
// false means the tailer is caught up — wait on the journal's CommitSignal.
// snapshotNeeded reports that the next entry has been compacted into a
// snapshot; the caller must ship a full cut (CaptureCut) and restart the
// tailer past it.
func (t *Tailer) Next(maxEntries int, maxBytes int64) (ents []Shipped, snapshotNeeded bool, err error) {
	durable := t.j.DurableSeq()
	var bytes int64
	for t.next <= durable && len(ents) < maxEntries && bytes < maxBytes {
		if t.f == nil {
			snap, err := t.open(t.next)
			if err != nil {
				return ents, false, err
			}
			if snap {
				// Deliver what was already read; the caller sees
				// snapshotNeeded once it drains to this point.
				return ents, len(ents) == 0, nil
			}
		}
		payload, n, ok, err := readFrameAt(t.f, t.off)
		if err != nil {
			return ents, false, fmt.Errorf("journal: tail %s@%d: %w", t.f.Name(), t.off, err)
		}
		if !ok {
			// No complete frame yet t.next is durable: the segment was
			// rotated and the entry lives in a newer one. Reopen there; if
			// the reopened segment is the same file, the directory is
			// inconsistent and retrying would spin.
			prev := t.segFirst
			t.Close()
			if snap, err := t.open(t.next); err != nil || snap {
				return ents, snap && len(ents) == 0, err
			}
			if t.segFirst == prev {
				t.Close()
				return ents, false, fmt.Errorf("journal: durable entry %d unreadable in segment %016x", t.next, prev)
			}
			continue
		}
		ents = append(ents, Shipped{Seq: t.next, Payload: payload})
		bytes += int64(n)
		t.off += int64(n)
		t.next++
	}
	return ents, false, nil
}

// open positions the tailer at seq: locate the covering segment, verify its
// header, and skip frames below seq.
func (t *Tailer) open(seq uint64) (snapshotNeeded bool, err error) {
	path, first, ok, err := t.j.segmentFor(seq)
	if err != nil {
		return false, err
	}
	if !ok {
		return true, nil
	}
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return true, nil // compacted between glob and open
		}
		return false, err
	}
	hdr := make([]byte, headerLen)
	if _, err := io.ReadFull(f, hdr); err != nil {
		f.Close()
		return false, fmt.Errorf("journal: tail %s: short header: %w", path, err)
	}
	hseq, hok := parseHeader(hdr, segMagic)
	if !hok || hseq != first {
		f.Close()
		return false, fmt.Errorf("journal: tail %s: bad header", path)
	}
	off := int64(headerLen)
	for cur := first; cur < seq; cur++ {
		_, n, ok, err := readFrameAt(f, off)
		if err != nil || !ok {
			f.Close()
			if err == nil {
				err = fmt.Errorf("journal: entry %d missing while seeking %d in %s", cur, seq, path)
			}
			return false, err
		}
		off += int64(n)
	}
	t.f, t.segFirst, t.off = f, first, off
	return false, nil
}

// readFrameAt reads one complete frame at off. ok=false with a nil error
// means the frame is not (fully) there — a clean end for the reader. A CRC
// mismatch on a complete frame is real corruption and returns an error,
// because tailers only read below the durable boundary where torn writes
// cannot exist.
func readFrameAt(f *os.File, off int64) (payload []byte, n int, ok bool, err error) {
	var hdr [frameHeaderLen]byte
	if _, rerr := f.ReadAt(hdr[:], off); rerr != nil {
		return nil, 0, false, nil // short/EOF: nothing complete here
	}
	ln := binary.LittleEndian.Uint32(hdr[0:4])
	if ln > maxFrameLen {
		return nil, 0, false, fmt.Errorf("%w: frame length %d", ErrCorrupt, ln)
	}
	payload = make([]byte, ln)
	if _, rerr := f.ReadAt(payload, off+frameHeaderLen); rerr != nil {
		return nil, 0, false, nil
	}
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return nil, 0, false, fmt.Errorf("%w: bad frame CRC below durable boundary", ErrCorrupt)
	}
	return payload, frameHeaderLen + int(ln), true, nil
}

// AppendShipped persists replicated entries on a standby, preserving the
// primary's sequence numbering: entries at or below the standby's durable
// sequence are skipped (resume overlap), the rest must be contiguous from
// it. The batch is written with one write and one fsync, exactly like a
// group commit. Standby-side API only — a journal must not mix AppendShipped
// with local Log* appends, or the sequence spaces would interleave.
func (j *Journal) AppendShipped(ents []Shipped) error {
	for _, e := range ents {
		if _, err := decodeEntry(e.Payload); err != nil {
			return fmt.Errorf("journal: shipped entry %d: %w", e.Seq, err)
		}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.failed != nil {
		return j.failed
	}
	if j.f == nil || j.closed {
		return ErrClosed
	}
	var buf []byte
	last, count := j.durable.Load(), 0
	for _, e := range ents {
		if e.Seq <= last {
			continue // already durable here
		}
		if e.Seq != last+1 {
			return fmt.Errorf("journal: shipped sequence gap: have %d, got %d", last, e.Seq)
		}
		buf = appendFrame(buf, e.Payload)
		last, count = e.Seq, count+1
	}
	if count == 0 {
		return nil
	}
	if j.segSize >= j.opts.SegmentBytes && j.segSize > headerLen {
		if err := j.openSegmentLocked(); err != nil {
			return j.failLocked(err)
		}
	}
	if _, err := j.f.Write(buf); err != nil {
		return j.failLocked(err)
	}
	if err := j.syncFile(j.f); err != nil {
		return j.failLocked(err)
	}
	j.segSize += int64(len(buf))
	j.advanceLocked(last)
	j.countCommit(count, len(buf))
	return nil
}

// InstallSnapshot adopts a full shipped cut at seq on a standby whose own
// log has fallen behind the primary's compaction horizon: the snapshot file
// is written (atomic rename is the commit point), the sequence space jumps
// to seq+1 with a fresh active segment, and superseded segments/snapshots
// are compacted away. A no-op when the standby already has everything the
// cut covers. Crash-safe at every step: until the rename the old state
// recovers; after it, recovery adopts the snapshot and ignores older
// segments' entries.
func (j *Journal) InstallSnapshot(seq uint64, images map[string]sharedisk.Image) error {
	j.snapMu.Lock()
	defer j.snapMu.Unlock()

	j.mu.Lock()
	if j.f == nil || j.closed {
		j.mu.Unlock()
		return ErrClosed
	}
	if seq <= j.durable.Load() {
		j.mu.Unlock()
		return nil
	}
	j.mu.Unlock()

	if _, err := writeSnapshot(j.dir, "snap-", seq, images); err != nil {
		return err
	}
	j.obs.Counter(CtrSnapshots).Add(1)

	j.mu.Lock()
	j.advanceLocked(seq)
	if err := j.openSegmentLocked(); err != nil {
		j.mu.Unlock()
		return err
	}
	activeName := j.f.Name()
	j.mu.Unlock()
	return j.compact(seq, activeName)
}

// ResetTo replaces everything a standby holds with the cut at seq — unlike
// InstallSnapshot whether or not the standby is already past seq, and its
// log restarts at seq+1 even if that moves the durable boundary back. A
// primary's new incarnation opens with it (DESIGN.md §11): the standby may
// hold a suffix the last incarnation shipped but never made durable, and
// the new one gives those sequences to other entries.
//
// There is one commit point. The cut is first written under a name of its
// own, reset-<seq>.snap (temp + fsync + rename), which recovery prefers to
// everything else in the directory; only then are the segments and
// snapshots deleted, the cut given its ordinary name and a fresh segment
// opened. A crash before the rename recovers the complete old state, a
// crash after it the complete cut (Open finishes the deletions), never old
// entries replayed over the new cut — which is what dropping the segments
// above the cut in place could leave. An error after the commit point
// stops the journal; a restart finishes the reset.
func (j *Journal) ResetTo(seq uint64, images map[string]sharedisk.Image) error {
	j.snapMu.Lock()
	defer j.snapMu.Unlock()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.failed != nil {
		return j.failed
	}
	if j.f == nil || j.closed {
		return ErrClosed
	}
	resetPath, err := writeSnapshot(j.dir, "reset-", seq, images)
	if err != nil {
		return err
	}
	err = j.f.Close()
	j.f = nil
	if err == nil {
		err = finishReset(j.dir, resetPath, seq)
	}
	if err != nil {
		return j.failLocked(err)
	}
	j.obs.Counter(CtrSnapshots).Add(1)
	j.advanceLocked(seq)
	if err := j.openSegmentLocked(); err != nil {
		return j.failLocked(err)
	}
	return nil
}
