package journal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"anufs/internal/sharedisk"
)

// RecoverInfo reports what recovery found and did.
type RecoverInfo struct {
	// SnapshotSeq is the sequence the adopted snapshot covers (0 = none).
	SnapshotSeq uint64
	// Entries is the number of log entries replayed on top of the snapshot.
	Entries int
	// LastSeq is the sequence of the last durable entry.
	LastSeq uint64
	// FileSets is the number of file sets in the recovered store.
	FileSets int
	// Truncated reports that a torn or corrupt record ended the replay
	// early; TruncatedSegment/ValidBytes locate the cut.
	Truncated        bool
	TruncatedSegment string
	ValidBytes       int64
	// Duration is the wall time replay took.
	Duration time.Duration

	// strandedSegments are segments after the truncation point; Open
	// deletes them so future appends cannot resurrect discarded suffixes.
	strandedSegments []string
	// pendingReset is the reset cut recovery adopted in place of everything
	// else in the directory (see ResetTo); Open finishes the reset.
	pendingReset string
}

// cleanupOp is one filesystem mutation of the torn-tail cleanup or of a
// standby reset. Keeping the plans enumerable lets the crash-injection
// tests stop them after any step and assert what the directory then
// recovers to.
type cleanupOp struct {
	path string
	// truncate cuts the file to validBytes, renameTo moves it and sync
	// fsyncs it (a directory); otherwise the file is removed.
	truncate   bool
	validBytes int64
	renameTo   string
	sync       bool
}

func (op cleanupOp) apply() error {
	if op.sync {
		return syncDir(op.path)
	}
	if op.renameTo != "" {
		if err := os.Rename(op.path, op.renameTo); err != nil {
			return fmt.Errorf("journal: finish reset: %w", err)
		}
		return nil
	}
	if op.truncate {
		if err := os.Truncate(op.path, op.validBytes); err != nil {
			return fmt.Errorf("journal: truncate torn tail: %w", err)
		}
		return nil
	}
	if err := os.Remove(op.path); err != nil {
		return fmt.Errorf("journal: drop %s: %w", filepath.Base(op.path), err)
	}
	return nil
}

// resetFinishOps plans the second half of a standby reset (ResetTo), once
// the cut is in the directory under its reset name at resetPath: delete
// every segment, every snapshot and any other reset file, then give the cut
// its ordinary snapshot name. While the reset file exists recovery reads
// nothing else, so the deletions need no order among themselves; the rename
// comes last, once the deletions are durable — a directory that kept the
// rename but lost a deletion would replay an old segment over the cut — and
// a crash after any prefix recovers to the cut.
func resetFinishOps(dir, resetPath string, seq uint64) ([]cleanupOp, error) {
	var ops []cleanupOp
	for _, pattern := range []string{"wal-*.log", "snap-*.snap", "reset-*.snap"} {
		paths, err := filepath.Glob(filepath.Join(dir, pattern))
		if err != nil {
			return nil, err
		}
		for _, p := range paths {
			if p != resetPath {
				ops = append(ops, cleanupOp{path: p})
			}
		}
	}
	return append(ops,
		cleanupOp{path: dir, sync: true},
		cleanupOp{path: resetPath, renameTo: snapshotName(dir, "snap-", seq)},
		cleanupOp{path: dir, sync: true}), nil
}

// finishReset runs resetFinishOps.
func finishReset(dir, resetPath string, seq uint64) error {
	ops, err := resetFinishOps(dir, resetPath, seq)
	if err != nil {
		return err
	}
	for _, op := range ops {
		if err := op.apply(); err != nil {
			return err
		}
	}
	return nil
}

// tornTailCleanupOps plans the mutations that make the on-disk log agree
// with what replay could use after a tear. Ordering is load-bearing:
// stranded segments are removed first, NEWEST first, and the torn segment
// is cut last. A crash after any prefix of these ops then leaves the torn
// segment in place, so the next recovery re-derives the same truncation
// point and never replays a stranded segment past the hole. (Cutting the
// torn segment first looks clean to the next recovery, which would then
// replay the surviving stranded segments — resurrecting entries this
// recovery already discarded and leaving a sequence gap.) A segment whose
// very header is unreadable keeps no bytes — it is removed outright so it
// cannot wedge the next recovery at offset zero.
func tornTailCleanupOps(info RecoverInfo) []cleanupOp {
	if !info.Truncated {
		return nil
	}
	ops := make([]cleanupOp, 0, len(info.strandedSegments)+1)
	for i := len(info.strandedSegments) - 1; i >= 0; i-- {
		ops = append(ops, cleanupOp{path: info.strandedSegments[i]})
	}
	if info.ValidBytes < headerLen {
		ops = append(ops, cleanupOp{path: info.TruncatedSegment})
	} else {
		ops = append(ops, cleanupOp{path: info.TruncatedSegment, truncate: true, validBytes: info.ValidBytes})
	}
	return ops
}

// Recover replays the journal directory read-only and returns the
// prefix-consistent store it describes: the newest intact snapshot plus
// every intact log entry after it, stopping at the first torn or corrupt
// record. A missing or empty directory recovers to an empty store.
func Recover(dir string) (*sharedisk.Store, RecoverInfo, error) {
	images, info, err := replayDir(dir)
	if err != nil {
		return nil, info, err
	}
	return sharedisk.NewStoreFromImages(images, 0), info, nil
}

// replayDir does the work of Recover without materializing a store.
func replayDir(dir string) (map[string]sharedisk.Image, RecoverInfo, error) {
	start := now()
	info := RecoverInfo{}
	images := map[string]sharedisk.Image{}

	// A reset cut is the whole state: whatever else is in the directory is
	// what the reset had not got round to deleting.
	resets, err := filepath.Glob(filepath.Join(dir, "reset-*.snap"))
	if err != nil {
		return nil, info, err
	}
	sort.Sort(sort.Reverse(sort.StringSlice(resets)))
	for _, p := range resets {
		ims, seq, err := loadSnapshot(p)
		if err != nil {
			continue
		}
		info.SnapshotSeq, info.LastSeq, info.pendingReset = seq, seq, p
		info.FileSets = len(ims)
		info.Duration = now().Sub(start)
		return ims, info, nil
	}

	// Adopt the newest intact snapshot; a corrupt one (crash mid write
	// would normally be caught by the atomic rename, but disks lie) falls
	// back to the next newest.
	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if err != nil {
		return nil, info, err
	}
	sort.Sort(sort.Reverse(sort.StringSlice(snaps)))
	for _, p := range snaps {
		ims, seq, err := loadSnapshot(p)
		if err != nil {
			continue
		}
		images, info.SnapshotSeq = ims, seq
		break
	}
	info.LastSeq = info.SnapshotSeq

	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		return nil, info, err
	}
	sort.Strings(segs)
	for i, p := range segs {
		done, err := replaySegment(p, images, &info)
		if err != nil {
			return nil, info, err
		}
		if done {
			info.strandedSegments = segs[i+1:]
			break
		}
	}
	info.FileSets = len(images)
	info.Duration = now().Sub(start)
	return images, info, nil
}

// replaySegment applies one segment's intact entries. done=true means a
// torn/corrupt record (or bad header) was hit and replay must stop for good
// — a later segment cannot be trusted past a hole.
func replaySegment(path string, images map[string]sharedisk.Image, info *RecoverInfo) (done bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return false, err
	}
	torn := func(valid int64) (bool, error) {
		info.Truncated = true
		info.TruncatedSegment = path
		info.ValidBytes = valid
		return true, nil
	}
	seq, ok := parseHeader(data, segMagic)
	if !ok {
		// An unreadable header strands the whole segment: nothing in it can
		// be sequenced, so recovery keeps none of it.
		return torn(0)
	}
	off := int64(headerLen)
	for int(off) < len(data) {
		payload, n, ok := nextFrame(data[off:])
		if !ok {
			return torn(off)
		}
		e, err := decodeEntry(payload)
		if err != nil {
			return torn(off)
		}
		if seq > info.SnapshotSeq {
			if err := applyEntry(images, e); err != nil {
				return torn(off)
			}
			info.Entries++
		}
		off += int64(n)
		if seq > info.LastSeq {
			info.LastSeq = seq
		}
		seq++
	}
	return false, nil
}

// applyEntry folds one entry into the image map. Application is
// "if newer": a flush installs its image only over a lower version, a
// create never clobbers an existing file set, and a delta lands only on
// the version just before the one it produced — at or below the current
// version it is already covered by a snapshot or a later image and is
// skipped. So replay is idempotent and tolerant of entries a snapshot
// already covers. A delta that would leave a version gap (or has no file
// set to land on) is never applied: the log is corrupt at that entry. So
// is a kind with no replay arm — it is refused, never skipped
// (TestEveryKindReplays holds every EntryKind constant to an arm here).
func applyEntry(images map[string]sharedisk.Image, e Entry) error {
	switch e.Kind {
	case KindCreateFileSet:
		if _, ok := images[e.FileSet]; !ok {
			images[e.FileSet] = sharedisk.Image{Version: 1, Records: map[string]sharedisk.Record{}}
		}
	case KindFlush:
		if cur, ok := images[e.FileSet]; !ok || e.Image.Version > cur.Version {
			images[e.FileSet] = e.Image
		}
	case KindDelta:
		cur, ok := images[e.FileSet]
		if ok && e.Image.Version <= cur.Version {
			return nil
		}
		if !ok || e.Image.Version != cur.Version+1 {
			return fmt.Errorf("%w: delta of %q to version %d does not follow version %d",
				ErrCorrupt, e.FileSet, e.Image.Version, cur.Version)
		}
		for path, rec := range e.Image.Records {
			cur.Records[path] = rec
		}
		for _, path := range e.Removed {
			delete(cur.Records, path)
		}
		cur.Version = e.Image.Version
		images[e.FileSet] = cur
	case KindDrop:
		delete(images, e.FileSet)
	default:
		return fmt.Errorf("%w: no replay for kind %d", ErrCorrupt, e.Kind)
	}
	return nil
}

// loadSnapshot reads and verifies one snapshot file.
func loadSnapshot(path string) (map[string]sharedisk.Image, uint64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	seq, ok := parseHeader(data, snapMagic)
	if !ok {
		return nil, 0, fmt.Errorf("%w: bad snapshot header", ErrCorrupt)
	}
	payload, n, ok := nextFrame(data[headerLen:])
	if !ok || headerLen+n != len(data) {
		return nil, 0, fmt.Errorf("%w: torn snapshot", ErrCorrupt)
	}
	images, err := decodeImages(payload)
	if err != nil {
		return nil, 0, err
	}
	return images, seq, nil
}
