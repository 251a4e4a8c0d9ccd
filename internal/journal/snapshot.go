package journal

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"anufs/internal/binenc"
	"anufs/internal/sharedisk"
)

// Snapshot persists a full cut of the store and compacts the log: the cut
// is captured while the committer is paused (so it reflects every durable
// entry up to the captured sequence), written to a temp file, fsynced,
// renamed into place, and only then are the covered segments and any older
// snapshots deleted. A crash anywhere in between leaves a recoverable
// directory — the rename is the commit point.
//
// images is a closure (rather than a pre-captured map) precisely so the cut
// cannot be older than the sequence it claims to cover: an entry acked
// before the capture has necessarily been applied to the store already.
func (j *Journal) Snapshot(images func() map[string]sharedisk.Image) error {
	j.snapMu.Lock()
	defer j.snapMu.Unlock()

	j.mu.Lock()
	if j.f == nil {
		j.mu.Unlock()
		return ErrClosed
	}
	cut := images()
	seq := j.durable.Load()
	// Rotate so every non-active segment holds only entries <= seq. An
	// active segment with no entries yet is already in that position (and
	// re-creating it would collide on O_EXCL).
	if j.segSize > headerLen {
		if err := j.openSegmentLocked(); err != nil {
			j.mu.Unlock()
			return err
		}
	}
	activeName := j.f.Name()
	j.mu.Unlock()

	if _, err := writeSnapshot(j.dir, "snap-", seq, cut); err != nil {
		return err
	}
	j.obs.Counter(CtrSnapshots).Add(1)
	return j.compact(seq, activeName)
}

// compact removes everything the snapshot at seq supersedes: the segments
// before activeName, the one active when the cut was taken, and all
// snapshots below seq. Segment names sort by first sequence, and a segment
// the committer opened after the cut holds entries past seq, so it stays.
func (j *Journal) compact(seq uint64, activeName string) error {
	segs, err := filepath.Glob(filepath.Join(j.dir, "wal-*.log"))
	if err != nil {
		return err
	}
	removed := 0
	for _, p := range segs {
		if p >= activeName {
			continue
		}
		if err := os.Remove(p); err != nil {
			return err
		}
		removed++
	}
	j.obs.Counter(CtrCompacted).Add(int64(removed))
	snaps, err := filepath.Glob(filepath.Join(j.dir, "snap-*.snap"))
	if err != nil {
		return err
	}
	for _, p := range snaps {
		if s, ok := seqFromName(filepath.Base(p), "snap-", ".snap"); ok && s < seq {
			if err := os.Remove(p); err != nil {
				return err
			}
		}
	}
	return syncDir(j.dir)
}

// snapshotName is the path of the cut at seq: prefix "snap-" for a
// snapshot, "reset-" for a standby reset that has not finished.
func snapshotName(dir, prefix string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016x.snap", prefix, seq))
}

// writeSnapshot writes <prefix><seq>.snap atomically (temp + fsync + rename
// + dir fsync) and returns its path. Body: header, then one CRC frame
// holding the encoded images.
func writeSnapshot(dir, prefix string, seq uint64, images map[string]sharedisk.Image) (string, error) {
	var hdr [headerLen]byte
	putHeader(&hdr, snapMagic, seq)
	buf := append([]byte(nil), hdr[:]...)
	buf = appendFrame(buf, encodeImages(images))

	final := snapshotName(dir, prefix, seq)
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return "", err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	if err := os.Rename(tmp, final); err != nil {
		return "", err
	}
	return final, syncDir(dir)
}

// encodeImages serializes a full store cut, file sets in sorted order.
func encodeImages(images map[string]sharedisk.Image) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(images)))
	fileSets := make([]string, 0, len(images))
	for fs := range images {
		fileSets = append(fileSets, fs)
	}
	slices.Sort(fileSets)
	var keys []string
	for _, fs := range fileSets {
		buf = binenc.AppendString(buf, fs)
		buf = appendImage(buf, images[fs], &keys)
	}
	return buf
}

// decodeImages parses a full store cut; ErrCorrupt on any malformation.
func decodeImages(payload []byte) (map[string]sharedisk.Image, error) {
	c := &binenc.Cursor{B: payload}
	n := c.Count()
	if c.Bad {
		return nil, ErrCorrupt
	}
	images := make(map[string]sharedisk.Image, n)
	for i := 0; i < n && !c.Bad; i++ {
		fs := c.Str()
		images[fs] = decodeImage(c)
	}
	if c.Bad {
		return nil, ErrCorrupt
	}
	if c.Len() != 0 {
		return nil, fmt.Errorf("%w: %d trailing snapshot bytes", ErrCorrupt, c.Len())
	}
	return images, nil
}

// seqFromName parses the hex sequence out of a journal file name.
func seqFromName(name, prefix, suffix string) (uint64, bool) {
	if len(name) != len(prefix)+16+len(suffix) ||
		name[:len(prefix)] != prefix || name[len(name)-len(suffix):] != suffix {
		return 0, false
	}
	var seq uint64
	if _, err := fmt.Sscanf(name[len(prefix):len(prefix)+16], "%016x", &seq); err != nil {
		return 0, false
	}
	return seq, true
}
