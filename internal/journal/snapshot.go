package journal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"

	"anufs/internal/binenc"
	"anufs/internal/sharedisk"
)

// Snapshot persists a full cut of the store and compacts the log. The cut
// is streamed to a temp file while the committer is paused, so it reflects
// every durable entry up to the captured sequence; the file is then
// fsynced and renamed into place, and only then are the covered segments
// and any older snapshots deleted. A crash anywhere in between leaves a
// recoverable directory — the rename is the commit point.
//
// cut lends the caller's live image map to encode for the length of the
// call, under whatever lock keeps it still: the snapshot is written from
// the map itself, with no copy, and cannot be older than the sequence it
// claims to cover — an entry acked before the cut has necessarily been
// applied to the store already. The journal lock is held across it, so the
// lock order is journal, then store.
func (j *Journal) Snapshot(cut func(encode func(map[string]sharedisk.Image) error) error) (err error) {
	j.snapMu.Lock()
	defer j.snapMu.Unlock()

	j.mu.Lock()
	if j.f == nil {
		j.mu.Unlock()
		return ErrClosed
	}
	defer func() {
		if err != nil {
			j.ctrSnapFailures.Add(1)
		}
	}()
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
	s, err := createSnapshot(j.dir, "snap-", seq)
	if err == nil {
		if err = cut(s.encode); err != nil {
			s.abort()
		}
	}
	j.mu.Unlock()
	if err != nil {
		return err
	}

	if _, err := s.commit(); err != nil {
		return err
	}
	j.ctrSnapshots.Add(1)
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
	j.ctrCompacted.Add(int64(removed))
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

// snapshotBufLen is the snapshot writer's buffer: a cut of any size
// reaches the file through this much memory.
const snapshotBufLen = 64 << 10

// maxSnapshotPayload is the largest cut the writer commits. loadSnapshot
// refuses a frame over maxFrameLen, so a larger cut would be a snapshot
// recovery cannot load, with the log it replaced compacted away. A test
// lowers it.
var maxSnapshotPayload int64 = maxFrameLen

// writeSnapshot writes <prefix><seq>.snap atomically (temp + fsync + rename
// + dir fsync) and returns its path. Body: header, then one CRC frame
// holding the encoded images.
func writeSnapshot(dir, prefix string, seq uint64, images map[string]sharedisk.Image) (string, error) {
	s, err := createSnapshot(dir, prefix, seq)
	if err != nil {
		return "", err
	}
	if err := s.encode(images); err != nil {
		s.abort()
		return "", err
	}
	return s.commit()
}

// snapshotFile is a snapshot being written to <final>.tmp: the header, a
// frame header filled in by commit, then the cut as encode streams it.
// Every snapshot file is written by one, byte for byte what
// header ‖ appendFrame(encodeImages(images)) would be.
type snapshotFile struct {
	dir, final string
	f          *os.File
	bw         *bufio.Writer
	keys       []string // sort scratch, sized for the largest image
	encoded    bool
	err        error // the first write error
	// crc and n are the CRC and length of the payload written to f so far.
	crc uint32
	n   int64
}

// createSnapshot opens the temp file for the snapshot at seq and writes
// everything before the payload, the frame header as a placeholder.
func createSnapshot(dir, prefix string, seq uint64) (*snapshotFile, error) {
	final := snapshotName(dir, prefix, seq)
	f, err := os.OpenFile(final+".tmp", os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	var head [headerLen + frameHeaderLen]byte
	putHeader((*[headerLen]byte)(head[:headerLen]), snapMagic, seq)
	s := &snapshotFile{dir: dir, final: final, f: f}
	if _, err := f.Write(head[:]); err != nil {
		s.abort()
		return nil, err
	}
	s.bw = bufio.NewWriterSize(payloadSink{s}, snapshotBufLen)
	return s, nil
}

// payloadSink is the buffer's way to the file: it keeps the frame's CRC
// and length of what passes, and refuses what would take the payload past
// maxSnapshotPayload.
type payloadSink struct{ s *snapshotFile }

func (p payloadSink) Write(b []byte) (int, error) {
	s := p.s
	if s.n+int64(len(b)) > maxSnapshotPayload {
		return 0, fmt.Errorf("journal: snapshot cut passes the %d bytes a snapshot frame may hold", maxSnapshotPayload)
	}
	s.crc = crc32.Update(s.crc, crc32.IEEETable, b)
	s.n += int64(len(b))
	return s.f.Write(b)
}

// encode streams one cut as the frame's payload: the bytes encodeImages
// returns, file sets in sorted order, each image record by record through
// the buffer. It stops at the first file set after a write fails.
func (s *snapshotFile) encode(images map[string]sharedisk.Image) error {
	if s.encoded {
		return errors.New("journal: snapshot cut encoded twice")
	}
	s.encoded = true
	fileSets := make([]string, 0, len(images))
	most := 0
	for fs, im := range images {
		fileSets = append(fileSets, fs)
		if n := len(im.Records); n > most {
			most = n
		}
	}
	slices.Sort(fileSets)
	s.keys = make([]string, 0, most)
	s.put(binary.AppendUvarint(s.bw.AvailableBuffer(), uint64(len(images))))
	for _, fs := range fileSets {
		im := images[fs]
		s.put(appendImageHead(binenc.AppendString(s.bw.AvailableBuffer(), fs), im))
		paths := sortedPaths(im, &s.keys)
		for _, path := range paths {
			s.put(appendRecord(s.bw.AvailableBuffer(), path, im.Records[path]))
		}
		s.keys = release(paths)
		if s.err != nil {
			return s.err
		}
	}
	return s.bw.Flush()
}

// put writes one encoded piece through the buffer; b is built in the
// buffer's free space, so a piece that fits is not copied.
func (s *snapshotFile) put(b []byte) {
	if s.err == nil {
		_, s.err = s.bw.Write(b)
	}
}

// commit fills in the frame header, fsyncs the file, renames it into
// place — the commit point — and fsyncs the directory. On an error before
// the rename the temp file is removed.
func (s *snapshotFile) commit() (string, error) {
	if !s.encoded {
		s.abort()
		return "", errors.New("journal: snapshot has no cut")
	}
	var fh [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(fh[0:4], uint32(s.n))
	binary.LittleEndian.PutUint32(fh[4:8], s.crc)
	if _, err := s.f.WriteAt(fh[:], headerLen); err != nil {
		s.abort()
		return "", err
	}
	if err := s.f.Sync(); err != nil {
		s.abort()
		return "", err
	}
	if err := s.f.Close(); err != nil {
		os.Remove(s.f.Name())
		return "", err
	}
	if err := os.Rename(s.f.Name(), s.final); err != nil {
		return "", err
	}
	return s.final, syncDir(s.dir)
}

// abort abandons the snapshot and removes its temp file.
func (s *snapshotFile) abort() {
	s.f.Close()
	os.Remove(s.f.Name())
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
