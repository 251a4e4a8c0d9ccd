package main

import (
	"fmt"
	"hash/fnv"
	"time"

	"anufs/internal/rng"
	"anufs/internal/sharedisk"
)

// The op-stream generator. A stream is a pure function of (workload, seed,
// client index, client count): the fleet sees only the requests it yields.
//
// Every key has exactly one writer — client i of n writes only paths with
// path % n == i — so "the last acked value" of a key is well defined under
// concurrency and the verifier needs no history search.

type opKind uint8

const (
	opStat opKind = iota
	opUpdate
)

// op is one generated request. FileSet indexes the workload's flat file-set
// list (see fileSetNames); Seq is the issuing stream's write counter and is
// folded into the written value so every write is distinguishable.
type op struct {
	Kind    opKind
	FileSet int
	Path    int
	Seq     uint32
}

const (
	readShareReadMostly = 0.95
	zipfPathsReadMostly = 0.99
	zipfSetsHetero      = 1.0
	// ladderSeqBase keeps the ladder's written values apart from the ones
	// the measured windows wrote to the same keys.
	ladderSeqBase = 1 << 23
)

// recordFor is the value an op writes (and the populated value, with seq
// 0): the key is folded into Size, so any stat answer can be checked
// against the key it was asked for even when another client owns the key.
//
// ModTime is a fixed instant: left zero, create would stamp the wall clock
// and update would not, so an image's encoded size — and with it
// journal_bytes_per_write — would drift with how many records a run has
// touched so far.
func recordFor(fileSet, path int, seq uint32) sharedisk.Record {
	return sharedisk.Record{
		Size:    int64(fileSet)<<44 | int64(path)<<24 | int64(seq&0xffffff),
		Mode:    0o644,
		ModTime: recordModTime,
		Owner:   "bench",
	}
}

var recordModTime = time.Unix(1_700_000_000, 0).UTC()

// sameValue compares records across a JSON round trip (time.Time values
// need Equal, not ==).
func sameValue(a, b sharedisk.Record) bool {
	return a.Size == b.Size && a.Mode == b.Mode && a.Owner == b.Owner && a.ModTime.Equal(b.ModTime)
}

// keyOf recovers the (file set, path) a value was written for.
func keyOf(size int64) (fileSet, path int) {
	return int(size >> 44), int(size>>24) & 0xfffff
}

func pathName(path int) string { return fmt.Sprintf("/r%05d", path) }

// fileSetNames lists the workload's file sets in the order op.FileSet
// indexes them, with each one's record count.
func fileSetNames(w workloadSpec) (names []string, records []int) {
	for _, v := range w.Volumes {
		for i := 0; i < v.FileSets; i++ {
			if v.Name == "" {
				names = append(names, fmt.Sprintf("vol%02d", i))
			} else {
				names = append(names, fmt.Sprintf("%s/fs%02d", v.Name, i))
			}
			records = append(records, v.Records)
		}
	}
	return names, records
}

// writersOf is how many of the workload's clients write, i.e. the stripe
// count of its written key space.
func writersOf(w workloadSpec, clients int) int {
	if w.Name == wlMixedTenants {
		return clients / 2
	}
	return clients
}

type opStream struct {
	w       workloadSpec
	r       *rng.Stream
	zipf    *rng.Zipf
	client  int
	writers int
	seq     uint32
	records []int
}

// newOpStream builds client's stream. salt separates independent streams
// of the same client (the measured windows use 0, the ladder 1).
func newOpStream(w workloadSpec, seed uint64, client, clients int, salt uint64) *opStream {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d/%d", w.Name, client, salt)
	s := &opStream{w: w, r: rng.NewStream(seed ^ h.Sum64()), client: client, writers: writersOf(w, clients)}
	_, s.records = fileSetNames(w)
	switch w.Name {
	case wlReadMostly:
		s.zipf = rng.NewZipf(s.r.Split(), w.Volumes[0].Records, zipfPathsReadMostly)
	case wlHetero:
		s.zipf = rng.NewZipf(s.r.Split(), len(s.records), zipfSetsHetero)
	}
	if salt != 0 {
		s.seq = ladderSeqBase
	}
	return s
}

// ownPath maps a drawn path into this client's write stripe.
func (s *opStream) ownPath(path, records int) int {
	p := path - path%s.writers + s.client%s.writers
	if p >= records {
		p -= s.writers
	}
	return p
}

func (s *opStream) write(fileSet, path int) op {
	s.seq++
	return op{Kind: opUpdate, FileSet: fileSet, Path: s.ownPath(path, s.records[fileSet]), Seq: s.seq}
}

func (s *opStream) next() op {
	switch s.w.Name {
	case wlSmallWrite:
		fs := s.r.Intn(len(s.records))
		return s.write(fs, s.r.Intn(s.records[fs]))
	case wlReadMostly:
		read := s.r.Float64() < readShareReadMostly
		fs := s.r.Intn(len(s.records))
		path := s.zipf.Next()
		if read {
			return op{Kind: opStat, FileSet: fs, Path: path}
		}
		return s.write(fs, path)
	case wlMixedTenants:
		hot := s.w.Volumes[0].FileSets
		if s.client < s.writers {
			fs := s.r.Intn(hot)
			return s.write(fs, s.r.Intn(s.records[fs]))
		}
		fs := hot + s.r.Intn(s.w.Volumes[1].FileSets)
		return op{Kind: opStat, FileSet: fs, Path: s.r.Intn(s.records[fs])}
	default: // hetero-balance
		fs := s.zipf.Next()
		return op{Kind: opStat, FileSet: fs, Path: s.r.Intn(s.records[fs])}
	}
}
