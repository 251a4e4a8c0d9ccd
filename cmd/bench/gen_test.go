package main

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// streamBytes serializes the first n ops of a stream.
func streamBytes(w workloadSpec, seed uint64, client, clients, n int) []byte {
	s := newOpStream(w, seed, client, clients, 0)
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		o := s.next()
		_ = binary.Write(&buf, binary.LittleEndian, [4]uint32{uint32(o.Kind), uint32(o.FileSet), uint32(o.Path), o.Seq})
	}
	return buf.Bytes()
}

func TestStreamIsAPureFunctionOfWorkloadSeedAndClient(t *testing.T) {
	for _, w := range workloads {
		a := streamBytes(w, 7, 1, 4, 5000)
		if !bytes.Equal(a, streamBytes(w, 7, 1, 4, 5000)) {
			t.Errorf("%s: the same seed did not reproduce the stream byte for byte", w.Name)
		}
		if bytes.Equal(a, streamBytes(w, 8, 1, 4, 5000)) {
			t.Errorf("%s: another seed gave the same stream", w.Name)
		}
		if bytes.Equal(a, streamBytes(w, 7, 2, 4, 5000)) {
			t.Errorf("%s: another client gave the same stream", w.Name)
		}
	}
}

func TestMixAndZipfProportions(t *testing.T) {
	const n = 400000
	within := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 0.01 {
			t.Errorf("%s = %.4f, want %.4f within 1%%", name, got, want)
		}
	}
	// Share of rank 0 under Zipf(s) over k ranks.
	top := func(k int, s float64) float64 {
		sum := 0.0
		for i := 1; i <= k; i++ {
			sum += 1 / math.Pow(float64(i), s)
		}
		return 1 / sum
	}

	rm, _ := findWorkload(wlReadMostly)
	s := newOpStream(rm, 3, 0, 2, 0)
	reads, topPath := 0, 0
	for i := 0; i < n; i++ {
		o := s.next()
		if o.Kind == opStat {
			reads++
			if o.Path == 0 {
				topPath++
			}
		}
	}
	within("read-mostly stat share", float64(reads)/n, readShareReadMostly)
	within("read-mostly hottest path share", float64(topPath)/float64(reads), top(rm.Volumes[0].Records, zipfPathsReadMostly))

	hb, _ := findWorkload(wlHetero)
	s = newOpStream(hb, 3, 5, 32, 0)
	topSet := 0
	for i := 0; i < n; i++ {
		if o := s.next(); o.FileSet == 0 {
			topSet++
		}
	}
	within("hetero-balance hottest file set share", float64(topSet)/n, top(32, zipfSetsHetero))

	mt, _ := findWorkload(wlMixedTenants)
	hot := mt.Volumes[0].FileSets
	for client := 0; client < 4; client++ {
		s = newOpStream(mt, 3, client, 4, 0)
		for i := 0; i < 1000; i++ {
			o := s.next()
			if writer := client < 2; writer != (o.Kind == opUpdate) || writer != (o.FileSet < hot) {
				t.Fatalf("mixed-tenants client %d issued %+v", client, o)
			}
		}
	}
}

// Every written key has exactly one writer, and written values carry their
// key.
func TestWrittenKeysHaveOneWriter(t *testing.T) {
	for _, w := range workloads {
		const clients = 3
		owner := map[[2]int]int{}
		_, records := fileSetNames(w)
		for c := 0; c < clients; c++ {
			s := newOpStream(w, 11, c, clients, 0)
			for i := 0; i < 20000; i++ {
				o := s.next()
				if o.Path < 0 || o.Path >= records[o.FileSet] {
					t.Fatalf("%s: path %d outside file set %d", w.Name, o.Path, o.FileSet)
				}
				if o.Kind != opUpdate {
					continue
				}
				key := [2]int{o.FileSet, o.Path}
				if prev, seen := owner[key]; seen && prev != c {
					t.Fatalf("%s: key %v written by clients %d and %d", w.Name, key, prev, c)
				}
				owner[key] = c
				if fs, path := keyOf(recordFor(o.FileSet, o.Path, o.Seq).Size); fs != o.FileSet || path != o.Path {
					t.Fatalf("%s: value of %v decodes to %d/%d", w.Name, key, fs, path)
				}
			}
		}
	}
}
