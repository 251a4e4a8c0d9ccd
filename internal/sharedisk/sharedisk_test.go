package sharedisk

import (
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestCreateAndLoad(t *testing.T) {
	s := NewStore(0)
	if err := s.CreateFileSet("fs1"); err != nil {
		t.Fatal(err)
	}
	im, err := s.Load("fs1")
	if err != nil {
		t.Fatal(err)
	}
	if im.Version != 1 || len(im.Records) != 0 {
		t.Fatalf("fresh image %+v", im)
	}
}

func TestCreateDuplicate(t *testing.T) {
	s := NewStore(0)
	if err := s.CreateFileSet("fs1"); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateFileSet("fs1"); err == nil {
		t.Fatal("duplicate create succeeded")
	}
}

func TestLoadUnknown(t *testing.T) {
	s := NewStore(0)
	if _, err := s.Load("nope"); err == nil {
		t.Fatal("load of unknown file set succeeded")
	}
	if _, err := s.Version("nope"); err == nil {
		t.Fatal("version of unknown file set succeeded")
	}
	if _, err := s.Flush("nope", Image{}); err == nil {
		t.Fatal("flush of unknown file set succeeded")
	}
}

func TestFlushRoundTrip(t *testing.T) {
	s := NewStore(0)
	if err := s.CreateFileSet("fs1"); err != nil {
		t.Fatal(err)
	}
	im, _ := s.Load("fs1")
	im.Records["/a"] = Record{Size: 42, Mode: 0644, ModTime: time.Unix(1000, 0), Owner: "alice"}
	v2, err := s.Flush("fs1", im)
	if err != nil {
		t.Fatal(err)
	}
	if v2 != 2 {
		t.Fatalf("version after flush %d, want 2", v2)
	}
	back, _ := s.Load("fs1")
	if back.Version != 2 || back.Records["/a"].Size != 42 {
		t.Fatalf("reloaded image %+v", back)
	}
}

// TestFlushDelta: a delta lands on the stored image in place — puts,
// removes, one version step — under the same stale-writer check as Flush,
// and a refused delta applies nothing.
func TestFlushDelta(t *testing.T) {
	s := NewStore(0)
	if err := s.CreateFileSet("fs1"); err != nil {
		t.Fatal(err)
	}
	puts := map[string]Record{"/a": {Size: 1}, "/b": {Size: 2}}
	v, c, err := s.FlushDelta(0, "fs1", Delta{Base: 1, Puts: puts})
	if err != nil || v != 2 {
		t.Fatalf("FlushDelta = %d, %v; want version 2", v, err)
	}
	puts["/a"] = Record{Size: 99} // the store copied the records, not the map
	if err := c.Wait(); err != nil {
		t.Fatalf("the in-memory store's commit has nothing to wait for, got %v", err)
	}
	v, _, err = s.FlushDelta(0, "fs1", Delta{Base: 2, Puts: map[string]Record{"/c": {Size: 3}}, Removes: []string{"/b", "/never"}})
	if err != nil || v != 3 {
		t.Fatalf("FlushDelta = %d, %v; want version 3", v, err)
	}
	want := Image{Version: 3, Records: map[string]Record{"/a": {Size: 1}, "/c": {Size: 3}}}
	if got, _ := s.Load("fs1"); !reflect.DeepEqual(got, want) {
		t.Fatalf("image after deltas = %+v, want %+v", got, want)
	}
	if v, _, err := s.FlushDelta(0, "fs1", Delta{Base: 2, Puts: map[string]Record{"/stale": {}}}); err == nil || v != 0 {
		t.Fatalf("stale delta = %d, %v; want refused", v, err)
	}
	if _, _, err := s.FlushDelta(0, "nope", Delta{Base: 1}); err == nil {
		t.Fatal("delta to an unknown file set succeeded")
	}
	if got, _ := s.Load("fs1"); !reflect.DeepEqual(got, want) {
		t.Fatalf("refused deltas changed the image: %+v", got)
	}
}

func TestStaleFlushRejected(t *testing.T) {
	s := NewStore(0)
	if err := s.CreateFileSet("fs1"); err != nil {
		t.Fatal(err)
	}
	a, _ := s.Load("fs1")
	b, _ := s.Load("fs1")
	a.Records["/x"] = Record{Size: 1}
	if _, err := s.Flush("fs1", a); err != nil {
		t.Fatal(err)
	}
	b.Records["/y"] = Record{Size: 2}
	if _, err := s.Flush("fs1", b); err == nil {
		t.Fatal("stale flush succeeded — lost update")
	}
	// The first flush's contents survive.
	im, _ := s.Load("fs1")
	if _, ok := im.Records["/x"]; !ok {
		t.Fatal("first flush lost")
	}
	if _, ok := im.Records["/y"]; ok {
		t.Fatal("stale flush partially applied")
	}
}

// TestStaleWritersRaceNeverRegress: two writers holding the SAME stale
// version race their flushes against a store that has already moved on.
// Both must get a version error, in either interleaving, and the store must
// never regress to an older image — the invariant the ownership protocol's
// error reporting rests on.
func TestStaleWritersRaceNeverRegress(t *testing.T) {
	for round := 0; round < 50; round++ {
		s := NewStore(0)
		if err := s.CreateFileSet("fs"); err != nil {
			t.Fatal(err)
		}
		// Two writers each load version 1.
		w1, _ := s.Load("fs")
		w2, _ := s.Load("fs")
		// A third party flushes first: disk moves to version 2.
		cur, _ := s.Load("fs")
		cur.Records["/current"] = Record{Size: 777}
		if _, err := s.Flush("fs", cur); err != nil {
			t.Fatal(err)
		}
		w1.Records["/stale1"] = Record{Size: 1}
		w2.Records["/stale2"] = Record{Size: 2}
		start := make(chan struct{})
		errs := make(chan error, 2)
		var wg sync.WaitGroup
		for _, im := range []Image{w1, w2} {
			wg.Add(1)
			go func(im Image) {
				defer wg.Done()
				<-start
				_, err := s.Flush("fs", im)
				errs <- err
			}(im)
		}
		close(start)
		wg.Wait()
		close(errs)
		for err := range errs {
			if err == nil {
				t.Fatal("a stale writer's flush succeeded — lost update")
			}
		}
		v, err := s.Version("fs")
		if err != nil {
			t.Fatal(err)
		}
		if v != 2 {
			t.Fatalf("store regressed or advanced wrongly: version %d, want 2", v)
		}
		im, _ := s.Load("fs")
		if im.Records["/current"].Size != 777 {
			t.Fatal("winning image lost")
		}
		if len(im.Records) != 1 {
			t.Fatalf("stale records leaked in: %+v", im.Records)
		}
	}
}

func TestImagesAreCopies(t *testing.T) {
	s := NewStore(0)
	if err := s.CreateFileSet("fs1"); err != nil {
		t.Fatal(err)
	}
	im, _ := s.Load("fs1")
	im.Records["/mutate"] = Record{Size: 9}
	fresh, _ := s.Load("fs1")
	if _, leaked := fresh.Records["/mutate"]; leaked {
		t.Fatal("mutating a loaded image affected the store")
	}
}

func TestFileSetsListing(t *testing.T) {
	s := NewStore(0)
	for _, fs := range []string{"a", "b", "c"} {
		if err := s.CreateFileSet(fs); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.FileSets(); len(got) != 3 {
		t.Fatalf("FileSets = %v", got)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := NewStore(0)
	if err := s.CreateFileSet("fs"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				im, err := s.Load("fs")
				if err != nil {
					t.Error(err)
					return
				}
				im.Records["/k"] = Record{Size: int64(j)}
				// Flushes race; stale ones must fail cleanly, not corrupt.
				_, _ = s.Flush("fs", im)
			}
		}()
	}
	wg.Wait()
	v, err := s.Version("fs")
	if err != nil {
		t.Fatal(err)
	}
	if v < 2 {
		t.Fatalf("no flush ever succeeded (version %d)", v)
	}
}

func TestLatencyApplied(t *testing.T) {
	s := NewStore(20 * time.Millisecond)
	if err := s.CreateFileSet("fs"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := s.Load("fs"); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < 15*time.Millisecond {
		t.Fatalf("load returned in %v, want >= ~20ms disk latency", el)
	}
}
