// Package metaserver implements a Storage Tank-style metadata server
// (paper §2): it owns a set of file sets, serves metadata reads and writes
// for them out of an in-memory cache, and implements the ownership
// hand-off protocol — acquire (load the image from shared disk), serve,
// release (flush dirty state and drop the cache) — that the load-placement
// layer drives when it moves file sets between servers.
package metaserver

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"anufs/internal/sharedisk"
)

// ErrNotOwner is returned for operations on a file set this server does not
// currently own; the client should re-resolve the owner from the current
// mapping and retry (paper §5: "when a server sees an unknown unique name,
// it hashes it and routes the request to the appropriate server").
var ErrNotOwner = errors.New("metaserver: not the owner of this file set")

// ErrNotFound is returned for paths that do not exist.
var ErrNotFound = errors.New("metaserver: no such path")

// ErrExists is returned when creating a path that already exists.
var ErrExists = errors.New("metaserver: path exists")

// Server is one metadata server. Safe for concurrent use.
type Server struct {
	id   int
	disk sharedisk.Disk

	mu    sync.Mutex
	owned map[string]*fileSetState

	// DirtyFlushes counts flushes performed on release — observability for
	// the cache-preservation claims.
	dirtyFlushes int
}

type fileSetState struct {
	image sharedisk.Image
	// dirty holds the paths put or removed since the last flush; the next
	// flush hands the disk exactly those records, never the whole image.
	dirty map[string]struct{}
}

// put stores rec at path and marks the path dirty. A zero ModTime is
// stamped with the current time — the one rule for every write.
func (f *fileSetState) put(path string, rec sharedisk.Record) {
	if rec.ModTime.IsZero() {
		rec.ModTime = time.Now()
	}
	f.image.Records[path] = rec
	f.mark(path)
}

func (f *fileSetState) mark(path string) {
	if f.dirty == nil {
		f.dirty = map[string]struct{}{}
	}
	f.dirty[path] = struct{}{}
}

// remark puts a delta's paths back among the dirty ones.
func (f *fileSetState) remark(d sharedisk.Delta) {
	for path := range d.Puts {
		f.mark(path)
	}
	for _, path := range d.Removes {
		f.mark(path)
	}
}

// takeDelta returns the dirty paths as a delta over the version the cache
// is based on, and leaves the file set clean.
func (f *fileSetState) takeDelta() sharedisk.Delta {
	d := sharedisk.Delta{Base: f.image.Version, Puts: make(map[string]sharedisk.Record, len(f.dirty))}
	for path := range f.dirty {
		if rec, ok := f.image.Records[path]; ok {
			d.Puts[path] = rec
		} else {
			d.Removes = append(d.Removes, path)
		}
	}
	f.dirty = nil
	return d
}

// New creates a metadata server bound to the shared disk (the in-memory
// Store, or Durable when flushes must survive a process crash).
func New(id int, disk sharedisk.Disk) *Server {
	return &Server{id: id, disk: disk, owned: map[string]*fileSetState{}}
}

// ID returns the server's cluster ID.
func (s *Server) ID() int { return s.id }

// Owns reports whether the server currently owns the file set.
func (s *Server) Owns(fileSet string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.owned[fileSet]
	return ok
}

// Owned lists the file sets this server currently serves, sorted.
func (s *Server) Owned() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.owned))
	for fs := range s.owned {
		out = append(out, fs)
	}
	sort.Strings(out)
	return out
}

// DirtyFlushes reports how many release-time flushes the server performed.
func (s *Server) DirtyFlushes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dirtyFlushes
}

// Acquire loads the file set's image from shared disk and begins serving
// it. Acquiring an already-owned file set is an error — it would indicate
// the placement layer double-assigned it.
func (s *Server) Acquire(fileSet string) error {
	im, err := s.disk.Load(fileSet)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.owned[fileSet]; dup {
		return fmt.Errorf("metaserver %d: already own %q", s.id, fileSet)
	}
	s.owned[fileSet] = &fileSetState{image: im}
	return nil
}

// Release flushes the file set if dirty and stops serving it — the shedding
// half of a move (paper §4: "the shedding server flushes its cache with
// respect to shed file sets to create a consistent disk image").
func (s *Server) Release(fileSet string) error {
	s.mu.Lock()
	st, ok := s.owned[fileSet]
	if !ok {
		s.mu.Unlock()
		return ErrNotOwner
	}
	delete(s.owned, fileSet)
	if len(st.dirty) == 0 {
		s.mu.Unlock()
		return nil
	}
	d := st.takeDelta()
	s.dirtyFlushes++
	s.mu.Unlock()
	_, err := s.disk.FlushDelta(0, fileSet, d)
	return err
}

// Crash drops all owned file sets WITHOUT flushing — a server failure. The
// images on shared disk remain at their last flushed version, which is what
// a recovering owner adopts.
func (s *Server) Crash() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.owned = map[string]*fileSetState{}
}

// Checkpoint flushes a file set's dirty state without releasing ownership
// (background cleaning; keeps the window of loss small).
func (s *Server) Checkpoint(fileSet string) error {
	return s.CheckpointTraced(0, fileSet)
}

// CheckpointTraced is Checkpoint attributed to a request trace (0 =
// untraced): a durable disk journals the flush under that trace so the
// fsync it waits on appears in the request's timeline.
func (s *Server) CheckpointTraced(trace uint64, fileSet string) error {
	s.mu.Lock()
	st, ok := s.owned[fileSet]
	if !ok {
		s.mu.Unlock()
		return ErrNotOwner
	}
	if len(st.dirty) == 0 {
		s.mu.Unlock()
		return nil
	}
	d := st.takeDelta()
	s.mu.Unlock()
	newV, err := s.disk.FlushDelta(trace, fileSet, d)
	s.mu.Lock()
	defer s.mu.Unlock()
	if st2, ok := s.owned[fileSet]; ok && st2 == st {
		if newV != 0 {
			st.image.Version = newV
		}
		if err != nil {
			st.remark(d) // not durable: its paths ride the next flush
		}
	}
	return err
}

// withFileSet runs fn with the file set's state under the lock.
func (s *Server) withFileSet(fileSet string, fn func(*fileSetState) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.owned[fileSet]
	if !ok {
		return ErrNotOwner
	}
	return fn(st)
}

// Create adds a metadata record at path within the file set.
func (s *Server) Create(fileSet, path string, rec sharedisk.Record) error {
	if path == "" {
		return fmt.Errorf("metaserver: empty path")
	}
	return s.withFileSet(fileSet, func(st *fileSetState) error {
		if _, dup := st.image.Records[path]; dup {
			return ErrExists
		}
		st.put(path, rec)
		return nil
	})
}

// Stat returns the metadata record at path.
func (s *Server) Stat(fileSet, path string) (sharedisk.Record, error) {
	var rec sharedisk.Record
	err := s.withFileSet(fileSet, func(st *fileSetState) error {
		r, ok := st.image.Records[path]
		if !ok {
			return ErrNotFound
		}
		rec = r
		return nil
	})
	return rec, err
}

// Update overwrites the record at path.
func (s *Server) Update(fileSet, path string, rec sharedisk.Record) error {
	return s.withFileSet(fileSet, func(st *fileSetState) error {
		if _, ok := st.image.Records[path]; !ok {
			return ErrNotFound
		}
		st.put(path, rec)
		return nil
	})
}

// Remove deletes the record at path.
func (s *Server) Remove(fileSet, path string) error {
	return s.withFileSet(fileSet, func(st *fileSetState) error {
		if _, ok := st.image.Records[path]; !ok {
			return ErrNotFound
		}
		delete(st.image.Records, path)
		st.mark(path)
		return nil
	})
}

// List returns the paths under the given prefix, sorted.
func (s *Server) List(fileSet, prefix string) ([]string, error) {
	var out []string
	err := s.withFileSet(fileSet, func(st *fileSetState) error {
		for p := range st.image.Records {
			if strings.HasPrefix(p, prefix) {
				out = append(out, p)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(out)
	return out, nil
}
