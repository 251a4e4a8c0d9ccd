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
	// last is the most recently started flush, nil before the first. The
	// disk's log is ordered and fails stop, so once it is durable every
	// flush of the file set started before it is too: a checkpoint or
	// release that finds nothing dirty waits on it.
	last *flush
}

// flush is one started FlushDelta of st. Its outcome is collected once and
// shared by everyone whose records rode it.
type flush struct {
	s      *Server
	st     *fileSetState
	d      sharedisk.Delta // kept to re-mark its paths if it fails
	commit sharedisk.Commit
	once   sync.Once
	err    error
}

// wait blocks until the flush is durable; on failure its paths are dirty
// again and ride the next one.
func (f *flush) wait() error {
	f.once.Do(func() {
		f.err = f.commit.Wait()
		if f.err != nil {
			f.s.mu.Lock()
			f.st.remark(f.d)
			f.s.mu.Unlock()
		}
		f.d, f.commit = sharedisk.Delta{}, sharedisk.Commit{} // done with both; the log's request is pooled
	})
	return f.err
}

// Commit is the second half of a checkpoint (CheckpointTraced): the file
// set's dirty records are on the shared disk's image and queued for its
// log; Wait blocks until they are durable. The zero Commit has nothing to
// wait for. Wait may be called from any goroutine.
type Commit struct{ f *flush }

// Wait blocks until the checkpoint is durable.
func (c Commit) Wait() error {
	if c.f == nil {
		return nil
	}
	return c.f.wait()
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
// respect to shed file sets to create a consistent disk image"). It returns
// once every flush of the file set, this one and any started earlier, is
// durable.
func (s *Server) Release(fileSet string) error {
	s.mu.Lock()
	st, ok := s.owned[fileSet]
	if ok {
		delete(s.owned, fileSet)
		if len(st.dirty) > 0 {
			s.dirtyFlushes++
		}
	}
	s.mu.Unlock()
	if !ok {
		return ErrNotOwner
	}
	c, err := s.startFlush(0, fileSet, st)
	if err != nil {
		return err
	}
	return c.Wait()
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
// (background cleaning; keeps the window of loss small) and returns once
// the flush is durable.
func (s *Server) Checkpoint(fileSet string) error {
	c, err := s.CheckpointTraced(0, fileSet)
	if err != nil {
		return err
	}
	return c.Wait()
}

// CheckpointTraced starts a checkpoint: when it returns, the file set's
// dirty records are on the shared disk's image, the cache has adopted the
// new version and the flush has its place in the disk's log. The Commit's
// Wait reports when it is durable, so the caller — the owner goroutine —
// can serve the next operation meanwhile. Checkpoints of one file set must
// be started from one goroutine at a time. trace attributes the flush to a
// request (0 = untraced): a durable disk journals it under that trace, so
// the fsync it rides appears in the request's timeline.
func (s *Server) CheckpointTraced(trace uint64, fileSet string) (Commit, error) {
	s.mu.Lock()
	st, ok := s.owned[fileSet]
	s.mu.Unlock()
	if !ok {
		return Commit{}, ErrNotOwner
	}
	return s.startFlush(trace, fileSet, st)
}

// startFlush hands the disk st's dirty paths as one delta. With nothing
// dirty the Commit is that of the last flush started, whose records the
// caller may be answering for.
func (s *Server) startFlush(trace uint64, fileSet string, st *fileSetState) (Commit, error) {
	s.mu.Lock()
	if len(st.dirty) == 0 {
		last := st.last
		s.mu.Unlock()
		return Commit{last}, nil
	}
	d := st.takeDelta()
	s.mu.Unlock()
	newV, commit, err := s.disk.FlushDelta(trace, fileSet, d)
	s.mu.Lock()
	defer s.mu.Unlock()
	if newV != 0 {
		st.image.Version = newV
	}
	if err != nil {
		st.remark(d) // not durable: its paths ride the next flush
		return Commit{}, err
	}
	st.last = &flush{s: s, st: st, d: d, commit: commit}
	return Commit{st.last}, nil
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
