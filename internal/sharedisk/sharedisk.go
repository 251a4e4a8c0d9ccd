// Package sharedisk models the shared-disk substrate of the paper's
// architecture (§2, Figure 1): network-attached storage that every server
// in the cluster can read and write. Metadata for each file set lives in a
// per-file-set image on the shared disk; a file server serves a file set
// out of its in-memory cache and flushes the image back before the file set
// moves to another server ("the releasing server needs to flush its cache,
// writing all dirty data back to stable storage", §7).
//
// The store is deliberately simple — a versioned key-value image per file
// set — because the paper's load-management layer only relies on two
// properties of shared disk: any server can load any file set's image, and
// a flushed image is a consistent cut another server can adopt.
package sharedisk

import (
	"fmt"
	"sync"
	"time"
)

// Image is a consistent snapshot of one file set's metadata: a flat map of
// metadata records keyed by path. Images are value types: Store hands out
// copies, never aliases.
type Image struct {
	// Version increments on every flush, so stale writers are detectable.
	Version uint64
	Records map[string]Record
}

// Record is one file's metadata (the paper's workload is small metadata
// reads and writes — stat-like records, not file data, which goes straight
// from clients to disk over the SAN).
type Record struct {
	Size    int64
	Mode    uint32
	ModTime time.Time
	Owner   string
}

// Delta is what a flush hands the shared disk: the records put and the
// paths removed since the writer's cache was at version Base. Applying it
// steps the image to Base+1.
type Delta struct {
	Base    uint64
	Puts    map[string]Record
	Removes []string
}

// Disk is the shared-disk contract the rest of the stack (metaserver, live
// cluster) programs against. *Store implements it in memory; *Durable adds
// a write-ahead log underneath so images survive process crashes.
type Disk interface {
	CreateFileSet(fileSet string) error
	FileSets() []string
	Load(fileSet string) (Image, error)
	// FlushDelta writes a file set's dirty records back, in two phases.
	// When it returns without error the image has taken the delta at
	// newVersion — any server loading it sees the records — and the flush
	// has its place in the disk's log; c.Wait() then blocks until it is
	// durable. d.Base is the version the caller loaded or last flushed; a
	// mismatch means another server flushed in between and nothing is
	// applied. trace attributes the flush to a client request (0 =
	// untraced). A non-zero newVersion returned WITH an error, or any error
	// from c.Wait(), means the image took the delta but the flush is not
	// durable: the caller adopts newVersion, keeps the delta's paths dirty,
	// and flushes again. d is not kept past the return.
	FlushDelta(trace uint64, fileSet string, d Delta) (newVersion uint64, c Commit, err error)
	Version(fileSet string) (uint64, error)
}

// clone deep-copies an image.
func (im Image) clone() Image {
	cp := Image{Version: im.Version, Records: make(map[string]Record, len(im.Records))}
	for k, v := range im.Records {
		cp.Records[k] = v
	}
	return cp
}

// Store is the shared disk: a set of file-set images reachable from every
// server. It is safe for concurrent use — the SAN serializes block access;
// here a mutex does.
type Store struct {
	mu     sync.RWMutex
	images map[string]Image
	// latency simulates the disk round trip for load/flush; zero for tests.
	latency time.Duration
}

// NewStore creates an empty shared disk. latency, if positive, is applied
// to every Load and Flush to model the I/O cost that makes file-set moves
// expensive (part of the paper's 5–10 s move time).
func NewStore(latency time.Duration) *Store {
	return &Store{images: map[string]Image{}, latency: latency}
}

// NewStoreFromImages creates a store seeded with the given images — the
// journal recovery path uses it to materialize the replayed state. The
// images are deep-copied; the caller keeps ownership of its map.
func NewStoreFromImages(images map[string]Image, latency time.Duration) *Store {
	s := &Store{images: make(map[string]Image, len(images)), latency: latency}
	for fs, im := range images {
		s.images[fs] = im.clone()
	}
	return s
}

// Images deep-copies every file-set image — the consistent cut a journal
// snapshot persists.
func (s *Store) Images() map[string]Image {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]Image, len(s.images))
	for fs, im := range s.images {
		out[fs] = im.clone()
	}
	return out
}

// CreateFileSet initializes an empty image for a new file set.
func (s *Store) CreateFileSet(fileSet string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.images[fileSet]; dup {
		return fmt.Errorf("sharedisk: file set %q already exists", fileSet)
	}
	s.images[fileSet] = Image{Version: 1, Records: map[string]Record{}}
	return nil
}

// Install places a complete image for a file set, creating it if absent or
// replacing an existing one — the adopting half of a fleet handoff, where
// the image arrives from the donor daemon rather than this store's own
// flush cycle. A version downgrade is rejected: the donor's image must be
// at least as new as whatever copy this store holds.
func (s *Store) Install(fileSet string, im Image) error {
	s.sleep()
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur, ok := s.images[fileSet]; ok && im.Version < cur.Version {
		return fmt.Errorf("sharedisk: install of %q would downgrade version %d to %d",
			fileSet, cur.Version, im.Version)
	}
	if im.Records == nil {
		im.Records = map[string]Record{}
	}
	if im.Version == 0 {
		im.Version = 1
	}
	s.images[fileSet] = im.clone()
	return nil
}

// DropFileSet removes a file set's image — the fencing half of a fleet
// handoff: after the recipient adopts, the donor drops its copy so a stale
// restart cannot serve it. Dropping an unknown file set is an error (it
// would indicate a double donate).
func (s *Store) DropFileSet(fileSet string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.images[fileSet]; !ok {
		return fmt.Errorf("sharedisk: unknown file set %q", fileSet)
	}
	delete(s.images, fileSet)
	return nil
}

// FileSets lists the stored file sets (unordered).
func (s *Store) FileSets() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.images))
	for fs := range s.images {
		out = append(out, fs)
	}
	return out
}

// Load reads a file set's image — what an acquiring server does when a file
// set moves to it (with a cold cache: the image is all it has).
func (s *Store) Load(fileSet string) (Image, error) {
	s.sleep()
	s.mu.RLock()
	defer s.mu.RUnlock()
	im, ok := s.images[fileSet]
	if !ok {
		return Image{}, fmt.Errorf("sharedisk: unknown file set %q", fileSet)
	}
	return im.clone(), nil
}

// current returns the file set's image for a writer based on version base.
// A mismatch means another server flushed in between, which the ownership
// protocol is supposed to prevent — it is reported as an error rather than
// silently lost. Callers hold mu.
func (s *Store) current(fileSet string, base uint64) (Image, error) {
	cur, ok := s.images[fileSet]
	if !ok {
		return Image{}, fmt.Errorf("sharedisk: unknown file set %q", fileSet)
	}
	if base != cur.Version {
		return Image{}, fmt.Errorf("sharedisk: stale flush of %q: have version %d, disk at %d",
			fileSet, base, cur.Version)
	}
	return cur, nil
}

// Flush replaces a file set's whole image; the caller passes the version
// it loaded. Servers flush by delta (FlushDelta); this is for callers that
// hold a complete image and nothing else.
func (s *Store) Flush(fileSet string, im Image) (newVersion uint64, err error) {
	s.sleep()
	s.mu.Lock()
	defer s.mu.Unlock()
	cur, err := s.current(fileSet, im.Version)
	if err != nil {
		return 0, err
	}
	next := im.clone()
	next.Version = cur.Version + 1
	s.images[fileSet] = next
	return next.Version, nil
}

// FlushDelta applies d to the file set's image in place — the store never
// hands out aliases of its record maps, so no copy is needed — and steps
// the version. The in-memory disk has nothing to trace and nothing to wait
// for: its Commit is the zero one.
func (s *Store) FlushDelta(_ uint64, fileSet string, d Delta) (newVersion uint64, c Commit, err error) {
	s.sleep()
	s.mu.Lock()
	defer s.mu.Unlock()
	cur, err := s.current(fileSet, d.Base)
	if err != nil {
		return 0, Commit{}, err
	}
	for path, rec := range d.Puts {
		cur.Records[path] = rec
	}
	for _, path := range d.Removes {
		delete(cur.Records, path)
	}
	cur.Version++
	s.images[fileSet] = cur
	return cur.Version, Commit{}, nil
}

// Version reports a file set's current image version.
func (s *Store) Version(fileSet string) (uint64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	im, ok := s.images[fileSet]
	if !ok {
		return 0, fmt.Errorf("sharedisk: unknown file set %q", fileSet)
	}
	return im.Version, nil
}

func (s *Store) sleep() {
	if s.latency > 0 {
		time.Sleep(s.latency)
	}
}
