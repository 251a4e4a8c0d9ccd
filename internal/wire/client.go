package wire

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"anufs/internal/core"
	"anufs/internal/obs"
	"anufs/internal/sharedisk"
	"anufs/internal/volume"
)

// Client is one pipelined connection to a wire server: many in-flight
// requests multiplexed over one TCP connection as tagged frames, completing
// out of order. It is the only client transport — the typed methods below,
// the sdk's pools, the fleet's control plane and the replication shipper
// all ride it. Safe for concurrent use.
type Client struct {
	conn net.Conn

	writeMu sync.Mutex
	bw      *bufio.Writer
	fw      *FrameWriter
	encBuf  []byte // reused request encode buffer, guarded by writeMu

	mu      sync.Mutex
	nextTag uint64
	pending map[uint64]chan Response
	closed  bool // the read loop has exited; no call can be answered

	done     chan struct{}
	inflight atomic.Int64
	depth    *obs.Histogram // pipeline depth at each call; may be nil

	// lastTrace remembers the most recent server-echoed trace ID, so a
	// caller can fetch the span timeline of the call it just made.
	lastTrace atomic.Uint64

	// timeout bounds each call's wait for a response (SetTimeout): 0 means
	// DefaultCallTimeout, negative disables the deadline. Whatever built
	// the Client, a call never waits unbounded unless a caller asked for
	// exactly that.
	timeout atomic.Int64
}

// maxKeptEncodeBuf bounds the encode buffer a connection keeps between
// calls: ordinary requests and journal ships reuse it, a snapshot ship's
// tens of megabytes are released after the write.
const maxKeptEncodeBuf = 4 << 20

// DefaultCallTimeout bounds how long a call waits for its response when
// no other deadline was set — a hung or wedged server must not block
// every caller forever.
const DefaultCallTimeout = 5 * time.Second

// SetTimeout overrides the per-call response deadline: 0 restores
// DefaultCallTimeout, a negative duration disables the deadline entirely.
// Safe to call concurrently with in-flight calls; it applies to calls
// started after it.
func (c *Client) SetTimeout(d time.Duration) { c.timeout.Store(int64(d)) }

// Dial connects to a wire server; calls wait DefaultCallTimeout.
func Dial(addr string) (*Client, error) { return DialLimit(addr, 0, MaxFramePayload) }

// DialTimeout connects with d bounding BOTH the TCP connect and, as the
// initial per-call deadline, every call (override with SetTimeout).
// Control-plane paths that must stay responsive with a dead peer in the
// fleet — map publishes, membership heartbeats, failure-time takeovers —
// dial this way: a blackholed address costs d, not the OS connect timeout.
func DialTimeout(addr string, d time.Duration) (*Client, error) {
	return DialLimit(addr, d, MaxFramePayload)
}

// DialLimit is DialTimeout under an explicit frame-payload ceiling
// (d <= 0 leaves the connect unbounded). Everything dials under
// MaxFramePayload except the replication shipper, whose snapshot ships
// need the standby listener's higher one.
func DialLimit(addr string, d time.Duration, maxPayload int) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, max(d, 0))
	if err != nil {
		return nil, err
	}
	c := &Client{
		conn:    conn,
		bw:      bufio.NewWriterSize(conn, connBufBytes),
		pending: map[uint64]chan Response{},
		done:    make(chan struct{}),
	}
	c.fw = NewFrameWriter(c.bw, maxPayload)
	c.SetTimeout(d)
	go c.readLoop(NewFrameReader(bufio.NewReaderSize(conn, connBufBytes), maxPayload))
	return c, nil
}

// ObserveDepth records the connection's pipeline depth (calls in flight,
// this one included) into h at every call. Set it before the first call.
func (c *Client) ObserveDepth(h *obs.Histogram) { c.depth = h }

// InFlight returns the number of calls currently awaiting responses — the
// load signal pool picking compares.
func (c *Client) InFlight() int64 { return c.inflight.Load() }

// Close tears the connection down; in-flight calls fail.
func (c *Client) Close() error {
	err := c.conn.Close()
	<-c.done
	return err
}

// readLoop decodes response frames and completes the calls their tags
// name, until the connection dies or loses framing; then every pending
// call fails with ErrConnClosed.
func (c *Client) readLoop(fr *FrameReader) {
	defer close(c.done)
	var dec Decoder
	for {
		kind, tag, payload, err := fr.ReadFrame()
		if err != nil || kind != FrameResponse {
			break // framing is not trustworthy anymore
		}
		// A response of its own per frame: the waiter owns all of it.
		var resp Response
		if !dec.DecodeResponse(payload, &resp) {
			// Intact framing, broken body: the header still names the call,
			// so fail that call now instead of letting it wait out its deadline.
			resp = Response{ID: tag, Err: "wire: malformed response body"}
		}
		c.mu.Lock()
		ch, ok := c.pending[tag]
		delete(c.pending, tag)
		c.mu.Unlock()
		if ok {
			ch <- resp
		}
	}
	c.mu.Lock()
	c.closed = true
	for tag, ch := range c.pending {
		close(ch) // a closed channel is how Call learns the connection died
		delete(c.pending, tag)
	}
	c.mu.Unlock()
}

// sendRequest encodes and writes one request frame under the write lock,
// reusing the connection's encode buffer. The flush per frame keeps latency
// flat at low depth; at high depth the kernel coalesces the small writes
// anyway.
//
// TestFramingAllocFree holds it to zero allocations.
func (c *Client) sendRequest(tag uint64, req *Request) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	payload, ok := AppendRequest(c.encBuf[:0], req)
	if !ok {
		return errUnencodable
	}
	if cap(payload) <= maxKeptEncodeBuf {
		c.encBuf = payload
	}
	if err := c.fw.WriteFrame(FrameRequest, tag, payload); err != nil {
		return err
	}
	return c.bw.Flush()
}

// errUnencodable fails a call whose request has no wire encoding: an op the
// Ops table does not hold.
var errUnencodable = errors.New("wire: request has no encoding (op not in the op table)")

// call sends a request and waits for its response; concurrent calls share
// the connection and complete independently.
func (c *Client) call(req Request) (Response, error) {
	n := c.inflight.Add(1)
	defer c.inflight.Add(-1)
	if c.depth != nil {
		// Depth histogram buckets read as request counts, not seconds.
		c.depth.Observe(time.Duration(n))
	}
	ch := make(chan Response, 1)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return Response{}, ErrConnClosed
	}
	c.nextTag++
	tag := c.nextTag
	req.ID = tag
	c.pending[tag] = ch
	c.mu.Unlock()

	if err := c.sendRequest(tag, &req); err != nil {
		c.mu.Lock()
		delete(c.pending, tag)
		c.mu.Unlock()
		if err == errUnencodable {
			return Response{}, err // nothing was written: the connection is fine
		}
		return Response{}, fmt.Errorf("%w: %w", ErrSendFailed, err)
	}
	d := time.Duration(c.timeout.Load())
	if d == 0 {
		d = DefaultCallTimeout
	}
	var timeout <-chan time.Time
	if d > 0 {
		timer := time.NewTimer(d)
		defer timer.Stop()
		timeout = timer.C
	}
	select {
	case resp, ok := <-ch:
		if !ok {
			return Response{}, ErrConnClosed
		}
		if resp.Trace != 0 {
			c.lastTrace.Store(resp.Trace)
		}
		return resp, ResponseError(resp)
	case <-timeout:
		// Abandon the call: readLoop's send into the buffered channel
		// cannot block, and deleting the entry keeps the map bounded.
		c.mu.Lock()
		delete(c.pending, tag)
		c.mu.Unlock()
		return Response{}, fmt.Errorf("wire: %s call %w after %v", req.Op, ErrTimedOut, d)
	}
}

// ResponseError rebuilds the typed error a response carries from its
// Code: wrong-owner (with Response.Epoch), arriving, or a *CodedError for
// any other code, so callers branch with IsWrongOwner / IsArriving /
// ErrorCode and never on the message. Nil when the response carries no
// error.
func ResponseError(resp Response) error {
	switch {
	case resp.Err == "":
		return nil
	case resp.Code == "":
		return errors.New(resp.Err)
	case resp.Code == CodeWrongOwner:
		return &WrongOwnerError{Epoch: resp.Epoch}
	case resp.Code == CodeArriving:
		return fmt.Errorf("%w (server: %s)", ErrArriving, resp.Err)
	}
	return &CodedError{Code: resp.Code, Err: errors.New(resp.Err)}
}

// Call sends a raw request (the ID is assigned by the client) and returns
// the raw response — the pass-through the fleet gateway uses to forward
// frames without enumerating every op. The response is returned even when
// err is non-nil, so forwarders can relay server-side errors.
func (c *Client) Call(req Request) (Response, error) {
	return c.call(req)
}

// LastTrace returns the trace ID the server assigned to this client's most
// recently completed request (0 before any traced call) — pass it to Trace
// to fetch that request's span timeline.
func (c *Client) LastTrace() uint64 { return c.lastTrace.Load() }

// Trace fetches request trace spans: those of one trace when trace != 0,
// otherwise the n most recent across all traces (n <= 0 means all
// retained).
func (c *Client) Trace(trace uint64, n int) ([]obs.Span, error) {
	resp, err := c.call(Request{Op: OpTrace, Trace: trace, Count: n})
	return resp.Spans, err
}

// TracePull fetches one trace's spans from the server's live ring and
// slow-trace flight recorder, plus the node's identity and wall clock
// (UnixNano at reply time) — the per-node half of the fleet stitcher.
func (c *Client) TracePull(trace uint64) ([]obs.Span, string, int64, error) {
	resp, err := c.call(Request{Op: OpTracePull, Trace: trace})
	return resp.Spans, resp.Node, resp.Now, err
}

// TunerLog fetches the n most recent structured tuner decision events
// (n <= 0 means all retained).
func (c *Client) TunerLog(n int) ([]obs.TunerEvent, error) {
	resp, err := c.call(Request{Op: OpTunerLog, Count: n})
	return resp.Tuner, err
}

// WireStats fetches the wire server's own counters and the per-connection
// breakdown.
func (c *Client) WireStats() (map[string]int64, []ConnStat, error) {
	resp, err := c.call(Request{Op: OpStats})
	return resp.Wire, resp.Conns, err
}

// ClosedConnStats fetches the retained aggregate of connections that have
// disconnected (their live entries are reaped on close): the folded
// counters and how many connections they cover.
func (c *Client) ClosedConnStats() (*ConnStat, int64, error) {
	resp, err := c.call(Request{Op: OpStats})
	return resp.Closed, resp.ClosedConns, err
}

// Ship delivers replicated journal entries to a standby (nil/empty entries
// is a liveness heartbeat) and returns the standby's durable ack sequence.
func (c *Client) Ship(daemon int, entries []ShipEntry) (uint64, error) {
	resp, err := c.call(Request{Op: OpShip, Daemon: daemon, Entries: entries})
	return resp.AckSeq, err
}

// ShipSnapshot delivers a full encoded store cut covering sequences 1..seq
// to a standby that has fallen behind the primary's compaction horizon.
func (c *Client) ShipSnapshot(seq uint64, snap []byte) (uint64, error) {
	resp, err := c.call(Request{Op: OpShip, SnapSeq: seq, Snap: snap})
	return resp.AckSeq, err
}

// ShipReset delivers a full encoded store cut that replaces everything the
// standby holds: its log restarts at seq+1 whatever it held before.
func (c *Client) ShipReset(seq uint64, snap []byte) (uint64, error) {
	resp, err := c.call(Request{Op: OpShip, SnapSeq: seq, Snap: snap, Reset: true})
	return resp.AckSeq, err
}

// ShipStatus asks a standby how far it has durably applied — the
// sequence-based resume point for log shipping.
func (c *Client) ShipStatus() (uint64, error) {
	resp, err := c.call(Request{Op: OpShipStatus})
	return resp.AckSeq, err
}

// CreateFileSet initializes a new file set cluster-wide.
func (c *Client) CreateFileSet(fileSet string) error {
	_, err := c.call(Request{Op: OpCreateFileSet, FileSet: fileSet})
	return err
}

// Create adds a metadata record.
func (c *Client) Create(fileSet, path string, rec sharedisk.Record) error {
	_, err := c.call(Request{Op: OpCreate, FileSet: fileSet, Path: path, Record: &rec})
	return err
}

// Stat reads a metadata record.
func (c *Client) Stat(fileSet, path string) (sharedisk.Record, error) {
	resp, err := c.call(Request{Op: OpStat, FileSet: fileSet, Path: path})
	if err != nil {
		return sharedisk.Record{}, err
	}
	if resp.Record == nil {
		return sharedisk.Record{}, errors.New("wire: stat returned no record")
	}
	return *resp.Record, nil
}

// Update overwrites a metadata record.
func (c *Client) Update(fileSet, path string, rec sharedisk.Record) error {
	_, err := c.call(Request{Op: OpUpdate, FileSet: fileSet, Path: path, Record: &rec})
	return err
}

// Remove deletes a metadata record.
func (c *Client) Remove(fileSet, path string) error {
	_, err := c.call(Request{Op: OpRemove, FileSet: fileSet, Path: path})
	return err
}

// List returns paths under a prefix.
func (c *Client) List(fileSet, prefix string) ([]string, error) {
	resp, err := c.call(Request{Op: OpList, FileSet: fileSet, Path: prefix})
	if err != nil {
		return nil, err
	}
	return resp.Paths, nil
}

// Owner reports the server currently responsible for the file set.
func (c *Client) Owner(fileSet string) (int, error) {
	resp, err := c.call(Request{Op: OpOwner, FileSet: fileSet})
	return resp.Owner, err
}

// Register obtains a lock-session ID.
func (c *Client) Register() (uint64, error) {
	resp, err := c.call(Request{Op: OpRegister})
	return resp.Client, err
}

// Lock acquires a lock (non-blocking; exclusive when excl is true).
func (c *Client) Lock(client uint64, fileSet, path string, excl bool) error {
	_, err := c.call(Request{Op: OpLock, Client: client, FileSet: fileSet, Path: path, Exclusive: excl})
	return err
}

// Unlock releases a lock.
func (c *Client) Unlock(client uint64, fileSet, path string) error {
	_, err := c.call(Request{Op: OpUnlock, Client: client, FileSet: fileSet, Path: path})
	return err
}

// Renew heartbeats the lock session.
func (c *Client) Renew(client uint64) error {
	_, err := c.call(Request{Op: OpRenew, Client: client})
	return err
}

// Stats fetches per-server placement statistics.
func (c *Client) Stats() ([]ServerStat, error) {
	resp, err := c.call(Request{Op: OpStats})
	return resp.Stats, err
}

// JournalStats fetches the journal counters; nil when the daemon runs
// without a journal.
func (c *Client) JournalStats() (map[string]int64, error) {
	resp, err := c.call(Request{Op: OpStats})
	return resp.Journal, err
}

// Ping round-trips a no-op — the liveness probe connection pools use for
// health checks.
func (c *Client) Ping() error {
	_, err := c.call(Request{Op: OpPing})
	return err
}

// Batch applies items (create/update/remove/stat) in one round trip; the
// server folds each file set's items into a single owner-queue task.
// Items naming no file set inherit fileSet. With durable, the server
// checkpoints every touched file set before acking — the whole batch
// rides one journal group commit. Results are index-aligned with items;
// err reports transport or whole-batch failures only (per-item errors are
// in the results).
func (c *Client) Batch(fileSet string, durable bool, items []BatchItem) ([]BatchResult, error) {
	if len(items) > MaxBatchItems {
		return nil, fmt.Errorf("wire: batch of %d items exceeds the limit of %d", len(items), MaxBatchItems)
	}
	resp, err := c.call(Request{Op: OpBatch, FileSet: fileSet, Durable: durable, Batch: items})
	if err != nil {
		return nil, err
	}
	if len(resp.Results) != len(items) {
		return nil, fmt.Errorf("wire: batch of %d items got %d results", len(items), len(resp.Results))
	}
	return resp.Results, nil
}

// Sync checkpoints every file set to shared disk — the client-side
// durability barrier (fsync for metadata). When it returns nil, all writes
// acknowledged before the call survive a daemon crash, provided the daemon
// journals (-journal-dir).
func (c *Client) Sync() error {
	_, err := c.call(Request{Op: OpSync})
	return err
}

// Mount binds a global-namespace subtree to a file set.
func (c *Client) Mount(prefix, fileSet string) error {
	_, err := c.call(Request{Op: OpMount, Prefix: prefix, FileSet: fileSet})
	return err
}

// Unmount removes a mount point.
func (c *Client) Unmount(prefix string) error {
	_, err := c.call(Request{Op: OpUnmount, Prefix: prefix})
	return err
}

// Resolve maps a global path to (file set, relative path).
func (c *Client) Resolve(path string) (fileSet, rel string, err error) {
	resp, err := c.call(Request{Op: OpResolve, Path: path})
	return resp.FileSet, resp.Rel, err
}

// PCreate creates a record addressed by global path.
func (c *Client) PCreate(path string, rec sharedisk.Record) error {
	_, err := c.call(Request{Op: OpPCreate, Path: path, Record: &rec})
	return err
}

// PStat reads a record addressed by global path.
func (c *Client) PStat(path string) (sharedisk.Record, error) {
	resp, err := c.call(Request{Op: OpPStat, Path: path})
	if err != nil {
		return sharedisk.Record{}, err
	}
	if resp.Record == nil {
		return sharedisk.Record{}, errors.New("wire: pstat returned no record")
	}
	return *resp.Record, nil
}

// PRemove deletes a record addressed by global path.
func (c *Client) PRemove(path string) error {
	_, err := c.call(Request{Op: OpPRemove, Path: path})
	return err
}

// ClusterMap fetches the daemon's current encoded cluster map
// (placement.DecodeClusterMap parses it). Only fleet-mode daemons serve it.
func (c *Client) ClusterMap() ([]byte, error) {
	resp, err := c.call(Request{Op: OpMap})
	return resp.Map, err
}

// MapEpoch fetches just the daemon's cluster-map epoch — the cheap probe a
// fleet member polls to notice a newer map.
func (c *Client) MapEpoch() (uint64, error) {
	resp, err := c.call(Request{Op: OpMapEpoch})
	return resp.Epoch, err
}

// Adopt delivers a donated file set to its new owner during a handoff:
// snap is the donor's encoded image cut (journal.EncodeImages) and mapData
// the encoded cluster map of the epoch the handoff runs under, so the
// recipient converges to the new epoch in the same frame.
func (c *Client) Adopt(epoch uint64, fileSet string, snap, mapData []byte) error {
	_, err := c.call(Request{Op: OpAdopt, Epoch: epoch, FileSet: fileSet, Snap: snap, Map: mapData})
	return err
}

// Handoff tells a donor daemon to donate a file set to the daemon at addr,
// under the (already published) cluster map mapData with the given epoch.
func (c *Client) Handoff(epoch uint64, fileSet, addr string, mapData []byte) error {
	_, err := c.call(Request{Op: OpHandoff, Epoch: epoch, FileSet: fileSet, Addr: addr, Map: mapData})
	return err
}

// Assign pins a file set to a daemon (authority daemons only) and returns
// the epoch of the resulting map. Moving an owned file set triggers a live
// handoff.
func (c *Client) Assign(fileSet string, daemon int) (uint64, error) {
	resp, err := c.call(Request{Op: OpAssign, FileSet: fileSet, Daemon: daemon})
	return resp.Epoch, err
}

// Rebalance recomputes the whole assignment from the ANU mapper (authority
// daemons only), clearing manual pins, and returns the new epoch.
func (c *Client) Rebalance() (uint64, error) {
	resp, err := c.call(Request{Op: OpRebalance})
	return resp.Epoch, err
}

// Join registers a daemon with the fleet authority at runtime: id is the
// daemon's fleet ID, addr its dialable wire address, speed its relative
// speed (> 0), and journalDir its journal directory on the shared disk
// (empty = volatile; its state cannot be replayed if it dies). Idempotent:
// re-joining with the same identity refreshes the membership record. The
// reply is the new map's epoch and encoded bytes.
func (c *Client) Join(id int, addr string, speed float64, journalDir string) (uint64, []byte, error) {
	resp, err := c.call(Request{Op: OpJoin, Daemon: id, Addr: addr, Speed: speed, JournalDir: journalDir})
	return resp.Epoch, resp.Map, err
}

// Leave gracefully decommissions a daemon (authority daemons only): its
// file sets are handed off to the remaining daemons before it is dropped
// from the map. Returns the epoch of the map without the daemon.
func (c *Client) Leave(id int) (uint64, error) {
	resp, err := c.call(Request{Op: OpLeave, Daemon: id})
	return resp.Epoch, err
}

// Heartbeat renews a member's liveness lease at the authority and doubles
// as the member's epoch probe (the reply carries the authority's current
// epoch). addr/speed/journalDir keep the authority's membership record
// fresh — a roster-started daemon's journal dir reaches the authority this
// way, which is what makes its journal replayable on failover.
func (c *Client) Heartbeat(id int, addr string, speed float64, journalDir string) (uint64, error) {
	resp, err := c.call(Request{Op: OpHeartbeat, Daemon: id, Addr: addr, Speed: speed, JournalDir: journalDir})
	return resp.Epoch, err
}

// Takeover tells a daemon to adopt the listed file sets from a daemon the
// authority has declared dead: the recipient replays the victim's journal
// directory (read-only) up to its durable boundary, installs the replayed
// images, and serves the file sets under the candidate map (encoded in
// mapData at the given epoch). An empty journalDir adopts the file sets
// empty — the victim ran volatile, so there is nothing to replay.
func (c *Client) Takeover(epoch uint64, fileSets []string, journalDir string, mapData []byte) error {
	_, err := c.call(Request{Op: OpTakeover, Epoch: epoch, FileSets: fileSets, JournalDir: journalDir, Map: mapData})
	return err
}

// VolumeCreate registers a tenant volume with default config (unlimited
// quota, spread placement, unit WFQ weight). Authority daemons only; the
// reply carries the epoch whose publish distributed the new registry.
func (c *Client) VolumeCreate(name string) (uint64, error) {
	resp, err := c.call(Request{Op: OpVolumeCreate, Volume: name})
	return resp.Epoch, err
}

// VolumeDelete removes an empty volume (authority daemons only). Volumes
// that still own file sets are refused.
func (c *Client) VolumeDelete(name string) (uint64, error) {
	resp, err := c.call(Request{Op: OpVolumeDelete, Volume: name})
	return resp.Epoch, err
}

// VolumeList returns every volume's durable config and the registry
// version it was cut at.
func (c *Client) VolumeList() ([]volume.Info, uint64, error) {
	resp, err := c.call(Request{Op: OpVolumeList})
	return resp.Volumes, resp.VolumesVersion, err
}

// VolumeSetQuota updates a volume's quotas and WFQ weight: maxFileSets
// caps how many file sets the tenant may own (0 = unlimited), opRate caps
// its sustained ops/sec at each owning daemon (0 = unlimited), and weight
// (> 0 to change, 0 keeps the current value) is its weighted-fair-queueing
// share in the owner queues.
func (c *Client) VolumeSetQuota(name string, maxFileSets int, opRate, weight float64) (uint64, error) {
	resp, err := c.call(Request{
		Op: OpVolumeSetQuota, Volume: name,
		MaxFileSets: maxFileSets, OpRate: opRate, Weight: weight,
	})
	return resp.Epoch, err
}

// VolumeSetPolicy flips a volume's placement policy ("spread" or "pack").
func (c *Client) VolumeSetPolicy(name, policy string) (uint64, error) {
	resp, err := c.call(Request{Op: OpVolumeSetPolicy, Volume: name, Policy: policy})
	return resp.Epoch, err
}

// Mapping fetches the cluster's replicated routing configuration and
// reconstructs a local router: Owner() on the result agrees with the
// cluster until the next reconfiguration, letting clients route requests
// to the right server without a directory lookup (paper §5).
func (c *Client) Mapping() (*core.Mapper, error) {
	resp, err := c.call(Request{Op: OpMapping})
	if err != nil {
		return nil, err
	}
	return core.RouterFromConfig(resp.Mapping)
}
