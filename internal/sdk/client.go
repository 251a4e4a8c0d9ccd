package sdk

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"anufs/internal/fleet"
	"anufs/internal/obs"
	"anufs/internal/sharedisk"
	"anufs/internal/volume"
	"anufs/internal/wire"
)

// Client is the fleet-aware sdk client: it routes every operation to the
// owning daemon through a fleet.Router whose transport is pipelined
// connection pools, and (when Options.BatchDelay is set) coalesces small
// writes that arrive behind an outstanding batch of their file set into
// single batched round trips. Safe for
// concurrent use; that concurrency is exactly what fills the pipelines
// and batches.
type Client struct {
	opts      Options
	router    *fleet.Router
	batch     *batcher // nil when batching is disabled
	inflight  atomic.Int64
	lastTrace atomic.Uint64
}

// NewClient connects to the fleet named by opts.Authority. Every target
// daemon gets a connection pool of opts.PoolSize pipelined connections;
// opts.Peers are consulted for cluster maps before the authority.
func NewClient(opts Options) (*Client, error) {
	if opts.Authority == "" {
		return nil, fmt.Errorf("sdk: client needs an authority address")
	}
	opts = opts.withDefaults()
	c := &Client{opts: opts}
	dial := func(addr string) (fleet.Caller, error) { return NewPool(addr, opts), nil }
	router, err := fleet.NewRouter(fleet.RouterConfig{
		AuthorityAddr: opts.Authority,
		MapSources:    opts.Peers,
		Budget:        opts.Budget,
		Obs:           opts.Obs,
		DialCaller:    dial,
	})
	if err != nil {
		return nil, err
	}
	c.router = router
	if opts.BatchDelay > 0 {
		c.batch = newBatcher(c.sendBatch, opts)
	}
	if opts.Obs != nil {
		opts.Obs.AddGauges(func() []obs.Gauge {
			return []obs.Gauge{{Name: "sdk_inflight_requests", Value: float64(c.inflight.Load())}}
		})
	}
	return c, nil
}

// Router exposes the underlying fleet router (map cache, raw Do).
func (c *Client) Router() *fleet.Router { return c.router }

// LastTrace returns the trace ID minted for this client's most recent
// traced operation (0 without a registry): issue a write, then pull its
// fleet-wide timeline by this ID.
func (c *Client) LastTrace() uint64 { return c.lastTrace.Load() }

// track wraps one client-level operation for the in-flight gauge.
func (c *Client) track() func() {
	c.inflight.Add(1)
	return func() { c.inflight.Add(-1) }
}

// call routes one raw request, minting trace context at the edge when the
// client has a registry: the request carries a fresh trace ID plus the
// client span's ID as Parent, routing retries join the trace as
// route-retry spans, and the blocking client side is recorded as an
// "sdk-call" span. Without a registry this is a plain Forward.
func (c *Client) call(req wire.Request) (wire.Response, error) {
	reg := c.opts.Obs
	if reg == nil {
		return c.router.Forward(req)
	}
	req.Trace = reg.NextTraceID()
	req.Parent = reg.NextSpanID()
	c.lastTrace.Store(req.Trace)
	start := time.Now()
	resp, err := c.router.Forward(req)
	errStr := ""
	if err != nil {
		errStr = err.Error()
	}
	reg.Spans.Add(obs.Span{
		Trace: req.Trace, ID: req.Parent, Name: "sdk-call", Op: string(req.Op),
		FileSet: req.FileSet, Server: -1, Start: start, Dur: time.Since(start), Err: errStr,
	})
	return resp, err
}

// addBatched queues one write into the batcher under its own minted
// trace. The client span covers the full wait — time spent folded behind
// an outstanding batch included — and the server links sibling items' traces to the carrying batch's,
// so a folded op's timeline still reaches the journal commit it rode.
func (c *Client) addBatched(fileSet string, item wire.BatchItem) error {
	reg := c.opts.Obs
	if reg == nil {
		return c.batch.add(fileSet, item)
	}
	item.Trace = reg.NextTraceID()
	span := reg.NextSpanID()
	c.lastTrace.Store(item.Trace)
	start := time.Now()
	err := c.batch.add(fileSet, item)
	errStr := ""
	if err != nil {
		errStr = err.Error()
	}
	reg.Spans.Add(obs.Span{
		Trace: item.Trace, ID: span, Name: "sdk-call", Op: string(item.Op),
		FileSet: fileSet, Server: -1, Start: start, Dur: time.Since(start), Err: errStr,
	})
	return err
}

// sendBatch ships one coalesced batch through the router. The batch
// request adopts the first item's trace as its own (the owner journals the
// whole group commit under it), so at least one client op gets a complete
// end-to-end timeline; the remaining items are linked in by the server's
// batch-fold spans.
func (c *Client) sendBatch(fileSet string, durable bool, items []wire.BatchItem) ([]wire.BatchResult, error) {
	req := wire.Request{Op: wire.OpBatch, FileSet: fileSet, Durable: durable, Batch: items}
	reg := c.opts.Obs
	var start time.Time
	if reg != nil {
		for _, it := range items {
			if it.Trace != 0 {
				req.Trace = it.Trace
				break
			}
		}
		if req.Trace == 0 {
			req.Trace = reg.NextTraceID()
		}
		req.Parent = reg.NextSpanID()
		start = time.Now()
	}
	resp, err := c.router.Forward(req)
	if reg != nil {
		errStr := ""
		if err != nil {
			errStr = err.Error()
		}
		reg.Spans.Add(obs.Span{
			Trace: req.Trace, ID: req.Parent, Name: "sdk-batch", Op: string(wire.OpBatch),
			FileSet: fileSet, Server: -1, Start: start, Dur: time.Since(start), Err: errStr,
		})
	}
	if err != nil {
		return nil, err
	}
	if len(resp.Results) != len(items) {
		return nil, fmt.Errorf("wire: batch of %d items got %d results", len(items), len(resp.Results))
	}
	return resp.Results, nil
}

// CreateFileSet creates a file set fleet-wide (authority placement, then
// creation on the owner).
func (c *Client) CreateFileSet(fileSet string) error {
	defer c.track()()
	return c.router.CreateFileSet(fileSet)
}

// Create adds a metadata record. With batching enabled it may coalesce
// with other writes to the same file set; the call still blocks until
// this record's outcome is known.
func (c *Client) Create(fileSet, path string, rec sharedisk.Record) error {
	defer c.track()()
	if c.batch != nil {
		return c.addBatched(fileSet, wire.BatchItem{Op: wire.OpCreate, Path: path, Record: &rec})
	}
	_, err := c.call(wire.Request{Op: wire.OpCreate, FileSet: fileSet, Path: path, Record: &rec})
	return err
}

// Update overwrites a metadata record (batched like Create).
func (c *Client) Update(fileSet, path string, rec sharedisk.Record) error {
	defer c.track()()
	if c.batch != nil {
		return c.addBatched(fileSet, wire.BatchItem{Op: wire.OpUpdate, Path: path, Record: &rec})
	}
	_, err := c.call(wire.Request{Op: wire.OpUpdate, FileSet: fileSet, Path: path, Record: &rec})
	return err
}

// Remove deletes a metadata record (batched like Create).
func (c *Client) Remove(fileSet, path string) error {
	defer c.track()()
	if c.batch != nil {
		return c.addBatched(fileSet, wire.BatchItem{Op: wire.OpRemove, Path: path})
	}
	_, err := c.call(wire.Request{Op: wire.OpRemove, FileSet: fileSet, Path: path})
	return err
}

// Stat reads a metadata record. Pending batched writes to the file set
// are flushed first, so a client reads its own acked-or-queued writes.
func (c *Client) Stat(fileSet, path string) (sharedisk.Record, error) {
	defer c.track()()
	if c.batch != nil {
		c.batch.flushSet(fileSet)
	}
	resp, err := c.call(wire.Request{Op: wire.OpStat, FileSet: fileSet, Path: path})
	if err != nil {
		return sharedisk.Record{}, err
	}
	if resp.Record == nil {
		return sharedisk.Record{}, errors.New("wire: stat returned no record")
	}
	return *resp.Record, nil
}

// List returns paths under a prefix (flushes the file set's pending
// writes first, like Stat).
func (c *Client) List(fileSet, prefix string) ([]string, error) {
	defer c.track()()
	if c.batch != nil {
		c.batch.flushSet(fileSet)
	}
	resp, err := c.call(wire.Request{Op: wire.OpList, FileSet: fileSet, Path: prefix})
	if err != nil {
		return nil, err
	}
	return resp.Paths, nil
}

// Batch applies pre-grouped items against one file set in a single round
// trip, bypassing the coalescing — for callers that already hold a batch
// in hand.
func (c *Client) Batch(fileSet string, items []wire.BatchItem) ([]wire.BatchResult, error) {
	defer c.track()()
	resp, err := c.call(wire.Request{Op: wire.OpBatch, FileSet: fileSet, Durable: c.opts.Durable, Batch: items})
	if err != nil {
		return nil, err
	}
	if len(resp.Results) != len(items) {
		return nil, fmt.Errorf("wire: batch of %d items got %d results", len(items), len(resp.Results))
	}
	return resp.Results, nil
}

// --- volume administration ------------------------------------------------

// Volume ops are authority-only; the router targets the daemon the current
// map advertises, so they keep working across a standby promotion.

// VolumeCreate registers a tenant volume and returns the announcing epoch.
func (c *Client) VolumeCreate(name string) (uint64, error) {
	defer c.track()()
	resp, err := c.router.CallAuthority(wire.Request{Op: wire.OpVolumeCreate, Volume: name})
	return resp.Epoch, err
}

// VolumeDelete removes an empty volume.
func (c *Client) VolumeDelete(name string) (uint64, error) {
	defer c.track()()
	resp, err := c.router.CallAuthority(wire.Request{Op: wire.OpVolumeDelete, Volume: name})
	return resp.Epoch, err
}

// VolumeList fetches every volume and the registry version.
func (c *Client) VolumeList() ([]volume.Info, uint64, error) {
	defer c.track()()
	resp, err := c.router.CallAuthority(wire.Request{Op: wire.OpVolumeList})
	return resp.Volumes, resp.VolumesVersion, err
}

// VolumeSetQuota sets a volume's quotas and WFQ weight (zero values mean
// unlimited / keep the current weight).
func (c *Client) VolumeSetQuota(name string, maxFileSets int, opRate, weight float64) (uint64, error) {
	defer c.track()()
	resp, err := c.router.CallAuthority(wire.Request{Op: wire.OpVolumeSetQuota,
		Volume: name, MaxFileSets: maxFileSets, OpRate: opRate, Weight: weight})
	return resp.Epoch, err
}

// VolumeSetPolicy sets a volume's placement policy (spread | pack).
func (c *Client) VolumeSetPolicy(name, policy string) (uint64, error) {
	defer c.track()()
	resp, err := c.router.CallAuthority(wire.Request{Op: wire.OpVolumeSetPolicy,
		Volume: name, Policy: policy})
	return resp.Epoch, err
}

// Flush ships every pending batched write and returns when all are
// acked.
func (c *Client) Flush() {
	if c.batch != nil {
		c.batch.Flush()
	}
}

// Sync flushes pending batches, then checkpoints every daemon — the
// fleet-wide durability barrier.
func (c *Client) Sync() error {
	defer c.track()()
	c.Flush()
	return c.router.Sync()
}

// Close flushes pending writes and tears down every pool.
func (c *Client) Close() error {
	if c.batch != nil {
		c.batch.Close()
	}
	c.router.Close()
	return nil
}
