// Package sdk is the high-throughput client layer over the wire protocol:
// per-daemon pools of the wire's pipelined connections (wire.Client, here
// also named Conn) with health checks and power-of-two-choices load
// spreading, and client-side op batching that folds small metadata writes
// for the same owner into single journal group commits. It holds no
// transport code of its own.
//
// The layering mirrors the paper's client/server split: clients talk to
// whichever daemon owns a file set (internal/fleet routes by the cluster
// map) and the sdk makes that path saturate heterogeneous daemons instead
// of serializing on one round trip at a time.
//
// Gateway (gateway.go) is the same machinery turned server-side: a
// stateless wire endpoint that fronts the fleet, scaled horizontally by
// running N of them with peer-shared cluster-map caches.
package sdk

import (
	"time"

	"anufs/internal/obs"
)

// Defaults for Options' zero values.
const (
	// DefaultPoolSize is connections per target daemon.
	DefaultPoolSize = 4
	// DefaultMaxBatch caps one coalesced batch (well under
	// wire.MaxBatchItems).
	DefaultMaxBatch = 64
	// DefaultHealthInterval is the pool's ping cadence.
	DefaultHealthInterval = 2 * time.Second
)

// Options parameterizes Dial, NewPool, and NewClient. The zero value of
// every field except Authority is usable.
type Options struct {
	// Authority is the fleet authority's wire address (NewClient only).
	Authority string
	// Peers are additional cluster-map sources tried before the authority
	// — typically the other gateways of a tier.
	Peers []string
	// Timeout bounds each call's wait for its response: 0 means
	// wire.DefaultCallTimeout, negative disables the deadline.
	Timeout time.Duration
	// PoolSize is connections per target address (default DefaultPoolSize).
	PoolSize int
	// MaxBatch caps one coalesced batch (default DefaultMaxBatch).
	MaxBatch int
	// BatchDelay switches client-side write coalescing on when positive;
	// its length means nothing. No write waits on a clock: one that finds
	// no batch of its file set outstanding is sent at once, and those that
	// arrive behind an outstanding batch share the next (see batcher). It
	// keeps its name and type only because cmd/bench, frozen as the
	// measuring instrument, sets it; the next PR that may touch cmd/bench
	// deletes it and coalescing becomes unconditional.
	BatchDelay time.Duration
	// Durable asks the server to checkpoint batched writes before acking —
	// the whole batch rides one journal group commit.
	Durable bool
	// HealthInterval is the pool's ping cadence (default
	// DefaultHealthInterval; negative disables health checks).
	HealthInterval time.Duration
	// Budget bounds one routed operation end to end (default
	// fleet.DefaultRouteBudget).
	Budget time.Duration
	// Obs receives sdk counters, gauges, and histograms; nil disables.
	Obs *obs.Registry
}

// withDefaults fills the zero values.
func (o Options) withDefaults() Options {
	if o.PoolSize <= 0 {
		o.PoolSize = DefaultPoolSize
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = DefaultMaxBatch
	}
	if o.HealthInterval == 0 {
		o.HealthInterval = DefaultHealthInterval
	}
	return o
}
