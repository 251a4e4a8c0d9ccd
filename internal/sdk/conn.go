package sdk

import "anufs/internal/wire"

// Conn is the wire's one pipelined connection type under its sdk name
// (pools hold Conns; the benchmark dials them directly).
type Conn = wire.Client

// Dial connects to a wire server with opts.Timeout as the per-call
// deadline and, when opts.Obs is set, the connection's pipeline depth
// recorded into sdk_pipeline_depth.
func Dial(addr string, opts Options) (*Conn, error) {
	c, err := wire.Dial(addr)
	if err != nil {
		return nil, err
	}
	c.SetTimeout(opts.Timeout)
	if opts.Obs != nil {
		c.ObserveDepth(opts.Obs.Hist.Get("sdk_pipeline_depth", ""))
	}
	return c, nil
}
