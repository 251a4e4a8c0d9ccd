package fleet

import (
	"fmt"
	"testing"
	"time"

	"anufs/internal/live"
	"anufs/internal/sharedisk"
	"anufs/internal/wire"
)

// benchStartFleet launches n equal-speed daemons (startFleet takes any
// testing.TB, so benchmarks share the harness).
func benchStartFleet(b *testing.B, n int) *testFleet {
	b.Helper()
	speeds := make([]float64, n)
	for i := range speeds {
		speeds[i] = 1
	}
	return startFleet(b, speeds, nil)
}

// BenchmarkFleetRoutedOp measures one metadata op through the full fleet
// path: router map lookup -> TCP -> gate -> cluster -> response.
// Compare against BenchmarkDirectOp (same wire path, no fleet gate or
// router) to see the sharding overhead.
func BenchmarkFleetRoutedOp(b *testing.B) {
	f := benchStartFleet(b, 3)
	r, err := NewRouter(RouterConfig{AuthorityAddr: f.daemons[0].addr})
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	if err := r.CreateFileSet("vol00"); err != nil {
		b.Fatal(err)
	}
	if err := r.Create("vol00", "/a", sharedisk.Record{Size: 1}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Stat("vol00", "/a"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDirectOp is the baseline: the same Stat against a single
// non-fleet daemon over the wire.
func BenchmarkDirectOp(b *testing.B) {
	disk := sharedisk.NewStore(0)
	cfg := live.DefaultConfig()
	cfg.Window = time.Hour
	cfg.OpCost = 0
	clus, err := live.NewCluster(cfg, disk, map[int]float64{0: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer clus.Stop()
	srv := wire.NewServer(clus)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c, err := wire.Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateFileSet("vol00"); err != nil {
		b.Fatal(err)
	}
	if err := c.Create("vol00", "/a", sharedisk.Record{Size: 1}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Stat("vol00", "/a"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHandoff measures a full live handoff (fence, drain, flush,
// transfer, adopt, drop) of a small file set bouncing between two daemons.
func BenchmarkHandoff(b *testing.B) {
	f := benchStartFleet(b, 2)
	r, err := NewRouter(RouterConfig{AuthorityAddr: f.daemons[0].addr})
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	if err := r.CreateFileSet("vol00"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if err := r.Create("vol00", fmt.Sprintf("/f%02d", i), sharedisk.Record{Size: 1}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		to := 1 - f.auth.Map().Assign["vol00"]
		if _, err := f.auth.Assign("vol00", to); err != nil {
			b.Fatal(err)
		}
	}
}
