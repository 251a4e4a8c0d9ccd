package wire

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"anufs/internal/live"
	"anufs/internal/sharedisk"
)

func startServer(t *testing.T, nFileSets int) (*Client, *live.Cluster) {
	t.Helper()
	disk := sharedisk.NewStore(0)
	for i := 0; i < nFileSets; i++ {
		if err := disk.CreateFileSet(fmt.Sprintf("fs%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	cl, err := live.NewCluster(liveTestConfig(), disk, map[int]float64{0: 1, 1: 3, 2: 5})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(cl)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		cl.Stop()
	})
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return client, cl
}

func liveTestConfig() live.Config {
	cfg := live.DefaultConfig()
	cfg.Window = time.Hour // no background tuning in protocol tests
	cfg.OpCost = 0
	return cfg
}

func TestEndToEndMetadataOps(t *testing.T) {
	c, _ := startServer(t, 3)
	if err := c.Create("fs00", "/a", sharedisk.Record{Size: 11, Owner: "alice"}); err != nil {
		t.Fatal(err)
	}
	rec, err := c.Stat("fs00", "/a")
	if err != nil || rec.Size != 11 || rec.Owner != "alice" {
		t.Fatalf("Stat = %+v, %v", rec, err)
	}
	if err := c.Update("fs00", "/a", sharedisk.Record{Size: 12}); err != nil {
		t.Fatal(err)
	}
	paths, err := c.List("fs00", "/")
	if err != nil || len(paths) != 1 || paths[0] != "/a" {
		t.Fatalf("List = %v, %v", paths, err)
	}
	if err := c.Remove("fs00", "/a"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stat("fs00", "/a"); err == nil {
		t.Fatal("Stat after Remove succeeded")
	}
}

func TestErrorsPropagate(t *testing.T) {
	c, _ := startServer(t, 1)
	if _, err := c.Stat("fs00", "/missing"); err == nil || !strings.Contains(err.Error(), "no such path") {
		t.Fatalf("missing-path error: %v", err)
	}
	if err := c.CreateFileSet("fs00"); err == nil {
		t.Fatal("duplicate CreateFileSet succeeded over the wire")
	}
	if err := c.Create("fs00", "/dup", sharedisk.Record{}); err != nil {
		t.Fatal(err)
	}
	if err := c.Create("fs00", "/dup", sharedisk.Record{}); err == nil {
		t.Fatal("duplicate create succeeded over the wire")
	}
}

func TestCreateFileSetOverWire(t *testing.T) {
	c, _ := startServer(t, 0)
	if err := c.CreateFileSet("remote"); err != nil {
		t.Fatal(err)
	}
	if err := c.Create("remote", "/x", sharedisk.Record{}); err != nil {
		t.Fatal(err)
	}
	owner, err := c.Owner("remote")
	if err != nil {
		t.Fatal(err)
	}
	if owner < 0 || owner > 2 {
		t.Fatalf("Owner = %d", owner)
	}
}

func TestLockProtocol(t *testing.T) {
	c, _ := startServer(t, 1)
	alice, err := c.Register()
	if err != nil {
		t.Fatal(err)
	}
	bob, err := c.Register()
	if err != nil {
		t.Fatal(err)
	}
	if alice == bob {
		t.Fatal("session IDs collide")
	}
	if err := c.Lock(alice, "fs00", "/f", true); err != nil {
		t.Fatal(err)
	}
	if err := c.Lock(bob, "fs00", "/f", true); err == nil {
		t.Fatal("conflicting exclusive lock granted over the wire")
	}
	if err := c.Renew(alice); err != nil {
		t.Fatal(err)
	}
	if err := c.Unlock(alice, "fs00", "/f"); err != nil {
		t.Fatal(err)
	}
	if err := c.Lock(bob, "fs00", "/f", false); err != nil {
		t.Fatal(err)
	}
}

func TestStatsOverWire(t *testing.T) {
	c, _ := startServer(t, 4)
	if err := c.Create("fs00", "/s", sharedisk.Record{}); err != nil {
		t.Fatal(err)
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 3 {
		t.Fatalf("stats for %d servers, want 3", len(stats))
	}
	var share float64
	for _, st := range stats {
		share += st.ShareFrac
	}
	if share < 0.49 || share > 0.51 {
		t.Fatalf("total share %v, want 0.5", share)
	}
}

func TestConcurrentClients(t *testing.T) {
	c1, cl := startServer(t, 6)
	// A second client on its own connection.
	srvAddr := c1.conn.RemoteAddr().String()
	c2, err := Dial(srvAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 2*50)
	for g, cli := range []*Client{c1, c2} {
		wg.Add(1)
		go func(g int, cli *Client) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				fs := fmt.Sprintf("fs%02d", (g+i)%6)
				if err := cli.Create(fs, fmt.Sprintf("/c%d-%d", g, i), sharedisk.Record{}); err != nil {
					errs <- err
					return
				}
			}
		}(g, cli)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// 100 creates total landed in the cluster.
	total := int64(0)
	for _, st := range cl.Stats() {
		total += st.Served
	}
	if total < 100 {
		t.Fatalf("cluster served %d ops, want >= 100", total)
	}
}

func TestPipelinedRequestsOnOneConnection(t *testing.T) {
	c, _ := startServer(t, 4)
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fs := fmt.Sprintf("fs%02d", i%4)
			if err := c.Create(fs, fmt.Sprintf("/p%d", i), sharedisk.Record{}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	paths, err := c.List("fs00", "/")
	if err != nil || len(paths) == 0 {
		t.Fatalf("List = %v, %v", paths, err)
	}
}

func TestClientFailsAfterServerClose(t *testing.T) {
	disk := sharedisk.NewStore(0)
	if err := disk.CreateFileSet("fs"); err != nil {
		t.Fatal(err)
	}
	cfg := live.DefaultConfig()
	cfg.Window = time.Hour
	cl, err := live.NewCluster(cfg, disk, map[int]float64{0: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	srv := NewServer(cl)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.Create("fs", "/a", sharedisk.Record{}); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if err := client.Create("fs", "/b", sharedisk.Record{}); err != nil {
			return // failed cleanly, as expected
		}
	}
	t.Fatal("requests kept succeeding after server close")
}

func TestBadFrameGetsErrorResponse(t *testing.T) {
	// Drive the raw protocol without the typed client.
	c, _ := startServer(t, 1)
	_ = c // keep the standard fixture for the cluster lifecycle
	// An op outside the op table has no wire code: the typed client refuses
	// it before a byte is written, and the connection stays usable.
	if _, err := c.call(Request{Op: "bogus"}); err == nil || !strings.Contains(err.Error(), "not in the op table") {
		t.Fatalf("unknown op: %v", err)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after a refused op: %v", err)
	}
}

func TestRawProtocolGarbage(t *testing.T) {
	// Drive the TCP protocol directly with malformed payloads in intact
	// frames: the server must answer each under its tag and survive.
	c, _ := startServer(t, 1)
	_, fw, fr := frameConn(t, c.conn.RemoteAddr().String())
	// An op code no row of the table carries, a field tag no field carries,
	// and a well-formed request whose handler fails.
	unknownTag := append(reqBody(t, Request{Op: OpPing}), 0xff)
	payloads := map[uint64][]byte{
		5: []byte("this is not a body"),
		6: unknownTag,
		7: {0xff, reqTrace, 7},
		8: reqBody(t, Request{Op: OpStat, FileSet: "fs00", Path: "/missing"}),
	}
	for tag, payload := range payloads {
		if err := fw.WriteFrame(FrameRequest, tag, payload); err != nil {
			t.Fatal(err)
		}
	}
	got := map[uint64]Response{}
	for len(got) < len(payloads) {
		kind, tag, payload, err := fr.ReadFrame()
		if err != nil || kind != FrameResponse {
			t.Fatalf("ReadFrame = kind %d, %v", kind, err)
		}
		got[tag] = respOf(t, payload)
	}
	for _, tag := range []uint64{5, 6, 7} {
		if !strings.Contains(got[tag].Err, "bad frame") {
			t.Fatalf("tag %d response %+v, want bad-frame error", tag, got[tag])
		}
	}
	if !strings.Contains(got[8].Err, "no such path") {
		t.Fatalf("tag 8 response %+v, want the handler error under its tag", got[8])
	}
}
