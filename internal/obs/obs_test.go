package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"anufs/internal/core"
)

func TestSpanRingEvictionAndOrder(t *testing.T) {
	r := NewSpanRing(4)
	if got := r.Snapshot(0); len(got) != 0 {
		t.Fatalf("fresh ring holds %d spans", len(got))
	}
	for i := 1; i <= 6; i++ {
		r.Add(Span{Trace: uint64(i), Name: "s"})
	}
	got := r.Snapshot(0)
	if len(got) != 4 {
		t.Fatalf("ring kept %d spans, want 4", len(got))
	}
	for i, s := range got {
		if want := uint64(i + 3); s.Trace != want {
			t.Fatalf("span %d trace = %d, want %d (oldest-first)", i, s.Trace, want)
		}
	}
	if got := r.Snapshot(2); len(got) != 2 || got[1].Trace != 6 {
		t.Fatalf("Snapshot(2) = %+v", got)
	}
	r.Add(Span{Trace: 5, Name: "again"})
	by := r.ByTrace(5)
	if len(by) != 2 {
		t.Fatalf("ByTrace(5) found %d spans, want 2", len(by))
	}
}

func TestSpanRingConcurrent(t *testing.T) {
	r := NewSpanRing(64)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Add(Span{Trace: id})
				_ = r.Snapshot(8)
			}
		}(uint64(w))
	}
	wg.Wait()
	if got := len(r.Snapshot(0)); got != 64 {
		t.Fatalf("full ring snapshot = %d spans", got)
	}
}

func TestTunerRingSeq(t *testing.T) {
	r := NewTunerRing(2)
	s1 := r.Add(TunerEvent{Aggregate: 1})
	s2 := r.Add(TunerEvent{Aggregate: 2})
	s3 := r.Add(TunerEvent{Aggregate: 3})
	if s1 != 1 || s2 != 2 || s3 != 3 {
		t.Fatalf("seqs = %d,%d,%d", s1, s2, s3)
	}
	evs := r.Snapshot(0)
	if len(evs) != 2 || evs[0].Seq != 2 || evs[1].Seq != 3 {
		t.Fatalf("snapshot = %+v", evs)
	}
}

func TestEventFromUpdate(t *testing.T) {
	cfg := core.Defaults()
	m, err := core.NewMapper(cfg, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	d := core.NewDelegate(cfg)
	// Server 0 far slower than server 1: the delegate sheds from 0.
	res, err := d.Update(m, []core.LatencyReport{
		{ServerID: 0, MeanLatency: 10, Requests: 100},
		{ServerID: 1, MeanLatency: 1, Requests: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	ev := EventFromUpdate(res)
	if !ev.Tuned || ev.ChangedFrac <= 0 {
		t.Fatalf("expected a tuned round: %+v", ev)
	}
	if len(ev.Decisions) != 2 {
		t.Fatalf("decisions = %+v", ev.Decisions)
	}
	var shed TunerDecision
	for _, dec := range ev.Decisions {
		if dec.Server == 0 {
			shed = dec
		}
	}
	if shed.Reason != "shed-overload" || shed.NewShare >= shed.OldShare {
		t.Fatalf("server 0 decision = %+v", shed)
	}
	// Events must round-trip through JSON for the wire op and -tuner-log.
	b, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	var back TunerEvent
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Decisions[0].Reason == "" {
		t.Fatalf("JSON round-trip lost decisions: %s", b)
	}
}

func TestRegistryMetricsAndHandler(t *testing.T) {
	reg := New()
	if a, b := reg.NextTraceID(), reg.NextTraceID(); a == 0 || a == b {
		t.Fatalf("trace IDs: %d, %d", a, b)
	}
	reg.Counter("journal_fsyncs").Add(7)
	reg.AddGauges(func() []Gauge {
		return []Gauge{{Name: "server_speed", Labels: `server="0"`, Value: 3.5}}
	})
	reg.Hist.Get("wire_op_latency_seconds", `op="stat"`).Observe(2 * time.Millisecond)
	reg.Tuner.Add(TunerEvent{Aggregate: 0.5})
	reg.Spans.Add(Span{Trace: 9, Name: "wire", Op: "stat", Server: -1})

	var sb strings.Builder
	reg.WriteMetrics(&sb)
	out := sb.String()
	for _, want := range []string{
		"anufs_journal_fsyncs 7",
		`anufs_server_speed{server="0"} 3.5`,
		`anufs_wire_op_latency_seconds_count{op="stat"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q:\n%s", want, out)
		}
	}

	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()
	get := func(path string) (int, string) {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	if code, body := get("/healthz"); code != 200 || body != "ok\n" {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "anufs_journal_fsyncs 7") {
		t.Fatalf("/metrics = %d:\n%s", code, body)
	}
	if code, body := get("/trace?trace=9"); code != 200 || !strings.Contains(body, `"name": "wire"`) {
		t.Fatalf("/trace = %d:\n%s", code, body)
	}
	if code, _ := get("/trace?trace=bogus"); code != 400 {
		t.Fatalf("/trace bogus id = %d, want 400", code)
	}
	if code, body := get("/tuner-log"); code != 200 || !strings.Contains(body, `"aggregate": 0.5`) {
		t.Fatalf("/tuner-log = %d:\n%s", code, body)
	}
	if code, body := get("/debug/pprof/cmdline"); code != 200 || body == "" {
		t.Fatalf("/debug/pprof/cmdline = %d", code)
	}
}

// Counters() reports every name, and holders of one name sum instead of
// shadowing each other.
func TestRegistryCountersMerge(t *testing.T) {
	reg := New()
	for i := 0; i < 3; i++ {
		reg.Counter(fmt.Sprintf("src_%d", i)).Add(int64(i))
		reg.Counter("shared").Add(1)
	}
	got := reg.Counters()
	if len(got) != 4 || got["src_2"] != 2 || got["shared"] != 3 {
		t.Fatalf("merged counters = %v", got)
	}
}

// TestCounter is the table of what a Counter promises, each case driven
// from 8 goroutines (run under -race): concurrent Adds sum exactly, Max
// never decreases, Set then Add counts on from the set value. Every holder
// of a name shares one counter; a nil registry hands out detached ones.
func TestCounter(t *testing.T) {
	const workers, each = 8, 1000
	for _, tc := range []struct {
		name string
		prep func(c *Counter)
		do   func(t *testing.T, c *Counter, worker, i int)
		want int64
	}{
		{name: "Add", want: workers * each,
			do: func(_ *testing.T, c *Counter, _, _ int) { c.Add(1) }},
		{name: "Max", want: workers*each - 1,
			do: func(t *testing.T, c *Counter, w, i int) {
				v := int64(i*workers + w)
				c.Max(v)
				if got := c.Load(); got < v {
					t.Errorf("Load = %d after Max(%d)", got, v)
				}
			}},
		{name: "SetThenAdd", want: 5 + 2*workers*each,
			prep: func(c *Counter) { c.Add(99); c.Set(5) },
			do:   func(_ *testing.T, c *Counter, _, _ int) { c.Add(2) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := New()
			if tc.prep != nil {
				tc.prep(reg.Counter(tc.name))
			}
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < each; i++ {
						tc.do(t, reg.Counter(tc.name), w, i)
					}
				}(w)
			}
			wg.Wait()
			if got := reg.Counters(); len(got) != 1 || got[tc.name] != tc.want {
				t.Fatalf("Counters() = %v, want {%s: %d}", got, tc.name, tc.want)
			}
		})
	}
	var none *Registry
	c := none.Counter("x")
	c.Max(3)
	c.Max(2)
	if c.Load() != 3 || none.Counter("x") == c {
		t.Fatalf("nil registry: Load = %d, or two lookups shared a counter", c.Load())
	}
}

// TestCounterAddAllocFree: the hot path of every counting layer is one
// atomic add on a held handle, and a lookup by constant name allocates
// nothing either.
func TestCounterAddAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	reg := New()
	c := reg.Counter("hot")
	if n := testing.AllocsPerRun(100, func() { c.Add(1) }); n != 0 {
		t.Fatalf("Counter.Add allocates %v times per call", n)
	}
	if n := testing.AllocsPerRun(100, func() { reg.Counter("hot").Add(1) }); n != 0 {
		t.Fatalf("Registry.Counter on a hit allocates %v times per call", n)
	}
}

// TestObserveAndSpanAllocFree: what every request records — a histogram
// sample (traced or not, through bucketOf and exportBucketOf) and a span
// into a full ring — allocates nothing.
func TestObserveAndSpanAllocFree(t *testing.T) {
	h := NewHistogram()
	r := NewSpanRing(4)
	r.SetNode("d0")
	s := Span{Trace: 1, Name: "queue-wait", Op: "stat", FileSet: "vol00", Server: 2}
	d := 3 * time.Millisecond
	for _, row := range []struct {
		name string
		op   func()
	}{
		{"bucketOf", func() { _ = bucketOf(int64(d)) }},
		{"exportBucketOf", func() { _ = exportBucketOf(d.Seconds()) }},
		{"Histogram.Observe", func() { h.Observe(d) }},
		{"Histogram.ObserveTrace", func() { h.ObserveTrace(d, 77) }},
		{"SpanRing.Add", func() { r.Add(s) }},
	} {
		if n := testing.AllocsPerRun(100, row.op); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", row.name, n)
		}
	}
}

func TestStatusSourcesAndEndpoint(t *testing.T) {
	reg := New()
	reg.AddStatus("daemon", func() any { return map[string]string{"role": "primary"} })
	reg.AddStatus("replication", func() any { return map[string]any{"mode": "shipping", "lag_entries": 3} })
	// Re-registering a name replaces the source.
	reg.AddStatus("daemon", func() any { return map[string]string{"role": "promoted-primary"} })

	st := reg.Status()
	if d, ok := st["daemon"].(map[string]string); !ok || d["role"] != "promoted-primary" {
		t.Fatalf("daemon status = %+v", st["daemon"])
	}
	if _, ok := st["replication"]; !ok {
		t.Fatalf("replication status missing: %+v", st)
	}

	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	rep, ok := got["replication"].(map[string]any)
	if !ok || rep["mode"] != "shipping" {
		t.Fatalf("/status replication = %+v", got["replication"])
	}
}
