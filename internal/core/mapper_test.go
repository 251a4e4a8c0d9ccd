package core

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"anufs/internal/interval"
)

func newMapper(t testing.TB, n int) *Mapper {
	t.Helper()
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	m, err := NewMapper(Defaults(), ids)
	if err != nil {
		t.Fatalf("NewMapper: %v", err)
	}
	return m
}

func names(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("fileset-%04d", i)
	}
	return out
}

func TestNewMapperRequiresServers(t *testing.T) {
	if _, err := NewMapper(Defaults(), nil); err == nil {
		t.Fatal("NewMapper with no servers succeeded")
	}
}

func TestLocateDeterministic(t *testing.T) {
	a := newMapper(t, 5)
	b := newMapper(t, 5)
	for _, n := range names(500) {
		sa, pa := a.Locate(n)
		sb, pb := b.Locate(n)
		if sa != sb || pa != pb {
			t.Fatalf("mappers with same config disagree on %q: (%d,%d) vs (%d,%d)", n, sa, pa, sb, pb)
		}
	}
}

func TestLocateTotalAndValid(t *testing.T) {
	m := newMapper(t, 5)
	valid := map[int]bool{}
	for _, id := range m.Servers() {
		valid[id] = true
	}
	for _, n := range names(2000) {
		id, probes := m.Locate(n)
		if !valid[id] {
			t.Fatalf("Locate(%q) = %d, not a live server", n, id)
		}
		if probes < 1 || probes > m.Config().withDefaults().MaxRounds+22 {
			t.Fatalf("Locate(%q) probes = %d", n, probes)
		}
	}
}

func TestLocateMeanProbesNearTwo(t *testing.T) {
	m := newMapper(t, 5)
	total := 0
	const count = 20000
	for i := 0; i < count; i++ {
		_, p := m.Locate(fmt.Sprintf("probe-%d", i))
		total += p
	}
	mean := float64(total) / count
	// Half occupancy: geometric with p=1/2, mean 2 (paper §4).
	if mean < 1.9 || mean > 2.1 {
		t.Fatalf("mean probes %v, want ~2", mean)
	}
}

func TestInitialPlacementRoughlyUniform(t *testing.T) {
	m := newMapper(t, 5)
	counts := map[int]int{}
	const count = 50000
	for i := 0; i < count; i++ {
		counts[m.Owner(fmt.Sprintf("u-%d", i))]++
	}
	want := float64(count) / 5
	for id, c := range counts {
		if math.Abs(float64(c)-want) > 0.06*want {
			t.Fatalf("server %d got %d file sets, want ~%.0f (equal shares ⇒ uniform)", id, c, want)
		}
	}
}

func TestShareFrac(t *testing.T) {
	m := newMapper(t, 4)
	for _, id := range m.Servers() {
		f, ok := m.ShareFrac(id)
		if !ok {
			t.Fatalf("ShareFrac(%d) not ok", id)
		}
		if math.Abs(f-1.0/8) > 1e-9 {
			t.Fatalf("ShareFrac(%d) = %v, want 1/8", id, f)
		}
	}
	if _, ok := m.ShareFrac(99); ok {
		t.Fatal("ShareFrac(99) ok for unknown server")
	}
}

func TestRescaleMovesLookups(t *testing.T) {
	m := newMapper(t, 2)
	before := m.Clone()
	// Give everything to server 0.
	if err := m.Rescale(map[int]uint64{0: interval.Half, 1: 0}); err != nil {
		t.Fatal(err)
	}
	ns := names(1000)
	for _, n := range ns {
		if got := m.Owner(n); got != 0 {
			t.Fatalf("after rescale to server 0, Owner(%q) = %d", n, got)
		}
	}
	moves := Moves(before, m, ns)
	// Roughly half the names were on server 1 before.
	if len(moves) < 400 || len(moves) > 600 {
		t.Fatalf("%d moves, want ~500", len(moves))
	}
	for _, mv := range moves {
		if mv.From != 1 || mv.To != 0 {
			t.Fatalf("unexpected move %+v", mv)
		}
	}
}

func TestRemoveServerMinimalFileSetMovement(t *testing.T) {
	m := newMapper(t, 5)
	ns := names(5000)
	before := m.Clone()
	ownedByVictim := 0
	for _, n := range ns {
		if before.Owner(n) == 2 {
			ownedByVictim++
		}
	}
	if err := m.RemoveServer(2); err != nil {
		t.Fatal(err)
	}
	moves := Moves(before, m, ns)
	// Paper §4: only file sets served by the failed server re-hash, plus the
	// small growth deltas the survivors claim. Allow modest slack for sets
	// whose probe sequence crosses a grown boundary.
	if len(moves) > ownedByVictim+len(ns)/10 {
		t.Fatalf("failure moved %d file sets; victim owned %d — movement not minimal", len(moves), ownedByVictim)
	}
	fromVictim := 0
	for _, mv := range moves {
		if mv.To == 2 {
			t.Fatalf("file set %q moved TO removed server", mv.Name)
		}
		if mv.From == 2 {
			fromVictim++
		}
	}
	if fromVictim != ownedByVictim {
		t.Fatalf("%d of the victim's %d file sets moved; all must", fromVictim, ownedByVictim)
	}
}

func TestAddServerMinimalFileSetMovement(t *testing.T) {
	m := newMapper(t, 4)
	ns := names(5000)
	before := m.Clone()
	if err := m.AddServer(4, 0); err != nil { // default seed share
		t.Fatal(err)
	}
	moves := Moves(before, m, ns)
	newShare, _ := m.ShareFrac(4)
	// Expected fraction moved ≈ mass that changed hands / mapped half.
	expected := float64(len(ns)) * (2 * newShare) / 0.5
	if float64(len(moves)) > 3*expected+50 {
		t.Fatalf("add moved %d file sets, want ≲ %.0f", len(moves), expected)
	}
	for _, mv := range moves {
		if mv.From == 4 {
			t.Fatalf("file set %q moved FROM the brand-new server", mv.Name)
		}
	}
}

func TestAddServerGrowsUnderTuning(t *testing.T) {
	// A recovered server starts with a sliver and must be able to grow.
	m := newMapper(t, 3)
	if err := m.AddServer(3, 0); err != nil {
		t.Fatal(err)
	}
	f, _ := m.ShareFrac(3)
	if f <= 0 || f > 0.5 {
		t.Fatalf("join share %v out of (0, 0.5]", f)
	}
}

func TestAddServerRejectsHugeShare(t *testing.T) {
	m := newMapper(t, 2)
	if err := m.AddServer(9, 0.6); err == nil {
		t.Fatal("AddServer with share > 0.5 succeeded")
	}
}

func TestCloneIsolation(t *testing.T) {
	m := newMapper(t, 3)
	cp := m.Clone()
	if err := m.RemoveServer(1); err != nil {
		t.Fatal(err)
	}
	if cp.NumServers() != 3 {
		t.Fatal("clone affected by original's RemoveServer")
	}
	if m.NumServers() != 2 {
		t.Fatal("RemoveServer did not apply")
	}
}

// Property: membership churn never leaves the mapper unable to locate a
// file set, and the fallback path stays rare.
func TestChurnLocateTotal(t *testing.T) {
	f := func(seed uint8) bool {
		m := newMapper(t, 3)
		next := 3
		ops := int(seed%5) + 3
		for i := 0; i < ops; i++ {
			if i%2 == 0 {
				if err := m.AddServer(next, 0); err != nil {
					return false
				}
				next++
			} else if m.NumServers() > 2 {
				if err := m.RemoveServer(m.Servers()[0]); err != nil {
					return false
				}
			}
		}
		for j := 0; j < 200; j++ {
			id, _ := m.Locate(fmt.Sprintf("churn-%d-%d", seed, j))
			found := false
			for _, s := range m.Servers() {
				if s == id {
					found = true
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLocate(b *testing.B) {
	m := newMapper(b, 16)
	ns := names(1024)
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += m.Owner(ns[i&1023])
	}
	_ = sink
}

func BenchmarkMoves(b *testing.B) {
	m := newMapper(b, 8)
	before := m.Clone()
	if err := m.RemoveServer(3); err != nil {
		b.Fatal(err)
	}
	ns := names(512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Moves(before, m, ns)
	}
}
