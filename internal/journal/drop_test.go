package journal

import (
	"testing"

	"anufs/internal/sharedisk"
)

// TestDropSurvivesRestart proves the fleet handoff fence is durable: after
// a donor journals a drop, recovery must not resurrect the file set even
// though its create and flush entries are still in the log.
func TestDropSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	j, _, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, fs := range []string{"vol00", "vol01"} {
		if err := j.LogCreateFileSet(fs); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.LogFlush("vol00", img(2, "/a")); err != nil {
		t.Fatal(err)
	}
	if err := j.LogDrop("vol00"); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j, st, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	requireImagesEqual(t, st, map[string]sharedisk.Image{
		"vol01": img(1),
	})
}

// TestDropThenRecreate proves replay ordering: a file set dropped and then
// re-adopted (re-created via a later flush) recovers to the later state.
func TestDropThenRecreate(t *testing.T) {
	dir := t.TempDir()
	j, _, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.LogCreateFileSet("vol00"); err != nil {
		t.Fatal(err)
	}
	if err := j.LogFlush("vol00", img(5, "/old")); err != nil {
		t.Fatal(err)
	}
	if err := j.LogDrop("vol00"); err != nil {
		t.Fatal(err)
	}
	// The file set comes back (adopted from another daemon) at a lower
	// version than the dropped copy — replay must install it anyway, since
	// the drop erased the old version.
	if err := j.LogFlush("vol00", img(3, "/new")); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j, st, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	requireImagesEqual(t, st, map[string]sharedisk.Image{
		"vol00": img(3, "/new"),
	})
}

func TestDropEntryRoundTrip(t *testing.T) {
	e := Entry{Kind: KindDrop, FileSet: "vol07"}
	got, err := decodeEntry(encodeEntry(e))
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != KindDrop || got.FileSet != "vol07" {
		t.Fatalf("round trip = %+v", got)
	}
}
