package main_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildVet compiles the anufsvet binary once into a temp dir.
func buildVet(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "anufsvet")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building anufsvet: %v\n%s", err, out)
	}
	return bin
}

// plantedViolations are the four diagnostics the bad module plants, one
// line each.
var plantedViolations = []string{
	"time.Now reads the wall clock",
	"time.Sleep reads the wall clock",
	"unbounded loop in goroutine has no shutdown path",
	"branching on err.Error() text is fragile",
}

// TestSelfCheckBadFixture runs the multichecker over a known-bad module
// and asserts each planted violation is reported and the exit status is
// nonzero. If an analyzer is weakened to the point of missing its
// fixture, this test fails.
func TestSelfCheckBadFixture(t *testing.T) {
	bin := buildVet(t)
	badmod, err := filepath.Abs("testdata/badmod")
	if err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command(bin, "./...")
	cmd.Dir = badmod
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("anufsvet exited 0 on the known-bad fixture; output:\n%s", out)
	}
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("anufsvet: want exit code 1, got %v; output:\n%s", err, out)
	}
	got := string(out)
	for _, want := range append(plantedViolations,
		"(simdeterminism)",
		"(goroutinelife)",
		"(errcode)",
		"4 invariant violation(s)",
	) {
		if !strings.Contains(got, want) {
			t.Errorf("anufsvet output missing %q; got:\n%s", want, got)
		}
	}
}

// TestSelfCheckVettoolMode drives the same fixture through `go vet
// -vettool`, exercising the unit-checker protocol end to end (-V=full,
// -flags, unit.cfg handling).
func TestSelfCheckVettoolMode(t *testing.T) {
	bin := buildVet(t)
	badmod, err := filepath.Abs("testdata/badmod")
	if err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command("go", "vet", "-vettool="+bin, "./...")
	cmd.Dir = badmod
	// Isolate GOFLAGS so outer -mod flags don't leak into the fixture.
	cmd.Env = append(os.Environ(), "GOFLAGS=")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet -vettool exited 0 on the known-bad fixture; output:\n%s", out)
	}
	got := string(out)
	for _, want := range plantedViolations {
		if !strings.Contains(got, want) {
			t.Errorf("go vet -vettool output missing %q; got:\n%s", want, got)
		}
	}
	// Each unit reports its own count: desim's two plus fleet's two.
	for _, want := range []string{
		"2 invariant violation(s) in anufs/internal/desim",
		"2 invariant violation(s) in anufs/internal/fleet",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("go vet -vettool output missing %q; got:\n%s", want, got)
		}
	}
}

// TestCleanTree asserts the repository itself stays free of violations:
// the tree this test ships with must be clean under its own checker.
func TestCleanTree(t *testing.T) {
	if testing.Short() {
		t.Skip("analyzing the whole tree is not short")
	}
	bin := buildVet(t)
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, "./...")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("anufsvet found violations in the shipped tree:\n%s", out)
	}
}
