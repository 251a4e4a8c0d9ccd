package main_test

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func buildGuard(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "allocguard")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building allocguard: %v\n%s", err, out)
	}
	return bin
}

const sample = `goos: linux
BenchmarkEncodeRequest-8            5000000   190.7 ns/op    0 B/op   0 allocs/op
BenchmarkEncodeDecodeRequest-8      3000000   318.3 ns/op    0 B/op   0 allocs/op
BenchmarkUnrelatedThing-8           1000000   100 ns/op     48 B/op   1 allocs/op
PASS
`

func run(t *testing.T, bin string, input string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Stdin = strings.NewReader(input)
	out, err := cmd.CombinedOutput()
	if err == nil {
		return string(out), 0
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("running allocguard: %v\n%s", err, out)
	}
	return string(out), ee.ExitCode()
}

// TestCleanPass: matched benchmarks at 0 allocs/op pass while non-matching
// lines are ignored.
func TestCleanPass(t *testing.T) {
	out, code := run(t, buildGuard(t), sample)
	if code != 0 {
		t.Fatalf("want exit 0, got %d:\n%s", code, out)
	}
	if !strings.Contains(out, "2 benchmark(s) allocation-free") {
		t.Errorf("want 2 checked benchmarks, got:\n%s", out)
	}
}

// TestAllocatingFails: a matched benchmark with nonzero allocs/op fails.
func TestAllocatingFails(t *testing.T) {
	bad := sample + "BenchmarkEncodeEntryFrame-8  1000000  300 ns/op  16 B/op  1 allocs/op\n"
	out, code := run(t, buildGuard(t), bad)
	if code != 1 {
		t.Fatalf("want exit 1, got %d:\n%s", code, out)
	}
	if !strings.Contains(out, "BenchmarkEncodeEntryFrame allocates: 1 allocs/op") {
		t.Errorf("missing allocation report:\n%s", out)
	}
}

// TestNoMatchFails: matching nothing is itself a failure, so a renamed
// benchmark cannot silently escape enforcement.
func TestNoMatchFails(t *testing.T) {
	out, code := run(t, buildGuard(t), sample, "-match", "^BenchmarkNope")
	if code != 1 {
		t.Fatalf("want exit 1, got %d:\n%s", code, out)
	}
	if !strings.Contains(out, "no benchmark lines matched") {
		t.Errorf("missing no-match report:\n%s", out)
	}
}
