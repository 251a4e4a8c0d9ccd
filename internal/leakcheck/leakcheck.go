// Package leakcheck fails a test binary whose tests leave goroutines
// running. A package opts in from its TestMain:
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// grace is how long goroutines that were told to stop get to finish.
const grace = 5 * time.Second

// Main runs the tests, then waits for the goroutines they started to exit.
// If more remain than were running before the tests, it prints their stacks
// and fails the binary.
func Main(m *testing.M) {
	before := len(others())
	code := m.Run()
	left := others()
	for deadline := time.Now().Add(grace); len(left) > before && time.Now().Before(deadline); left = others() {
		time.Sleep(10 * time.Millisecond)
	}
	if len(left) > before {
		fmt.Fprintf(os.Stderr, "leakcheck: %d goroutines outlived the tests:\n\n%s\n", len(left)-before, strings.Join(left, "\n\n"))
		code = max(code, 1)
	}
	os.Exit(code)
}

// others returns the stacks of every goroutine but the caller and the one
// os/signal keeps for the life of the process once anything calls
// signal.Notify (the fuzzing coordinator does).
func others() []string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	var out []string
	for _, g := range strings.Split(string(buf), "\n\n")[1:] {
		if !strings.Contains(g, "os/signal.loop") {
			out = append(out, g)
		}
	}
	return out
}
