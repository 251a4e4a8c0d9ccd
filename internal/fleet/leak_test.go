package fleet

import (
	"testing"

	"anufs/internal/leakcheck"
)

// TestMain fails the package's tests if any goroutine they start outlives them.
func TestMain(m *testing.M) { leakcheck.Main(m) }
