package parallel

import (
	"testing"

	"additivity/internal/leaktest"
)

// TestMain fails the package when a goroutine its tests start is still
// running after they pass.
func TestMain(m *testing.M) { leaktest.Main(m) }
