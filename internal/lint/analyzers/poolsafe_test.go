package analyzers_test

import (
	"testing"

	"triplea/internal/lint/analysistest"
	"triplea/internal/lint/analyzers"
)

func TestPoolsafe(t *testing.T) {
	analysistest.Run(t, "testdata", analyzers.Poolsafe, "ps")
}

func TestPoolsafeExemptMachinery(t *testing.T) {
	// The fake pool package implements the registered acquire/release
	// pair; the free-list internals must produce no findings, and nor
	// must a push onto its allowlisted Link.sendQ queue.
	analysistest.Run(t, "testdata", analyzers.Poolsafe, "triplea/internal/pcie")
}
