package analyzers_test

import (
	"testing"

	"triplea/internal/lint/analysistest"
	"triplea/internal/lint/analyzers"
)

func TestUnits(t *testing.T) {
	analysistest.Run(t, "testdata", analyzers.Units, "un")
}

func TestUnitsExemptInDefiningPackage(t *testing.T) {
	// The fake units package converts freely — it implements the
	// audited helpers — so its only finding is the bare simx.Time
	// literal: the simulated-time rules reach every package but simx.
	analysistest.Run(t, "testdata", analyzers.Units, "triplea/internal/units")
}
