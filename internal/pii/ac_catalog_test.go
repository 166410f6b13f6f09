package pii_test

import (
	"testing"

	"appvsweb/internal/core"
	"appvsweb/internal/pii"
	"appvsweb/internal/services"
)

// TestBuildAutomatonCatalogMatchesOracle checks the dense automaton
// builder against the map-based oracle on every catalog identity's
// ground-truth record: the needle sets a campaign actually compiles.
func TestBuildAutomatonCatalogMatchesOracle(t *testing.T) {
	for _, spec := range services.Catalog() {
		for _, os := range []services.OS{services.Android, services.IOS} {
			if err := pii.DiffRecordAutomaton(core.IdentityFor(spec.Key, os)); err != nil {
				t.Fatalf("%s/%s: %v", spec.Key, os, err)
			}
		}
	}
}
