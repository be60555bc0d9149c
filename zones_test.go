package triplea

import (
	"go/build"
	"maps"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// simZones gives each simulation-core package its zone in the paper's
// partitioning of the array: subtree state lives inside one PCI-E
// switch subtree, the fabric is what subtrees talk through, global
// coordination exists once per array, and services are leaves every
// zone may use.
var simZones = map[string]string{
	"nand":     "subtree",
	"fimm":     "subtree",
	"cluster":  "subtree",
	"pcie":     "fabric",
	"array":    "global",
	"core":     "global",
	"ftl":      "global",
	"fault":    "global",
	"simx":     "service",
	"topo":     "service",
	"metrics":  "service",
	"trace":    "service",
	"decision": "service",
	"units":    "service",
}

// upwardImportExceptions lists the upward imports the zone order
// tolerates, each with the reason it is harmless.
var upwardImportExceptions = map[string]string{
	"topo -> nand": "value types only: Geometry embeds nand.Params and PPN.NandAddr returns a nand.Addr; " +
		"this test does not enforce that, so check any new use of nand in topo by hand",
}

// zoneAllowed reports whether a package in zone from may import one in
// zone to: imports point down or sideways, never up. Only the global
// layer reaches into subtree and fabric state, subtrees reach each
// other, the fabric and services, the fabric reaches only services,
// and services reach only services.
func zoneAllowed(from, to string) bool {
	switch from {
	case "global":
		return true
	case "subtree":
		return to == "subtree" || to == "fabric" || to == "service"
	case "fabric":
		return to == "fabric" || to == "service"
	case "service":
		return to == "service"
	}
	return false
}

// TestImportZones fails on any import between sim-core packages that
// points up the zone order, under both the default and simcheck build
// tags. Go's import-cycle rule rejects many upward imports already, but
// not all: fimm, cluster or pcie importing ftl, pcie importing nand or
// fimm, or metrics, trace or decision importing a subtree package would
// all build without it.
func TestImportZones(t *testing.T) {
	used := map[string]bool{}
	for _, tags := range [][]string{nil, {"simcheck"}} {
		ctx := build.Default
		ctx.BuildTags = tags
		for _, pkg := range slices.Sorted(maps.Keys(simZones)) {
			zone := simZones[pkg]
			bp, err := ctx.ImportDir(filepath.Join("internal", pkg), 0)
			if err != nil {
				t.Fatalf("tags %v: %s: %v", tags, pkg, err)
			}
			for _, imp := range bp.Imports {
				dep, ok := strings.CutPrefix(imp, "triplea/internal/")
				if !ok || simZones[dep] == "" || zoneAllowed(zone, simZones[dep]) {
					continue
				}
				edge := pkg + " -> " + dep
				if upwardImportExceptions[edge] != "" {
					used[edge] = true
					continue
				}
				t.Errorf("tags %v: %s (%s zone) imports %s (%s zone): imports must not point up the zone order",
					tags, pkg, zone, dep, simZones[dep])
			}
		}
	}
	for edge := range upwardImportExceptions {
		if !used[edge] {
			t.Errorf("exception %q no longer matches an import; delete it", edge)
		}
	}
}
