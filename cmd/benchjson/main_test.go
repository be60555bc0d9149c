package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestCompareGates runs the smoke gates on edited copies of the
// committed baselines: the unedited copy passes, and each regression
// the gates exist for fails.
func TestCompareGates(t *testing.T) {
	const allocs, ns = "../../BENCH_PR3.json", "../../BENCH_PR10.json"
	scale := func(name string, f float64, metric func(*Result) *float64) func([]Result) []Result {
		return func(rs []Result) []Result {
			for i := range rs {
				if rs[i].Name == name {
					*metric(&rs[i]) *= f
				}
			}
			return rs
		}
	}
	allocsOf := func(r *Result) *float64 { return &r.AllocsPerOp }
	nsOf := func(r *Result) *float64 { return &r.NsPerOp }
	for _, tc := range []struct {
		name, base, metric, names string
		edit                      func([]Result) []Result
		wantErr                   bool
	}{
		{"allocs unchanged", allocs, "allocs/op", "", nil, false},
		{"allocs +9%", allocs, "allocs/op", "", scale("Fig12HotClusterSweep", 1.09, allocsOf), false},
		{"allocs +11%", allocs, "allocs/op", "", scale("Fig12HotClusterSweep", 1.11, allocsOf), true},
		{"ns unchanged", ns, "ns/op", "Table02Baseline", nil, false},
		{"ns +11%", ns, "ns/op", "Table02Baseline", scale("Table02Baseline", 1.11, nsOf), true},
		{"benchmark missing", allocs, "allocs/op", "", func(rs []Result) []Result { return rs[1:] }, true},
		{"no -benchmem", allocs, "allocs/op", "", func(rs []Result) []Result {
			for i := range rs {
				rs[i].AllocsPerOp, rs[i].BytesPerOp = 0, 0
			}
			return rs
		}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			raw, err := os.ReadFile(tc.base)
			if err != nil {
				t.Fatal(err)
			}
			var doc Document
			if err := json.Unmarshal(raw, &doc); err != nil {
				t.Fatal(err)
			}
			if tc.edit != nil {
				doc.Benchmarks = tc.edit(doc.Benchmarks)
			}
			cand := filepath.Join(t.TempDir(), "cand.json")
			enc, err := json.Marshal(doc)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(cand, enc, 0o644); err != nil {
				t.Fatal(err)
			}
			err = runCompare(tc.base, cand, tc.metric, tc.names)
			if (err != nil) != tc.wantErr {
				t.Fatalf("runCompare error = %v, want error %v", err, tc.wantErr)
			}
		})
	}
}
