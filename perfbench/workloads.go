package main

import (
	"fmt"

	"triplea/internal/array"
	"triplea/internal/units"
	"triplea/internal/workload"
)

// spec is one benchmark workload: an array build, the traffic profile
// replayed on it, and which autonomic layers are attached. The traffic
// is open loop — independent hosts arrive at the trace's timestamps —
// and each run simulates the whole trace to completion.
type spec struct {
	name string
	why  string

	config  func() array.Config
	profile func() workload.Profile

	// tripleA attaches the autonomic core with core.DefaultOptions.
	tripleA bool
	// faults attaches fault.ReferencePlan with recovery on.
	faults bool
	// traces is how many traces, with seeds derived from the benchmark
	// seed, one run simulates. Their pooled answers vary less from seed
	// to seed than one trace's do.
	traces int
}

// specs lists the workloads in BENCHMARK.json order. Each one leaves a
// different layer on top of the host profile, so that a change to one
// layer shows on the workload that exercises it and stays flat on the
// one that bypasses it.
var specs = []spec{
	{
		name: "hot-read-3a",
		why: "Table 1 l-eigen, 100% reads on 11 hot clusters, 4x16 Triple-A: " +
			"autonomic core, p2p migration and cluster bus; no writes, so ftl allocation and GC are bypassed",
		config: array.DefaultConfig,
		profile: func() workload.Profile {
			p, ok := workload.ProfileByName("l-eigen")
			if !ok {
				panic("perfbench: Table 1 profile l-eigen is missing")
			}
			return p
		},
		tripleA: true,
		traces:  5,
	},
	{
		name: "gc-write-base",
		why: "50% random writes on a 2x8 array with tiny blocks, no manager: " +
			"ftl allocation, GC and NAND erase dominate; core is bypassed and the event queue is the hot spot",
		config: func() array.Config {
			cfg := array.DefaultConfig()
			cfg.Geometry.Switches = 2
			cfg.Geometry.ClustersPerSwitch = 8
			cfg.Geometry.Nand.BlocksPerPlane = 8 * units.Block
			cfg.Geometry.Nand.PagesPerBlock = 16 * units.Page
			cfg.GCThreshold = 4 * units.Block
			return cfg
		},
		profile: func() workload.Profile {
			p := workload.MicroWrite(2, 120_000, 40_000)
			p.ReadRatio = 0.5
			p.Footprint = 256 * units.Page
			return p
		},
		traces: 3,
	},
	{
		name: "mixed-faulted-3a",
		why: "fault study's 60% read mix on 2 hot clusters, 4x16 Triple-A with the reference fault plan and recovery: " +
			"the only workload that runs the fault layer, and reads and writes share core and ftl",
		config: array.DefaultConfig,
		profile: func() workload.Profile {
			// The degraded-array study's fault-mixed profile: the
			// micro-read mix offered at 1.0x the hot clusters' capacity.
			p := workload.MicroRead(2, 20_000, 150_000)
			p.RateIOPS = 40_000 * 2 / p.HotIORatio
			p.Requests = int(20_000 * p.RateIOPS / 150_000)
			p.Name = "fault-mixed"
			p.ReadRatio = 0.6
			p.WriteRandomness = 1
			return p
		},
		tripleA: true,
		faults:  true,
		traces:  12,
	},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return spec{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}
