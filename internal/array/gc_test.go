package array

import (
	"testing"

	"triplea/internal/simx"
	"triplea/internal/topo"
	"triplea/internal/trace"
)

// overwriteTrace hammers a few LPNs so blocks recycle.
func overwriteTrace(rounds int, lpns int64, gap simx.Time) []trace.Request {
	var reqs []trace.Request
	var now simx.Time
	for r := 0; r < rounds; r++ {
		for lpn := int64(0); lpn < lpns; lpn++ {
			reqs = append(reqs, trace.Request{Arrival: now, Op: trace.Write, LPN: lpn, Pages: 1})
			now += gap
		}
	}
	return reqs
}

func gcConfig() Config {
	cfg := testConfig()
	cfg.Geometry.Nand.BlocksPerPlane = 8
	cfg.GCThreshold = 6
	return cfg
}

func TestOpportunisticGCDefersUnderLoad(t *testing.T) {
	// Interleave overwrites with a heavy read stream on the same
	// cluster so its bus stays busy; the opportunistic scheduler must
	// defer at least some rounds, and still reclaim eventually.
	build := func(opportunistic bool) *Array {
		cfg := gcConfig()
		// Pressure must first appear mid-run (while the bus is busy),
		// not at prepare time when the array is still idle.
		cfg.GCThreshold = 4
		cfg.OpportunisticGC = opportunistic
		a, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}

	reqs := overwriteTrace(20, 4, simx.Millisecond/2)
	// Dense read traffic across two FIMMs of the same cluster keeps the
	// shared bus saturated (die time overlaps, transfers serialise).
	perFIMM := gcConfig().Geometry.PagesPerFIMM().Int64()
	var mixed []trace.Request
	for i, w := range reqs {
		mixed = append(mixed, w)
		for j := 0; j < 48; j++ {
			base := int64(10)
			if j%2 == 1 {
				base = perFIMM + 10
			}
			mixed = append(mixed, trace.Request{
				Arrival: w.Arrival + simx.Time(j+1)*10*simx.Microsecond,
				Op:      trace.Read,
				LPN:     base + int64((i+j)%20),
				Pages:   1,
			})
		}
	}

	eager := build(false)
	if _, err := eager.Run(mixed); err != nil {
		t.Fatal(err)
	}
	oppo := build(true)
	if _, err := oppo.Run(mixed); err != nil {
		t.Fatal(err)
	}

	if eager.GCDeferrals() != 0 {
		t.Errorf("eager GC deferred %d times", eager.GCDeferrals())
	}
	if oppo.GCDeferrals() == 0 {
		t.Error("opportunistic GC never deferred under load")
	}
	if oppo.FTL().Stats().GCErases == 0 {
		t.Error("opportunistic GC never reclaimed")
	}
}

func TestOpportunisticGCUrgencyOverride(t *testing.T) {
	// With almost no free blocks left, collection must run even while
	// the cluster is busy: fill a FIMM nearly to capacity.
	cfg := gcConfig()
	cfg.OpportunisticGC = true
	cfg.Geometry.Nand.BlocksPerPlane = 4
	cfg.GCThreshold = 3
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Slow, sustained overwrites: pressure becomes urgent eventually.
	reqs := overwriteTrace(30, 4, 2*simx.Millisecond)
	if _, err := a.Run(reqs); err != nil {
		t.Fatal(err)
	}
	if a.FTL().Stats().GCErases == 0 {
		t.Error("urgent pressure did not force collection")
	}
}

func TestGCVetoProtectsPendingBlocks(t *testing.T) {
	// gcVeto must report blocks with pending flushes.
	a, _ := New(testConfig())
	wa, err := a.FTL().AllocateWrite(0)
	if err != nil {
		t.Fatal(err)
	}
	bk := wa.New.BlockKey()
	a.pendingByBlock[bk] = 1
	if !a.gcVeto(wa.New) {
		t.Error("pending block not vetoed")
	}
	delete(a.pendingByBlock, bk)
	if a.gcVeto(wa.New) {
		t.Error("clean block vetoed")
	}
}

func TestEmergencyGCSkipsInFlightVictim(t *testing.T) {
	// The emergency path must not reclaim the victim of a background
	// round that is still relocating it: erasing and freeing that block
	// under the round makes the round's own completion fail its
	// bookkeeping. Step an overwrite workload until a background round
	// is in flight, fire the emergency path on the same FIMM, then
	// finish the run.
	a, err := New(gcConfig())
	if err != nil {
		t.Fatal(err)
	}
	reqs := overwriteTrace(20, 4, simx.Millisecond/2)
	flat := -1
	for i := 0; i < len(reqs) && flat < 0; i++ {
		a.Submit(reqs[i])
		for flat < 0 && a.Engine().Step() {
			for f := 0; f < a.cfg.Geometry.TotalFIMMs() && flat < 0; f++ {
				if a.gcActive[f] {
					flat = f
				}
			}
		}
	}
	if flat < 0 {
		t.Fatal("no background GC round started")
	}
	id := topo.FIMMFromFlat(a.cfg.Geometry, flat)
	before := a.FTL().Stats().GCErases
	a.runGCNow(id)
	if a.FTL().Stats().GCErases == before {
		t.Fatal("emergency GC reclaimed nothing; the collision is not exercised")
	}
	a.Engine().Run()
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}
