// Benchmarks regenerating every table and figure of the paper's
// evaluation (one benchmark per table/figure), ablation benchmarks for
// the design choices DESIGN.md calls out, and microbenchmarks of the
// substrate hot paths. Long experiment benchmarks naturally run with
// b.N == 1 and print their tables; repeated iterations reuse the shared
// suite's cache.
package triplea

import (
	"runtime"
	"sync"
	"testing"

	"triplea/internal/array"
	"triplea/internal/core"
	"triplea/internal/experiments"
	"triplea/internal/ftl"
	"triplea/internal/nand"
	"triplea/internal/pcie"
	"triplea/internal/report"
	"triplea/internal/simx"
	"triplea/internal/topo"
	"triplea/internal/trace"
	"triplea/internal/workload"
)

// benchRequests bounds per-run request counts so the full -bench=.
// sweep finishes in minutes; cmd/triplea-bench runs the full-length
// versions.
const benchRequests = 30_000

var (
	suiteOnce sync.Once
	suite     *experiments.Suite
)

func sharedSuite() *experiments.Suite {
	suiteOnce.Do(func() {
		suite = experiments.NewSuite()
		suite.Requests = benchRequests
	})
	return suite
}

func logTable(b *testing.B, t *report.Table) {
	b.Helper()
	b.Log("\n" + t.String())
}

func BenchmarkFig01HotRegionCDF(b *testing.B) {
	s := sharedSuite()
	var tbl *report.Table
	var res *experiments.Fig1Result
	for i := 0; i < b.N; i++ {
		var err error
		res, tbl, err = s.Fig1()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.LinkFactor, "linkDegrX")
	b.ReportMetric(res.StoreFactor, "storDegrX")
	logTable(b, tbl)
}

func BenchmarkTable01Workloads(b *testing.B) {
	s := sharedSuite()
	var tbl *report.Table
	for i := 0; i < b.N; i++ {
		var err error
		tbl, err = s.Table1()
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, tbl)
}

func BenchmarkTable02Baseline(b *testing.B) {
	s := sharedSuite()
	var tbl *report.Table
	for i := 0; i < b.N; i++ {
		var err error
		tbl, err = s.Table2()
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, tbl)
}

func BenchmarkFig09Normalized(b *testing.B) {
	s := sharedSuite()
	var tbl *report.Table
	for i := 0; i < b.N; i++ {
		var err error
		tbl, err = s.Fig9()
		if err != nil {
			b.Fatal(err)
		}
	}
	// Aggregate gains across the congested workloads (paper: ~5x
	// latency, ~2x IOPS on average).
	var latSum, iopsSum float64
	n := 0
	for _, name := range experiments.WorkloadNames() {
		r, err := s.Workload(name)
		if err != nil {
			b.Fatal(err)
		}
		if r.Profile.HotClusters == 0 {
			continue
		}
		latSum += 1 / r.NormLatency()
		iopsSum += r.NormIOPS()
		n++
	}
	b.ReportMetric(latSum/float64(n), "meanLatGainX")
	b.ReportMetric(iopsSum/float64(n), "meanIOPSGainX")
	logTable(b, tbl)
}

func BenchmarkFig10Contention(b *testing.B) {
	s := sharedSuite()
	var tbl *report.Table
	for i := 0; i < b.N; i++ {
		var err error
		tbl, err = s.Fig10()
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, tbl)
}

func BenchmarkFig11CDF(b *testing.B) {
	s := sharedSuite()
	var tables []*report.Table
	for i := 0; i < b.N; i++ {
		var err error
		tables, err = s.Fig11()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, t := range tables {
		logTable(b, t)
	}
}

func BenchmarkFig12HotClusterSweep(b *testing.B) {
	s := sharedSuite()
	var tbl *report.Table
	for i := 0; i < b.N; i++ {
		var err error
		tbl, err = s.Fig12()
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, tbl)
}

func BenchmarkFig13NetworkSweep(b *testing.B) {
	s := sharedSuite()
	var tbl *report.Table
	for i := 0; i < b.N; i++ {
		var err error
		tbl, err = s.Fig13()
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, tbl)
}

func BenchmarkFig14ContentionSweep(b *testing.B) {
	s := sharedSuite()
	var tbl *report.Table
	for i := 0; i < b.N; i++ {
		var err error
		tbl, err = s.Fig14()
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, tbl)
}

func BenchmarkFig15Breakdown(b *testing.B) {
	s := sharedSuite()
	var tbl *report.Table
	for i := 0; i < b.N; i++ {
		var err error
		tbl, err = s.Fig15()
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, tbl)
}

func BenchmarkFig16MigrationModes(b *testing.B) {
	s := sharedSuite()
	var tbl *report.Table
	var res *experiments.Fig16Result
	for i := 0; i < b.N; i++ {
		var err error
		res, tbl, err = s.Fig16()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.AvgUS[1]/res.AvgUS[2], "naiveOverShadowX")
	logTable(b, tbl)
}

func BenchmarkWearOverhead(b *testing.B) {
	s := sharedSuite()
	var tbl *report.Table
	var w experiments.WearResult
	for i := 0; i < b.N; i++ {
		var err error
		w, tbl, err = s.Wear()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(w.ExtraWriteFrac*100, "extraWrites%")
	b.ReportMetric(w.LifetimeLoss*100, "lifetimeLoss%")
	logTable(b, tbl)
}

func BenchmarkDRAMRelocation(b *testing.B) {
	s := sharedSuite()
	var tbl *report.Table
	for i := 0; i < b.N; i++ {
		var err error
		tbl, err = s.DRAMStudy()
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, tbl)
}

// BenchmarkDegradedFIMMRecovery measures how much of the performance an
// 8x-degraded FIMM costs is recovered by laggard reshaping.
func BenchmarkDegradedFIMMRecovery(b *testing.B) {
	slow := topo.FIMMID{ClusterID: topo.ClusterID{Switch: 0, Cluster: 0}, FIMM: 0}
	p := workload.MicroRead(1, 20_000, 40_000)
	p.HotIORatio = 0.8
	p.Footprint = 512
	cfg := array.DefaultConfig()
	cfg.DegradedFIMMs = map[topo.FIMMID]float64{slow: 8}
	reqs, _, err := workload.Generate(cfg.Geometry, p, 5)
	if err != nil {
		b.Fatal(err)
	}
	var gain float64
	for i := 0; i < b.N; i++ {
		base, err := runArray(cfg, reqs, nil)
		if err != nil {
			b.Fatal(err)
		}
		opts := core.DefaultOptions()
		auto, err := runArray(cfg, reqs, &opts)
		if err != nil {
			b.Fatal(err)
		}
		gain = float64(base) / float64(auto)
	}
	b.ReportMetric(gain, "latGainX")
}

// BenchmarkOpportunisticGC compares eager and idle-window GC scheduling
// on an overwrite-heavy small-block configuration (tail latency is the
// interesting output).
func BenchmarkOpportunisticGC(b *testing.B) {
	for _, mode := range []struct {
		name string
		on   bool
	}{{"eager", false}, {"opportunistic", true}} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := array.DefaultConfig()
			cfg.Geometry.Switches = 2
			cfg.Geometry.ClustersPerSwitch = 8
			cfg.Geometry.Nand.BlocksPerPlane = 8
			cfg.Geometry.Nand.PagesPerBlock = 16
			cfg.GCThreshold = 4
			cfg.OpportunisticGC = mode.on
			p := workload.MicroWrite(2, 16_000, 120_000)
			p.ReadRatio = 0.5
			p.Footprint = 256
			reqs, _, err := workload.Generate(cfg.Geometry, p, 9)
			if err != nil {
				b.Fatal(err)
			}
			var p99 simx.Time
			var deferrals uint64
			for i := 0; i < b.N; i++ {
				a, err := array.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				rec, err := a.Run(reqs)
				if err != nil {
					b.Fatal(err)
				}
				p99 = rec.Percentile(99)
				deferrals = a.GCDeferrals()
			}
			b.ReportMetric(p99.Micros(), "p99us")
			b.ReportMetric(float64(deferrals), "deferrals")
		})
	}
}

func BenchmarkCostStudy(b *testing.B) {
	s := sharedSuite()
	var tbl *report.Table
	for i := 0; i < b.N; i++ {
		var err error
		tbl, err = s.CostStudy()
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, tbl)
}

// --- Ablation benchmarks: turn off one design element at a time and
// measure the fin workload's normalized latency (lower = better).

func benchAblation(b *testing.B, mutate func(*core.Options)) {
	cfg := array.DefaultConfig()
	p, _ := workload.ProfileByName("fin")
	p.Requests = benchRequests
	reqs, _, err := workload.Generate(cfg.Geometry, p, 42)
	if err != nil {
		b.Fatal(err)
	}
	var norm float64
	for i := 0; i < b.N; i++ {
		base, err := runArray(cfg, reqs, nil)
		if err != nil {
			b.Fatal(err)
		}
		opts := core.DefaultOptions()
		mutate(&opts)
		auto, err := runArray(cfg, reqs, &opts)
		if err != nil {
			b.Fatal(err)
		}
		norm = float64(auto) / float64(base)
	}
	b.ReportMetric(norm, "normLat")
	b.ReportMetric(1/norm, "latGainX")
}

func runArray(cfg array.Config, reqs []trace.Request, opts *core.Options) (simx.Time, error) {
	a, err := array.New(cfg)
	if err != nil {
		return 0, err
	}
	if opts != nil {
		core.Attach(a, *opts)
	}
	rec, err := a.Run(reqs)
	if err != nil {
		return 0, err
	}
	return rec.AvgLatency(), nil
}

func BenchmarkAblationFullTripleA(b *testing.B) {
	benchAblation(b, func(o *core.Options) {})
}

func BenchmarkAblationNoShadowCloning(b *testing.B) {
	benchAblation(b, func(o *core.Options) { o.ShadowCloning = false })
}

func BenchmarkAblationNoLinkManagement(b *testing.B) {
	benchAblation(b, func(o *core.Options) { o.LinkManagement = false })
}

func BenchmarkAblationNoStorageManagement(b *testing.B) {
	benchAblation(b, func(o *core.Options) { o.StorageManagement = false })
}

func BenchmarkAblationQueueExamination(b *testing.B) {
	benchAblation(b, func(o *core.Options) { o.Strategy = core.QueueExamination })
}

// BenchmarkAblationStripedLayout measures the static alternative to
// autonomic reshaping: page-striping the whole address space avoids hot
// clusters by construction (at the price of giving up locality
// control). Reported as the striped BASELINE's latency normalized to
// the clustered baseline.
func BenchmarkAblationStripedLayout(b *testing.B) {
	p, _ := workload.ProfileByName("fin")
	p.Requests = benchRequests
	clustered := array.DefaultConfig()
	striped := array.DefaultConfig()
	striped.Layout = ftl.LayoutStriped
	reqs, _, err := workload.Generate(clustered.Geometry, p, 42)
	if err != nil {
		b.Fatal(err)
	}
	var norm float64
	for i := 0; i < b.N; i++ {
		base, err := runArray(clustered, reqs, nil)
		if err != nil {
			b.Fatal(err)
		}
		alt, err := runArray(striped, reqs, nil)
		if err != nil {
			b.Fatal(err)
		}
		norm = float64(alt) / float64(base)
	}
	b.ReportMetric(norm, "normLat")
}

// BenchmarkHostPriorityScheduling compares endpoint FIFO vs
// host-priority read scheduling under Triple-A (whose migration reads
// compete with host reads).
func BenchmarkHostPriorityScheduling(b *testing.B) {
	for _, mode := range []struct {
		name string
		on   bool
	}{{"fifo", false}, {"host-priority", true}} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := array.DefaultConfig()
			cfg.HostPriority = mode.on
			p := workload.MicroRead(3, benchRequests/2, 170_000)
			reqs, _, err := workload.Generate(cfg.Geometry, p, 21)
			if err != nil {
				b.Fatal(err)
			}
			var avg simx.Time
			for i := 0; i < b.N; i++ {
				opts := core.DefaultOptions()
				// Naive migration mode: background reads actually
				// compete with host reads for FIMM slots.
				opts.ShadowCloning = false
				lat, err := runArray(cfg, reqs, &opts)
				if err != nil {
					b.Fatal(err)
				}
				avg = lat
			}
			b.ReportMetric(avg.Micros(), "avgus")
		})
	}
}

// --- Sweep-pool wall-clock benchmarks, run by hand with
// `go test . -run '^$' -bench BenchmarkSweep -benchtime 1x`.
// Deliberately named outside the Benchmark(Table|Fig) pattern so
// `make smoke` and its allocation gate skip them: a fresh suite per
// iteration defeats the memo cache on purpose, measuring the 16-point
// Fig12 sweep end to end. Serial vs parallel differ only in Parallel,
// so their ratio is the pool speedup (~1x on 1 CPU).

func benchSweepFig12(b *testing.B, parallel int) {
	var tbl *report.Table
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite()
		s.Requests = 4000
		s.Fig12Points = 16
		s.Parallel = parallel
		var err error
		tbl, err = s.Fig12()
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, tbl)
}

func BenchmarkSweepFig12x16Serial(b *testing.B) {
	benchSweepFig12(b, 1)
}

func BenchmarkSweepFig12x16Parallel(b *testing.B) {
	benchSweepFig12(b, runtime.GOMAXPROCS(0))
}

// --- Substrate microbenchmarks.

// nopReceiver is a pre-bound event handler, resource grantee and NAND
// completion receiver, as the simulator's pooled states are: the
// substrate benchmarks time the engine, resource and die, not a
// callback.
type nopReceiver struct{}

func (*nopReceiver) OnEvent(uint64)              {}
func (*nopReceiver) OnGrant(uint64, simx.Time)   {}
func (*nopReceiver) OnNandDone(simx.Time, error) {}

func BenchmarkEngineScheduleFire(b *testing.B) {
	eng := simx.NewEngine()
	h := &nopReceiver{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng.ScheduleEvent(1, h, 0)
		eng.Step()
	}
}

func BenchmarkResourceAcquireRelease(b *testing.B) {
	eng := simx.NewEngine()
	r := simx.NewResource(eng, "bench", 1)
	g := &nopReceiver{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.AcquireG(g, 0)
		r.Release()
	}
}

func BenchmarkPPNPackUnpack(b *testing.B) {
	b.ReportAllocs()
	var acc int
	for i := 0; i < b.N; i++ {
		p := topo.PackPPN(i&3, i&15, i&3, i&7, i&1, i&1023, i&255)
		acc += p.Block() + p.Page()
	}
	_ = acc
}

func BenchmarkFTLWriteAllocate(b *testing.B) {
	g := topo.Geometry{
		Switches: 4, ClustersPerSwitch: 16, FIMMsPerCluster: 4,
		PackagesPerFIMM: 8, Nand: nand.DefaultParams(),
	}
	f := ftl.New(g)
	span := g.TotalPages().Int64() / 4
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.AllocateWrite(int64(i) % span); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNandReadOp(b *testing.B) {
	eng := simx.NewEngine()
	pk := nand.NewPackage(eng, nand.DefaultParams())
	addrs := []nand.Addr{{}}
	d := &nopReceiver{}
	pk.ProgramOp(addrs, d)
	eng.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pk.ReadOp(addrs, d)
		eng.Run()
	}
}

func BenchmarkLinkTransfer(b *testing.B) {
	eng := simx.NewEngine()
	sink := recvFunc(func(p *pcie.Packet, from *pcie.Link) { from.ReturnCredit() })
	l := pcie.NewLink(eng, "bench", 16_000_000_000, 100, 8, sink)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Send(&pcie.Packet{Payload: 4096}, nil)
		eng.Run()
	}
}

type recvFunc func(*pcie.Packet, *pcie.Link)

func (f recvFunc) Receive(p *pcie.Packet, l *pcie.Link) { f(p, l) }

func BenchmarkArraySingleRead(b *testing.B) {
	cfg := array.DefaultConfig()
	a, err := array.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Submit(trace.Request{Op: trace.Read, LPN: int64(i % 100000), Pages: 1})
		a.Engine().Run()
	}
}
