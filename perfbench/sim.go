package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"time"

	"triplea/internal/array"
	"triplea/internal/core"
	"triplea/internal/fault"
	simmetrics "triplea/internal/metrics"
	"triplea/internal/pcie"
	"triplea/internal/simx"
	"triplea/internal/topo"
	"triplea/internal/trace"
	"triplea/internal/workload"
)

// runOpts changes how one simulation is observed, never what it
// simulates: the digest must come out the same with any of them set.
type runOpts struct {
	// requests overrides the profile's trace length (0 keeps it).
	requests int
	// wrap, when set, replaces the core manager's hooks with wrap(m),
	// installed through SetHooks after core.Attach.
	wrap func(array.Hooks) array.Hooks
	// trace, when set, makes a traced run: it receives one span per
	// call into a layer, array.Run is CPU-profiled, and every call into
	// the core is timed.
	trace *spanLog
}

// outcome is everything one simulation yields.
type outcome struct {
	submitted int
	failed    int   // fault-terminated requests; all of them when err != nil
	err       error // a run error, a recovered panic or a failed check

	// Simulated-time answers and deterministic per-layer counters.
	// Identical for every run of one seed on one commit.
	simKIOPS  float64
	latencies []simx.Time // every completed request's latency
	layer     map[string]float64
	digest    string

	host hostStats
}

// hostStats is what the simulation cost the host.
type hostStats struct {
	generateS, newS, attachS, prepareS, runS float64
	heapBytes                                uint64
	mallocs                                  uint64
	gcCycles                                 uint32
	gcCPUs, totalCPUs                        float64
	hookCalls                                uint64
	hookNS                                   int64
	// Traced runs only: the gzipped pprof CPU profile of array.Run and
	// its sampled nanoseconds charged to each layer.
	profile []byte
	cpuNS   map[string]int64
}

func (h hostStats) setupS() float64 { return h.generateS + h.newS + h.attachS + h.prepareS }

// simulate builds the workload's array from scratch, replays the
// seed's trace to completion and checks the result. A panic anywhere
// in the simulator is recovered into out.err; every request of a run
// that errs counts as failed.
func simulate(s spec, seed uint64, o runOpts) (out outcome) {
	defer func() {
		if r := recover(); r != nil {
			out.err = fmt.Errorf("%s seed %d: panic: %v", s.name, seed, r)
		}
		if out.err != nil {
			out.failed = out.submitted
		}
	}()
	// Start every run from an empty heap so that runs do not inherit
	// the previous array's garbage.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	baseHeap := ms.HeapAlloc
	root := o.trace.open("simulate")
	defer o.trace.close(root)

	cfg := s.config()
	p := s.profile()
	if o.requests > 0 {
		p.Requests = o.requests
	}
	out.submitted = p.Requests

	start := time.Now()
	reqs, _, err := workload.Generate(cfg.Geometry, p, seed)
	out.host.generateS = o.trace.record("workload.Generate", start)
	if err != nil {
		out.err = err
		return out
	}
	out.submitted = len(reqs)

	start = time.Now()
	a, err := array.New(cfg)
	out.host.newS = o.trace.record("array.New", start)
	if err != nil {
		out.err = err
		return out
	}

	var (
		mgr   *core.Manager
		inj   *fault.Injector
		hooks *timedHooks
	)
	if s.tripleA {
		start = time.Now()
		mgr = core.Attach(a, core.DefaultOptions())
		var h array.Hooks = mgr
		if o.wrap != nil {
			h = o.wrap(h)
		}
		if o.trace != nil {
			hooks = &timedHooks{inner: h}
			h = hooks
		}
		a.SetHooks(h)
		out.host.attachS += o.trace.record("core.Attach", start)
	}
	if s.faults {
		start = time.Now()
		plan := fault.ReferencePlan(cfg.Geometry, reqs[len(reqs)-1].Arrival)
		inj = fault.Attach(a, plan, fault.Options{Recover: true})
		out.host.attachS += o.trace.record("fault.Attach", start)
	}

	// Prepopulating the read footprint is set-up: Run finds every page
	// already mapped and skips it, and the simulated output is the same.
	start = time.Now()
	err = a.Prepare(reqs)
	out.host.prepareS = o.trace.record("array.Prepare", start)
	if err != nil {
		out.err = err
		return out
	}

	rec, err := out.timedRun(a, reqs, o)
	if err != nil {
		out.err = err
		return out
	}

	start = time.Now()
	err = a.CheckConsistency()
	o.trace.record("array.CheckConsistency", start)
	if err != nil {
		out.err = err
		return out
	}
	completed, failed := rec.Count(), rec.FailedCount()
	if completed+failed != out.submitted || a.InFlight() != 0 {
		out.err = fmt.Errorf("request conservation: %d completed + %d failed of %d submitted, %d in flight",
			completed, failed, out.submitted, a.InFlight())
		return out
	}
	out.failed = failed

	// The heap the simulation needs: the trace, the array and its
	// recorder, measured with the array still reachable, over what the
	// benchmark itself held before it started.
	runtime.GC()
	runtime.ReadMemStats(&ms)
	out.host.heapBytes = ms.HeapAlloc - baseHeap
	runtime.KeepAlive(reqs)

	if hooks != nil {
		out.host.hookCalls, out.host.hookNS = hooks.calls, hooks.ns
	}

	out.latencies = make([]simx.Time, 0, completed)
	for _, r := range rec.Records() {
		out.latencies = append(out.latencies, r.Latency())
	}
	out.simKIOPS = rec.SustainedIOPS(simmetrics.DefaultSustainedWindow) / 1000
	out.layer = layerCounters(a, rec, mgr, inj, out.submitted)
	out.digest = digest(rec, out)
	return out
}

// cpuSamples names the runtime/metrics values read around Run.
var cpuSamples = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

// timedRun runs the simulation and records its host cost: wall time,
// allocations, GC cycles and GC CPU, and, when asked, a CPU profile.
func (out *outcome) timedRun(a *array.Array, reqs []trace.Request, o runOpts) (rec *simmetrics.Recorder, err error) {
	if o.trace != nil {
		var buf bytes.Buffer
		if err := pprof.StartCPUProfile(&buf); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			out.host.profile = buf.Bytes()
			cpu, perr := layerCPU(out.host.profile)
			if perr != nil && err == nil {
				err = fmt.Errorf("cpu profile: %w", perr)
			}
			out.host.cpuNS = cpu
		}()
	}
	var ms0, ms1 runtime.MemStats
	cpu0 := make([]metrics.Sample, len(cpuSamples))
	cpu1 := make([]metrics.Sample, len(cpuSamples))
	for i, n := range cpuSamples {
		cpu0[i].Name, cpu1[i].Name = n, n
	}
	runtime.ReadMemStats(&ms0)
	metrics.Read(cpu0)

	start := time.Now()
	rec, err = a.Run(reqs)
	out.host.runS = o.trace.record("array.Run", start)

	metrics.Read(cpu1)
	runtime.ReadMemStats(&ms1)
	out.host.mallocs = ms1.Mallocs - ms0.Mallocs
	out.host.gcCycles = ms1.NumGC - ms0.NumGC
	out.host.gcCPUs = cpu1[0].Value.Float64() - cpu0[0].Value.Float64()
	out.host.totalCPUs = cpu1[1].Value.Float64() - cpu0[1].Value.Float64()
	return rec, err
}

// layerCounters reads the deterministic per-layer counters through
// each layer's public Stats and accessor methods. Per-request values
// divide by the submitted host requests.
func layerCounters(a *array.Array, rec *simmetrics.Recorder, mgr *core.Manager, inj *fault.Injector, requests int) map[string]float64 {
	n := float64(requests)
	perK := func(x uint64) float64 { return float64(x) * 1000 / n }
	frac := func(num, den uint64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	g := a.Config().Geometry
	eng := a.Engine()
	span := float64(eng.Now())

	var pkts uint64
	var bytesMoved, creditNS int64
	link := func(l *pcie.Link) {
		pkts += l.Packets()
		bytesMoved += int64(l.Bytes())
		creditNS += int64(l.CreditStallNS())
	}
	var (
		epWait, linkWait, linkXfer              int64
		queueFull, bufHits, cmds, epReads       uint64
		busMax                                  float64
		fimmOps                                 uint64
		chanBusy                                int64
		nandOps, nandBusy, cacheHits, nandReads int64
		multiPlane                              uint64
		maxWear                                 int
	)
	for sw := 0; sw < g.Switches; sw++ {
		down, up := a.SwitchLinks(sw)
		link(down)
		link(up)
		for cl := 0; cl < g.ClustersPerSwitch; cl++ {
			id := topo.ClusterID{Switch: sw, Cluster: cl}
			down, up := a.EPLinks(id)
			link(down)
			link(up)

			ep := a.Endpoint(id)
			st := ep.Stats()
			epWait += int64(st.EPWaitNS)
			linkWait += int64(st.LinkWaitNS)
			linkXfer += int64(st.LinkXferNS)
			queueFull += st.QueueFullHits
			bufHits += st.BufferHits
			epReads += st.Reads + st.BgReads
			cmds += st.Reads + st.BgReads + st.Writes + st.BgWrites + st.Erases
			if span > 0 {
				busMax = max(busMax, float64(ep.BusBusyNS())/span)
			}
			for f := 0; f < g.FIMMsPerCluster; f++ {
				fm := ep.FIMM(f)
				fs := fm.Stats()
				fimmOps += fs.Reads + fs.Programs + fs.Erases
				chanBusy += int64(fs.ChannelBusy)
				for k := 0; k < fm.NumPackages(); k++ {
					ps := fm.Package(k).Stats()
					nandOps += int64(ps.Reads + ps.Programs + ps.Erases)
					nandReads += int64(ps.Reads)
					nandBusy += int64(ps.BusyNS)
					cacheHits += int64(ps.CacheHits)
					multiPlane += ps.MultiPlane
					maxWear = max(maxWear, ps.MaxEraseWear)
				}
			}
		}
	}
	mb := rec.MeanBreakdown()
	fst := a.FTL().Stats()
	var cs core.Stats
	if mgr != nil {
		cs = mgr.Stats()
	}
	var is fault.Stats
	if inj != nil {
		is = inj.Stats()
	}
	afs := a.FaultStats()

	return map[string]float64{
		"simx.events_per_req":   float64(eng.Fired()) / n,
		"simx.event_pool_nodes": float64(eng.EventPoolFree()),

		"pcie.packets_per_req":         float64(pkts) / n,
		"pcie.bytes_per_req":           float64(bytesMoved) / n,
		"pcie.credit_stall_us_per_req": us(creditNS) / n,
		"pcie.rc_stall_us":             mb.RCStall.Micros(),
		"pcie.switch_stall_us":         mb.SwitchStall.Micros(),
		"pcie.fabric_xfer_us":          mb.FabricXfer.Micros(),

		"cluster.ep_wait_us":           us(epWait) / n,
		"cluster.link_wait_us":         us(linkWait) / n,
		"cluster.link_xfer_us":         us(linkXfer) / n,
		"cluster.bus_util_max":         busMax,
		"cluster.queue_full_frac":      frac(queueFull, cmds),
		"cluster.buffer_hit_frac":      frac(bufHits, epReads),
		"fimm.ops_per_req":             float64(fimmOps) / n,
		"fimm.channel_busy_us_per_req": us(chanBusy) / n,

		"nand.ops_per_req":     float64(nandOps) / n,
		"nand.busy_us_per_req": us(nandBusy) / n,
		"nand.storage_wait_us": mb.StorageWait.Micros(),
		"nand.texe_us":         mb.Texe.Micros(),
		"nand.cache_hit_frac":  frac(uint64(cacheHits), uint64(nandReads)),
		"nand.multiplane_frac": frac(multiPlane, uint64(nandOps)),
		"nand.max_erase_wear":  float64(maxWear),

		"ftl.write_amp":                 fst.WriteAmplification(),
		"ftl.gc_erases_per_kreq":        perK(fst.GCErases),
		"ftl.migration_writes_per_kreq": perK(fst.MigrationWrites),

		"core.migrations_per_kreq":      perK(cs.Migrations),
		"core.reshapes_per_kreq":        perK(cs.Reshapes),
		"core.write_redirects_per_kreq": perK(cs.WriteRedirects),
		"core.migration_errors":         float64(cs.MigrationErrors),
		"core.shadow_clone_frac":        frac(cs.ShadowClones, cs.Migrations),
		"core.cold_miss_frac":           frac(cs.ColdMisses, cs.HotDetections),

		"array.gc_rounds":    float64(a.GCRounds()),
		"array.gc_deferrals": float64(a.GCDeferrals()),
		"array.read_retries": float64(a.ReadRetries()),

		"fault.injected":          float64(is.Injected),
		"fault.requests_failed":   float64(afs.RequestsFailed),
		"fault.reads_remapped":    float64(afs.ReadsRemapped),
		"fault.writes_redirected": float64(afs.WritesRedirected),
		"fault.flushes_dropped":   float64(afs.FlushesDropped),
		"fault.evacuated":         float64(is.Evacuated),

		"metrics.footprint_bytes": float64(rec.FootprintBytes()),
	}
}

// digest fingerprints a run's simulated output: the recorder's full
// registry export, then every simulated-time answer and per-layer
// counter by name. A change that only makes the simulator faster must
// leave it unchanged.
func digest(rec *simmetrics.Recorder, out outcome) string {
	h := sha256.New()
	h.Write(rec.ExportJSON())
	vals := map[string]float64{
		"sim_lat_p50_us":  rec.Percentile(50).Micros(),
		"sim_lat_p999_us": rec.Percentile(99.9).Micros(),
		"sim_kiops":       out.simKIOPS,
		"submitted":       float64(out.submitted),
	}
	for k, v := range out.layer {
		vals[k] = v
	}
	names := make([]string, 0, len(vals))
	for k := range vals {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(h, "\n%s=%s", k, strconv.FormatFloat(vals[k], 'g', -1, 64))
	}
	return hex.EncodeToString(h.Sum(nil))
}
