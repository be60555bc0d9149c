package array

import (
	"fmt"

	"triplea/internal/cluster"
	"triplea/internal/decision"
	"triplea/internal/ftl"
	"triplea/internal/metrics"
	"triplea/internal/nand"
	"triplea/internal/pcie"
	"triplea/internal/simx"
	"triplea/internal/topo"
	"triplea/internal/trace"
	"triplea/internal/units"
)

// PageComplete describes one finished page command, delivered to the
// manager hook so it can run the paper's detection equations.
type PageComplete struct {
	LPN     int64
	Op      trace.Op
	Pages   units.Pages
	Cluster topo.ClusterID
	FIMM    int
	Result  cluster.OpResult // device-level timing (Equation 1's tLatency)
}

// Hooks is the attachment point for the autonomic manager. A nil hook
// set yields the non-autonomic baseline.
type Hooks interface {
	// OnPageComplete fires after every page command finishes at the
	// host. The manager runs hot-cluster and laggard detection here.
	OnPageComplete(pc PageComplete)
	// WriteTarget lets the manager redirect a host write (data-layout
	// reshaping for stalled writes); return resident to keep placement.
	WriteTarget(lpn int64, resident topo.FIMMID) topo.FIMMID
}

// Array is one simulated all-flash array instance.
type Array struct {
	eng *simx.Engine
	cfg Config
	ftl *ftl.FTL

	rc       *pcie.RootComplex
	switches []*pcie.Switch
	eps      [][]*cluster.Endpoint // [switch][cluster]

	// Fabric link registries (fault injection targets them directly).
	epDown [][]*pcie.Link // switch -> endpoint, [switch][cluster]
	epUp   [][]*pcie.Link // endpoint -> switch
	swDown []*pcie.Link   // rc -> switch
	swUp   []*pcie.Link   // switch -> rc

	// Degraded-mode state (fault.go). health always exists; the fault
	// branches below are gated on faultsArmed, which only the injector
	// sets.
	health        *topo.Health
	faultsArmed   bool
	recoverFaults bool
	faultCtrs     faultCounters // registry-backed (fault.go)

	rcSlots  *simx.Resource // RC queue entries (admission control)
	recorder *metrics.Recorder
	// decisions is the autonomic decision flight recorder; nil unless
	// Config.Decisions selects the ring backend (decision hooks are
	// nil-receiver-safe, so the off path is one nil check).
	decisions *decision.Recorder
	hooks     Hooks
	cache     *dramCache // relocated host DRAM (Section 6.6)

	nextReqID   uint64
	inFlight    int
	gcActive    map[int]bool  // per flat FIMM id
	gcRound     []*ftl.GCPlan // per flat FIMM id: the in-flight background plan (gcVeto)
	gcRounds    uint64
	gcDeferrals uint64
	migrations  uint64
	readRetries uint64

	// Write-buffer coherence: pages whose program is still in flight.
	// Reads of these are served from the endpoint buffer, their blocks
	// are vetoed as GC victims, and stale-marks are deferred.
	pendingFlush   map[topo.PPN]bool
	pendingByBlock map[topo.PPN]int
	staleOnFlush   map[topo.PPN]bool

	// Per-block program sequencing: NAND requires pages to program in
	// order inside a block, but writes to one block can be allocated by
	// different actors (host flush, GC, migration) whose transports
	// reorder them. The gate launches each block's programs in
	// allocation order.
	gates map[topo.PPN]*blockGate

	// Per-cluster shared-bus utilisation samplers for contention-cause
	// attribution (rolled every utilWindow).
	busUtilAt   []simx.Time
	busUtilSnap []simx.Time
	busUtilLast []float64

	// drained fires when in-flight work reaches zero (Run uses it).
	onIdle func()

	// Steady-state object pools (single-threaded free-lists). Packets
	// and commands are shared with the endpoints so completions recycle
	// what the host retires.
	pktPool pcie.Pool
	cmdPool cluster.CommandPool
	freeReq *request
	freeRef *pageRef
}

// New builds an array on a fresh engine.
func New(cfg Config) (*Array, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	eng := simx.NewEngine()
	recorder := metrics.NewRecorderWith(cfg.Metrics, metrics.DefaultSustainedWindow)
	var dec *decision.Recorder
	if cfg.Decisions == decision.Ring {
		dec = decision.NewRecorder(cfg.Geometry.TotalClusters())
	}
	a := &Array{
		eng:            eng,
		cfg:            cfg,
		decisions:      dec,
		ftl:            ftl.New(cfg.Geometry, ftl.WithLayout(cfg.Layout), ftl.WithGCThreshold(cfg.GCThreshold)),
		recorder:       recorder,
		faultCtrs:      newFaultCounters(recorder.Registry()),
		rcSlots:        simx.NewResource(eng, "rc-queue", cfg.RCQueueEntries),
		gcActive:       make(map[int]bool),
		gcRound:        make([]*ftl.GCPlan, cfg.Geometry.TotalFIMMs()),
		pendingFlush:   make(map[topo.PPN]bool),
		pendingByBlock: make(map[topo.PPN]int),
		staleOnFlush:   make(map[topo.PPN]bool),
		gates:          make(map[topo.PPN]*blockGate),
		busUtilAt:      make([]simx.Time, cfg.Geometry.TotalClusters()),
		busUtilSnap:    make([]simx.Time, cfg.Geometry.TotalClusters()),
		busUtilLast:    make([]float64, cfg.Geometry.TotalClusters()),
		cache:          newDRAMCache(units.BytesToPages(cfg.HostDRAMBytes, cfg.Geometry.Nand.PageSizeBytes)),
		health:         topo.NewHealth(cfg.Geometry),
	}
	a.ftl.SetDecisions(dec, eng.Now)
	a.build()
	return a, nil
}

// CacheStats reports host DRAM cache activity (Section 6.6).
func (a *Array) CacheStats() CacheStats { return a.cache.stats() }

// utilWindow is the sampling window for contention-cause attribution.
const utilWindow = 200 * simx.Microsecond

// clusterBusUtil samples a cluster's shared-bus utilisation over a
// rolling window.
func (a *Array) clusterBusUtil(id topo.ClusterID) float64 {
	flat := id.Flat(a.cfg.Geometry)
	now := a.eng.Now()
	if now-a.busUtilAt[flat] < utilWindow {
		return a.busUtilLast[flat]
	}
	ep := a.Endpoint(id)
	u := ep.BusUtilizationSince(a.busUtilAt[flat], a.busUtilSnap[flat])
	a.busUtilAt[flat] = now
	a.busUtilSnap[flat] = ep.BusBusyNS()
	a.busUtilLast[flat] = u
	return u
}

// build wires the fabric: RC -> switches -> endpoints, both directions.
func (a *Array) build() {
	cfg := a.cfg
	g := cfg.Geometry

	a.rc = pcie.NewRootComplex(a.eng, cfg.RCRouteLatency,
		func(pkt *pcie.Packet) int { return addrSwitch(pkt.Addr) },
		a.deliver)

	for s := 0; s < g.Switches; s++ {
		s := s
		sw := pcie.NewSwitch(a.eng, fmt.Sprintf("sw%d", s), cfg.SwitchRouteLatency,
			func(pkt *pcie.Packet) int {
				if pkt.Kind == pcie.Completion || addrSwitch(pkt.Addr) != s {
					return pcie.Upstream
				}
				return addrCluster(pkt.Addr)
			})
		a.switches = append(a.switches, sw)

		// RC <-> switch links.
		down := pcie.NewLink(a.eng, fmt.Sprintf("rc->sw%d", s),
			cfg.SwitchLinkBytesPerSec, cfg.LinkPropagation, cfg.SwitchLinkCredits, sw)
		a.rc.AddPort(down)
		a.swDown = append(a.swDown, down)
		up := pcie.NewLink(a.eng, fmt.Sprintf("sw%d->rc", s),
			cfg.SwitchLinkBytesPerSec, cfg.LinkPropagation, cfg.SwitchLinkCredits, a.rc)
		sw.SetUpstream(up)
		a.swUp = append(a.swUp, up)

		// Switch <-> endpoint links.
		var row []*cluster.Endpoint
		var downRow, upRow []*pcie.Link
		for c := 0; c < g.ClustersPerSwitch; c++ {
			id := topo.ClusterID{Switch: s, Cluster: c}
			ep := cluster.New(a.eng, id, cfg.clusterParamsFor(id))
			swDown := pcie.NewLink(a.eng, fmt.Sprintf("%v.down", id),
				cfg.EPLinkBytesPerSec, cfg.LinkPropagation, cfg.EPLinkCredits, ep)
			sw.AddDownstream(swDown)
			epUp := pcie.NewLink(a.eng, fmt.Sprintf("%v.up", id),
				cfg.EPLinkBytesPerSec, cfg.LinkPropagation, cfg.EPLinkCredits, sw)
			ep.SetUpstream(epUp)
			ep.SetPacketPool(&a.pktPool)
			row = append(row, ep)
			downRow, upRow = append(downRow, swDown), append(upRow, epUp)
		}
		a.eps = append(a.eps, row)
		a.epDown, a.epUp = append(a.epDown, downRow), append(a.epUp, upRow)
	}
}

// Engine exposes the simulation engine (experiments advance it).
func (a *Array) Engine() *simx.Engine { return a.eng }

// Config returns the build configuration.
func (a *Array) Config() Config { return a.cfg }

// FTL exposes the global translation layer.
func (a *Array) FTL() *ftl.FTL { return a.ftl }

// Recorder exposes the metrics recorder.
func (a *Array) Recorder() *metrics.Recorder { return a.recorder }

// Decisions exposes the decision flight recorder; nil when recording
// is off (Config.Decisions == decision.Off). The manager and the fault
// injector pick it up on attach.
func (a *Array) Decisions() *decision.Recorder { return a.decisions }

// Endpoint returns one cluster endpoint.
func (a *Array) Endpoint(id topo.ClusterID) *cluster.Endpoint {
	return a.eps[id.Switch][id.Cluster]
}

// Switch returns one switch (for fabric statistics).
func (a *Array) Switch(i int) *pcie.Switch { return a.switches[i] }

// RootComplex returns the RC (for fabric statistics).
func (a *Array) RootComplex() *pcie.RootComplex { return a.rc }

// SetHooks attaches the autonomic manager. Must be called before Run.
func (a *Array) SetHooks(h Hooks) { a.hooks = h }

// InFlight reports outstanding host requests.
func (a *Array) InFlight() int { return a.inFlight }

// GCRounds reports completed garbage-collection rounds.
func (a *Array) GCRounds() uint64 { return a.gcRounds }

// GCDeferrals reports how often opportunistic scheduling postponed a
// collection round to an idle window.
func (a *Array) GCDeferrals() uint64 { return a.gcDeferrals }

// Migrations reports completed page migrations (autonomic data
// migration + data-layout reshaping moves).
func (a *Array) Migrations() uint64 { return a.migrations }

// pkgAt resolves a PPN to its NAND package.
func (a *Array) pkgAt(ppn topo.PPN) *nand.Package {
	return a.eps[ppn.Switch()][ppn.Cluster()].FIMM(ppn.FIMMSlot()).Package(ppn.Pkg())
}

// Prepare installs the pre-existing data footprint for a trace: every
// page that is read is prepopulated in the FTL and force-populated on
// its device, so reads find real flash pages (costing no simulated
// time — the data predates the experiment).
func (a *Array) Prepare(reqs []trace.Request) error {
	for _, r := range reqs {
		if r.Op != trace.Read {
			continue
		}
		for p := int64(0); p < r.Pages.Int64(); p++ {
			if err := a.ensureMapped(r.LPN + p); err != nil {
				return err
			}
		}
	}
	return nil
}

// ensureMapped prepopulates one LPN if needed. When the FTL fell back
// to dynamic allocation (the dense home block was consumed), the
// device populate must respect the block's program order — it goes
// through the same per-block gate in-flight writes use, completing
// instantly when its turn comes.
func (a *Array) ensureMapped(lpn int64) error { //simlint:cold first-touch prepopulation goes through the setup path
	ppn, need, err := a.ftl.Prepopulate(lpn)
	if err != nil {
		return err
	}
	if !need {
		return nil
	}
	bk := ppn.BlockKey()
	a.pendingFlush[ppn] = true
	a.pendingByBlock[bk]++
	a.launchProgram(ppn, funcLauncher(func() {
		if err := a.pkgAt(ppn).ForcePopulate(ppn.NandAddr(a.cfg.Geometry)); err != nil {
			panic(fmt.Sprintf("array: prepopulate: %v", err))
		}
		delete(a.pendingFlush, ppn)
		if a.pendingByBlock[bk]--; a.pendingByBlock[bk] == 0 {
			delete(a.pendingByBlock, bk)
		}
		if a.staleOnFlush[ppn] {
			delete(a.staleOnFlush, ppn)
			a.staleDeviceNow(ppn)
		}
		a.releaseGate(bk)
	}))
	return nil
}

// Run replays a trace to completion and returns the recorder. The
// trace must be sorted by arrival time.
func (a *Array) Run(reqs []trace.Request) (*metrics.Recorder, error) {
	// Snapshot the simcheck leak ledger so the end-of-run drain check
	// below compares against whatever other engines in this process
	// already hold. Without -tags simcheck both calls are no-ops.
	drainSnap := simx.SnapshotLedger()
	if err := a.Prepare(reqs); err != nil {
		return nil, err
	}
	// Schedule arrivals lazily: each arrival schedules the next, so the
	// event heap stays small for million-request traces. The feeder is a
	// single reusable Handler — one pooled event per arrival, zero
	// closures.
	f := &arrivalFeeder{arr: a, reqs: reqs}
	f.scheduleNext(0)
	a.eng.Run()
	if a.inFlight != 0 {
		return nil, fmt.Errorf("array: %d requests still in flight after drain", a.inFlight)
	}
	// Every pooled object minted during the run (events, waiters,
	// packets, commands, request/pageRef nodes, device op states) must
	// be back on its free-list now; a leak fails the run with the
	// pool's name and outstanding count.
	if err := simx.AssertDrained(drainSnap); err != nil {
		return nil, err
	}
	return a.recorder, nil
}

// arrivalFeeder injects trace requests one at a time: each arrival
// event submits request arg and schedules the next. A single feeder
// instance serves the whole run.
type arrivalFeeder struct {
	arr  *Array
	reqs []trace.Request
}

// scheduleNext books the arrival event for request i (clamped to now
// for out-of-order or past timestamps).
func (f *arrivalFeeder) scheduleNext(i int) {
	if i >= len(f.reqs) {
		return
	}
	at := f.reqs[i].Arrival
	if at < f.arr.eng.Now() {
		at = f.arr.eng.Now()
	}
	f.arr.eng.AtEvent(at, f, uint64(i))
}

// OnEvent implements simx.Handler: request arg arrives.
func (f *arrivalFeeder) OnEvent(arg uint64) {
	f.arr.Submit(f.reqs[arg])
	f.scheduleNext(int(arg) + 1)
}

// request tracks one host request across its page commands. Requests
// are pooled; the node recycles when its last page completes. The
// simx.Handler implementation serves the host-DRAM-hit path: each hit
// page schedules one event that retires it after the hit latency.
type request struct {
	arr      *Array
	id       uint64
	op       trace.Op
	lpn      int64
	pages    units.Pages
	submit   simx.Time
	remain   units.Pages
	agg      metrics.Breakdown
	maxAdmit simx.Time // latest page admission (RC stall reference)
	failed   bool      // a page command was terminated by a fault
	next     *request  // free-list link
	ck       simx.PoolCheck
}

// OnEvent implements simx.Handler: a host-DRAM cache hit completes.
func (req *request) OnEvent(arg uint64) {
	req.arr.finishPage(req, metrics.Breakdown{})
}

// pageRef links a page command back to its request and downstream
// packet. Refs are pooled per-page continuations: they queue for an RC
// slot (simx.Grantee), launch through the per-block program gate
// (launcher), and observe their packet's RC acceptance (pcie.Accepted).
type pageRef struct {
	arr          *Array
	req          *request
	lpn          int64
	down         *pcie.Packet
	rcInjectWait simx.Time
	admitWait    simx.Time
	retries      int
	next         *pageRef // free-list link
	ck           simx.PoolCheck
}

// OnGrant implements simx.Grantee: an RC queue entry is ours; waiting
// for it is the RC stall of Figure 15.
func (ref *pageRef) OnGrant(arg uint64, waited simx.Time) {
	ref.admitWait = waited
	ref.arr.admitPage(ref)
}

// launch implements launcher: inject the page's packet at the RC.
func (ref *pageRef) launch() {
	ref.arr.rc.Inject(ref.down, ref)
}

// OnLinkAccepted implements pcie.Accepted: the packet left the RC's
// internal queue; snapshot the RC-side queueing it accumulated.
func (ref *pageRef) OnLinkAccepted(pkt *pcie.Packet) {
	ref.rcInjectWait = pkt.QueueWait
}

func (a *Array) newReq() *request {
	r := a.freeReq
	if r != nil {
		a.freeReq = r.next
		r.ck.Checkout("array.request")
		*r = request{arr: a}
	} else {
		r = &request{arr: a} //simlint:coldalloc pool miss: request free-list refill
		r.ck.Fresh("array.request")
	}
	return r
}

func (a *Array) recycleReq(r *request) {
	r.ck.Release("array.request")
	r.next = a.freeReq
	a.freeReq = r
}

func (a *Array) newRef(req *request, lpn int64) *pageRef {
	ref := a.freeRef
	if ref != nil {
		a.freeRef = ref.next
		ref.ck.Checkout("array.pageRef")
		*ref = pageRef{arr: a}
	} else {
		ref = &pageRef{arr: a} //simlint:coldalloc pool miss: pageRef free-list refill
		ref.ck.Fresh("array.pageRef")
	}
	ref.req, ref.lpn = req, lpn
	return ref
}

func (a *Array) recycleRef(ref *pageRef) {
	ref.req, ref.down = nil, nil
	ref.ck.Release("array.pageRef")
	ref.next = a.freeRef
	a.freeRef = ref
}

// maxReadRetries bounds GC-race re-resolution; more than a couple in a
// row indicates a bookkeeping bug, not bad luck.
const maxReadRetries = 4

// retryRead re-resolves a raced read against the current mapping and
// re-injects it, keeping its RC queue slot.
func (a *Array) retryRead(ref *pageRef) {
	ppn, ok := a.ftl.Lookup(ref.lpn)
	if !ok {
		// Under a fault plan a mapping can legitimately vanish mid-read
		// (its page was destroyed); restore it from the shadow clone and
		// retry against the new location.
		if !a.faultsArmed || !a.restoreLostRead(ref) {
			panic(fmt.Sprintf("array: raced read of LPN %d lost its mapping", ref.lpn))
		}
		ppn, _ = a.ftl.Lookup(ref.lpn)
	}
	a.readRetries++
	cmd := a.cmdPool.Get()
	cmd.Op = cluster.OpRead
	cmd.FIMM, cmd.Pkg = ppn.FIMMSlot(), ppn.Pkg()
	cmd.SetPageAddr(ppn.NandAddr(a.cfg.Geometry))
	cmd.BufferHit = a.pendingFlush[ppn]
	cmd.Meta = ref
	pkt := a.pktPool.Get()
	pkt.ID, pkt.Kind, pkt.Addr = ref.req.id, pcie.MemRead, routeAddr(ppn.ClusterID())
	pkt.Meta = cmd
	ref.down = pkt
	a.rc.Inject(pkt, nil)
}

// Submit enters one host request at the current simulated time.
func (a *Array) Submit(r trace.Request) {
	if err := r.Validate(); err != nil {
		panic(err)
	}
	a.nextReqID++
	// Ownership passes to the per-page continuations minted below; the
	// page loop runs at least once (Validate rejects Pages < 1), so the
	// zero-iteration leak path poolsafe sees cannot execute.
	req := a.newReq() //simlint:handoff every request has >= 1 page; each page's ref/event owns req

	req.id = a.nextReqID
	req.op, req.lpn, req.pages = r.Op, r.LPN, r.Pages
	req.submit = a.eng.Now()
	req.remain = r.Pages
	a.inFlight++
	for p := int64(0); p < r.Pages.Int64(); p++ {
		lpn := r.LPN + p
		if r.Op == trace.Read && a.cache.lookup(lpn) {
			// Relocated host DRAM hit (Section 6.6): served at the
			// management module, never entering the flash array network.
			a.eng.ScheduleEvent(hostDRAMHitLatency, req, 0)
			continue
		}
		if r.Op == trace.Write {
			a.cache.install(lpn)
		}
		// One RC queue entry per page command; waiting for an entry is
		// the RC stall of Figure 15.
		a.rcSlots.AcquireG(a.newRef(req, lpn), 0)
	}
}

// admitPage resolves the page's physical location and injects its
// packet at the root complex. The ref's admitWait is already set.
func (a *Array) admitPage(ref *pageRef) {
	req, lpn := ref.req, ref.lpn
	var ppn topo.PPN
	var kind pcie.Kind
	var payload units.Bytes
	var op cluster.Op
	bufferHit := false

	switch req.op {
	case trace.Read:
		if err := a.ensureMapped(lpn); err != nil {
			panic(fmt.Sprintf("array: read mapping: %v", err))
		}
		ppn, _ = a.ftl.Lookup(lpn)
		kind, op = pcie.MemRead, cluster.OpRead
		bufferHit = a.pendingFlush[ppn]
	case trace.Write:
		target := a.ftl.ResidentFIMM(lpn)
		if a.hooks != nil {
			target = a.hooks.WriteTarget(lpn, target)
		}
		if a.faultsArmed {
			target = a.redirectWrite(lpn, target)
		}
		wa, err := a.ftl.AllocateWriteAt(lpn, target)
		if err != nil {
			// Target FIMM out of space: force a synchronous GC plan on
			// it, then retry once; persistent failure is a sizing bug.
			a.runGCNow(target)
			wa, err = a.ftl.AllocateWriteAt(lpn, target)
			if err != nil {
				panic(fmt.Sprintf("array: write allocation: %v", err))
			}
		}
		if wa.HasOld {
			a.markStaleDevice(wa.Old)
		}
		ppn = wa.New
		kind, op = pcie.MemWrite, cluster.OpWrite
		payload = a.cfg.Geometry.Nand.PageSizeBytes
	}

	cmd := a.cmdPool.Get()
	cmd.Op = op
	cmd.FIMM, cmd.Pkg = ppn.FIMMSlot(), ppn.Pkg()
	cmd.SetPageAddr(ppn.NandAddr(a.cfg.Geometry))
	cmd.BufferHit = bufferHit
	cmd.Meta = ref
	if op == cluster.OpWrite {
		a.trackFlush(ppn, cmd)
	}
	pkt := a.pktPool.Get()
	pkt.ID, pkt.Kind, pkt.Addr, pkt.Payload = req.id, kind, routeAddr(ppn.ClusterID()), payload
	pkt.Meta = cmd
	ref.down = pkt
	if op == cluster.OpWrite {
		a.launchProgram(ppn, ref)
	} else {
		ref.launch()
	}

	// Kick background GC if this write pressured its FIMM.
	if req.op == trace.Write && a.ftl.GCPressure(ppn.FIMMID()) {
		a.startGC(ppn.FIMMID())
	}
}

// launcher starts a gated page program (hands the command to its
// transport). The hot host-write path implements it on the pooled
// pageRef; cold paths adapt closures with funcLauncher.
type launcher interface {
	launch()
}

// funcLauncher adapts a closure to launcher for cold paths (setup,
// GC, migration). The conversion allocates.
type funcLauncher func()

func (f funcLauncher) launch() { f() } //simlint:cold closure adapter for setup/GC/migration launches

// blockGate serialises program launches into one erase block.
type blockGate struct {
	busy    bool
	waiting []launcher
}

// launchProgram starts a page program respecting per-block allocation
// order: the next program for a block leaves the host only after the
// previous one flushed.
func (a *Array) launchProgram(ppn topo.PPN, l launcher) {
	bk := ppn.BlockKey()
	g := a.gates[bk]
	if g == nil {
		g = &blockGate{} //simlint:coldalloc first touch: lazy per-block gate
		a.gates[bk] = g
	}
	if g.busy {
		g.waiting = append(g.waiting, l) //simlint:coldalloc amortized: gate queue growth bounded by in-flight programs
		return
	}
	g.busy = true
	l.launch()
}

// releaseGate lets the block's next queued program launch.
func (a *Array) releaseGate(bk topo.PPN) {
	g := a.gates[bk]
	if g == nil {
		return
	}
	if len(g.waiting) > 0 {
		next := g.waiting[0]
		g.waiting[0] = nil
		g.waiting = g.waiting[:copy(g.waiting, g.waiting[1:])]
		next.launch()
		return
	}
	delete(a.gates, bk)
}

// trackFlush registers an in-flight page program and arranges its
// retirement when the endpoint flush completes (OnCommandFlushed).
func (a *Array) trackFlush(ppn topo.PPN, cmd *cluster.Command) {
	a.pendingFlush[ppn] = true
	a.pendingByBlock[ppn.BlockKey()]++
	cmd.FlushPPN = ppn
	cmd.Flushed = a
}

// OnCommandFlushed implements cluster.FlushedH: a tracked page program
// reached flash (the write-buffer eviction point). This is also the
// write command's release point — for host writes the command recycles
// once both retirement events (ack delivery, flush) have happened; for
// background writes OnComplete has already run, so it recycles here.
func (a *Array) OnCommandFlushed(c *cluster.Command) {
	ppn := c.FlushPPN
	failed := c.Result.Err != nil
	if failed && !(a.faultsArmed && isFaultError(c.Result.Err)) {
		panic(fmt.Sprintf("array: flush of %v failed: %v", ppn, c.Result.Err))
	}
	delete(a.pendingFlush, ppn)
	bk := ppn.BlockKey()
	if a.pendingByBlock[bk]--; a.pendingByBlock[bk] == 0 {
		delete(a.pendingByBlock, bk)
	}
	if a.staleOnFlush[ppn] {
		delete(a.staleOnFlush, ppn)
		// A failed flush never programmed the page, so there is no
		// device page to stale-mark; the deferred mark just evaporates.
		if !failed {
			a.staleDeviceNow(ppn)
		}
	}
	if failed {
		a.failFlushedWrite(ppn)
	}
	if c.Background || c.RetireMark {
		a.cmdPool.Put(c)
	} else {
		c.RetireMark = true
	}
	a.releaseGate(bk)
}

// markStaleDevice mirrors an FTL stale-mark onto the device page,
// deferring it when the page's program is still buffered.
func (a *Array) markStaleDevice(ppn topo.PPN) {
	if a.pendingFlush[ppn] {
		a.staleOnFlush[ppn] = true
		return
	}
	a.staleDeviceNow(ppn)
}

func (a *Array) staleDeviceNow(ppn topo.PPN) {
	if err := a.pkgAt(ppn).MarkStale(ppn.NandAddr(a.cfg.Geometry)); err != nil {
		panic(fmt.Sprintf("array: device stale-mark: %v", err))
	}
}

// deliver receives completion packets at the root complex and finalises
// their page commands.
func (a *Array) deliver(pkt *pcie.Packet) {
	if pkt.Kind != pcie.Completion {
		// Cross-switch background transfer: send back downstream.
		a.rc.Inject(pkt, nil)
		return
	}
	cmd, ok := pkt.Meta.(*cluster.Command)
	if !ok {
		panic("array: completion without command")
	}
	ref, ok := cmd.Meta.(*pageRef)
	if !ok {
		panic("array: command without page reference")
	}
	req := ref.req
	res := cmd.Result
	if cmd.Op == cluster.OpWrite {
		res = cmd.AckResult
	}
	if res.Err != nil {
		// A read can lose the race against garbage collection: its
		// physical address was erased while the command was in flight.
		// Re-resolve against the current mapping and retry. The stale
		// packets and command recycle first so the retry reuses them.
		// Under a fault plan the same retry path re-resolves reads whose
		// hardware died mid-flight (recovery remaps them elsewhere).
		if cmd.Op == cluster.OpRead && ref.retries < maxReadRetries {
			ref.retries++
			a.pktPool.Put(ref.down)
			a.pktPool.Put(pkt)
			a.cmdPool.Put(cmd)
			a.retryRead(ref)
			return
		}
		if a.faultsArmed && isFaultError(res.Err) {
			a.failPage(ref, pkt, cmd)
			return
		}
		panic(fmt.Sprintf("array: device error on req %d: %v", req.id, res.Err))
	}
	a.rcSlots.Release()

	down, up := ref.down, pkt
	var b metrics.Breakdown
	b.RCStall = ref.admitWait + ref.rcInjectWait
	b.SwitchStall = (down.QueueWait - ref.rcInjectWait) + down.CreditWait + down.WireWait +
		up.QueueWait + up.CreditWait + up.WireWait
	b.EPWait = res.EPWait
	b.StorageWait = res.StorageWait
	b.LinkWait = res.LinkWait
	b.Texe = res.Texe
	b.LinkXfer = res.LinkXfer
	b.FabricXfer = down.WireTime + down.RouteTime + up.WireTime + up.RouteTime

	// Attribute the upstream backlog to its root cause: a saturated
	// shared bus at the target cluster is link contention (the paper's
	// classification); otherwise split by the device-side waits.
	clusterID := topo.ClusterID{Switch: addrSwitch(up.Addr), Cluster: addrCluster(up.Addr)}
	device := b.LinkWait + b.EPWait + b.StorageWait
	share := 0.0
	if device > 0 {
		share = float64(b.LinkWait) / float64(device)
	}
	if sat := (a.clusterBusUtil(clusterID) - 0.6) / 0.3; sat > share {
		share = sat
	}
	b.AttributeShare(share)

	if req.op == trace.Read {
		a.cache.install(ref.lpn)
	}
	if a.hooks != nil {
		a.hooks.OnPageComplete(PageComplete{
			LPN:     ref.lpn,
			Op:      req.op,
			Pages:   units.Page,
			Cluster: clusterID,
			FIMM:    cmd.FIMM,
			Result:  res,
		})
	}
	// Release points: both fabric packets are fully read (the breakdown
	// above holds copies), as is the page ref. Read commands are done;
	// a write command recycles here only if its flush already retired
	// (RetireMark coordination with OnCommandFlushed).
	a.pktPool.Put(down)
	a.pktPool.Put(up)
	if cmd.Op == cluster.OpRead || cmd.RetireMark {
		a.cmdPool.Put(cmd)
	} else {
		cmd.RetireMark = true
	}
	a.recycleRef(ref)
	a.finishPage(req, b)
}

// finishPage retires one page of a request, recording the request when
// its last page completes.
func (a *Array) finishPage(req *request, b metrics.Breakdown) {
	req.agg.Add(b)
	req.remain--
	if req.remain > 0 {
		return
	}
	kind := metrics.Read
	if req.op == trace.Write {
		kind = metrics.Write
	}
	if req.failed {
		a.faultCtrs.requestsFailed.Inc()
		a.recorder.RecordFailure(metrics.Failure{
			ID:     req.id,
			Kind:   kind,
			Pages:  req.pages,
			Submit: req.submit,
			At:     a.eng.Now(),
		})
	} else {
		a.recorder.Record(metrics.Record{
			ID:        req.id,
			Kind:      kind,
			Pages:     req.pages,
			Submit:    req.submit,
			Complete:  a.eng.Now(),
			Breakdown: req.agg,
		})
	}
	a.inFlight--
	a.recycleReq(req)
	if a.inFlight == 0 && a.onIdle != nil {
		a.onIdle() //simlint:coldalloc run-drain callback: fires once when the array idles
	}
}

// ReadRetries reports reads re-resolved after losing a race with
// garbage collection.
func (a *Array) ReadRetries() uint64 { return a.readRetries }

// CheckConsistency audits the array after (or during) a run: every
// mapped logical page must resolve to a physical page the device agrees
// is live (programmed, or still buffered in an endpoint), and the FTL's
// reverse lookup must agree with the forward map. It returns the first
// violation found — a debugging net for layout-reshaping code and a
// post-run assertion for tests.
func (a *Array) CheckConsistency() error {
	g := a.cfg.Geometry
	var err error
	a.ftl.ForEachMapping(func(lpn int64, ppn topo.PPN) bool {
		if back, ok := a.ftl.LPNOf(ppn); !ok || back != lpn {
			err = fmt.Errorf("array: reverse map of %v = (%d,%v), want LPN %d", ppn, back, ok, lpn)
			return false
		}
		if a.pendingFlush[ppn] {
			return true // program still buffered; device state lags by design
		}
		if st := a.pkgAt(ppn).PageStateAt(ppn.NandAddr(g)); st != nand.PageValid {
			err = fmt.Errorf("array: LPN %d maps to %v in device state %v, want valid", lpn, ppn, st)
			return false
		}
		return true
	})
	return err
}
