// Package cluster models one hot-swappable cluster of the flash array:
// a PCI Express endpoint (device layers, downstream command queue,
// upstream data staging, write buffer) whose HAL control logic drives a
// set of FIMMs over a shared local bus (the paper's Figure 4).
//
// The two resource contentions Triple-A manages are both observable
// here:
//
//   - link contention: transfers between the FIMMs and the endpoint
//     serialise on the cluster's shared local bus; time spent waiting
//     for that bus (or the FIMM's own channel) is LinkWait.
//   - storage contention: commands wait in the endpoint queue for a
//     busy FIMM (per-FIMM outstanding limit) and then for a busy die;
//     that time is EPWait + StorageWait.
package cluster

import (
	"fmt"

	"triplea/internal/fimm"
	"triplea/internal/nand"
	"triplea/internal/pcie"
	"triplea/internal/simx"
	"triplea/internal/topo"
	"triplea/internal/units"
)

// Params describes one cluster.
type Params struct {
	NumFIMMs int
	FIMM     fimm.Params

	// Shared local bus between the FIMM slots and the endpoint logic.
	BusPins units.Lanes
	BusMHz  int
	BusDDR  bool

	QueueEntries    int       // downstream command queue capacity
	FIMMQueueDepth  int       // outstanding commands per FIMM
	WriteBufEntries int       // endpoint write-staging entries
	StagingEntries  int       // upstream read-staging entries
	HALLatency      simx.Time // command construction overhead

	// SlotLatencyScale optionally degrades individual FIMM slots: cell
	// timings (tR/tPROG/tBERS) are multiplied by the slot's factor.
	// Worn or marginal modules run slower — the intrinsic laggards of
	// Section 4.2. Nil or a 1.0 entry means a healthy module; the
	// slice may be shorter than NumFIMMs.
	SlotLatencyScale []float64

	// HostPriority queues host reads ahead of background (GC and
	// migration) reads waiting for the same FIMM, so repair traffic
	// yields to foreground I/O — one of the paper's Section 8 "queueing
	// mechanisms". Relative order within each class is preserved.
	HostPriority bool
}

// DefaultParams returns the paper's cluster: four 64 GiB FIMMs behind
// one endpoint, a 16-pin 400 MHz DDR shared bus, and endpoint buffers
// sized like a contemporary PLX part.
func DefaultParams() Params {
	return Params{
		NumFIMMs:        4,
		FIMM:            fimm.DefaultParams(),
		BusPins:         16 * units.Lane,
		BusMHz:          400,
		BusDDR:          true,
		QueueEntries:    64,
		FIMMQueueDepth:  8,
		WriteBufEntries: 64,
		StagingEntries:  32,
		HALLatency:      200 * simx.Nanosecond,
	}
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	switch {
	case p.NumFIMMs <= 0:
		return fmt.Errorf("cluster: NumFIMMs %d must be positive", p.NumFIMMs)
	case p.BusPins != 8*units.Lane && p.BusPins != 16*units.Lane:
		return fmt.Errorf("cluster: BusPins %d must be 8 or 16", p.BusPins)
	case p.BusMHz <= 0:
		return fmt.Errorf("cluster: BusMHz %d must be positive", p.BusMHz)
	case p.QueueEntries <= 0:
		return fmt.Errorf("cluster: QueueEntries %d must be positive", p.QueueEntries)
	case p.FIMMQueueDepth <= 0:
		return fmt.Errorf("cluster: FIMMQueueDepth %d must be positive", p.FIMMQueueDepth)
	case p.WriteBufEntries <= 0:
		return fmt.Errorf("cluster: WriteBufEntries %d must be positive", p.WriteBufEntries)
	case p.StagingEntries <= 0:
		return fmt.Errorf("cluster: StagingEntries %d must be positive", p.StagingEntries)
	}
	return p.FIMM.Validate()
}

// BusBytesPerSec reports the shared local bus bandwidth.
func (p Params) BusBytesPerSec() units.BytesPerSec {
	return units.BusBandwidth(p.BusPins, p.BusMHz, p.BusDDR)
}

// BusPageTime reports the shared-bus time for one page — the tDMA of
// Equations 1 and 3.
func (p Params) BusPageTime() simx.Time {
	return units.TransferTime(p.FIMM.Nand.PageSizeBytes, p.BusBytesPerSec())
}

// Op identifies a cluster command type.
type Op uint8

const (
	OpRead  Op = iota // read pages, return data upstream
	OpWrite           // write pages (buffered, early ack)
)

func (o Op) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	}
	return "unknown"
}

// OpResult decomposes one command's time inside the cluster.
type OpResult struct {
	EPWait      simx.Time // endpoint queue / write-buffer admission wait
	StorageWait simx.Time // die queueing inside the FIMM
	Texe        simx.Time // cell time
	LinkWait    simx.Time // waiting for FIMM channel or shared bus
	LinkXfer    simx.Time // data movement on FIMM channel + shared bus
	Err         error
}

// DeviceLatency reports the device-level latency the autonomic module
// monitors (Equation 1's tLatency): everything from command arrival at
// the endpoint until the data sits in the endpoint.
func (r OpResult) DeviceLatency() simx.Time {
	return r.EPWait + r.StorageWait + r.Texe + r.LinkWait + r.LinkXfer
}

// Command is one device command carried to the endpoint inside a PCI-E
// packet's Meta (host I/O) or issued directly (background work).
type Command struct {
	Op         Op
	FIMM       int // slot within this cluster
	Pkg        int
	Addrs      []nand.Addr
	Background bool // migration / GC traffic: no host completion packet
	// BufferHit marks a read whose data still sits in the endpoint
	// write buffer (a read racing its own write's flush): it is served
	// from endpoint DRAM without touching the FIMM.
	BufferHit bool

	Result OpResult
	// AckResult snapshots Result at write-ack time: host write latency
	// ends at buffering, while Result keeps accumulating flush costs.
	AckResult OpResult
	Meta      any // the array's request object, echoed in completions

	// OnComplete fires when the endpoint finishes the command (data
	// staged for reads, buffer accepted for writes, program completed
	// for background writes). Completion packets to the host are
	// separate and flow through the fabric. Cold paths only: the hot
	// host path communicates through completion packets and Flushed.
	OnComplete func(*Command)
	// Flushed fires for host writes when the background flush has
	// programmed the page (or failed); the array uses it to retire
	// write-buffer bookkeeping. FlushPPN is opaque cargo echoed back so
	// the receiver needs no per-command closure state.
	Flushed  FlushedH
	FlushPPN topo.PPN
	// RetireMark coordinates the two retirement events of a pooled host
	// write command — completion-ack delivery at the host and flush
	// completion at the endpoint — which are not strictly ordered.
	// Whichever event observes the mark set releases the command;
	// the first one to run only sets it.
	RetireMark bool

	arrived simx.Time
	from    *pcie.Link // ingress link to credit back, if packet-borne
	ep      *Endpoint  // owning endpoint while in flight

	// Per-operation scratch for the typed event path.
	stageWait simx.Time // staging wait (read upstream path)
	busWait   simx.Time // shared-bus wait
	xferT     simx.Time // shared-bus transfer time

	addrBuf [1]nand.Addr // inline storage for the single-page Addrs case
	next    *Command     // free-list link while parked in a CommandPool
	ck      simx.PoolCheck
}

// FlushedH receives write-flush retirements (the typed counterpart of a
// per-command closure).
type FlushedH interface {
	OnCommandFlushed(c *Command)
}

// Pages reports the page count of the command.
func (c *Command) Pages() units.Pages { return units.Pages(len(c.Addrs)) }

// SetPageAddr points Addrs at the command's inline single-page buffer —
// the overwhelmingly common case — without allocating a slice.
func (c *Command) SetPageAddr(a nand.Addr) {
	c.addrBuf[0] = a
	c.Addrs = c.addrBuf[:1]
}

// Grant-phase discriminators (simx.Grantee arg).
const (
	gHAL       uint64 = iota // HAL logic granted (read and buffer-hit paths)
	gStageHit                // staging granted for a buffer-hit read
	gStageRead               // staging granted on the read upstream path
	gBusRead                 // shared bus granted on the read upstream path
	gWBuf                    // write-buffer entry granted
	gBusFlush                // shared bus granted for a write flush
)

// Event-phase discriminators (simx.Handler arg).
const (
	hHALDone   uint64 = iota // HAL construction latency elapsed
	hReadXfer                // read data crossed the shared bus
	hFlushXfer               // write data crossed the shared bus
)

// OnGrant implements simx.Grantee: one of the endpoint's resources is ours.
func (cmd *Command) OnGrant(arg uint64, waited simx.Time) {
	ep := cmd.ep
	switch arg {
	case gHAL:
		ep.eng.ScheduleEvent(ep.params.HALLatency, cmd, hHALDone)
	case gStageHit:
		cmd.Result.LinkWait += waited
		ep.finishRead(cmd)
	case gStageRead:
		cmd.stageWait = waited
		ep.bus.AcquireG(cmd, gBusRead)
	case gBusRead:
		cmd.busWait = waited
		cmd.xferT = units.ScaleByPages(ep.params.BusPageTime(), cmd.Pages())
		ep.eng.ScheduleEvent(cmd.xferT, cmd, hReadXfer)
	case gWBuf:
		ep.admitBufferedWrite(cmd, waited)
	case gBusFlush:
		cmd.busWait = waited
		cmd.xferT = units.ScaleByPages(ep.params.BusPageTime(), cmd.Pages())
		ep.eng.ScheduleEvent(cmd.xferT, cmd, hFlushXfer)
	default:
		panic("cluster: unknown grant phase")
	}
}

// OnEvent implements simx.Handler for the command's timed phases.
func (cmd *Command) OnEvent(arg uint64) {
	ep := cmd.ep
	switch arg {
	case hHALDone:
		ep.hal.Release()
		if cmd.BufferHit {
			ep.stats.BufferHits++
			ep.staging.AcquireG(cmd, gStageHit)
			return
		}
		ep.fimms[cmd.FIMM].ReadOp(cmd.Pkg, cmd.Addrs, cmd)
	case hReadXfer:
		ep.bus.Release()
		cmd.Result.LinkWait += cmd.stageWait + cmd.busWait
		cmd.Result.LinkXfer += cmd.xferT
		ep.accountRead(cmd)
		ep.finishRead(cmd)
	case hFlushXfer:
		ep.bus.Release()
		cmd.Result.LinkWait += cmd.busWait
		cmd.Result.LinkXfer += cmd.xferT
		ep.fimms[cmd.FIMM].ProgramOp(cmd.Pkg, cmd.Addrs, cmd)
	default:
		panic("cluster: unknown event phase")
	}
}

// OnFIMMDone implements fimm.Done: the module finished the cell
// operation (and, for reads, the channel transfer).
func (cmd *Command) OnFIMMDone(r fimm.Result) {
	ep := cmd.ep
	switch cmd.Op {
	case OpRead:
		if r.Err != nil {
			ep.releaseFIMMSlot(cmd.FIMM)
			ep.fail(cmd, r.Err)
			return
		}
		cmd.Result.StorageWait = r.StorageWait
		cmd.Result.Texe = r.Texe
		cmd.Result.LinkWait = r.ChannelWait
		cmd.Result.LinkXfer = r.ChannelXfer
		ep.moveUpstream(cmd)
	case OpWrite:
		ep.finishFlush(cmd, r)
	}
}

// Stats aggregates endpoint activity.
type Stats struct {
	Reads         uint64
	Writes        uint64
	BgReads       uint64
	BgWrites      uint64
	Erases        uint64
	BufferHits    uint64 // reads served from the write buffer
	QueueFullHits uint64 // enqueue attempts that found the queue full
	EPWaitNS      simx.Time
	StorageWaitNS simx.Time
	LinkWaitNS    simx.Time
	LinkXferNS    simx.Time
	WriteBufStall simx.Time
}

// Endpoint is the cluster's PCI-E endpoint plus its FIMMs.
type Endpoint struct {
	eng    *simx.Engine
	id     topo.ClusterID
	params Params

	fimms   []*fimm.FIMM
	bus     *simx.Resource // shared local bus
	staging *simx.Resource // upstream read staging
	hal     *simx.Resource // command construction logic

	writeBuf *simx.Resource

	pending     []([]*Command) // per-FIMM FIFO of queued commands
	pendingLen  int
	outstanding []int // per-FIMM issued-but-unfinished counts

	// stalledScratch backs StalledPerFIMM so the per-event laggard
	// detectors never allocate; see that method's aliasing contract.
	stalledScratch []int

	up      *pcie.Link // toward the switch
	pktPool *pcie.Pool // optional shared packet free-list for completions

	// unplugged models a hot-unplugged cluster (fault.go): every newly
	// submitted command fails with ErrUnplugged; in-flight work drains.
	unplugged bool

	stats Stats
	ck    ckState // empty unless built with -tags simcheck
}

// New builds a cluster endpoint; invalid params panic.
func New(eng *simx.Engine, id topo.ClusterID, params Params) *Endpoint {
	if err := params.Validate(); err != nil {
		panic(err)
	}
	ep := &Endpoint{
		eng:            eng,
		id:             id,
		params:         params,
		bus:            simx.NewResource(eng, id.String()+".bus", 1),
		staging:        simx.NewResource(eng, id.String()+".staging", params.StagingEntries),
		hal:            simx.NewResource(eng, id.String()+".hal", 1),
		writeBuf:       simx.NewResource(eng, id.String()+".wbuf", params.WriteBufEntries),
		pending:        make([][]*Command, params.NumFIMMs),
		outstanding:    make([]int, params.NumFIMMs),
		stalledScratch: make([]int, params.NumFIMMs),
	}
	for i := 0; i < params.NumFIMMs; i++ {
		fp := params.FIMM
		if i < len(params.SlotLatencyScale) {
			fp = scaleFIMMLatency(fp, params.SlotLatencyScale[i])
		}
		ep.fimms = append(ep.fimms, fimm.New(eng, fp))
	}
	return ep
}

// scaleFIMMLatency slows a module's cell timings by factor (>= 1).
func scaleFIMMLatency(p fimm.Params, factor float64) fimm.Params {
	if factor <= 1 {
		return p
	}
	p.Nand.TRead = simx.Time(float64(p.Nand.TRead) * factor)
	p.Nand.TProg = simx.Time(float64(p.Nand.TProg) * factor)
	p.Nand.TErase = simx.Time(float64(p.Nand.TErase) * factor)
	return p
}

// ID reports the cluster's position in the array.
func (ep *Endpoint) ID() topo.ClusterID { return ep.id }

// Params returns the cluster parameters.
func (ep *Endpoint) Params() Params { return ep.params }

// FIMM exposes one module (for the array's device bookkeeping).
func (ep *Endpoint) FIMM(i int) *fimm.FIMM { return ep.fimms[i] }

// SetUpstream attaches the egress link toward the switch.
func (ep *Endpoint) SetUpstream(l *pcie.Link) { ep.up = l }

// SetPacketPool shares a packet free-list with the endpoint, so the
// completions it mints upstream recycle the packets the host retires.
// Without a pool the endpoint allocates (standalone tests).
func (ep *Endpoint) SetPacketPool(p *pcie.Pool) { ep.pktPool = p }

// newPacket draws a zeroed completion packet from the shared pool, or
// allocates one when no pool is attached.
func (ep *Endpoint) newPacket() *pcie.Packet {
	if ep.pktPool != nil {
		return ep.pktPool.Get()
	}
	return &pcie.Packet{} //simlint:coldalloc pool miss: completion-packet fallback
}

// Stats returns a snapshot of endpoint activity.
func (ep *Endpoint) Stats() Stats { return ep.stats }

// QueueLen reports commands waiting in the endpoint queue.
func (ep *Endpoint) QueueLen() int { return ep.pendingLen }

// QueueFull reports whether the endpoint queue is at capacity — the
// trigger for the paper's queue-examination laggard strategy.
func (ep *Endpoint) QueueFull() bool { return ep.pendingLen >= ep.params.QueueEntries }

// StalledPerFIMM reports, per FIMM slot, the number of commands queued
// and not yet issued — the per-FIMM stalled counts Figure 8 examines.
// The returned slice is a scratch buffer owned by the endpoint, valid
// only until the next StalledPerFIMM call; the laggard detectors run
// on every page completion, so this path must not allocate.
func (ep *Endpoint) StalledPerFIMM() []int {
	out := ep.stalledScratch
	for i, q := range ep.pending {
		out[i] = len(q)
	}
	return out
}

// BusBusyNS reports the shared bus busy integral, for Equation 2's
// utilisation sampling.
func (ep *Endpoint) BusBusyNS() simx.Time { return ep.bus.BusyNS() }

// BusUtilizationSince reports shared-bus utilisation over a window.
func (ep *Endpoint) BusUtilizationSince(since simx.Time, busyAtSince simx.Time) float64 {
	return ep.bus.UtilizationSince(since, busyAtSince)
}

// Forward sends a fabric packet upstream toward the switch — the
// peer-to-peer path autonomic data migration uses to push cloned data
// to a sibling cluster.
func (ep *Endpoint) Forward(pkt *pcie.Packet) {
	if ep.up == nil {
		panic(fmt.Sprintf("cluster %v: Forward without upstream link", ep.id))
	}
	ep.up.Send(pkt, nil)
}

// Receive implements pcie.Receiver: the device layers disassemble the
// packet and enqueue its command for the HAL.
func (ep *Endpoint) Receive(pkt *pcie.Packet, from *pcie.Link) {
	cmd, ok := pkt.Meta.(*Command)
	if !ok {
		panic(fmt.Sprintf("cluster %v: packet %v carries no command", ep.id, pkt))
	}
	cmd.from = from
	// Background packets (cross-switch migration writes) end here: the
	// command carries everything onward, and no breakdown is read back
	// from the packet. Host packets stay alive until the array's
	// deliver reads their stall accumulators.
	if cmd.Background && ep.pktPool != nil {
		ep.pktPool.Put(pkt)
	}
	ep.Submit(cmd)
}

// OnLinkAccepted implements pcie.Accepted: an upstream completion left
// the endpoint's buffer, so its staging entry frees up.
func (ep *Endpoint) OnLinkAccepted(*pcie.Packet) { ep.staging.Release() }

// Submit accepts a command directly (background work enters here;
// packet-borne commands arrive via Receive).
func (ep *Endpoint) Submit(cmd *Command) {
	cmd.ck.InUse("cluster.Command")
	cmd.ep = ep
	if cmd.FIMM < 0 || cmd.FIMM >= len(ep.fimms) {
		ep.fail(cmd, fmt.Errorf("cluster %v: FIMM slot %d out of range", ep.id, cmd.FIMM)) //simlint:coldalloc error path: rejected submission
		return
	}
	if len(cmd.Addrs) == 0 {
		ep.fail(cmd, fmt.Errorf("cluster %v: command with no addresses", ep.id)) //simlint:coldalloc error path: rejected submission
		return
	}
	if ep.unplugged {
		ep.fail(cmd, fmt.Errorf("cluster %v: %w", ep.id, ErrUnplugged)) //simlint:coldalloc error path: rejected submission
		return
	}
	cmd.arrived = ep.eng.Now()
	if ep.QueueFull() {
		ep.stats.QueueFullHits++
	}
	switch {
	case cmd.Op == OpWrite:
		ep.admitWrite(cmd)
	case cmd.BufferHit:
		ep.serveBufferHit(cmd)
	default:
		ep.enqueueRead(cmd)
	}
}

// serveBufferHit answers a read from the endpoint write buffer: no
// FIMM, no shared bus — just HAL handling and the upstream path.
func (ep *Endpoint) serveBufferHit(cmd *Command) {
	cmd.Result.EPWait = 0
	ep.creditBack(cmd)
	ep.hal.AcquireG(cmd, gHAL)
}

func (ep *Endpoint) fail(cmd *Command, err error) {
	cmd.Result.Err = err
	// Writes are judged by their ack snapshot upstream (the flush result
	// is normally invisible to the host); a command that failed before
	// buffering must carry the error there too.
	cmd.AckResult.Err = err
	ep.creditBack(cmd)
	// Host commands report failure through the fabric (a dataless error
	// completion) so the array can re-resolve stale addresses — e.g. a
	// read whose target block was garbage-collected in flight.
	if !cmd.Background && ep.up != nil && cmd.Meta != nil {
		pkt := ep.newPacket()
		pkt.Kind, pkt.Addr, pkt.Meta = pcie.Completion, ep.routeAddr(), cmd
		ep.up.Send(pkt, nil)
	}
	if cmd.OnComplete != nil {
		cmd.OnComplete(cmd) //simlint:coldalloc audited continuation dispatch; the indirect call itself does not allocate
	}
	// A write rejected before buffering never reaches finishFlush; fire
	// the flush retirement here so the submitter's per-block bookkeeping
	// (and the pooled command's RetireMark handshake) still resolves.
	if cmd.Flushed != nil {
		cmd.Flushed.OnCommandFlushed(cmd)
	}
}

func (ep *Endpoint) creditBack(cmd *Command) {
	if cmd.from != nil {
		cmd.from.ReturnCredit()
		cmd.from = nil
	}
}

// enqueueRead places a read in the endpoint queue, issuing immediately
// when its FIMM has a free outstanding slot and no older queued work.
// Under host-priority scheduling, host reads jump ahead of queued
// background work (but never ahead of other host reads).
func (ep *Endpoint) enqueueRead(cmd *Command) {
	f := cmd.FIMM
	if simcheckEnabled {
		ep.ckSubmitted()
	}
	if len(ep.pending[f]) == 0 && ep.outstanding[f] < ep.params.FIMMQueueDepth {
		ep.issueRead(cmd)
		return
	}
	q := ep.pending[f]
	if ep.params.HostPriority && !cmd.Background {
		at := len(q)
		for i, queued := range q {
			if queued.Background {
				at = i
				break
			}
		}
		q = append(q, nil) //simlint:coldalloc amortized: pending-queue growth bounded by queue depth
		copy(q[at+1:], q[at:])
		q[at] = cmd
		ep.pending[f] = q
	} else {
		ep.pending[f] = append(q, cmd) //simlint:coldalloc amortized: pending-queue growth bounded by queue depth
	}
	ep.pendingLen++
	if simcheckEnabled {
		ep.ckQueued()
	}
}

// releaseFIMMSlot frees an outstanding slot and issues the oldest
// queued command for that FIMM.
func (ep *Endpoint) releaseFIMMSlot(f int) {
	ep.outstanding[f]--
	if simcheckEnabled {
		ep.ckReleased(f)
	}
	if len(ep.pending[f]) == 0 {
		return
	}
	if ep.outstanding[f] >= ep.params.FIMMQueueDepth {
		return
	}
	cmd := ep.pending[f][0]
	copy(ep.pending[f], ep.pending[f][1:])
	ep.pending[f] = ep.pending[f][:len(ep.pending[f])-1]
	ep.pendingLen--
	ep.issueRead(cmd)
}

func (ep *Endpoint) issueRead(cmd *Command) {
	f := cmd.FIMM
	ep.outstanding[f]++
	if simcheckEnabled {
		ep.ckIssued(f)
	}
	cmd.Result.EPWait = ep.eng.Now() - cmd.arrived
	ep.stats.EPWaitNS += cmd.Result.EPWait
	// The command occupies a queue entry until the HAL hands it to the
	// FIMM; the ingress credit returns here.
	ep.creditBack(cmd)
	ep.hal.AcquireG(cmd, gHAL)
}

// moveUpstream stages read data in the endpoint and transfers it across
// the shared local bus, then completes the command. The FIMM slot is
// released as soon as the data has left the module: from here on the
// command contends only for the shared bus, so time spent below is the
// cluster's link contention, not storage contention.
func (ep *Endpoint) moveUpstream(cmd *Command) {
	ep.releaseFIMMSlot(cmd.FIMM)
	ep.staging.AcquireG(cmd, gStageRead)
}

func (ep *Endpoint) accountRead(cmd *Command) {
	if cmd.Background {
		ep.stats.BgReads++
	} else {
		ep.stats.Reads++
	}
	ep.stats.StorageWaitNS += cmd.Result.StorageWait
	ep.stats.LinkWaitNS += cmd.Result.LinkWait
	ep.stats.LinkXferNS += cmd.Result.LinkXfer
}

// finishRead releases staging and emits the completion: a data-bearing
// completion packet for host reads, or the callback for background
// reads (whose data stays in the endpoint for cloning).
func (ep *Endpoint) finishRead(cmd *Command) {
	if cmd.Background || ep.up == nil {
		ep.staging.Release()
		if cmd.OnComplete != nil {
			cmd.OnComplete(cmd) //simlint:coldalloc audited continuation dispatch; the indirect call itself does not allocate
		}
		return
	}
	pkt := ep.newPacket()
	pkt.Kind = pcie.Completion
	pkt.Addr = ep.routeAddr()
	pkt.Payload = units.PagesToBytes(cmd.Pages(), ep.params.FIMM.Nand.PageSizeBytes)
	pkt.Meta = cmd
	ep.up.Send(pkt, ep)
	if cmd.OnComplete != nil {
		cmd.OnComplete(cmd) //simlint:coldalloc audited continuation dispatch; the indirect call itself does not allocate
	}
}

// admitWrite takes a write into the endpoint write buffer, acks it
// upstream immediately (writes return early), and flushes the data to
// flash in the background.
func (ep *Endpoint) admitWrite(cmd *Command) {
	ep.writeBuf.AcquireG(cmd, gWBuf)
}

// admitBufferedWrite runs once the write-buffer entry is granted: ack
// the host early, then flush in the background.
func (ep *Endpoint) admitBufferedWrite(cmd *Command, bufWait simx.Time) {
	cmd.Result.EPWait = ep.eng.Now() - cmd.arrived
	ep.stats.EPWaitNS += cmd.Result.EPWait
	ep.stats.WriteBufStall += bufWait
	ep.creditBack(cmd)
	cmd.AckResult = cmd.Result
	if !cmd.Background && ep.up != nil {
		ack := ep.newPacket()
		ack.Kind, ack.Addr, ack.Meta = pcie.Completion, ep.routeAddr(), cmd
		ep.up.Send(ack, nil)
	}
	if !cmd.Background && cmd.OnComplete != nil {
		// Host writes complete at buffering time; the flush result
		// no longer affects the request.
		cmd.OnComplete(cmd) //simlint:coldalloc audited continuation dispatch; the indirect call itself does not allocate
	}
	ep.flushWrite(cmd)
}

// flushWrite moves buffered write data over the shared bus and programs
// the FIMM, then frees the buffer entry.
func (ep *Endpoint) flushWrite(cmd *Command) {
	ep.bus.AcquireG(cmd, gBusFlush)
}

// finishFlush retires a write flush: the FIMM has programmed the page
// (or failed) and the buffer entry frees up.
func (ep *Endpoint) finishFlush(cmd *Command, r fimm.Result) {
	ep.writeBuf.Release()
	if r.Err != nil {
		cmd.Result.Err = r.Err
		if cmd.Background && cmd.OnComplete != nil {
			cmd.OnComplete(cmd) //simlint:coldalloc audited continuation dispatch; the indirect call itself does not allocate
		}
		if cmd.Flushed != nil {
			cmd.Flushed.OnCommandFlushed(cmd)
		}
		return
	}
	cmd.Result.StorageWait += r.StorageWait
	cmd.Result.Texe += r.Texe
	cmd.Result.LinkWait += r.ChannelWait
	cmd.Result.LinkXfer += r.ChannelXfer
	if cmd.Background {
		ep.stats.BgWrites++
	} else {
		ep.stats.Writes++
	}
	ep.stats.StorageWaitNS += cmd.Result.StorageWait
	ep.stats.LinkWaitNS += cmd.Result.LinkWait
	ep.stats.LinkXferNS += cmd.Result.LinkXfer
	if cmd.Background && cmd.OnComplete != nil {
		cmd.OnComplete(cmd) //simlint:coldalloc audited continuation dispatch; the indirect call itself does not allocate
	}
	if cmd.Flushed != nil {
		cmd.Flushed.OnCommandFlushed(cmd)
	}
}

// Erase runs a block erase (GC traffic) on a FIMM.
func (ep *Endpoint) Erase(fimmSlot, pkg int, addrs []nand.Addr, done func(error)) {
	if fimmSlot < 0 || fimmSlot >= len(ep.fimms) {
		done(fmt.Errorf("cluster %v: FIMM slot %d out of range", ep.id, fimmSlot))
		return
	}
	if ep.unplugged {
		done(fmt.Errorf("cluster %v: %w", ep.id, ErrUnplugged))
		return
	}
	ep.fimms[fimmSlot].EraseOp(pkg, addrs, fimm.DoneFunc(func(r fimm.Result) {
		if r.Err == nil {
			ep.stats.Erases++
		}
		done(r.Err)
	}))
}

// routeAddr reports the fabric address identifying this cluster, used
// on upstream packets so switches can route completions.
func (ep *Endpoint) routeAddr() uint64 {
	return uint64(ep.id.Switch)<<32 | uint64(ep.id.Cluster)
}

var (
	_ pcie.Receiver = (*Endpoint)(nil)
	_ pcie.Accepted = (*Endpoint)(nil)
	_ fimm.Done     = (*Command)(nil)
	_ simx.Grantee  = (*Command)(nil)
	_ simx.Handler  = (*Command)(nil)
)

// DebugOccupancy reports internal resource occupancy (diagnostics).
func (ep *Endpoint) DebugOccupancy() (busInUse, busQ, stagingInUse, stagingQ, wbufInUse, wbufQ, halQ int) {
	return ep.bus.InUse(), ep.bus.QueueLen(),
		ep.staging.InUse(), ep.staging.QueueLen(),
		ep.writeBuf.InUse(), ep.writeBuf.QueueLen(), ep.hal.QueueLen()
}
