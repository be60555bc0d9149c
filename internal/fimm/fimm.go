// Package fimm models the Flash Inline Memory Module: eight bare NAND
// packages soldered to a DIMM-like printed circuit board, sharing a
// 16-data-pin channel behind the ONFI 78-pin NV-DDR2 connector (the
// paper's Figure 6). A FIMM carries no microprocessor, no DRAM buffer
// and no firmware — it is a passive memory device whose packages are
// selected by chip-enable and whose ready/busy pins share one wire.
//
// Timing model per operation:
//
//	read:    cell access (nand texe, per-die parallel) → channel transfer
//	program: channel transfer (data in)               → cell program
//	erase:   cell erase only (no data movement)
//
// The channel is a capacity-1 resource; transfers across a FIMM's
// packages serialize on it, exactly like the electrical bus.
package fimm

import (
	"fmt"

	"triplea/internal/nand"
	"triplea/internal/simx"
	"triplea/internal/units"
)

// Params describes one FIMM.
type Params struct {
	NumPackages int         // NAND packages on the module (paper: 8)
	ChannelPins units.Lanes // data pins of the shared channel (paper: 16)
	ChannelMHz  int         // NV-DDR2 clock (paper: 400)
	ChannelDDR  bool        // double data rate

	Nand nand.Params
}

// DefaultParams returns the paper's FIMM: 8 default packages on a
// 16-pin 400 MHz NV-DDR2 channel — 64 GiB per module.
func DefaultParams() Params {
	return Params{
		NumPackages: 8,
		ChannelPins: 16 * units.Lane,
		ChannelMHz:  400,
		ChannelDDR:  true,
		Nand:        nand.DefaultParams(),
	}
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	switch {
	case p.NumPackages <= 0:
		return fmt.Errorf("fimm: NumPackages %d must be positive", p.NumPackages)
	case p.ChannelPins != 8*units.Lane && p.ChannelPins != 16*units.Lane:
		return fmt.Errorf("fimm: ChannelPins %d must be 8 or 16", p.ChannelPins)
	case p.ChannelMHz <= 0:
		return fmt.Errorf("fimm: ChannelMHz %d must be positive", p.ChannelMHz)
	}
	return p.Nand.Validate()
}

// CapacityBytes reports the module capacity.
func (p Params) CapacityBytes() units.Bytes {
	return units.Bytes(p.NumPackages) * p.Nand.BytesPerPackage()
}

// PageCount reports the number of pages on the module.
func (p Params) PageCount() units.Pages {
	return units.Pages(p.NumPackages) * p.Nand.PagesPerPackage()
}

// ChannelBytesPerSec reports the shared channel's raw bandwidth.
func (p Params) ChannelBytesPerSec() units.BytesPerSec {
	return units.BusBandwidth(p.ChannelPins, p.ChannelMHz, p.ChannelDDR)
}

// PageTransferTime reports the channel time for one page — the tDMA of
// Equations 1–3 evaluated at the FIMM channel.
func (p Params) PageTransferTime() simx.Time {
	return units.TransferTime(p.Nand.PageSizeBytes, p.ChannelBytesPerSec())
}

// Result reports the timing decomposition of one FIMM operation.
type Result struct {
	StorageWait simx.Time // queueing for the target die (storage contention inside the FIMM)
	Texe        simx.Time // cell time (tR / tPROG / tBERS + controller overhead)
	ChannelWait simx.Time // queueing for the shared FIMM channel
	ChannelXfer simx.Time // data movement across the channel
	Err         error
}

// Total reports the operation's total device time.
func (r Result) Total() simx.Time {
	return r.StorageWait + r.Texe + r.ChannelWait + r.ChannelXfer
}

// Stats aggregates FIMM activity.
type Stats struct {
	Reads        uint64
	Programs     uint64
	Erases       uint64
	BytesMoved   units.Bytes
	ChannelBusy  simx.Time
	TotalErases  uint64
	MaxBlockWear int
}

// Done is the completion receiver for FIMM operations.
type Done interface {
	OnFIMMDone(r Result)
}

// DoneFunc adapts a plain function to Done for cold paths such as GC
// erases (the conversion allocates).
type DoneFunc func(r Result)

// OnFIMMDone implements Done.
func (fn DoneFunc) OnFIMMDone(r Result) { fn(r) } //simlint:cold closure-completion adapter; hot completions pre-bind Done receivers

// FIMM is one flash inline memory module.
type FIMM struct {
	eng      *simx.Engine
	params   Params
	packages []*nand.Package
	channel  *simx.Resource
	freeOp   *fop // recycled operation nodes

	// Fault-injection state (fault.go): dead rejects new operations;
	// channelScale > 0 stretches channel transfers (degraded lanes).
	dead         bool
	channelScale float64

	stats Stats
}

// fop is the pooled per-operation state: it receives the cell
// completion (nand.Done), queues for the shared channel (simx.Grantee),
// and rides the transfer event (simx.Handler). The op field selects the
// branch: reads run cell → channel, programs run channel → cell, and
// erases run the cell only.
type fop struct {
	f     *FIMM
	op    nand.Op
	pkg   int
	addrs []nand.Addr
	d     Done
	wait  simx.Time // storage (die-queue) wait
	cell  simx.Time // nominal cell time
	chW   simx.Time // channel-queue wait
	xfer  simx.Time // channel transfer time
	next  *fop
	ck    simx.PoolCheck
}

// finish recycles the node, then delivers the result.
func (st *fop) finish(r Result) {
	f, d := st.f, st.d
	f.recycleOp(st)
	d.OnFIMMDone(r)
}

// OnNandDone implements nand.Done.
func (st *fop) OnNandDone(texe simx.Time, err error) {
	f := st.f
	switch st.op {
	case nand.OpRead:
		if err != nil {
			st.finish(Result{Err: err})
			return
		}
		// texe from nand includes die queueing; split out the nominal
		// cell time so storage contention is visible separately.
		st.wait, st.cell = splitDeviceTime(texe, f.cellTime(nand.OpRead, len(st.addrs)))
		f.channel.AcquireG(st, 0)
	case nand.OpProgram:
		if err != nil {
			st.finish(Result{ChannelWait: st.chW, ChannelXfer: st.xfer, Err: err})
			return
		}
		st.wait, st.cell = splitDeviceTime(texe, f.cellTime(nand.OpProgram, len(st.addrs)))
		f.stats.Programs += uint64(len(st.addrs))
		f.stats.BytesMoved += units.PagesToBytes(units.Pages(len(st.addrs)), f.params.Nand.PageSizeBytes)
		st.finish(Result{
			StorageWait: st.wait,
			Texe:        st.cell,
			ChannelWait: st.chW,
			ChannelXfer: st.xfer,
		})
	case nand.OpErase:
		if err != nil {
			st.finish(Result{Err: err})
			return
		}
		st.wait, st.cell = splitDeviceTime(texe, f.cellTime(nand.OpErase, len(st.addrs)))
		f.stats.Erases += uint64(len(st.addrs))
		st.finish(Result{StorageWait: st.wait, Texe: st.cell})
	}
}

// OnGrant implements simx.Grantee: the shared channel is ours.
func (st *fop) OnGrant(arg uint64, waited simx.Time) {
	st.chW = waited
	st.f.eng.ScheduleEvent(st.xfer, st, 0)
}

// OnEvent implements simx.Handler: the channel transfer finished.
// Erases never move data, so only reads and programs get here.
func (st *fop) OnEvent(arg uint64) {
	f := st.f
	f.channel.Release()
	if st.op == nand.OpProgram {
		// Data is in the package's register; program the cells.
		f.packages[st.pkg].ProgramOp(st.addrs, st)
		return
	}
	f.stats.Reads += uint64(len(st.addrs))
	f.stats.BytesMoved += units.PagesToBytes(units.Pages(len(st.addrs)), f.params.Nand.PageSizeBytes)
	st.finish(Result{
		StorageWait: st.wait,
		Texe:        st.cell,
		ChannelWait: st.chW,
		ChannelXfer: st.xfer,
	})
}

func (f *FIMM) newOp(op nand.Op, pkg int, addrs []nand.Addr, d Done) *fop {
	st := f.freeOp
	if st != nil {
		f.freeOp = st.next
		st.ck.Checkout("fimm.fop")
		st.next = nil
	} else {
		st = &fop{f: f} //simlint:coldalloc pool miss: fop free-list refill
		st.ck.Fresh("fimm.fop")
	}
	st.op, st.pkg, st.addrs, st.d = op, pkg, addrs, d
	st.wait, st.cell, st.chW, st.xfer = 0, 0, 0, 0
	return st
}

func (f *FIMM) recycleOp(st *fop) {
	st.addrs, st.d = nil, nil
	st.ck.Release("fimm.fop")
	st.next = f.freeOp
	f.freeOp = st
}

// New builds a FIMM; invalid params panic (construction-time error).
func New(eng *simx.Engine, params Params) *FIMM {
	if err := params.Validate(); err != nil {
		panic(err)
	}
	f := &FIMM{
		eng:     eng,
		params:  params,
		channel: simx.NewResource(eng, "fimm-channel", 1),
	}
	for i := 0; i < params.NumPackages; i++ {
		f.packages = append(f.packages, nand.NewPackage(eng, params.Nand))
	}
	return f
}

// Params returns the module parameters.
func (f *FIMM) Params() Params { return f.params }

// NumPackages reports the package count.
func (f *FIMM) NumPackages() int { return len(f.packages) }

// Package exposes one NAND package (for the FTL and tests).
func (f *FIMM) Package(i int) *nand.Package { return f.packages[i] }

// Busy reports the module's single ready/busy wire: asserted while any
// package executes or the channel is moving data.
func (f *FIMM) Busy() bool {
	if f.channel.InUse() > 0 {
		return true
	}
	for _, pk := range f.packages {
		if pk.Busy() {
			return true
		}
	}
	return false
}

// ChannelQueueLen reports how many transfers wait for the channel.
func (f *FIMM) ChannelQueueLen() int { return f.channel.QueueLen() }

// ChannelBusyNS reports the channel's accumulated busy time, for
// utilisation sampling.
func (f *FIMM) ChannelBusyNS() simx.Time { return f.channel.BusyNS() }

// ChannelUtilizationSince reports channel utilisation over a window.
func (f *FIMM) ChannelUtilizationSince(since simx.Time, busyAtSince simx.Time) float64 {
	return f.channel.UtilizationSince(since, busyAtSince)
}

// Stats returns a snapshot of module activity, aggregating wear across
// packages.
func (f *FIMM) Stats() Stats {
	s := f.stats
	s.ChannelBusy = f.channel.BusyNS()
	for _, pk := range f.packages {
		ps := pk.Stats()
		s.TotalErases += ps.Erases
		if ps.MaxEraseWear > s.MaxBlockWear {
			s.MaxBlockWear = ps.MaxEraseWear
		}
	}
	return s
}

// refuse completes d with an error and reports true when an operation
// cannot start: the package index is out of range or the module died.
func (f *FIMM) refuse(op nand.Op, pkg int, d Done) bool {
	if d == nil {
		panic("fimm: nil done receiver")
	}
	var err error
	switch {
	case pkg < 0 || pkg >= len(f.packages):
		err = fmt.Errorf("fimm: package %d out of range [0,%d)", pkg, len(f.packages)) //simlint:coldalloc error path: package index out of range
	case f.dead:
		err = fmt.Errorf("fimm: %v: %w", op, ErrDead) //simlint:coldalloc fault path: dead-module error
	default:
		return false
	}
	d.OnFIMMDone(Result{Err: err})
	return true
}

// ReadOp performs a cell read on the addressed package then moves the
// pages across the shared channel. d receives the timing split; addrs
// is borrowed until then.
func (f *FIMM) ReadOp(pkg int, addrs []nand.Addr, d Done) {
	if f.refuse(nand.OpRead, pkg, d) {
		return
	}
	st := f.newOp(nand.OpRead, pkg, addrs, d)
	st.xfer = f.xferTime(len(addrs))
	f.packages[pkg].ReadOp(addrs, st)
}

// ProgramOp moves the pages across the channel into the package's data
// register, then programs the cells.
func (f *FIMM) ProgramOp(pkg int, addrs []nand.Addr, d Done) {
	if f.refuse(nand.OpProgram, pkg, d) {
		return
	}
	st := f.newOp(nand.OpProgram, pkg, addrs, d)
	st.xfer = f.xferTime(len(addrs))
	f.channel.AcquireG(st, 0)
}

// EraseOp erases blocks on the addressed package. Erases move no data,
// so the channel is never involved.
func (f *FIMM) EraseOp(pkg int, addrs []nand.Addr, d Done) {
	if f.refuse(nand.OpErase, pkg, d) {
		return
	}
	st := f.newOp(nand.OpErase, pkg, addrs, d)
	f.packages[pkg].EraseOp(addrs, st)
}

// splitDeviceTime decomposes a device-observed time into (queueing,
// nominal cell time). Cache-mode hits finish faster than nominal; then
// the whole observed time is cell time and queueing is zero.
func splitDeviceTime(observed, nominal simx.Time) (wait, cell simx.Time) {
	if observed <= nominal {
		return 0, observed
	}
	return observed - nominal, nominal
}

// cellTime reports the nominal (queue-free) cell time of an op.
func (f *FIMM) cellTime(op nand.Op, n int) simx.Time {
	p := f.params.Nand
	switch op {
	case nand.OpRead:
		return p.TCmdOverhead + p.TRead + p.TECCPerPage
	case nand.OpProgram:
		return p.TCmdOverhead + p.TProg + p.TECCPerPage
	case nand.OpErase:
		return p.TCmdOverhead + p.TErase
	}
	panic("fimm: unknown op")
}
