package array

import (
	"errors"
	"fmt"

	"triplea/internal/cluster"
	"triplea/internal/ftl"
	"triplea/internal/nand"
	"triplea/internal/topo"
)

// startGC launches a background garbage-collection worker for a FIMM if
// one is not already running. The worker relocates the victim's valid
// pages (device reads and programs that contend with host traffic, as
// real GC does), erases the victim, and repeats while pressure remains.
func (a *Array) startGC(id topo.FIMMID) { //simlint:cold garbage collection runs per reclaimed block, not per event
	flat := id.Flat(a.cfg.Geometry)
	if a.gcActive[flat] {
		return
	}
	a.gcActive[flat] = true
	a.gcStep(id)
}

func (a *Array) gcStep(id topo.FIMMID) {
	flat := id.Flat(a.cfg.Geometry)
	if a.gcHalted(id) {
		a.gcActive[flat] = false
		return
	}
	if !a.ftl.GCPressure(id) {
		a.gcActive[flat] = false
		return
	}
	// Opportunistic scheduling: while the cluster is serving host
	// traffic, postpone collection to an idle window — unless a unit is
	// about to run dry, in which case reclaim immediately.
	if a.cfg.OpportunisticGC && a.ftl.MinFreeBlocks(id) > 1 &&
		a.clusterBusUtil(id.ClusterID) > 0.5 {
		a.gcDeferrals++
		a.eng.ScheduleEvent(utilWindow, (*gcRetry)(a), uint64(flat))
		return
	}
	plan, ok := a.ftl.PlanGC(id, a.gcVeto)
	if !ok {
		a.gcActive[flat] = false
		return
	}
	a.gcRound[flat] = plan
	a.execGCMoves(plan, 0, func() {
		a.eraseVictim(plan, func() {
			a.gcRound[flat] = nil
			a.gcRounds++
			a.gcStep(id) // keep collecting while pressured
		})
	})
}

// gcRetry is the Array as the handler of deferred GC steps; the
// conversion lets the deferral ride a pooled event without adding a
// handler method to Array's exported API.
type gcRetry Array

// OnEvent implements simx.Handler: resume GC on flat FIMM id arg.
func (g *gcRetry) OnEvent(arg uint64) { //simlint:cold garbage collection runs per reclaimed block, not per event
	a := (*Array)(g)
	a.gcStep(topo.FIMMFromFlat(a.cfg.Geometry, int(arg)))
}

// execGCMoves relocates plan.Moves[i:] one at a time, then calls done.
func (a *Array) execGCMoves(plan *ftl.GCPlan, i int, done func()) {
	if i >= len(plan.Moves) {
		done()
		return
	}
	move := plan.Moves[i]
	next := func() { a.execGCMoves(plan, i+1, done) }

	ep := a.Endpoint(move.Src.ClusterID())
	readCmd := a.cmdPool.Get()
	readCmd.Op = cluster.OpRead
	readCmd.FIMM, readCmd.Pkg = move.Src.FIMMSlot(), move.Src.Pkg()
	readCmd.SetPageAddr(move.Src.NandAddr(a.cfg.Geometry))
	readCmd.Background = true
	readCmd.OnComplete = func(c *cluster.Command) {
		if c.Result.Err != nil {
			a.gcFaultErr("GC read", c.Result.Err)
			// The victim page is unreadable; abandon this move.
			a.cmdPool.Put(c)
			next()
			return
		}
		a.cmdPool.Put(c) // background reads retire at completion
		wa, err := a.ftl.AllocateGCMove(move)
		if err != nil {
			// A host write moved the page since planning; skip it.
			next()
			return
		}
		a.markStaleDevice(wa.Old)
		a.backgroundProgram(wa.New, next)
	}
	ep.Submit(readCmd)
}

// gcVeto excludes from victim selection blocks with buffered
// (unflushed) programs and the victim of the FIMM's in-flight
// background round.
func (a *Array) gcVeto(victim topo.PPN) bool {
	if round := a.gcRound[victim.FIMMID().Flat(a.cfg.Geometry)]; round != nil && round.Victim == victim {
		return true
	}
	return a.pendingByBlock[victim.BlockKey()] > 0
}

// backgroundProgram writes one page at ppn via the endpoint write path.
func (a *Array) backgroundProgram(ppn topo.PPN, done func()) {
	ep := a.Endpoint(ppn.ClusterID())
	cmd := a.cmdPool.Get()
	cmd.Op = cluster.OpWrite
	cmd.FIMM, cmd.Pkg = ppn.FIMMSlot(), ppn.Pkg()
	cmd.SetPageAddr(ppn.NandAddr(a.cfg.Geometry))
	cmd.Background = true
	// The flush retirement (OnCommandFlushed) recycles the command;
	// OnComplete only chains the GC state machine.
	cmd.OnComplete = func(c *cluster.Command) {
		if c.Result.Err != nil {
			// Fault-caused program failures are tolerated: the flush
			// retirement drops the mapping, and the chain continues.
			a.gcFaultErr("background program", c.Result.Err)
		}
		done()
	}
	a.trackFlush(ppn, cmd)
	a.launchProgram(ppn, funcLauncher(func() { ep.Submit(cmd) }))
}

// eraseVictim erases the plan's victim block and completes the plan.
func (a *Array) eraseVictim(plan *ftl.GCPlan, done func()) {
	ep := a.Endpoint(plan.Victim.ClusterID())
	ep.Erase(plan.Victim.FIMMSlot(), plan.Victim.Pkg(),
		[]nand.Addr{plan.Victim.NandAddr(a.cfg.Geometry)},
		func(err error) {
			if err != nil {
				// A fault-caused erase failure abandons the round; the
				// victim block stays reclaimable for a later pass.
				a.gcFaultErr("GC erase", err)
				done()
				return
			}
			if err := a.ftl.CompleteGCErase(plan); err != nil {
				panic(fmt.Sprintf("array: GC bookkeeping: %v", err))
			}
			done()
		})
}

// runGCNow is the emergency out-of-space path: it reclaims one block
// with zero-time device fixups so an in-admission write can proceed.
// Measured experiments are sized so this never fires; it exists to keep
// pathological configurations (tiny FIMMs, reshaping pile-ups) live.
func (a *Array) runGCNow(id topo.FIMMID) { //simlint:cold emergency out-of-space reclamation
	plan, ok := a.ftl.PlanGC(id, a.gcVeto)
	if !ok {
		return
	}
	g := a.cfg.Geometry
	for _, move := range plan.Moves {
		wa, err := a.ftl.AllocateGCMove(move)
		if errors.Is(err, ftl.ErrNoSpace) {
			// Not even relocation space: the victim cannot be emptied.
			return
		}
		if err != nil {
			continue // host write superseded the page since planning
		}
		a.markStaleDevice(wa.Old)
		if err := a.pkgAt(wa.New).ForcePopulate(wa.New.NandAddr(g)); err != nil {
			panic(fmt.Sprintf("array: emergency GC populate: %v", err))
		}
	}
	if err := a.pkgAt(plan.Victim).ForceErase(plan.Victim.NandAddr(g)); err != nil {
		panic(fmt.Sprintf("array: emergency GC erase: %v", err))
	}
	if err := a.ftl.CompleteGCErase(plan); err != nil {
		panic(fmt.Sprintf("array: emergency GC bookkeeping: %v", err))
	}
	a.gcRounds++
}
