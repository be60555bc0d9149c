package fimm

import (
	"errors"

	"triplea/internal/simx"
	"triplea/internal/units"
)

// Fault-injection hooks (see internal/fault and docs/fault-injection.md).

// ErrDead marks an operation submitted to a FIMM that died. Detected
// with errors.Is by the endpoint/array error paths.
var ErrDead = errors.New("fimm: module dead")

// Kill makes the module stop responding: every future ReadOp/
// ProgramOp/EraseOp completes immediately with ErrDead (before any
// pooled state is minted, so fault paths cannot leak fimm.fop nodes). Operations
// already in flight run to completion — the module's last committed
// work drains, matching a module that loses its link rather than its
// in-progress silicon state.
func (f *FIMM) Kill() { f.dead = true }

// SetChannelScale stretches every channel transfer by s (>1 models
// degraded ONFI lanes — e.g. a 16-pin channel trained down to 8 pins
// at s=2). Zero restores the nominal rate.
func (f *FIMM) SetChannelScale(s float64) { f.channelScale = s }

// SetCellTimeScale stretches every package's cell operation time by s
// (>1 models a stalled module). Zero restores nominal timing.
func (f *FIMM) SetCellTimeScale(s float64) {
	for _, pk := range f.packages {
		pk.SetTimingScale(s)
	}
}

// xferTime reports the channel time for n pages under any injected
// lane degradation.
func (f *FIMM) xferTime(n int) simx.Time {
	t := units.ScaleByPages(f.params.PageTransferTime(), units.Pages(n))
	if f.channelScale > 0 {
		t = simx.Time(float64(t) * f.channelScale)
	}
	return t
}
