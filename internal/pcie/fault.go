package pcie

import "triplea/internal/simx"

// Fault-injection hooks (see internal/fault and docs/fault-injection.md).

// SetRateScale stretches every future serialisation on the link by s
// (>1 models a link trained down to fewer lanes or a lower generation
// after errors). Zero restores the nominal rate. In-flight
// transmissions keep the time they were scheduled with.
func (l *Link) SetRateScale(s float64) { l.rateScale = s }

// Retrain blocks the link's wire for d — a link-retraining window.
// Packets already granted the wire finish serialising first; everything
// behind them (and everything submitted during the window) queues at
// the sender exactly like a real LTSSM Recovery excursion. Flow-control
// credits are unaffected, so nothing is dropped.
// The window's length rides the grant's arg, so overlapping retrains
// each keep their own.
func (l *Link) Retrain(d simx.Time) {
	l.wire.AcquireG(l, uint64(d))
}

// OnGrant implements simx.Grantee for Retrain: the wire is held; free
// it when the window of arg nanoseconds closes.
func (l *Link) OnGrant(arg uint64, _ simx.Time) {
	l.eng.ScheduleEvent(simx.Time(arg), l, 0)
}

// OnEvent implements simx.Handler for Retrain: the window closed.
func (l *Link) OnEvent(uint64) {
	l.wire.Release()
}
