package pcie

import "triplea/internal/simx"

// Fault-injection hooks (see internal/fault and docs/fault-injection.md).

// SetRateScale stretches the serialisation of every packet that wins
// its credit from now on by s (>1 models a link trained down to fewer
// lanes or a lower generation after errors). Zero restores the nominal
// rate. A packet's transfer time is fixed when it wins its credit, so
// packets already holding one — on the wire or queued behind it for
// the wire — keep the rate they won it at.
func (l *Link) SetRateScale(s float64) { l.rateScale = s }

// Retrain blocks the link's wire for d — a link-retraining window.
// Packets that already hold a credit serialise first; everything that
// wins one later (including everything submitted during the window)
// queues behind the window exactly like a real LTSSM Recovery
// excursion. Flow-control credits are unaffected, so nothing is
// dropped. Overlapping retrains hold the wire back to back, each for
// its own window.
func (l *Link) Retrain(d simx.Time) {
	l.freeAt = max(l.eng.Now(), l.freeAt) + d
}
