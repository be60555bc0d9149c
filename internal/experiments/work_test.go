package experiments

import (
	"testing"

	"triplea/internal/workload"
)

// workPinRequests is the per-run request count of the work pin: large
// enough that every Table 1 workload reaches steady fabric traffic,
// small enough that the 26 runs finish in seconds.
const workPinRequests = 3000

// workPin is the deterministic simulator work of one Table 1 workload
// at workPinRequests on the paper's default array: events fired and the
// pending-event peak (simx.Engine.Fired and EventPoolFree), on the
// non-autonomic baseline and on Triple-A.
type workPin struct {
	name                 string
	baseFired, autoFired uint64
	basePeak, autoPeak   int
}

// workPins is captured from the current model. A change that moves
// an event count updates this table in the same commit and says per
// workload what moved and why; host-time claims rest on these counts.
var workPins = []workPin{
	{"cfs", 29279, 29719, 125, 141},
	{"fin", 28404, 31313, 251, 392},
	{"hm", 28574, 31298, 340, 453},
	{"mds", 27558, 29578, 303, 419},
	{"msnfs", 28366, 30666, 481, 632},
	{"prn", 29884, 36240, 41, 142},
	{"proj", 27574, 29658, 340, 455},
	{"prxy", 28634, 31928, 243, 359},
	{"usr", 27795, 29504, 547, 615},
	{"web", 30000, 30000, 51, 51},
	{"websql", 28234, 31575, 232, 336},
	{"g-eigen", 30000, 38305, 58, 225},
	{"l-eigen", 30000, 33512, 176, 294},
}

// TestWorkPinned pins the event work of every Table 1 workload, run
// through runOnePoint exactly as the paper experiments run it.
func TestWorkPinned(t *testing.T) {
	s := NewSuite()
	if len(workPins) != len(workload.Table1Profiles()) {
		t.Fatalf("%d pins for %d Table 1 workloads", len(workPins), len(workload.Table1Profiles()))
	}
	for _, want := range workPins {
		p, ok := workload.ProfileByName(want.name)
		if !ok {
			t.Fatalf("unknown workload %q", want.name)
		}
		p.Requests = workPinRequests
		_, base, _, err := runOnePoint(s.Config, s.Seed, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, auto, _, err := runOnePoint(s.Config, s.Seed, p, &s.Options)
		if err != nil {
			t.Fatal(err)
		}
		got := workPin{want.name,
			base.Engine().Fired(), auto.Engine().Fired(),
			base.Engine().EventPoolFree(), auto.Engine().EventPoolFree()}
		if got != want {
			t.Errorf("work moved:\n  got  %+v\n  want %+v", got, want)
		}
	}
}
