package un

import "triplea/internal/simx"

// Test files are exempt: fixtures pin small literal timestamps on
// purpose.
func fixture(eng *simx.Engine, h simx.Handler) {
	eng.ScheduleEvent(500, h, 0)
	var deadline simx.Time = 250
	_ = deadline
	_ = config{Timeout: 99}
}
