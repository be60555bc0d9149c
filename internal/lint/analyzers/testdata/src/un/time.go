package un

// The simx.Time rules: simulated and wall-clock time must not be
// converted into each other, and unit-less literals must not pose as
// simulated time.

import (
	"time"

	"triplea/internal/simx"
)

type config struct {
	Timeout simx.Time
	Retries int
}

func conversions(d time.Duration, t simx.Time) {
	_ = simx.Time(d)     // want `conversion of time\.Duration to simx\.Time bypasses the unit boundary`
	_ = time.Duration(t) // want `conversion of simx\.Time to time\.Duration bypasses the unit boundary`
	_ = simx.Time(250)   // want `bare numeric literal used as simx\.Time in conversion`
	_ = simx.Time(0)     // zero sentinel stays legal
	_ = simx.Time(-1)    // sentinel stays legal
	_ = int64(t)         // plain integer escape is not the analyzer's business
}

func arguments(eng *simx.Engine, h simx.Handler) {
	eng.ScheduleEvent(500, h, 0) // want `bare numeric literal used as simx\.Time in argument`
	eng.AtEvent(1000, h, 0)      // want `bare numeric literal used as simx\.Time in argument`
	eng.ScheduleEvent(500*simx.Nanosecond, h, 0)
	eng.AtEvent(0, h, 0)
	eng.ScheduleEvent(simx.Millisecond, h, 0)
}

func declarations() {
	var deadline simx.Time = 250 // want `bare numeric literal used as simx\.Time in variable declaration`
	deadline = 7                 // want `bare numeric literal used as simx\.Time in assignment`
	deadline = 0
	deadline = 3 * simx.Second
	//simlint:units the units audit marker does not cover simulated time
	deadline = 11 // want `bare numeric literal used as simx\.Time in assignment`
	_ = deadline

	_ = config{Timeout: 99, Retries: 3} // want `bare numeric literal used as simx\.Time in field Timeout`
	_ = config{Timeout: 99 * simx.Microsecond, Retries: 3}
	_ = config{Timeout: 0}
}
