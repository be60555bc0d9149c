// Package fimm (fixture) sits on a simulation-core import path, well
// outside the orchestration scope where nospawn confines concurrency.
package fimm

import (
	"sync" // want `import of sync in package fimm`

	"triplea/internal/simx"
)

var mu sync.Mutex

func spawn(eng *simx.Engine, h simx.Handler) {
	go h.OnEvent(0) // want `go statement outside the orchestration scope`
	eng.ScheduleEvent(simx.Microsecond, h, 0)
}

func channels(done chan int) {
	ch := make(chan int, 4) // want `make of a channel outside the orchestration scope`
	ch <- 1                 // want `channel send outside the orchestration scope`
	<-ch                    // want `channel receive outside the orchestration scope`
	select {                // want `select statement outside the orchestration scope`
	case v := <-done: // want `channel receive outside the orchestration scope`
		_ = v
	default:
	}
	for range done { // want `range over a channel outside the orchestration scope`
		break
	}
	close(done) // want `close of a channel outside the orchestration scope`
}

func audited(stop chan struct{}) {
	//simlint:nospawn audited: external cancellation probe, never in the event loop
	close(stop)
}
