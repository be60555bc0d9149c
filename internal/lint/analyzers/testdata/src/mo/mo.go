// Package mo exercises the maporder analyzer: map iteration whose
// order escapes (events, outer state, output, channels, callbacks) is
// flagged; the sort-then-range idiom and audited commutative loops are
// not.
package mo

import (
	"fmt"
	"sort"

	"triplea/internal/simx"
)

func scheduleFromMap(eng *simx.Engine, pending map[int]simx.Handler) {
	for id, h := range pending { // want `map iteration order is nondeterministic but the body calls ScheduleEvent`
		eng.ScheduleEvent(simx.Microsecond, h, uint64(id))
	}
}

func atFromMap(eng *simx.Engine, due map[simx.Time]simx.Handler) {
	for t, h := range due { // want `map iteration order is nondeterministic but the body calls AtEvent`
		eng.AtEvent(t, h, 0)
	}
}

func acquireFromMap(r *simx.Resource, waiting map[uint64]simx.Grantee) {
	for arg, g := range waiting { // want `map iteration order is nondeterministic but the body calls AcquireG`
		r.AcquireG(g, arg)
	}
}

func appendOtherState(m map[int]int, lookup map[int]string) []string {
	var out []string
	for k := range m { // want `map iteration order is nondeterministic but the body assigns to state declared outside the loop`
		out = append(out, lookup[k])
	}
	return out
}

func printKeys(m map[string]int) {
	for k := range m { // want `map iteration order is nondeterministic but the body calls Println`
		fmt.Println(k)
	}
}

func sendKeys(m map[int]bool, ch chan int) {
	for k := range m { // want `map iteration order is nondeterministic but the body sends on a channel`
		ch <- k
	}
}

func visitAll(m map[int]int, visit func(int)) {
	for k := range m { // want `map iteration order is nondeterministic but the body invokes the function value visit`
		visit(k)
	}
}

// sortThenRange is the canonical fix: collecting keys is pure, and the
// ordered work happens over the sorted slice.
func sortThenRange(eng *simx.Engine, pending map[int]simx.Handler) {
	keys := make([]int, 0, len(pending))
	for k := range pending {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		eng.ScheduleEvent(simx.Microsecond, pending[k], uint64(k))
	}
}

// maxValue is a commutative reduction: order cannot affect the result,
// so the audited suppression keeps it quiet.
func maxValue(m map[int]int) int {
	best := 0
	//simlint:ordered commutative max over ints
	for _, v := range m {
		if v > best {
			best = v
		}
	}
	return best
}

// localOnly never lets the iteration order out of a single step.
func localOnly(m map[int]int) {
	for k := range m {
		v := m[k]
		_ = v
	}
}
