package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"slices"
	"sort"
	"testing"

	"triplea/internal/array"
	"triplea/internal/topo"
)

// testRequests keeps every simulation in the self-tests short.
const testRequests = 2_000

func TestSameSeedSameOutput(t *testing.T) {
	for _, s := range specs {
		t.Run(s.name, func(t *testing.T) {
			a := simulate(s, 42, runOpts{requests: testRequests})
			b := simulate(s, 42, runOpts{requests: testRequests})
			for _, o := range []outcome{a, b} {
				if o.err != nil || o.failed != 0 {
					t.Fatalf("run failed %d requests: %v", o.failed, o.err)
				}
			}
			if a.digest != b.digest {
				t.Errorf("digest %s, then %s", a.digest, b.digest)
			}
			if a.simKIOPS != b.simKIOPS || !slices.Equal(a.latencies, b.latencies) {
				t.Errorf("simulated answers differ between runs of one seed")
			}
			if !reflect.DeepEqual(a.layer, b.layer) {
				t.Errorf("per-layer counters differ: %v, then %v", a.layer, b.layer)
			}
			if c := simulate(s, 43, runOpts{requests: testRequests}); c.digest == a.digest {
				t.Errorf("seeds 42 and 43 share digest %s", a.digest)
			}
		})
	}
}

// The traced run adds spans, a CPU profile and a timing wrapper on the
// core; none of them may change what is simulated.
func TestTracedRunOnlyObserves(t *testing.T) {
	for _, s := range specs {
		t.Run(s.name, func(t *testing.T) {
			plain := simulate(s, 42, runOpts{requests: testRequests})
			log := newSpanLog()
			traced := simulate(s, 42, runOpts{requests: testRequests, trace: log})
			if plain.err != nil || traced.err != nil {
				t.Fatalf("untraced: %v; traced: %v", plain.err, traced.err)
			}
			if traced.digest != plain.digest {
				t.Errorf("traced digest %s, untraced %s", traced.digest, plain.digest)
			}
			want := []string{"simulate", "workload.Generate", "array.New", "array.Prepare", "array.Run", "array.CheckConsistency"}
			if s.tripleA {
				want = append(want, "core.Attach")
				if traced.host.hookCalls == 0 {
					t.Error("the core's hooks were never timed")
				}
			}
			if s.faults {
				want = append(want, "fault.Attach")
			}
			var got []string
			for _, sp := range log.spans {
				got = append(got, sp.Name)
				if sp.Name != "simulate" && sp.Parent != 1 {
					t.Errorf("span %s has parent %d, want the simulate span", sp.Name, sp.Parent)
				}
			}
			sort.Strings(got)
			sort.Strings(want)
			if !slices.Equal(got, want) {
				t.Errorf("spans %v, want %v", got, want)
			}
			if traced.host.profile == nil {
				t.Error("traced run kept no CPU profile")
			}
		})
	}
}

// panicHooks passes calls through to the core until the n-th one,
// which panics like a simulator defect would.
type panicHooks struct {
	inner array.Hooks
	n     int
}

func (h *panicHooks) OnPageComplete(pc array.PageComplete) {
	if h.n--; h.n == 0 {
		panic("deliberate panic")
	}
	h.inner.OnPageComplete(pc)
}

func (h *panicHooks) WriteTarget(lpn int64, resident topo.FIMMID) topo.FIMMID {
	return h.inner.WriteTarget(lpn, resident)
}

func TestPanicFailsEveryRequestOfItsRun(t *testing.T) {
	s, err := specByName("hot-read-3a")
	if err != nil {
		t.Fatal(err)
	}
	o := runOpts{requests: testRequests, wrap: func(h array.Hooks) array.Hooks { return &panicHooks{inner: h, n: 100} }}
	if out := simulate(s, 42, o); out.err == nil || out.failed != out.submitted || out.submitted != testRequests {
		t.Fatalf("panicking run: err %v, %d of %d requests failed", out.err, out.failed, out.submitted)
	}

	// The benchmark goes on after a panic: both passes over every trace
	// are attempted, and every request counts as failed.
	res, err := bench(config{workload: s, seed: 42, seconds: 1e-3, out: t.TempDir(), runOpts: o}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * s.traces * testRequests
	if res.Correct || res.Attempted != want || res.Failed != want {
		t.Errorf("result correct=%v attempted=%d failed=%d, want false %d %d", res.Correct, res.Attempted, res.Failed, want, want)
	}
}

// benchmarkJSON is the part of BENCHMARK.json the names are checked
// against.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	for i, s := range specs {
		if i >= len(names) || names[i] != s.name {
			t.Errorf("BENCHMARK.json workloads %v, want %s at %d", names, s.name, i)
		}
	}
	for _, c := range []struct {
		trace bool
		want  []struct{ Name, Unit string }
	}{{false, bj.EndToEnd}, {true, bj.PerLayer}} {
		want := map[string]string{}
		for _, m := range c.want {
			want[m.Name] = m.Unit
		}
		for _, s := range specs {
			cfg := config{workload: s, seed: 42, seconds: 1e-3, trace: c.trace, out: t.TempDir(),
				runOpts: runOpts{requests: testRequests}}
			res, err := bench(cfg, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d", s.name, c.trace, res.Correct, res.Failed)
			}
			got := map[string]string{}
			for name, m := range res.Metrics {
				got[name] = m.Unit
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace=%v: metrics %v, BENCHMARK.json has %v", s.name, c.trace, got, want)
			}
		}
	}
}

func TestFrameLayer(t *testing.T) {
	for fn, want := range map[string]string{
		"triplea/internal/simx.(*Engine).Step":         "simx",
		"triplea/internal/ftl.(*FTL).Wear":             "ftl",
		"triplea/internal/topo.PPN.Block":              "",
		"container/heap.Push":                          "",
		"runtime.mapaccess1_fast64":                    "",
		"main.(*timedHooks).OnPageComplete":            "bench",
		"triplea/internal/core.(*Manager).siblingFIMM": "core",
	} {
		if got := frameLayer(fn); got != want {
			t.Errorf("frameLayer(%q) = %q, want %q", fn, got, want)
		}
	}
}
