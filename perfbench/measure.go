package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	simmetrics "triplea/internal/metrics"
)

// traceSeed is the generation seed of trace i of a benchmark seed.
// Trace 0 uses the benchmark seed itself.
func traceSeed(seed uint64, i int) uint64 { return seed + uint64(i)<<32 }

// tally accumulates the runs of one benchmark seed. It keeps the first
// passing run of each trace as that trace's reference and fails any
// later run of the trace whose digest differs from it.
type tally struct {
	name      string
	seed      uint64
	refs      []*outcome // per trace; nil until a run of it passes
	attempted int
	failed    int
	errs      []error
}

func newTally(s spec, seed uint64) *tally {
	return &tally{name: s.name, seed: seed, refs: make([]*outcome, s.traces)}
}

// add accounts one run of trace i and reports whether it passed every
// check. A run that fails any check counts all its requests as failed.
func (t *tally) add(i int, o outcome) bool {
	if o.err == nil {
		if ref := t.refs[i]; ref == nil {
			t.refs[i] = &o
		} else if o.digest != ref.digest {
			o.err = fmt.Errorf("%s trace seed %d: digest %s differs from the first run's %s",
				t.name, traceSeed(t.seed, i), o.digest, ref.digest)
			o.failed = o.submitted
		}
	}
	t.attempted += o.submitted
	t.failed += o.failed
	if o.err != nil {
		t.errs = append(t.errs, o.err)
		return false
	}
	return true
}

// complete reports whether every trace has a reference run.
func (t *tally) complete() bool {
	for _, r := range t.refs {
		if r == nil {
			return false
		}
	}
	return true
}

// digest combines the traces' digests in trace order; it is empty
// until every trace has passed once.
func (t *tally) digest() string {
	if !t.complete() {
		return ""
	}
	h := sha256.New()
	for _, r := range t.refs {
		h.Write([]byte(r.digest))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// passes simulates every trace of the seed in turn, and repeats such
// passes until the time is spent and at least minPasses are done. It
// returns, per trace, the runs that passed their checks.
func passes(cfg config, t *tally, seconds float64, minPasses int, o runOpts) [][]outcome {
	ok := make([][]outcome, len(t.refs))
	start := time.Now()
	for n := 0; n < minPasses || time.Since(start).Seconds() < seconds; n++ {
		for i := range t.refs {
			out := simulate(cfg.workload, traceSeed(cfg.seed, i), o)
			if t.add(i, out) {
				// Only the reference run's latencies are needed; holding
				// every run's would grow the heap the GC paces against.
				out.latencies = nil
				ok[i] = append(ok[i], out)
			}
		}
	}
	return ok
}

// runs holds, per trace, the runs of one phase that passed their checks.
// Host costs are taken per trace as the median over its runs, which
// drops the odd slow run, and then summed or averaged over the traces,
// which weighs every trace the same.
type runs [][]outcome

// each returns, for every trace with a passing run, the median of f.
func (rs runs) each(f func(outcome) float64) []float64 {
	var xs []float64
	for _, r := range rs {
		if len(r) > 0 {
			xs = append(xs, median(r, f))
		}
	}
	return xs
}

func (rs runs) sum(f func(outcome) float64) float64 {
	var s float64
	for _, x := range rs.each(f) {
		s += x
	}
	return s
}

func (rs runs) mean(f func(outcome) float64) float64 {
	return ratio(rs.sum(f), float64(len(rs.each(f))))
}

// reqPerSec is the host throughput over all traces: their requests
// over their median Run times.
func (rs runs) reqPerSec() float64 {
	return ratio(rs.sum(func(o outcome) float64 { return float64(o.submitted) }),
		rs.sum(func(o outcome) float64 { return o.host.runS }))
}

// passed reports whether every trace has a passing run.
func (rs runs) passed() bool {
	return len(rs.each(func(outcome) float64 { return 0 })) == len(rs)
}

// bench runs the configured measurement, prints its report and writes
// the result files; it fails only when it cannot report at all.
func bench(cfg config, w io.Writer) (result, error) {
	t := newTally(cfg.workload, cfg.seed)
	prov := provenanceOf(cfg)
	fmt.Fprintf(w, "perfbench: workload %s, seed %d (%d traces), %gs, trace %v\n",
		cfg.workload.name, cfg.seed, cfg.workload.traces, cfg.seconds, cfg.trace)

	var values map[string]float64
	var spans *spanLog
	var lastProfile []byte
	if !cfg.trace {
		values = endToEndValues(t, passes(cfg, t, cfg.seconds, 2, cfg.runOpts))
	} else {
		plain := passes(cfg, t, cfg.seconds/2, 1, cfg.runOpts)
		spans = newSpanLog()
		o := cfg.runOpts
		o.trace = spans
		traced := passes(cfg, t, cfg.seconds/2, 1, o)
		values = perLayerValues(t, plain, traced)
		if r := traced[len(traced)-1]; len(r) > 0 {
			lastProfile = r[len(r)-1].host.profile
		}
	}

	res := result{Correct: len(t.errs) == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metricValue{}}
	list := endToEnd
	if cfg.trace {
		list = perLayer
	}
	digest := t.digest()
	provJSON, _ := json.Marshal(prov) // a struct of strings and ints always encodes
	fmt.Fprintf(w, "provenance: %s\n", provJSON)
	fmt.Fprintf(w, "digest: %s\n", digest)
	for _, err := range t.errs {
		fmt.Fprintf(w, "FAILED: %v\n", err)
	}
	for _, m := range list {
		v, ok := values[m.name]
		if !ok {
			continue // no run passed its checks
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
		fmt.Fprintf(w, "%-32s %14.6g %s\n", m.name, v, m.unit)
	}

	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return res, err
	}
	set := "end-to-end"
	if cfg.trace {
		set = "per-layer"
	}
	base := filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d-%s", cfg.workload.name, cfg.seed, set))
	errs := make([]string, len(t.errs))
	for i, err := range t.errs {
		errs[i] = err.Error()
	}
	if err := writeJSON(base+".result.json", map[string]any{
		"provenance": prov, "digest": digest, "errors": errs, "result": res,
	}); err != nil {
		return res, err
	}
	if spans != nil {
		if err := writeJSON(base+".spans.json", spans.spans); err != nil {
			return res, err
		}
		if err := os.WriteFile(base+".cpu.pprof", lastProfile, 0o644); err != nil {
			return res, err
		}
	}
	return res, nil
}

// simValues derives the simulated-time answers of a seed from its
// reference runs: latency percentiles over the requests of all its
// traces pooled, and the median trace's sustained IOPS.
func simValues(t *tally) map[string]float64 {
	pool := simmetrics.NewRecorder()
	kiops := make([]outcome, len(t.refs))
	for i, r := range t.refs {
		for _, lat := range r.latencies {
			pool.Record(simmetrics.Record{Complete: lat})
		}
		kiops[i] = *r
	}
	return map[string]float64{
		"sim_lat_mean_us": pool.AvgLatency().Micros(),
		"sim_lat_p50_us":  pool.Percentile(50).Micros(),
		"sim_lat_p999_us": pool.Percentile(99.9).Micros(),
		"sim_kiops":       median(kiops, func(o outcome) float64 { return o.simKIOPS }),
	}
}

// endToEndValues derives the end-to-end metrics: host costs from the
// runs, simulated answers from the reference runs.
func endToEndValues(t *tally, rs runs) map[string]float64 {
	if !rs.passed() || !t.complete() {
		return nil
	}
	v := simValues(t)
	v["req_per_s"] = rs.reqPerSec()
	v["setup_s"] = rs.mean(func(o outcome) float64 { return o.host.setupS() })
	v["heap_mb"] = rs.mean(func(o outcome) float64 { return float64(o.host.heapBytes) / 1e6 })
	return v
}

// perLayerValues derives the per-layer metrics: deterministic counters
// averaged over the traces' reference runs, host costs per layer from
// the untraced runs where tracing would distort them, and spans, hook
// time and CPU shares from the traced runs.
func perLayerValues(t *tally, plain, traced runs) map[string]float64 {
	v := map[string]float64{"req_failed_frac": float64(t.failed) / float64(max(t.attempted, 1))}
	if !plain.passed() || !traced.passed() || !t.complete() {
		return v
	}
	for k, x := range simValues(t) {
		v[k] = x
	}
	for _, r := range t.refs {
		for k, x := range r.layer {
			v[k] += x / float64(len(t.refs))
		}
	}
	reqs := plain.sum(func(o outcome) float64 { return float64(o.submitted) })
	events := plain.sum(func(o outcome) float64 { return o.layer["simx.events_per_req"] * float64(o.submitted) })
	v["simx.ns_per_event"] = plain.sum(func(o outcome) float64 { return o.host.runS }) * 1e9 / events
	v["goruntime.allocs_per_req"] = plain.sum(func(o outcome) float64 { return float64(o.host.mallocs) }) / reqs
	v["goruntime.gc_cycles"] = plain.mean(func(o outcome) float64 { return float64(o.host.gcCycles) })
	v["goruntime.gc_cpu_share"] = ratio(plain.sum(func(o outcome) float64 { return o.host.gcCPUs }),
		plain.sum(func(o outcome) float64 { return o.host.totalCPUs }))

	var runNS, hookCalls, hookNS float64
	cpu := map[string]int64{}
	var cpuTotal int64
	for _, r := range traced {
		for _, o := range r {
			runNS += o.host.runS * 1e9
			hookCalls += float64(o.host.hookCalls)
			hookNS += float64(o.host.hookNS)
			for l, ns := range o.host.cpuNS {
				cpu[l] += ns
				cpuTotal += ns
			}
		}
	}
	v["core.hook_ns_per_call"] = ratio(hookNS, hookCalls)
	v["core.hook_share"] = ratio(hookNS, runNS)
	v["array.new_s"] = traced.mean(func(o outcome) float64 { return o.host.newS })
	v["array.run_s"] = traced.mean(func(o outcome) float64 { return o.host.runS })
	v["workload.generate_s"] = traced.mean(func(o outcome) float64 { return o.host.generateS })
	for _, l := range cpuLayers {
		v[l+".cpu_share"] = ratio(float64(cpu[l]), float64(cpuTotal))
	}
	v["bench.trace_overhead_frac"] = 1 - traced.reqPerSec()/plain.reqPerSec()
	return v
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func median(runs []outcome, f func(outcome) float64) float64 {
	xs := make([]float64, len(runs))
	for i, o := range runs {
		xs[i] = f(o)
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// writeJSON writes v, indented, to path.
func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
