// Command perfbench is the repository benchmark. It measures how fast
// the simulator runs one workload and checks that the simulated answer
// is unchanged.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload hot-read-3a --seed 42 --seconds 10 --trace 0
//
// A run simulates several traces generated from the seed, over and
// over until --seconds are spent. Each simulation builds a fresh
// array, replays its trace to completion and checks request
// conservation, FTL/device consistency and that its output digest is
// the same on every run of the trace. With --trace 0 it prints the
// end-to-end metrics of BENCHMARK.json, taking host costs as medians
// over the runs. With
// --trace 1 it spends half the time on the same untraced runs and half
// on runs with a CPU profile, spans around each call into a layer and
// a timing wrapper on the autonomic core, and prints the per-layer
// metrics. The last line of standard output is one JSON result. The
// digest, the provenance of the measurement and every metric are also
// written under --out. NOTES.md explains the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// metric is one reported value: its name in BENCHMARK.json and unit.
type metric struct {
	name, unit string
}

// endToEnd are the metrics --trace 0 reports.
var endToEnd = []metric{
	{"req_per_s", "req/s"},
	{"setup_s", "s"},
	{"heap_mb", "MB"},
	{"sim_lat_mean_us", "sim-us"},
	{"sim_lat_p999_us", "sim-us"},
	{"sim_kiops", "sim-kIOPS"},
}

// perLayer are the metrics --trace 1 reports, grouped by layer.
var perLayer = []metric{
	{"req_failed_frac", "fraction"},
	{"sim_lat_p50_us", "sim-us"},
	{"simx.events_per_req", "events/req"},
	{"simx.ns_per_event", "ns/event"},
	{"simx.event_pool_nodes", "count"},
	{"goruntime.allocs_per_req", "allocs/req"},
	{"goruntime.gc_cycles", "count"},
	{"goruntime.gc_cpu_share", "fraction"},
	{"pcie.packets_per_req", "packets/req"},
	{"pcie.bytes_per_req", "bytes/req"},
	{"pcie.credit_stall_us_per_req", "sim-us/req"},
	{"pcie.rc_stall_us", "sim-us"},
	{"pcie.switch_stall_us", "sim-us"},
	{"pcie.fabric_xfer_us", "sim-us"},
	{"cluster.ep_wait_us", "sim-us/req"},
	{"cluster.link_wait_us", "sim-us/req"},
	{"cluster.link_xfer_us", "sim-us/req"},
	{"cluster.bus_util_max", "fraction"},
	{"cluster.queue_full_frac", "fraction"},
	{"cluster.buffer_hit_frac", "fraction"},
	{"fimm.ops_per_req", "ops/req"},
	{"fimm.channel_busy_us_per_req", "sim-us/req"},
	{"nand.ops_per_req", "ops/req"},
	{"nand.busy_us_per_req", "sim-us/req"},
	{"nand.storage_wait_us", "sim-us"},
	{"nand.texe_us", "sim-us"},
	{"nand.cache_hit_frac", "fraction"},
	{"nand.multiplane_frac", "fraction"},
	{"nand.max_erase_wear", "count"},
	{"ftl.write_amp", "ratio"},
	{"ftl.gc_erases_per_kreq", "erases/kreq"},
	{"ftl.migration_writes_per_kreq", "writes/kreq"},
	{"core.hook_ns_per_call", "ns/call"},
	{"core.hook_share", "fraction"},
	{"core.migrations_per_kreq", "moves/kreq"},
	{"core.reshapes_per_kreq", "moves/kreq"},
	{"core.write_redirects_per_kreq", "writes/kreq"},
	{"core.migration_errors", "count"},
	{"core.shadow_clone_frac", "fraction"},
	{"core.cold_miss_frac", "fraction"},
	{"array.gc_rounds", "count"},
	{"array.gc_deferrals", "count"},
	{"array.read_retries", "count"},
	{"array.new_s", "s"},
	{"array.run_s", "s"},
	{"fault.injected", "count"},
	{"fault.requests_failed", "count"},
	{"fault.reads_remapped", "count"},
	{"fault.writes_redirected", "count"},
	{"fault.flushes_dropped", "count"},
	{"fault.evacuated", "count"},
	{"metrics.footprint_bytes", "bytes"},
	{"workload.generate_s", "s"},
	{"simx.cpu_share", "fraction"},
	{"pcie.cpu_share", "fraction"},
	{"cluster.cpu_share", "fraction"},
	{"fimm.cpu_share", "fraction"},
	{"nand.cpu_share", "fraction"},
	{"ftl.cpu_share", "fraction"},
	{"core.cpu_share", "fraction"},
	{"array.cpu_share", "fraction"},
	{"fault.cpu_share", "fraction"},
	{"metrics.cpu_share", "fraction"},
	{"goruntime.cpu_share", "fraction"},
	{"bench.cpu_share", "fraction"},
	{"bench.trace_overhead_frac", "fraction"},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one benchmark invocation.
type config struct {
	workload spec
	seed     uint64
	seconds  float64
	trace    bool
	out      string
	runOpts  // applied to every run (tests shorten traces or wrap hooks)
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: hot-read-3a, gc-write-base or mixed-faulted-3a")
	seed := fs.Uint64("seed", 42, "workload generation seed")
	seconds := fs.Float64("seconds", 10, "how long to measure, in seconds")
	tr := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from profiled, traced runs")
	out := fs.String("out", ".bench_out", "directory for the result, span and profile files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	s, err := specByName(*name)
	if err != nil || (*tr != 0 && *tr != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: bad arguments: workload %q, trace %d, seconds %v\n", *name, *tr, *seconds)
		return 2
	}
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}
	cfg := config{workload: s, seed: *seed, seconds: *seconds, trace: *tr == 1, out: *out}
	res, err := bench(cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// provenance records where and from what a result was measured.
type provenance struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func provenanceOf(cfg config) provenance {
	return provenance{
		Workload:   cfg.workload.name,
		Seed:       cfg.seed,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from, with
// "+modified" for a dirty tree, or "unknown" outside a repository.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+modified"
	}
	return rev
}
