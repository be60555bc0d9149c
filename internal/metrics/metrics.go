// Package metrics collects and summarises per-request measurements:
// latency distributions (CDFs, percentiles, long tails), IOPS, and the
// execution-time breakdown the paper reports in Figure 15 (RC stall,
// switch stall, endpoint stall, link-contention time, storage-contention
// time, cell time, transfer times).
package metrics

import (
	"fmt"
	"math"
	"sort"
	"unsafe"

	"triplea/internal/simx"
	"triplea/internal/units"
)

// Breakdown decomposes one request's life, or sums many requests'.
//
// LinkCause and StorageCause re-attribute the upstream queueing
// (RCStall + SwitchStall) to its root cause, the way the paper
// classifies stalled requests: a request backed up behind a saturated
// shared bus counts toward link contention, one backed up behind a busy
// FIMM toward storage contention. They are views onto RCStall +
// SwitchStall, so Total excludes them.
type Breakdown struct {
	RCStall     simx.Time // waiting for root-complex queue admission / port
	SwitchStall simx.Time // held in switch ingress for a busy egress
	EPWait      simx.Time // endpoint queue / write-buffer admission
	StorageWait simx.Time // die queueing inside the FIMM (storage contention)
	LinkWait    simx.Time // FIMM channel + cluster shared bus queueing (link contention)
	Texe        simx.Time // flash cell time
	LinkXfer    simx.Time // FIMM channel + shared bus data movement
	FabricXfer  simx.Time // PCI-E wire serialisation, propagation, routing

	LinkCause    simx.Time // upstream stall attributed to link contention
	StorageCause simx.Time // upstream stall attributed to storage contention
}

// Add accumulates b into the receiver.
func (b *Breakdown) Add(o Breakdown) {
	b.RCStall += o.RCStall
	b.SwitchStall += o.SwitchStall
	b.EPWait += o.EPWait
	b.StorageWait += o.StorageWait
	b.LinkWait += o.LinkWait
	b.Texe += o.Texe
	b.LinkXfer += o.LinkXfer
	b.FabricXfer += o.FabricXfer
	b.LinkCause += o.LinkCause
	b.StorageCause += o.StorageCause
}

// AttributeShare splits the upstream queueing (RCStall + SwitchStall)
// into LinkCause and StorageCause with an externally supplied link
// share in [0,1] — the array derives it from the target cluster's
// shared-bus saturation and the request's own device-side waits.
func (b *Breakdown) AttributeShare(linkShare float64) {
	upstream := b.RCStall + b.SwitchStall
	if upstream <= 0 || b.LinkWait+b.EPWait+b.StorageWait <= 0 {
		b.LinkCause, b.StorageCause = 0, 0
		return
	}
	if linkShare < 0 {
		linkShare = 0
	}
	if linkShare > 1 {
		linkShare = 1
	}
	b.LinkCause = simx.Time(float64(upstream) * linkShare)
	b.StorageCause = upstream - b.LinkCause
}

// Attribute splits the upstream queueing proportionally to the
// device-side waits that caused the backlog.
func (b *Breakdown) Attribute() {
	device := b.LinkWait + b.EPWait + b.StorageWait
	if device <= 0 {
		b.LinkCause, b.StorageCause = 0, 0
		return
	}
	b.AttributeShare(float64(b.LinkWait) / float64(device))
}

// Total reports the sum of all components.
func (b Breakdown) Total() simx.Time {
	return b.RCStall + b.SwitchStall + b.EPWait + b.StorageWait +
		b.LinkWait + b.Texe + b.LinkXfer + b.FabricXfer
}

// QueueStall reports the time spent stalled in queues (the paper's
// queue stall metric): everything except execution and data movement.
func (b Breakdown) QueueStall() simx.Time {
	return b.RCStall + b.SwitchStall + b.EPWait + b.StorageWait + b.LinkWait
}

// LinkContention reports the link-contention component: direct bus
// queueing plus the upstream backlog it caused.
func (b Breakdown) LinkContention() simx.Time { return b.LinkWait + b.LinkCause }

// StorageContention reports the storage-contention component: queueing
// for the device itself, at the endpoint and on the dies, plus the
// upstream backlog it caused.
func (b Breakdown) StorageContention() simx.Time {
	return b.EPWait + b.StorageWait + b.StorageCause
}

// Scale divides every component by n (for means).
func (b Breakdown) Scale(n int) Breakdown {
	if n <= 0 {
		return Breakdown{}
	}
	d := simx.Time(n)
	return Breakdown{
		RCStall: b.RCStall / d, SwitchStall: b.SwitchStall / d,
		EPWait: b.EPWait / d, StorageWait: b.StorageWait / d,
		LinkWait: b.LinkWait / d, Texe: b.Texe / d,
		LinkXfer: b.LinkXfer / d, FabricXfer: b.FabricXfer / d,
		LinkCause: b.LinkCause / d, StorageCause: b.StorageCause / d,
	}
}

// RequestKind distinguishes reads from writes in the records.
type RequestKind uint8

const (
	Read RequestKind = iota
	Write
)

func (k RequestKind) String() string {
	switch k {
	case Read:
		return "read"
	case Write:
		return "write"
	}
	return "unknown"
}

// Record is one completed request's measurement.
type Record struct {
	ID       uint64
	Kind     RequestKind
	Pages    units.Pages
	Submit   simx.Time
	Complete simx.Time
	Breakdown
}

// Latency reports the request's end-to-end latency.
func (r Record) Latency() simx.Time { return r.Complete - r.Submit }

// CDFPoint is one point of a cumulative distribution function.
type CDFPoint struct {
	LatencyUS float64 // latency in microseconds
	Fraction  float64 // fraction of requests at or below it
}

// SeriesPoint is one downsampled (submit-time, latency) pair — the
// paper's Figure 16 time-series view. Both backends report series as
// values, so consumers never hold raw records.
type SeriesPoint struct {
	ID      uint64
	Submit  simx.Time
	Latency simx.Time
}

// Backend selects the Recorder's storage strategy.
type Backend uint8

const (
	// Exact keeps every sample: byte-identical to the historical
	// recorder (the seed-42 golden replays pin it) and the reference
	// the streaming accuracy tests compare against. Memory grows
	// linearly with run length. The zero value, so it is the default.
	Exact Backend = iota
	// Streaming keeps O(1) state per metric: log-bucketed latency
	// histogram, incremental windowed sustained-IOPS tracker,
	// range-doubling completion/failure timelines, stride-reservoir
	// series. Percentiles and CDFs carry ≤0.39% bucket error;
	// recorder memory is flat regardless of run length.
	Streaming
)

func (b Backend) String() string {
	switch b {
	case Exact:
		return "exact"
	case Streaming:
		return "streaming"
	}
	return "unknown"
}

// ParseBackend maps the -metrics flag spellings to a Backend.
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "exact", "":
		return Exact, nil
	case "streaming":
		return Streaming, nil
	}
	return Exact, fmt.Errorf("metrics: unknown backend %q (want exact or streaming)", s)
}

// DefaultSustainedWindow is the aligned-window width the streaming
// backend's sustained-IOPS tracker is built with — the same 5ms window
// the paper's sustained-throughput comparison uses
// (experiments.SustainedWindow aliases it).
const DefaultSustainedWindow = 5 * simx.Millisecond

// Recorder accumulates per-request measurements for one run. All
// statistics live in a Registry of named metrics (uniform JSON export);
// the backend decides whether the raw samples are also retained (Exact)
// or folded into fixed-footprint streaming state (Streaming).
type Recorder struct {
	backend Backend
	reg     *Registry

	// Registry-backed accumulators shared by both backends.
	reads, writes *Counter
	failedCtr     *Counter
	dist          *Distribution

	firstSubmit  simx.Time
	lastComplete simx.Time
	latSum       simx.Time
	count        uint64

	// Exact-backend sample buffers.
	records  []Record
	failures []Failure   // fault-terminated requests (failures.go)
	sorted   []simx.Time // cached sorted latencies

	// Streaming-backend fixed-footprint state (nil under Exact).
	stream *streamState
}

// NewRecorder returns an empty exact-backend recorder.
func NewRecorder() *Recorder {
	return NewRecorderWith(Exact, DefaultSustainedWindow)
}

// NewRecorderWith returns an empty recorder on the given backend. The
// window sizes the streaming sustained-IOPS tracker (ignored under
// Exact); zero or negative selects DefaultSustainedWindow.
func NewRecorderWith(b Backend, window simx.Time) *Recorder {
	if window <= 0 {
		window = DefaultSustainedWindow
	}
	reg := NewRegistry()
	rc := &Recorder{backend: b, reg: reg, firstSubmit: -1}
	rc.reads = reg.NewCounter("requests.reads")
	rc.writes = reg.NewCounter("requests.writes")
	rc.failedCtr = reg.NewCounter("requests.failed")
	rc.dist = &Distribution{}
	reg.Register("latency.breakdown", rc.dist)
	if b == Streaming {
		rc.stream = newStreamState(reg, window)
	}
	return rc
}

// Backend reports which backend the recorder runs on.
func (rc *Recorder) Backend() Backend { return rc.backend }

// Registry exposes the recorder's metric registry, e.g. for the array
// to register its fault counters next to the request metrics.
func (rc *Recorder) Registry() *Registry { return rc.reg }

// ExportJSON serialises the full registry deterministically.
func (rc *Recorder) ExportJSON() []byte { return rc.reg.ExportJSON() }

// Record adds one completed request.
func (rc *Recorder) Record(r Record) {
	if r.Complete < r.Submit {
		panic(fmt.Sprintf("metrics: completion %v before submit %v", r.Complete, r.Submit))
	}
	lat := r.Latency()
	rc.dist.Observe(r.Breakdown)
	rc.latSum += lat
	rc.count++
	if r.Kind == Read {
		rc.reads.Inc()
	} else {
		rc.writes.Inc()
	}
	if rc.firstSubmit < 0 || r.Submit < rc.firstSubmit {
		rc.firstSubmit = r.Submit
	}
	if r.Complete > rc.lastComplete {
		rc.lastComplete = r.Complete
	}
	if rc.backend == Streaming {
		rc.stream.observe(r, lat)
		return
	}
	rc.records = append(rc.records, r) //simlint:coldalloc amortized: exact-backend sample buffer growth
	rc.sorted = nil
}

// Count reports completed requests.
func (rc *Recorder) Count() int { return int(rc.count) }

// Reads and Writes report per-kind counts.
func (rc *Recorder) Reads() uint64  { return rc.reads.Value() }
func (rc *Recorder) Writes() uint64 { return rc.writes.Value() }

// Records exposes the raw records (callers must not mutate). The
// streaming backend retains no records and reports nil — consumers that
// need per-request samples must run Exact.
func (rc *Recorder) Records() []Record { return rc.records }

// AvgLatency reports the mean end-to-end latency.
func (rc *Recorder) AvgLatency() simx.Time {
	if rc.count == 0 {
		return 0
	}
	return rc.latSum / simx.Time(rc.count)
}

// IOPS reports completed requests per second of simulated wall time
// between the first submission and the last completion.
func (rc *Recorder) IOPS() float64 {
	if rc.count == 0 {
		return 0
	}
	span := rc.lastComplete - rc.firstSubmit
	if span <= 0 {
		return 0
	}
	return float64(rc.count) / (float64(span) / float64(simx.Second))
}

// SustainedIOPS reports the array's sustained throughput: the highest
// completion rate over any aligned window of the given width. Under a
// bursty offered load a congested array's sustained rate pins at its
// bottleneck capacity while an uncongested one tracks the burst rate —
// the "sustained throughput" the paper's abstract compares. The
// streaming backend answers from its incremental tracker, which is
// built for one window width (DefaultSustainedWindow unless configured
// otherwise) — the rate it reports is for that width.
func (rc *Recorder) SustainedIOPS(window simx.Time) float64 {
	if rc.count == 0 || window <= 0 {
		return 0
	}
	if rc.backend == Streaming {
		return rc.stream.sustainedIOPS(window)
	}
	buckets := make(map[int64]int)
	best := 0
	for _, r := range rc.records {
		b := int64(r.Complete / window)
		buckets[b]++
		if buckets[b] > best {
			best = buckets[b]
		}
	}
	return float64(best) / (float64(window) / float64(simx.Second))
}

// SumBreakdown reports the summed component times.
func (rc *Recorder) SumBreakdown() Breakdown { return rc.dist.Sum() }

// MeanBreakdown reports the per-request mean of each component.
func (rc *Recorder) MeanBreakdown() Breakdown { return rc.dist.Mean() }

func (rc *Recorder) ensureSorted() {
	if rc.sorted != nil {
		return
	}
	rc.sorted = make([]simx.Time, len(rc.records))
	for i, r := range rc.records {
		rc.sorted[i] = r.Latency()
	}
	sort.Slice(rc.sorted, func(i, j int) bool { return rc.sorted[i] < rc.sorted[j] })
}

// nearestRank maps percentile p in [0,100] over n samples to a 1-based
// rank by the nearest-rank rule: ceil(p/100 · n), clamped to [1, n].
// (The historical int(p/100·(n-1)) floored, so P50 of [1..100] landed
// on 50 only by luck of the truncation.)
func nearestRank(p float64, n int) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// Percentile reports the p-th latency percentile, p in [0,100], by the
// nearest-rank rule. Exact backend: precise sample rank. Streaming
// backend: the histogram bucket holding that rank (≤0.39% relative
// error).
func (rc *Recorder) Percentile(p float64) simx.Time {
	if rc.count == 0 {
		return 0
	}
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("metrics: percentile %v out of [0,100]", p))
	}
	if rc.backend == Streaming {
		return rc.stream.lat.Quantile(p)
	}
	rc.ensureSorted()
	return rc.sorted[nearestRank(p, len(rc.sorted))-1]
}

// MaxLatency reports the slowest request (exact on both backends).
func (rc *Recorder) MaxLatency() simx.Time { return rc.Percentile(100) }

// CDF samples the latency CDF at n evenly spaced fractions, suitable
// for plotting against the paper's Figures 1 and 11.
func (rc *Recorder) CDF(n int) []CDFPoint {
	if rc.count == 0 || n <= 0 {
		return nil
	}
	if rc.backend == Streaming {
		pts := make([]CDFPoint, 0, n)
		for i := 1; i <= n; i++ {
			frac := float64(i) / float64(n)
			rank := uint64(frac * float64(rc.count))
			if rank < 1 {
				rank = 1
			}
			pts = append(pts, CDFPoint{
				LatencyUS: rc.stream.lat.ValueAtRank(rank).Micros(),
				Fraction:  frac,
			})
		}
		return pts
	}
	rc.ensureSorted()
	pts := make([]CDFPoint, 0, n)
	for i := 1; i <= n; i++ {
		frac := float64(i) / float64(n)
		idx := int(frac*float64(len(rc.sorted))) - 1
		if idx < 0 {
			idx = 0
		}
		pts = append(pts, CDFPoint{
			LatencyUS: rc.sorted[idx].Micros(),
			Fraction:  frac,
		})
	}
	return pts
}

// downsampleSeries thins ordered to at most n points with the even
// stride both backends share.
func downsampleSeries(ordered []SeriesPoint, n int) []SeriesPoint {
	if len(ordered) <= n {
		return ordered
	}
	out := make([]SeriesPoint, 0, n)
	step := float64(len(ordered)) / float64(n)
	for i := 0; i < n; i++ {
		out = append(out, ordered[int(float64(i)*step)])
	}
	return out
}

// Series reports (submit-time, latency) points downsampled to at most n,
// in (submit, ID) order — the paper's Figure 16 time-series view. The
// streaming backend samples from its stride reservoir, so long runs
// return an evenly spaced subset instead of every record.
func (rc *Recorder) Series(n int) []SeriesPoint {
	if n <= 0 || rc.count == 0 {
		return nil
	}
	if rc.backend == Streaming {
		return rc.stream.series.sample(n)
	}
	ordered := make([]SeriesPoint, len(rc.records))
	for i, r := range rc.records {
		ordered[i] = SeriesPoint{ID: r.ID, Submit: r.Submit, Latency: r.Latency()}
	}
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].Submit != ordered[j].Submit {
			return ordered[i].Submit < ordered[j].Submit
		}
		return ordered[i].ID < ordered[j].ID
	})
	return downsampleSeries(ordered, n)
}

// FootprintBytes estimates the recorder's live metric-state memory: the
// sample and index buffers under Exact, the fixed streaming structures
// under Streaming. It is the steady-state flatness gate's measurement
// (TestStreamingFootprintFlat), not an exact heap accounting.
func (rc *Recorder) FootprintBytes() int {
	const (
		recordSize  = int(unsafe.Sizeof(Record{}))
		failureSize = int(unsafe.Sizeof(Failure{}))
		pointSize   = int(unsafe.Sizeof(SeriesPoint{}))
		timeSize    = int(unsafe.Sizeof(simx.Time(0)))
	)
	n := cap(rc.records)*recordSize + cap(rc.failures)*failureSize + cap(rc.sorted)*timeSize
	if rc.stream != nil {
		st := rc.stream
		n += len(st.lat.counts) * 8
		n += len(st.completed.counts) * 8
		n += len(st.failedAt.counts) * 8
		n += len(st.series.buf) * pointSize
		n += len(st.exemplars.buf) * failureSize
	}
	return n
}
