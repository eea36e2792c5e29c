package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd is the metric set of an untraced run (--trace 0), in print
// order. Every workload reports every one of them; README.md says what
// each means on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"train_s", "s"},
	{"train_fit", "1"},
	{"peak_heap_mb", "MB"},
	{"ok_frac", "1"},
	{"query_p50_ms", "ms"},
	{"query_qps", "1/s"},
	{"lag_p50_ms", "ms"},
	{"lag_p90_ms", "ms"},
}

// perLayer is the metric set of a traced run (--trace 1). A layer that a
// workload does not exercise reports 0 (for example dist.* on als-serial).
var perLayer = []metricDef{
	{"solver.iter_ms", "ms"},
	{"solver.iters", "count"},
	{"solver.unaccounted_frac", "1"},
	{"tensor.generate_ms", "ms"},
	{"tensor.bytes_per_nnz", "B"},
	{"tensor.csf_build_ms", "ms"},
	{"cpals.mttkrp.coo.m0_ms", "ms"},
	{"cpals.mttkrp.coo.m1_ms", "ms"},
	{"cpals.mttkrp.coo.m2_ms", "ms"},
	{"cpals.mttkrp.coo.m3_ms", "ms"},
	{"cpals.mttkrp.csf.m0_ms", "ms"},
	{"cpals.mttkrp.csf.m1_ms", "ms"},
	{"cpals.mttkrp.csf.m2_ms", "ms"},
	{"cpals.mttkrp.csf.m3_ms", "ms"},
	{"cpals.mttkrp.coo_gflops", "GFLOP/s"},
	{"cpals.mttkrp.csf_gflops", "GFLOP/s"},
	{"cpals.mttkrp.coo_gbps_computed", "GB/s"},
	{"cpals.fit_ms", "ms"},
	{"la.gram_ms", "ms"},
	{"la.pinv_ms", "ms"},
	{"la.row_solve_ms", "ms"},
	{"la.normalize_ms", "ms"},
	{"dist.wire_sent_mb", "MB"},
	{"dist.wire_recv_mb", "MB"},
	{"dist.shard_mb", "MB"},
	{"dist.factor_mb", "MB"},
	{"dist.delta_frames", "count"},
	{"dist.encode_shard_ms", "ms"},
	{"dist.decode_shard_ms", "ms"},
	{"dist.encode_delta_ms", "ms"},
	{"dist.decode_delta_ms", "ms"},
	{"dist.vs_serial_ratio", "1"},
	{"dist.worker_deaths", "count"},
	{"dist.reassignments", "count"},
	{"ntf.saturated_frac", "1"},
	{"rank.hr_at_10", "1"},
	{"rank.pop_hr_at_10", "1"},
	{"stream.queue_wait_ms", "ms"},
	{"stream.apply_delta_ms", "ms"},
	{"stream.publish_ms", "ms"},
	{"stream.touched_rows", "count"},
	{"stream.full_sweep_ms", "ms"},
	{"stream.events_dropped", "count"},
	{"ckpt.mb", "MB"},
	{"ckpt.read_ms", "ms"},
	{"serve.scan_ms", "ms"},
	{"serve.scan_gflops", "GFLOP/s"},
	{"serve.server_ms", "ms"},
	{"serve.http_ms", "ms"},
	{"serve.cache_hit_rate", "1"},
	{"serve.mean_batch", "count"},
	{"serve.shed", "count"},
	{"fleet.route_ms", "ms"},
	{"fleet.merge_ms", "ms"},
	{"fleet.rolling_reload_ms", "ms"},
	{"fleet.retries", "count"},
	{"fleet.errors", "count"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"loadgen.query_p95_ms", "ms"},
	{"loadgen.query_p99_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"trace.overhead_frac", "1"},
}

// report collects one run's outcome: metric values, operation counts and
// failed checks.
type report struct {
	mu        sync.Mutex
	values    map[string]float64
	attempted int
	failed    int
	checks    []string // failed correctness checks
	notes     []string // human-readable context printed before the result
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) set(name string, v float64) {
	r.mu.Lock()
	r.values[name] = v
	r.mu.Unlock()
}

// ops records attempted and failed operations (solves, reads, windows).
func (r *report) ops(attempted, failed int) {
	r.mu.Lock()
	r.attempted += attempted
	r.failed += failed
	r.mu.Unlock()
}

// check records err as a failed correctness check; nil passes.
func (r *report) check(what string, err error) {
	if err == nil {
		return
	}
	r.mu.Lock()
	r.checks = append(r.checks, fmt.Sprintf("%s: %v", what, err))
	r.mu.Unlock()
}

func (r *report) notef(format string, args ...any) {
	r.mu.Lock()
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine renders the final JSON line over defs, in order. A metric the
// run never set is reported as 0 when missingOK (a layer the workload does
// not exercise); otherwise it is an error.
func (r *report) resultLine(defs []metricDef, missingOK bool) (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, `{"correct": %t, "attempted": %d, "failed": %d, "metrics": {`, len(r.checks) == 0, r.attempted, r.failed)
	for i, d := range defs {
		v, ok := r.values[d.name]
		if !ok && !missingOK {
			return "", fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s is %v", d.name, v)
		}
		enc, err := json.Marshal(metricValue{Value: v, Unit: d.unit})
		if err != nil {
			return "", err
		}
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%q: %s", d.name, enc)
	}
	b.WriteString("}}")
	return b.String(), nil
}

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between order statistics; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// heapSampler tracks the high-water mark of the live heap, read from
// runtime/metrics every millisecond by one goroutine. The live heap is
// what each garbage collection found reachable. Heap objects counted
// between collections would include garbage not yet swept, and their peak
// would move with where in the run the collector happened to start.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

const heapLive = "/gc/heap/live:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: heapLive}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak in MB.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / 1e6
}

// span is one traced interval: a call the benchmark made into a layer.
type span struct {
	name       string
	id, parent int
	start, end time.Duration // since the tracer's origin
}

// tracer keeps spans in memory; they are written once, when the run ends.
// A nil *tracer records nothing, so untraced runs pay one nil check per
// call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (0 for a root) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{name: name, id: id, parent: parent, start: time.Since(t.t0)})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].end = now
	t.mu.Unlock()
}

// add records an already-timed interval [start, end) under parent.
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{name: name, id: id, parent: parent, start: start.Sub(t.t0), end: end.Sub(t.t0)})
	return id
}

// timed runs f inside a span and returns its wall time.
func (t *tracer) timed(name string, parent int, f func()) time.Duration {
	id := t.begin(name, parent)
	start := time.Now()
	f()
	d := time.Since(start)
	t.end(id)
	return d
}

// writeChrome writes the spans as Chrome trace-event JSON (chrome://tracing,
// Perfetto); span ids and parents travel in each event's args.
func (t *tracer) writeChrome(path string, meta map[string]any) error {
	if t == nil {
		return nil
	}
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	t.mu.Lock()
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		events = append(events, event{
			Name: s.name, Ph: "X", Pid: 1, Tid: 1,
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Args: map[string]any{"id": s.id, "parent": s.parent},
		})
	}
	t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"traceEvents": events, "metadata": meta}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// hostRecord describes the machine and inputs a result was measured on.
func hostRecord(workload string, seed uint64) map[string]any {
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
			if s.Key == "vcs.modified" && s.Value == "true" {
				rev += "+dirty"
			}
		}
	}
	return map[string]any{
		"workload":   workload,
		"seed":       seed,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"commit":     rev,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
