// Command perfbench is the repository's benchmark: one command that runs a
// named workload through the public cstf API and the serving and stream
// entry points, checks every output, and prints the workload's metrics.
//
//	bash perfbench/run.sh --workload als-serial --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result line carries the end-to-end metrics; with
// --trace 1 the run records spans around its calls into each layer, adds
// the per-layer probes, writes the spans as a Chrome trace under -out, and
// the result line carries the per-layer metrics. README.md describes the
// workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is one run's parameters.
type config struct {
	workload string
	seed     uint64
	run      time.Duration // measured phase
	traced   bool
	out      string // build and scratch directory
	work     string // this run's scratch directory (checkpoints)
	small    bool   // shrunken inputs, for the package's tests
}

var workloads = map[string]func(*config, *report, *tracer) error{
	"als-serial":  func(c *config, r *report, t *tracer) error { return runALS(c, r, t, alsSerial) },
	"als-dist":    func(c *config, r *report, t *tracer) error { return runALS(c, r, t, alsDist) },
	"recsys-live": runRecsys,
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one benchmark run and returns the exit code: 0 when every
// check passed, 1 when a check failed (the result line then says
// "correct": false), 2 on a usage or set-up error (no result line).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 20, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	out := fs.String("out", ".bench_build", "directory for traces and scratch files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	c := &config{workload: *name, seed: *seed, run: time.Duration(*seconds) * time.Second, traced: *trace == 1, out: *out}
	rep, err := execute(c, fn)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", c.workload, err)
		return 2
	}
	return emit(c, rep, stdout, stderr)
}

// execute runs one workload in a fresh scratch directory and collects its
// report, including the run-wide runtime and heap figures.
func execute(c *config, fn func(*config, *report, *tracer) error) (*report, error) {
	if err := os.MkdirAll(c.out, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(c.out, "run-"+c.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	c.work = work

	rep := newReport()
	var tr *tracer
	if c.traced {
		tr = newTracer()
	}
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	heap := startHeapSampler()
	err = fn(c, rep, tr)
	rep.set("peak_heap_mb", heap.Stop())
	if err != nil {
		return nil, err
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	rep.set("runtime.alloc_mb", float64(after.TotalAlloc-before.TotalAlloc)/1e6)
	rep.set("runtime.gc_cycles", float64(after.NumGC-before.NumGC))
	rep.set("runtime.gc_pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
	rep.set("ok_frac", float64(rep.attempted-rep.failed)/float64(max(rep.attempted, 1)))

	if tr != nil {
		dir := filepath.Join(c.out, "traces")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", c.workload, c.seed))
		if err := tr.writeChrome(path, hostRecord(c.workload, c.seed)); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
		rep.notef("trace: %s (%d spans)", path, len(tr.spans))
	}
	return rep, nil
}

// emit prints the notes, the host record, a table of every metric the run
// measured, and last the result line.
func emit(c *config, rep *report, stdout, stderr io.Writer) int {
	defs, missingOK := endToEnd, false
	if c.traced {
		defs, missingOK = perLayer, true
	}
	line, err := rep.resultLine(defs, missingOK)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", c.workload, err)
		return 2
	}
	host, _ := json.Marshal(hostRecord(c.workload, c.seed))
	fmt.Fprintf(stdout, "host: %s\n", host)
	for _, n := range rep.notes {
		fmt.Fprintf(stdout, "%s\n", n)
	}
	for _, d := range defs {
		if v, ok := rep.values[d.name]; ok {
			fmt.Fprintf(stdout, "%-34s %14.6g %s\n", d.name, v, d.unit)
		}
	}
	for _, ch := range rep.checks {
		fmt.Fprintf(stdout, "CHECK FAILED %s\n", ch)
	}
	fmt.Fprintln(stdout, line)
	if len(rep.checks) > 0 {
		return 1
	}
	return 0
}
