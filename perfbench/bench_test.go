package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"path/filepath"
	"testing"
	"time"

	"cstf"
	"cstf/internal/serve"
	"cstf/internal/stream"
)

// runSmall runs one workload on shrunken inputs and returns its report.
func runSmall(t *testing.T, name string, traced bool) *report {
	t.Helper()
	c := &config{workload: name, seed: 3, run: 2 * time.Second, traced: traced, out: t.TempDir(), small: true}
	rep, err := execute(c, workloads[name])
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(rep.checks) > 0 {
		t.Fatalf("%s: failed checks: %v", name, rep.checks)
	}
	if rep.attempted == 0 || rep.failed != 0 {
		t.Fatalf("%s: attempted %d, failed %d", name, rep.attempted, rep.failed)
	}
	return rep
}

// TestShrunkenRuns runs every workload untraced and traced on small
// inputs: each completes, passes its checks, and reports every metric of
// its result line.
func TestShrunkenRuns(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			rep := runSmall(t, name, false)
			line, err := rep.resultLine(endToEnd, false)
			if err != nil {
				t.Fatal(err)
			}
			var res struct {
				Correct bool                   `json:"correct"`
				Metrics map[string]metricValue `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(line), &res); err != nil {
				t.Fatalf("result line %q: %v", line, err)
			}
			if !res.Correct || len(res.Metrics) != len(endToEnd) {
				t.Fatalf("result line %q", line)
			}
			for _, d := range endToEnd {
				if res.Metrics[d.name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", d.name, res.Metrics[d.name].Value)
				}
			}

			traced := runSmall(t, name, true)
			if _, err := traced.resultLine(perLayer, true); err != nil {
				t.Fatal(err)
			}
			for _, m := range []string{"solver.iter_ms", "solver.unaccounted_frac", "cpals.mttkrp.coo.m0_ms", "cpals.mttkrp.csf.m0_ms", "trace.overhead_frac"} {
				if _, ok := traced.values[m]; !ok {
					t.Errorf("traced run did not measure %s", m)
				}
			}
		})
	}
}

// TestRunUsage checks the command-line contract: a bad workload is a usage
// error with no result line.
func TestRunUsage(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"}, &out, &errOut); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	if out.Len() != 0 {
		t.Fatalf("printed %q on a usage error", out.String())
	}
}

// TestFitCheckRejectsPerturbedFactor solves a small tensor, then perturbs
// one factor entry of a row the tensor uses: the recomputed fit no longer
// matches the reported one.
func TestFitCheckRejectsPerturbedFactor(t *testing.T) {
	x := nell1Tensor(5, true)
	d, err := cstf.Decompose(publicTensor(x), cstf.Options{Algorithm: cstf.Serial, Rank: 4, MaxIters: 3, NoConvergenceCheck: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	factors := denseFactors(d)
	if err := checkFit(x, d.Lambda, factors, d.Fit(), fitRecomputeTol); err != nil {
		t.Fatalf("unperturbed model rejected: %v", err)
	}
	factors[1].Data[int(x.Entries[0].Idx[1])*4] += 0.01
	if err := checkFit(x, d.Lambda, factors, d.Fit(), fitRecomputeTol); err == nil {
		t.Fatal("perturbed factor accepted")
	}
	if err := relClose(d.Fit(), d.Fit()*(1+1e-8), 1e-9); err == nil {
		t.Fatal("fits 1e-8 apart accepted at 1e-9")
	}
	if err := sameBits(d.Fit(), math.Nextafter(d.Fit(), 1)); err == nil {
		t.Fatal("fits one ulp apart accepted as bitwise equal")
	}
}

// smallFleet trains a small recsys-live model, publishes it and serves it
// through the sharded fleet; the fleet closes when the test ends.
func smallFleet(t *testing.T, seed uint64) (recsysSize, *recsysInputs, *live) {
	t.Helper()
	sz := recsysSizing(true)
	in, err := makeRecsysInputs(seed, sz)
	if err != nil {
		t.Fatal(err)
	}
	d, err := cstf.Decompose(in.public, cstf.Options{Algorithm: cstf.NCP, Rank: sz.groups, MaxIters: 3, NoConvergenceCheck: true, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	u, err := stream.NewUpdater(in.base, d.Lambda, denseFactors(d), seed, writerParallelism)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.ckpt")
	if _, err := stream.NewPublisher(path, seed).Publish(u, d.Fit()); err != nil {
		t.Fatal(err)
	}
	lv, err := startLive(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lv.Close)
	return sz, in, lv
}

// TestTopKCheckRejectsWrongRow serves a small model through the sharded
// fleet, checks the router's answer against a single-node scan, then swaps
// one row of the answer.
func TestTopKCheckRejectsWrongRow(t *testing.T) {
	sz, in, lv := smallFleet(t, 7)
	single, err := serve.LoadCheckpoint(lv.path)
	if err != nil {
		t.Fatal(err)
	}
	user := 1
	got, err := lv.rt.TopKExclude(context.Background(), 1, 0, user, topK, in.seen[user])
	if err != nil {
		t.Fatal(err)
	}
	want, err := single.TopKGivenRangeExclude(1, 0, user, topK, 0, single.Dims[1], in.seen[user])
	if err != nil {
		t.Fatal(err)
	}
	if err := sameScored(got, want); err != nil {
		t.Fatalf("sharded answer differs from single node: %v", err)
	}
	bad := append([]serve.Scored(nil), got...)
	bad[3].Index = (bad[3].Index + 1) % sz.items
	if err := sameScored(bad, want); err == nil {
		t.Fatal("wrong TopK row accepted")
	}
	if err := sameScored(got[:len(got)-1], want); err == nil {
		t.Fatal("short TopK answer accepted")
	}
}

// TestDropCheckRejectsDroppedQuery runs a short open-loop read phase and
// then drops one answered read.
func TestDropCheckRejectsDroppedQuery(t *testing.T) {
	sz, in, lv := smallFleet(t, 9)
	rs := readPhase(context.Background(), 9, sz, in, lv.rt, 500*time.Millisecond)
	if err := checkNoDrops(rs.scheduled, rs.ok); err != nil {
		t.Fatalf("read phase dropped queries: %v", err)
	}
	if err := checkNoDrops(rs.scheduled, rs.ok-1); err == nil {
		t.Fatal("dropped query accepted")
	}
	if err := checkBeatsPopularity(0.01, 0.01); err == nil {
		t.Fatal("a model tying popularity accepted")
	}
}

// TestQuantile pins the percentile convention.
func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if got := median(xs); got != 3 {
		t.Fatalf("median %v", got)
	}
	if got := quantile(xs, 0.9); math.Abs(got-4.6) > 1e-12 {
		t.Fatalf("p90 %v", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Fatalf("empty quantile %v", got)
	}
}

// TestSolveEstimates checks that a stall in one solve's iteration stays out
// of the per-iteration estimates, and that iterations of different cost
// keep their own cost.
func TestSolveEstimates(t *testing.T) {
	ms := time.Millisecond
	run := func(iters ...time.Duration) solveRun {
		r := solveRun{iters: iters, dur: 5 * ms}
		for _, it := range iters {
			r.dur += it
		}
		return r
	}
	runs := []solveRun{
		run(30*ms, 10*ms, 20*ms),
		run(30*ms, 90*ms, 20*ms), // a stall in the second iteration
		run(30*ms, 10*ms, 20*ms),
	}
	at := reportTimes(runs)
	want := []float64{30, 40, 60}
	for i := range want {
		if math.Abs(at[i]-want[i]) > 1e-9 {
			t.Fatalf("report times %v, want %v", at, want)
		}
	}
	if got := solveSeconds(runs); math.Abs(got-0.065) > 1e-12 {
		t.Fatalf("solve estimate %v s, want 0.065", got)
	}
}
