package dist

import (
	"sync"
	"testing"

	"cstf/internal/chaos"
	"cstf/internal/cpals"
	"cstf/internal/la"
	"cstf/internal/tensor"
)

// sparseTensor is large-dimensioned relative to its nonzero count, so each
// worker's touched-row sets are a small fraction of every mode and delta
// broadcasts genuinely engage (on plantedTensor's tiny dims every worker
// touches every row and the size heuristic falls back to full sends).
func sparseTensor() *tensor.COO {
	return tensor.GenLowRank(11, 2000, 4, 0.01, 3000, 2500, 2000)
}

func sparseOpts() cpals.Options {
	return cpals.Options{Rank: 4, MaxIters: 4, Seed: 9, Parallelism: 2}
}

// TestDeltaBroadcastBitwise runs 4 workers with delta factor broadcasts.
// The run must be bitwise identical to the serial solver, must actually
// send delta frames, and must ship strictly less factor traffic than full
// broadcasts of every updated factor to every worker would.
func TestDeltaBroadcastBitwise(t *testing.T) {
	x := sparseTensor()
	opts := sparseOpts()
	want, err := cpals.Solve(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	c, err := StartInProcess(workers)
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := Solve(x, opts, c.Config())
	c.Close()
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "delta broadcasts", want, got)
	if stats.DeltaFrames == 0 {
		t.Fatalf("no delta frames sent: %+v", stats)
	}
	if stats.FactorBytes == 0 || stats.ShardBytes == 0 {
		t.Fatalf("traffic breakdown missing: %+v", stats)
	}
	// Full broadcasts: every factor once at start and once per iteration.
	var fullBytes int64
	for m, d := range x.Dims {
		fullBytes += int64(len(EncodeFactor(&Factor{Mode: m, M: la.NewDense(d, opts.Rank)})))
	}
	fullBytes *= int64(workers * (1 + opts.MaxIters))
	if stats.FactorBytes >= fullBytes {
		t.Fatalf("delta broadcasts did not reduce factor traffic: %d >= %d bytes", stats.FactorBytes, fullBytes)
	}
}

// TestCSFKernelBitwiseMatchesSerialCSF checks the distributed CSF path
// against its own serial reference: dist with CSFKernel reproduces
// cpals.Solve with CSFKernel bit for bit at every worker count. (The CSF
// kernel is NOT bitwise against the COO kernel — different association of
// the same sums — which is exactly why it carries its own reference.)
func TestCSFKernelBitwiseMatchesSerialCSF(t *testing.T) {
	x := plantedTensor()
	opts := solveOpts()
	opts.CSFKernel = true
	want, err := cpals.Solve(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 4} {
		c, err := StartInProcess(n)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := Solve(x, opts, c.Config())
		c.Close()
		if err != nil {
			t.Fatalf("%d workers: %v", n, err)
		}
		sameBits(t, "csf workers", want, got)
	}
}

// TestChaosReassignmentResyncsFullFactor kills a worker mid-run with delta
// broadcasts active. The substitute inherits the dead worker's tasks and
// touched-row sets; because its resident factors are stale for the
// inherited rows, the coordinator must resync it with FULL factor frames
// (never a delta against state it was not sent) — and the run still
// matches serial bit for bit.
func TestChaosReassignmentResyncsFullFactor(t *testing.T) {
	x := sparseTensor()
	opts := sparseOpts()
	want, err := cpals.Solve(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	c, err := StartInProcess(3)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cfg := c.Config()
	// Stage 2 is iteration 0's second MTTKRP: by then factor 0 has been
	// updated since the initial broadcast, so the substitute, which now
	// reads the dead worker's rows too, is guaranteed stale.
	cfg.Plan = chaos.NewPlanFromEvents(chaos.Event{Kind: chaos.NodeCrash, Node: 1, Stage: 2})
	got, stats, err := Solve(x, opts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "chaos + deltas", want, got)
	if stats.WorkerDeaths != 1 {
		t.Fatalf("want one dead worker, got %+v", stats)
	}
	if stats.DeltaFrames == 0 {
		t.Fatalf("delta broadcasts never engaged: %+v", stats)
	}
	if stats.Resyncs == 0 {
		t.Fatalf("substitute worker was never resynced with a full factor: %+v", stats)
	}
}

// TestMidFlightKillWithDeltas is the in-flight reassignment path (kill
// AFTER dispatch) under delta broadcasts: tasks already on
// the dead worker's socket are re-dispatched to a substitute that needs a
// resync, and the result still matches serial bit for bit.
func TestMidFlightKillWithDeltas(t *testing.T) {
	x := sparseTensor()
	opts := sparseOpts()
	want, err := cpals.Solve(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	c, err := StartInProcess(3)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cfg := c.Config()
	var once sync.Once
	// Stage 2: iteration 0's mode-1 MTTKRP, dispatched after factor 0's
	// first delta broadcast.
	cfg.AfterDispatch = func(stage uint64) {
		if stage == 2 {
			once.Do(func() { c.Kills[2]() })
		}
	}
	got, stats, err := Solve(x, opts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "mid-flight kill + deltas", want, got)
	if stats.WorkerDeaths != 1 || stats.Reassignments == 0 {
		t.Fatalf("want one death with reassignments, got %+v", stats)
	}
}
