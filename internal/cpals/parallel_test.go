package cpals

import (
	"context"
	"math"
	"testing"

	"cstf/internal/la"
	"cstf/internal/tensor"
)

func parallelTestTensor(order int) *tensor.COO {
	dims := []int{40, 30, 20, 10}[:order]
	x := tensor.GenZipf(7, 3000, 0.6, dims...)
	x.DedupSum()
	return x
}

// The fused entry kernel performs each output element's operations in the
// reference order, so over a row range's entries in mode-index order it
// reproduces those rows of the reference MTTKRP bit for bit, at every
// order (fused for 3rd and 4th, the scratch-vector path otherwise).
func TestMTTKRPEntriesBitwiseMatchesReference(t *testing.T) {
	for _, order := range []int{2, 3, 4, 5} {
		dims := []int{40, 30, 20, 10, 6}[:order]
		x := tensor.GenZipf(9, 3000, 0.6, dims...)
		x.DedupSum()
		factors := make([]*la.Dense, order)
		for n := range factors {
			factors[n] = InitFactor(5, n, x.Dims[n], 7)
		}
		for mode := 0; mode < order; mode++ {
			want := MTTKRP(x, mode, factors)
			mi := x.ModeIndex(mode)
			for _, rg := range mi.Ranges(3) {
				entries := make([]tensor.Entry, 0, rg.Hi-rg.Lo)
				for p := rg.Lo; p < rg.Hi; p++ {
					entries = append(entries, x.Entries[mi.Perm[p]])
				}
				got := la.NewDense(rg.RowHi-rg.RowLo, 7)
				MTTKRPEntries(got, rg.RowLo, entries, mode, factors)
				for i := 0; i < got.Rows; i++ {
					for r, v := range got.Row(i) {
						if w := want.At(rg.RowLo+i, r); math.Float64bits(v) != math.Float64bits(w) {
							t.Fatalf("order %d mode %d row %d col %d: %v != %v", order, mode, rg.RowLo+i, r, v, w)
						}
					}
				}
			}
		}
	}
}

// The partitioned kernel must match the entry-order reference bitwise —
// stability of the mode index makes every output row's accumulation order
// identical — for every worker count.
func TestMTTKRPWorkersBitwiseMatchesReference(t *testing.T) {
	for _, order := range []int{3, 4} {
		x := parallelTestTensor(order)
		rank := 5
		factors := make([]*la.Dense, order)
		for n := range factors {
			factors[n] = InitFactor(3, n, x.Dims[n], rank)
		}
		for mode := 0; mode < order; mode++ {
			want := MTTKRP(x, mode, factors)
			for _, workers := range []int{1, 2, 8} {
				got := MTTKRPWorkers(x, mode, factors, workers, nil, nil)
				if d := la.MaxAbsDiff(got, want); d != 0 {
					t.Fatalf("order %d mode %d workers %d: differs bitwise by %g", order, mode, workers, d)
				}
			}
		}
	}
}

// Workspace reuse across modes and repeated calls must not leak state.
func TestMTTKRPWorkersWorkspaceReuse(t *testing.T) {
	x := parallelTestTensor(3)
	rank := 4
	factors := make([]*la.Dense, 3)
	for n := range factors {
		factors[n] = InitFactor(9, n, x.Dims[n], rank)
	}
	ws := &Workspace{}
	for pass := 0; pass < 3; pass++ {
		for mode := 0; mode < 3; mode++ {
			got := MTTKRPWorkers(x, mode, factors, 4, ws.Out(mode, x.Dims[mode], rank, 4), ws)
			want := MTTKRP(x, mode, factors)
			if d := la.MaxAbsDiff(got, want); d != 0 {
				t.Fatalf("pass %d mode %d: workspace reuse changed result by %g", pass, mode, d)
			}
		}
	}
}

// The parallel CSF kernel must match the serial CSF walk bitwise.
func TestMTTKRPCSFWorkersBitwise(t *testing.T) {
	for _, order := range []int{3, 4} {
		x := parallelTestTensor(order)
		rank := 5
		factors := make([]*la.Dense, order)
		for n := range factors {
			factors[n] = InitFactor(5, n, x.Dims[n], rank)
		}
		for mode, csf := range BuildCSFs(x) {
			want := MTTKRPCSF(csf, factors)
			for _, workers := range []int{1, 2, 8} {
				got := MTTKRPCSFWorkers(csf, factors, workers)
				if d := la.MaxAbsDiff(got, want); d != 0 {
					t.Fatalf("order %d mode %d workers %d: CSF parallel differs by %g", order, mode, workers, d)
				}
			}
		}
	}
}

// Full CP-ALS must be bitwise deterministic in the worker count: same
// lambda, same factors, same fit trajectory for Parallelism 1, 2, 8.
func TestSolveBitwiseAcrossParallelism(t *testing.T) {
	x := parallelTestTensor(3)
	base, err := Solve(x, Options{Rank: 4, MaxIters: 6, Seed: 11, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		got, err := Solve(x, Options{Rank: 4, MaxIters: 6, Seed: 11, Parallelism: workers})
		if err != nil {
			t.Fatal(err)
		}
		if got.Iters != base.Iters {
			t.Fatalf("workers %d: iters %d vs %d", workers, got.Iters, base.Iters)
		}
		if d := la.VecMaxAbsDiff(got.Lambda, base.Lambda); d != 0 {
			t.Fatalf("workers %d: lambda differs bitwise by %g", workers, d)
		}
		for n := range base.Factors {
			if d := la.MaxAbsDiff(got.Factors[n], base.Factors[n]); d != 0 {
				t.Fatalf("workers %d: factor %d differs bitwise by %g", workers, n, d)
			}
		}
		for i := range base.Fits {
			if got.Fits[i] != base.Fits[i] {
				t.Fatalf("workers %d: fit[%d] %v vs %v", workers, i, got.Fits[i], base.Fits[i])
			}
		}
	}
}

func TestFitFromWorkersMatchesAcrossWorkers(t *testing.T) {
	x := parallelTestTensor(3)
	rank := 3
	factors := make([]*la.Dense, 3)
	grams := make([]*la.Dense, 3)
	for n := range factors {
		factors[n] = InitFactor(2, n, x.Dims[n], rank)
		grams[n] = factors[n].Gram()
	}
	lambda := []float64{1.5, 0.5, 2}
	m := MTTKRP(x, 2, factors)
	want := FitFromWorkers(x.Norm(), m, factors[2], lambda, grams, 1)
	for _, workers := range []int{2, 8} {
		if got := FitFromWorkers(x.Norm(), m, factors[2], lambda, grams, workers); got != want {
			t.Fatalf("workers %d: fit %v != %v", workers, got, want)
		}
	}
}

func TestSolveContextCancellation(t *testing.T) {
	x := parallelTestTensor(3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Solve(x, Options{Rank: 3, MaxIters: 10, Seed: 1, Ctx: ctx})
	if err != context.Canceled {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestSolveOnIterationStops(t *testing.T) {
	x := parallelTestTensor(3)
	var calls []int
	res, err := Solve(x, Options{
		Rank: 3, MaxIters: 10, Seed: 1,
		OnIteration: func(iter int, fit float64) bool {
			calls = append(calls, iter)
			return iter >= 2
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters != 3 {
		t.Fatalf("stop after iteration 2 should leave Iters=3, got %d", res.Iters)
	}
	if len(calls) != 3 || calls[2] != 2 {
		t.Fatalf("callback iterations %v", calls)
	}
	if len(res.Fits) != 3 {
		t.Fatalf("fits %v", res.Fits)
	}
}
