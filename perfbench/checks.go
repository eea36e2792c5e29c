package main

import (
	"fmt"
	"math"

	"cstf/internal/la"
	"cstf/internal/serve"
	"cstf/internal/tensor"
)

// Correctness checks. Each returns nil when the output is right; the
// package tests feed each one a deliberately corrupted result.

// fitRecomputeTol bounds the relative difference between a solver's
// reported fit and the benchmark's own recomputation from the factors. The
// two evaluate the same identity in different summation orders.
const fitRecomputeTol = 1e-8

// checkFit recomputes the fit 1 - ||X - X̂|| / ||X|| of the CP model
// [lambda; factors] over x, independently of the solver's fit code, and
// compares it with the reported fit.
func checkFit(x *tensor.COO, lambda []float64, factors []*la.Dense, reported, tol float64) error {
	rank := len(lambda)
	normX := x.Norm()
	var inner float64
	tmp := make([]float64, rank)
	for i := range x.Entries {
		e := &x.Entries[i]
		copy(tmp, lambda)
		for n, f := range factors {
			row := f.Row(int(e.Idx[n]))
			for r := range tmp {
				tmp[r] *= row[r]
			}
		}
		var s float64
		for _, v := range tmp {
			s += v
		}
		inner += s * e.Val
	}
	h := make([]float64, rank*rank)
	for i := range h {
		h[i] = 1
	}
	for _, f := range factors {
		g := f.Gram()
		for i := range h {
			h[i] *= g.Data[i]
		}
	}
	var modelSq float64
	for a := 0; a < rank; a++ {
		for b := 0; b < rank; b++ {
			modelSq += lambda[a] * h[a*rank+b] * lambda[b]
		}
	}
	residSq := math.Max(normX*normX+modelSq-2*inner, 0)
	fit := 1 - math.Sqrt(residSq)/normX
	if err := relClose(reported, fit, tol); err != nil {
		return fmt.Errorf("reported fit vs recomputed: %w", err)
	}
	return nil
}

// relClose reports whether got agrees with want to a relative tolerance.
func relClose(got, want, tol float64) error {
	if d := math.Abs(got - want); d > tol*math.Abs(want) || math.IsNaN(got) {
		return fmt.Errorf("%.17g vs %.17g (relative difference %.3g > %.3g)", got, want, d/math.Abs(want), tol)
	}
	return nil
}

// sameBits reports whether two floats are bitwise equal.
func sameBits(a, b float64) error {
	if math.Float64bits(a) != math.Float64bits(b) {
		return fmt.Errorf("%.17g != %.17g", a, b)
	}
	return nil
}

// sameScored checks that a ranked answer equals the reference bitwise:
// same rows in the same order with the same score bits.
func sameScored(got, want []serve.Scored) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d results, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Index != want[i].Index || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			return fmt.Errorf("result %d is row %d score %v, want row %d score %v",
				i, got[i].Index, got[i].Score, want[i].Index, want[i].Score)
		}
	}
	return nil
}

// checkNoDrops checks that every scheduled query was sent and answered.
func checkNoDrops(scheduled, answered int) error {
	if answered != scheduled {
		return fmt.Errorf("%d of %d scheduled queries answered", answered, scheduled)
	}
	return nil
}

// checkBeatsPopularity checks that the served model ranks better than the
// popularity baseline.
func checkBeatsPopularity(hr, pop float64) error {
	if !(hr > pop) {
		return fmt.Errorf("HR@10 %.4f does not beat popularity %.4f", hr, pop)
	}
	return nil
}
