// Package ntf implements nonnegative CP decomposition (NTF) by column-wise
// coordinate descent over the same MTTKRP/gram kernels as cpals, following
// the saturating-coordinate-descent design: each mode update solves the
// nonnegative least-squares row problems
//
//	min_{u_i >= 0}  0.5 * u_i V u_i^T - u_i . m_i
//
// (V the Hadamard of the other modes' grams, m_i the row's MTTKRP result)
// by cycling the coordinates in fixed order and clipping each exact
// single-coordinate minimizer at the zero bound. Elements pinned at zero
// whose partial gradient points into the constraint are SATURATED: their
// inner-loop updates are skipped until the partial gradient sign flips at
// the next sweep's re-check, which is where implicit-feedback tensors spend
// most of their coordinates (the factors come out mostly sparse).
//
// Determinism contract: for a fixed seed the factors are bitwise identical
// across runs and across Parallelism values. Row problems are independent,
// the coordinate order inside a row is fixed, and every cross-row reduction
// (norms, grams, fits) uses the same fixed-block-order kernels as cpals, so
// no result depends on worker count or timing.
//
// Monotonicity contract: every coordinate update is the exact minimizer of
// a convex quadratic along that coordinate projected onto [0, inf), and a
// skipped (saturated) update leaves the objective unchanged, so the
// reconstruction error is non-increasing — and the reported fit
// non-decreasing — after every completed sweep.
package ntf

import (
	"fmt"

	"cstf/internal/cpals"
	"cstf/internal/la"
	"cstf/internal/tensor"
)

// DefaultInnerIters is the number of coordinate-descent passes each row
// problem runs per mode update when Options.InnerIters is unset. The first
// pass re-checks every coordinate (unlocking saturated elements whose
// gradient sign flipped); later passes skip saturated elements entirely.
const DefaultInnerIters = 3

// State is the solver state beyond (lambda, factors) that a checkpoint
// carries: the per-mode saturation bitmaps (row-major rows x rank, 1 =
// pinned at the zero bound with a non-descending gradient at last check).
// Saturated elements always hold value zero, so the bitmaps restore the
// skip set — and with it the resumed run's exact work profile — without
// affecting the factors themselves.
type State struct {
	InnerIters int      // resolved inner CD pass count
	Saturated  [][]byte // per mode: rows*rank saturation flags
}

// Options configures a nonnegative CP solve. The embedded cpals.Options
// mean what they mean there; Tol compares consecutive fits, which are exact
// and monotone non-decreasing. CSFKernel must be unset: ncp runs the COO
// kernel.
type Options struct {
	cpals.Options

	// InnerIters is the number of coordinate-descent passes per row problem
	// each mode update runs (<= 0 selects DefaultInnerIters). A row whose
	// pass changes nothing stops early.
	InnerIters int

	// InitSaturated, when set alongside InitFactors, bitwise-restores the
	// saturation bitmaps from a checkpoint's State; when nil the first
	// sweep's re-check pass rebuilds them.
	InitSaturated [][]byte
}

// Inner resolves the effective inner CD pass count.
func (o *Options) Inner() int {
	if o.InnerIters <= 0 {
		return DefaultInnerIters
	}
	return o.InnerIters
}

// Validate checks the options against a tensor.
func (o *Options) Validate(t *tensor.COO) error {
	if err := o.Options.Validate(t); err != nil {
		return err
	}
	if o.CSFKernel {
		return fmt.Errorf("ntf: no CSF kernel; CSFKernel must be unset")
	}
	if o.InnerIters < 0 {
		return fmt.Errorf("ntf: InnerIters must be non-negative, got %d", o.InnerIters)
	}
	if o.InitSaturated != nil {
		if o.InitFactors == nil {
			return fmt.Errorf("ntf: InitSaturated requires InitFactors")
		}
		if len(o.InitSaturated) != t.Order() {
			return fmt.Errorf("ntf: %d InitSaturated bitmaps for an order-%d tensor", len(o.InitSaturated), t.Order())
		}
		for n, s := range o.InitSaturated {
			if len(s) != t.Dims[n]*o.Rank {
				return fmt.Errorf("ntf: InitSaturated[%d] length %d != %d", n, len(s), t.Dims[n]*o.Rank)
			}
		}
	}
	return nil
}

// Policy is the saturating coordinate-descent row update for the sweep
// engine. It carries the saturation bitmaps across iterations.
type Policy struct {
	rank, inner, workers int
	sat                  [][]byte
}

// NewPolicy validates o against t and returns the NNLS row-update policy.
func NewPolicy(t *tensor.COO, o Options) (*Policy, error) {
	if err := o.Validate(t); err != nil {
		return nil, err
	}
	p := &Policy{rank: o.Rank, inner: o.Inner(), workers: o.Workers(), sat: make([][]byte, t.Order())}
	for n := range p.sat {
		if o.InitSaturated != nil {
			p.sat[n] = append([]byte(nil), o.InitSaturated[n]...)
		} else {
			p.sat[n] = make([]byte, t.Dims[n]*o.Rank)
		}
	}
	return p, nil
}

// Init projects the initial factors onto the feasible set. The seeded init
// is uniform in [0.1, 1.1) — already nonnegative, so ncp and cpals start
// from the identical point and their rankings are directly comparable. A
// warm start is clipped at zero: a resumed ncp run never reintroduces
// negatives, and a foreign (e.g. cpals-trained) warm start is projected.
func (p *Policy) Init(factors []*la.Dense, _ []float64) {
	for _, f := range factors {
		clipNonneg(f, p.workers)
	}
}

// Begin plans every iteration the same way: an exact fit from the last
// MTTKRP, and a checkpoint may follow.
func (p *Policy) Begin(int, []*la.Dense, []*la.Dense) cpals.Step {
	return cpals.Step{Fit: cpals.FitFromLastMTTKRP, Checkpointable: true}
}

// Update re-absorbs lambda into the mode being solved — with the other
// factors fixed, u = A_n * diag(lambda) reproduces the current model
// exactly, so coordinate descent warm-starts from it and the objective can
// only go down (an empty lambda, the first sweep of a fresh start, is an
// implicit all-ones) — then runs the CD passes and renormalizes.
func (p *Policy) Update(mode int, m, v *la.Dense, factors []*la.Dense, lambda []float64) []float64 {
	u := factors[mode]
	if len(lambda) == p.rank {
		scaleColumns(u, lambda, p.workers)
	}
	cdSweep(u, m, v, p.sat[mode], p.inner, p.workers)
	return la.NormalizeColumnsParallel(u, p.workers)
}

// State snapshots the policy state a checkpoint carries.
func (p *Policy) State() *State {
	st := &State{InnerIters: p.inner, Saturated: make([][]byte, len(p.sat))}
	for n := range p.sat {
		st.Saturated[n] = append([]byte(nil), p.sat[n]...)
	}
	return st
}

// Solve runs nonnegative CP by column-wise coordinate descent: the sweep
// engine with the local backend and the NNLS policy. The result has the
// same shape and semantics as cpals.Solve's — normalized factors (every
// entry >= 0), lambda, per-iteration fits — so everything downstream
// (serving, streaming, checkpoints) consumes it unchanged.
func Solve(t *tensor.COO, o Options) (*cpals.Result, error) {
	p, err := NewPolicy(t, o)
	if err != nil {
		return nil, err
	}
	return cpals.Run(t, o.Options, cpals.NewLocal(t, false, o.Workers()), p)
}

// cdSweep runs the coordinate-descent row solves for one mode: inner passes
// of exact single-coordinate minimization clipped at zero. Pass 0 visits
// every coordinate — re-checking saturated elements and unlocking the ones
// whose partial gradient turned negative — while later passes skip
// saturated elements without touching them. Rows are independent, so the
// block fan-out is bitwise worker-count-invariant.
func cdSweep(u, m, v *la.Dense, sat []byte, inner, workers int) {
	rank := u.Cols
	la.RowBlocksApply(workers, u.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := u.Row(i)
			mrow := m.Row(i)
			srow := sat[i*rank : (i+1)*rank]
			for pass := 0; pass < inner; pass++ {
				changed := false
				for r := 0; r < rank; r++ {
					if pass > 0 && srow[r] != 0 {
						continue // saturated: skip until next sweep's re-check
					}
					d := v.Data[r*rank+r]
					if d <= 0 {
						continue // collapsed column: no curvature, leave as is
					}
					// Partial gradient of the row objective at the current
					// point: g_r = (u_i V)_r - m_ir.
					g := la.VecDot(row, v.Row(r)) - mrow[r]
					if row[r] == 0 && g >= 0 {
						srow[r] = 1 // pinned at the bound, gradient ascending
						continue
					}
					srow[r] = 0
					nv := row[r] - g/d
					if nv < 0 {
						nv = 0
					}
					if nv != row[r] {
						row[r] = nv
						changed = true
					}
				}
				if !changed {
					break
				}
			}
		}
	})
}

// SaturatedFrac reports the fraction of factor elements currently pinned at
// the zero bound — the coordinates whose inner-loop updates the solver
// skips, and a direct sparsity readout of the learned factors.
func SaturatedFrac(st *State) float64 {
	total, on := 0, 0
	for _, s := range st.Saturated {
		total += len(s)
		for _, b := range s {
			if b != 0 {
				on++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(on) / float64(total)
}

// clipNonneg projects a warm-start factor onto the nonnegative orthant.
func clipNonneg(m *la.Dense, workers int) {
	la.RowBlocksApply(workers, m.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := m.Row(i)
			for r := range row {
				if row[r] < 0 {
					row[r] = 0
				}
			}
		}
	})
}

// scaleColumns multiplies column r of m by s[r].
func scaleColumns(m *la.Dense, s []float64, workers int) {
	la.RowBlocksApply(workers, m.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := m.Row(i)
			for r := range row {
				row[r] *= s[r]
			}
		}
	})
}
