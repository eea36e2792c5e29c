package cpals

import (
	"math"

	"cstf/internal/la"
	"cstf/internal/par"
	"cstf/internal/tensor"
)

// The ALS sweep engine. Every real-runtime solver in this repository —
// exact CP-ALS, nonnegative CP, sampled ALS, on one machine or on a dist
// fleet — is Run with two parts plugged in:
//
//   - a Backend decides WHERE and WITH WHICH KERNEL the MTTKRPs run (local
//     COO, local CSF, or a fleet of workers). MTTKRP is the only stage
//     whose cost grows with nnz, so it is the only stage a backend owns.
//   - a Policy decides HOW a factor is recomputed from its MTTKRP and the
//     gram Hadamard (least squares, sampled least squares, NNLS), plus the
//     per-iteration schedule that goes with it (sampling epochs, which
//     iterations report a fit).
//
// Everything else — initialization and warm starts, the mode loop, the
// Hadamard of grams, gram refresh, the fit, Tol, OnIteration, Ctx, the
// checkpoint cadence and option validation — lives here, once. Because the
// engine runs the gram, row-update and fit kernels itself, every backend
// produces the same bits for the same MTTKRP bits.

// Backend computes MTTKRPs.
type Backend interface {
	// MTTKRP returns the mode-n MTTKRP of the full tensor, or — when
	// sampled — of the mode-n sample installed by the last Resample. The
	// result may alias backend scratch: it is valid until the next
	// MTTKRP call for the same mode.
	MTTKRP(mode int, factors []*la.Dense, sampled bool) (*la.Dense, error)
	// Resample installs a new epoch's sampled tensors, indexed by mode
	// (nil for modes that are never sampled).
	Resample(sampled []*tensor.COO)
	// FactorUpdated announces that factor `mode` changed: after the
	// initial materialization and after every mode update.
	FactorUpdated(mode int, m *la.Dense)
}

// FitKind says how (and whether) an iteration evaluates the model fit.
type FitKind uint8

const (
	// NoFit skips the fit, OnIteration and the Tol test this iteration.
	NoFit FitKind = iota
	// FitFromLastMTTKRP uses the SPLATT identity over the last mode's
	// MTTKRP — exact only when that MTTKRP covered the full tensor.
	FitFromLastMTTKRP
	// FitFullPass computes <X, X_hat> with one pass over the nonzeros.
	FitFullPass
)

// Step is a policy's plan for one iteration.
type Step struct {
	// Resampled, when non-nil, holds the new epoch's sampled tensors
	// (indexed by mode) to install on the backend before the mode loop.
	Resampled []*tensor.COO
	// Sampled[n] runs mode n's MTTKRP over the installed sample; nil
	// means every mode runs over the full tensor.
	Sampled []bool
	Fit     FitKind
	// Checkpointable marks an iteration after which a checkpoint can be
	// taken (the policy's state is resumable there).
	Checkpointable bool
}

// Policy is a row-update rule and its iteration schedule.
type Policy interface {
	// Init adapts the initial factors — seeded, or cloned from
	// Options.InitFactors — before their grams are taken. lambda is
	// a copy of Options.InitLambda (empty on a fresh start).
	Init(factors []*la.Dense, lambda []float64)
	// Begin plans iteration it from the factors and grams it starts with.
	Begin(it int, factors, grams []*la.Dense) Step
	// Update recomputes factor `mode` from its MTTKRP m and the Hadamard
	// v of the other modes' grams, leaves the normalized factor in
	// factors[mode] (in place or as a new matrix) and returns the new
	// column weights.
	Update(mode int, m, v *la.Dense, factors []*la.Dense, lambda []float64) []float64
}

// Run is the one ALS iteration loop. It validates o against t, builds the
// initial factors, and runs iterations StartIter..MaxIters-1 with b
// computing the MTTKRPs and p updating the factors.
func Run(t *tensor.COO, o Options, b Backend, p Policy) (*Result, error) {
	if err := o.Validate(t); err != nil {
		return nil, err
	}
	order := t.Order()
	w := o.Workers()

	factors := make([]*la.Dense, order)
	for n := range factors {
		if o.InitFactors != nil {
			factors[n] = o.InitFactors[n].Clone()
		} else {
			factors[n] = initFactorWorkers(o.Seed, n, t.Dims[n], o.Rank, w)
		}
	}
	lambda := la.VecClone(o.InitLambda)
	p.Init(factors, lambda)
	grams := make([]*la.Dense, order)
	for n, f := range factors {
		grams[n] = la.GramParallel(f, w)
		b.FactorUpdated(n, f)
	}

	normX := t.Norm()
	res := &Result{Factors: factors, Iters: o.StartIter}
	res.Fits = append(res.Fits, o.InitFits...)
	var lastM *la.Dense
	for it := o.StartIter; it < o.MaxIters; it++ {
		if err := o.Interrupted(); err != nil {
			return nil, err
		}
		step := p.Begin(it, factors, grams)
		if step.Resampled != nil {
			b.Resample(step.Resampled)
		}
		for n := 0; n < order; n++ {
			m, err := b.MTTKRP(n, factors, step.Sampled != nil && step.Sampled[n])
			if err != nil {
				return nil, err
			}
			lambda = p.Update(n, m, HadamardOfGramsExcept(grams, n), factors, lambda)
			grams[n] = la.GramParallel(factors[n], w)
			b.FactorUpdated(n, factors[n])
			lastM = m
		}
		res.Iters = it + 1

		if step.Fit != NoFit {
			var fit float64
			if step.Fit == FitFromLastMTTKRP {
				fit = FitFromWorkers(normX, lastM, factors[order-1], lambda, grams, w)
			} else {
				fit = FitFromInner(normX, innerProductWorkers(t, lambda, factors, w), lambda, grams)
			}
			res.Fits = append(res.Fits, fit)
			if o.OnIteration != nil && o.OnIteration(it, fit) {
				break
			}
		}
		if step.Checkpointable && o.CheckpointEvery > 0 && o.OnCheckpoint != nil && (it+1)%o.CheckpointEvery == 0 {
			if err := o.OnCheckpoint(it+1, lambda, factors, res.Fits); err != nil {
				return nil, err
			}
		}
		if nf := len(res.Fits); step.Fit != NoFit && o.Tol > 0 && nf > 1 {
			if math.Abs(res.Fits[nf-1]-res.Fits[nf-2]) < o.Tol {
				break
			}
		}
	}
	res.Lambda = lambda
	return res, nil
}

// LS is the exact least-squares row update of CP-ALS (Algorithm 1):
// A_n = M * pinv(V), then column normalization. Every iteration reports a
// fit from the last MTTKRP and may be checkpointed.
type LS struct {
	Workers int // row-solve and normalization fan-out
}

func (LS) Init([]*la.Dense, []float64) {}

func (LS) Begin(int, []*la.Dense, []*la.Dense) Step {
	return Step{Fit: FitFromLastMTTKRP, Checkpointable: true}
}

func (p LS) Update(mode int, m, v *la.Dense, factors []*la.Dense, _ []float64) []float64 {
	a := factors[mode]
	SolveRows(a, m, la.Pinv(v), p.Workers)
	return la.NormalizeColumnsParallel(a, p.Workers)
}

// SolveRows writes a_i = m_i * pinv for every row i of a.
func SolveRows(a, m, pinv *la.Dense, workers int) {
	la.RowBlocksApply(workers, a.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			la.VecMatInto(a.Row(i), m.Row(i), pinv)
		}
	})
}

// Local is the in-process Backend: the COO kernel, or the CSF kernel over
// per-mode trees built on first use. Sampled MTTKRPs always run the COO
// kernel over the installed sample. A Local is not safe for concurrent
// runs.
type Local struct {
	t       *tensor.COO
	csf     bool
	csfs    []*tensor.CSF
	workers int
	ws      Workspace
	sampled []*tensor.COO
}

// NewLocal returns the in-process backend for t.
func NewLocal(t *tensor.COO, csf bool, workers int) *Local {
	return &Local{t: t, csf: csf, workers: workers}
}

func (l *Local) MTTKRP(mode int, factors []*la.Dense, sampled bool) (*la.Dense, error) {
	rows, rank := l.t.Dims[mode], factors[0].Cols
	switch {
	case sampled:
		return MTTKRPWorkers(l.sampled[mode], mode, factors, l.workers, l.ws.Out(mode, rows, rank, l.workers), &l.ws), nil
	case l.csf:
		if l.csfs == nil {
			l.csfs = BuildCSFs(l.t)
		}
		return MTTKRPCSFWorkers(l.csfs[mode], factors, l.workers), nil
	default:
		return MTTKRPWorkers(l.t, mode, factors, l.workers, l.ws.Out(mode, rows, rank, l.workers), &l.ws), nil
	}
}

func (l *Local) Resample(sampled []*tensor.COO) { l.sampled = sampled }

func (l *Local) FactorUpdated(int, *la.Dense) {}

// innerProductWorkers computes <X, X_hat> by a pass over the nonzeros,
// reduced in fixed par.SumBlocks block order (bitwise independent of the
// worker count).
func innerProductWorkers(t *tensor.COO, lambda []float64, factors []*la.Dense, workers int) float64 {
	rank := len(lambda)
	order := t.Order()
	return par.SumBlocks(workers, len(t.Entries), func(lo, hi int) float64 {
		tmp := make([]float64, rank)
		var sum float64
		for p := lo; p < hi; p++ {
			e := &t.Entries[p]
			copy(tmp, lambda)
			for n := 0; n < order; n++ {
				la.VecMulInto(tmp, factors[n].Row(int(e.Idx[n])))
			}
			var v float64
			for r := range tmp {
				v += tmp[r]
			}
			sum += v * e.Val
		}
		return sum
	})
}
