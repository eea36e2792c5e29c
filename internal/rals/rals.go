// Package rals implements randomized CP-ALS with leverage-score-sampled
// MTTKRP (in the style of CP-ARLS-LEV): instead of sweeping every nonzero
// each iteration, each mode update draws a deterministic weighted sample of
// the nonzeros — weights derived from the current factors' leverage scores
// — and feeds the importance-weighted sampled MTTKRP to the exact row-solve
// path. Reported fits are always EXACT (a full pass over the tensor at
// epoch boundaries), never a sketch.
//
// Determinism contract: for a fixed seed, the factors are bitwise identical
// across runs, across Parallelism values, and across distributed worker
// counts (internal/dist runs this same policy, distributing only the
// MTTKRPs over row-aligned shards). Sample draws are pure functions
// of (seed, epoch, mode, draw index) via rng.UniformAt against a weight
// table computed from the epoch-start factors, so a resumed run redraws
// exactly what the uninterrupted run drew.
//
// With a sample budget >= nnz a mode update degenerates to the exact
// kernel over the full tensor, making the solve bitwise identical to
// cpals.Solve — the property tests pin this.
package rals

import (
	"fmt"
	"math"

	"cstf/internal/cpals"
	"cstf/internal/la"
	"cstf/internal/rng"
	"cstf/internal/tensor"
)

// samplingTag namespaces the sampler's rng.UniformAt draws away from every
// other consumer of the shared hash (factor init uses 0xFAC70).
const samplingTag = 0x5A37157

// defensiveMix is the uniform fraction blended into the leverage-score
// sampling weights (defensive importance sampling): it floors every entry's
// weight at defensiveMix*mean, bounding the worst-case importance scale at
// nnz/(defensiveMix*budget) without biasing the estimator.
const defensiveMix = 0.1

// State is the solver state beyond (lambda, factors) that a checkpoint must
// carry for a bitwise resume: the UNNORMALIZED factor matrices (rows kept
// across epochs live at solved-row scale; rebuilding them as A*diag(lambda)
// would reintroduce rounding) plus the resolved sampling schedule, so the
// resumed run redraws exactly the samples the uninterrupted run would have.
type State struct {
	ResampleEvery int         // epoch length in iterations
	SampleCounts  []int       // resolved per-mode sample budgets
	Unnorm        []*la.Dense // unnormalized factors, one per mode
}

// Options configures a randomized ALS run. The embedded cpals.Options mean
// what they mean there, with three refinements: Tol compares consecutive
// EXACT fit evaluations (one per epoch); StartIter must be a multiple of
// ResampleEvery (checkpoints only fire at epoch boundaries); and
// checkpoints fire only at iterations that are multiples of both
// CheckpointEvery and ResampleEvery, so every checkpoint is an epoch
// boundary a resume can redraw from. CSFKernel must be unset: sampled ALS
// runs the COO kernel.
type Options struct {
	cpals.Options

	// SampleCount is the per-mode sample budget: how many weighted draws
	// (with replacement) each mode update's MTTKRP uses. SampleFraction
	// expresses the same budget as a fraction of nnz; ModeSampleCounts
	// overrides the budget for individual modes (0 entries defer to the
	// global budget). Exactly one of SampleCount/SampleFraction must be
	// set unless every mode is covered by ModeSampleCounts. A budget
	// >= nnz switches that mode to the exact kernel over the full tensor.
	SampleCount      int
	SampleFraction   float64
	ModeSampleCounts []int

	// ResampleEvery is the epoch length: how many iterations reuse one
	// drawn sample before leverage scores are recomputed and the sample
	// redrawn. Exact fits are evaluated at epoch boundaries. Default 1.
	ResampleEvery int

	// FinalFitOnly skips the per-epoch exact fit evaluations, computing
	// only the final one — the cheapest configuration when only the end
	// state matters. Tol-based convergence is then inactive.
	FinalFitOnly bool

	// ExactFinishIters makes the last k iterations run the exact kernel
	// for every mode — a polish phase. Sampled iterations race to the
	// neighborhood of the solution; a few exact sweeps from that warm
	// start close the remaining gap to the exact fixed point at full
	// per-iteration cost. 0 disables (pure sampled run).
	ExactFinishIters int

	// InitUnnorm, when set, bitwise-restores the unnormalized factors from
	// a checkpoint's State; when nil with InitFactors set (a warm start,
	// e.g. the streaming updater), the unnormalized factors are seeded as
	// A*diag(lambda) — the ALS fixed-point identity.
	InitUnnorm []*la.Dense
}

// Budgets resolves the per-mode sample counts against a tensor.
func (o *Options) Budgets(t *tensor.COO) ([]int, error) {
	order := t.Order()
	nnz := t.NNZ()
	if len(o.ModeSampleCounts) != 0 && len(o.ModeSampleCounts) != order {
		return nil, fmt.Errorf("rals: %d ModeSampleCounts for an order-%d tensor", len(o.ModeSampleCounts), order)
	}
	if o.SampleCount < 0 {
		return nil, fmt.Errorf("rals: SampleCount must be non-negative, got %d", o.SampleCount)
	}
	if o.SampleFraction < 0 {
		return nil, fmt.Errorf("rals: SampleFraction must be non-negative, got %g", o.SampleFraction)
	}
	if o.SampleCount > 0 && o.SampleFraction > 0 {
		return nil, fmt.Errorf("rals: set SampleCount or SampleFraction, not both")
	}
	global := o.SampleCount
	if o.SampleFraction > 0 {
		global = int(math.Ceil(o.SampleFraction * float64(nnz)))
	}
	budgets := make([]int, order)
	for m := range budgets {
		s := global
		if len(o.ModeSampleCounts) > 0 && o.ModeSampleCounts[m] > 0 {
			s = o.ModeSampleCounts[m]
		}
		if s <= 0 {
			return nil, fmt.Errorf("rals: mode %d has no sample budget (set SampleCount, SampleFraction, or ModeSampleCounts)", m)
		}
		budgets[m] = s
	}
	return budgets, nil
}

// epochLen resolves ResampleEvery.
func (o *Options) epochLen() int {
	if o.ResampleEvery <= 0 {
		return 1
	}
	return o.ResampleEvery
}

// Validate checks the options against a tensor.
func (o *Options) Validate(t *tensor.COO) error {
	if err := o.Options.Validate(t); err != nil {
		return err
	}
	if o.CSFKernel {
		return fmt.Errorf("rals: no CSF kernel; CSFKernel must be unset")
	}
	if _, err := o.Budgets(t); err != nil {
		return err
	}
	if o.ExactFinishIters < 0 {
		return fmt.Errorf("rals: ExactFinishIters must be non-negative, got %d", o.ExactFinishIters)
	}
	if e := o.epochLen(); o.StartIter%e != 0 {
		return fmt.Errorf("rals: StartIter %d is not an epoch boundary (ResampleEvery %d)", o.StartIter, e)
	}
	if o.InitUnnorm != nil {
		if o.InitFactors == nil {
			return fmt.Errorf("rals: InitUnnorm requires InitFactors")
		}
		if len(o.InitUnnorm) != t.Order() {
			return fmt.Errorf("rals: %d InitUnnorm for an order-%d tensor", len(o.InitUnnorm), t.Order())
		}
		for n, f := range o.InitUnnorm {
			if f == nil || f.Rows != t.Dims[n] || f.Cols != o.Rank {
				return fmt.Errorf("rals: InitUnnorm[%d] must be %dx%d", n, t.Dims[n], o.Rank)
			}
		}
	}
	return nil
}

// Policy is the sampled least-squares row update for the sweep engine,
// with its epoch schedule: leverage-score sampling at epoch boundaries,
// exact fits at epoch ends, and an exact polish phase at the end.
//
// Factors: the engine's factors are the normalized ones (what MTTKRP,
// grams, and the fit read); the policy keeps the unnormalized ones (what
// row solves write). Rows a sampled update skips keep their previous
// unnormalized value — mixing normalized kept rows with freshly solved rows
// would collapse them after renormalization. With a full budget every row
// is solved every update and the split is invisible: the solve is bitwise
// cpals.Solve.
type Policy struct {
	t            *tensor.COO
	workers      int
	epochLen     int
	budgets      []int
	allFull      bool
	finishStart  int // iterations >= finishStart are the exact polish
	maxIters     int
	finalFitOnly bool
	initUnnorm   []*la.Dense

	unnorm      []*la.Dense
	smp         *sampler
	sampled     []*tensor.COO // the current epoch's samples
	modeSampled []bool        // the current iteration's sampled modes
}

// NewPolicy validates o against t and returns the sampled row-update
// policy.
func NewPolicy(t *tensor.COO, o Options) (*Policy, error) {
	if err := o.Validate(t); err != nil {
		return nil, err
	}
	budgets, err := o.Budgets(t)
	if err != nil {
		return nil, err
	}
	nnz := t.NNZ()
	p := &Policy{
		t: t, workers: o.Workers(), epochLen: o.epochLen(), budgets: budgets, allFull: true,
		maxIters: o.MaxIters, finalFitOnly: o.FinalFitOnly, initUnnorm: o.InitUnnorm,
		modeSampled: make([]bool, t.Order()),
	}
	for m, s := range budgets {
		if s < nnz {
			p.allFull = false
		} else {
			budgets[m] = nnz // cap: the exact kernel ignores the excess
		}
	}
	p.finishStart = o.MaxIters - o.ExactFinishIters
	if p.finishStart < o.StartIter {
		p.finishStart = o.StartIter
	}
	p.smp = newSampler(t, o.Seed, budgets, p.workers)
	return p, nil
}

// Init seeds the unnormalized factors: restored from InitUnnorm, or
// A*diag(lambda) for a warm start, or the seeded factors themselves.
func (p *Policy) Init(factors []*la.Dense, lambda []float64) {
	p.unnorm = make([]*la.Dense, len(factors))
	for n, f := range factors {
		switch {
		case p.initUnnorm != nil:
			p.unnorm[n] = p.initUnnorm[n].Clone()
		case len(lambda) != 0:
			u := f.Clone()
			scaleColumns(u, lambda, p.workers)
			p.unnorm[n] = u
		default:
			p.unnorm[n] = f.Clone()
		}
	}
}

// Begin redraws every sampled mode's nonzeros at an epoch boundary (leverage
// scores from the current factors) and plans the iteration: which modes run
// the sampled MTTKRP, and whether an exact fit closes it.
func (p *Policy) Begin(it int, factors, grams []*la.Dense) cpals.Step {
	nnz := p.t.NNZ()
	exact := it >= p.finishStart
	var step cpals.Step
	if it%p.epochLen == 0 && !p.allFull && !exact {
		epoch := it / p.epochLen
		p.smp.refreshScores(factors, grams)
		p.sampled = make([]*tensor.COO, len(p.budgets))
		for m, b := range p.budgets {
			if b < nnz {
				p.sampled[m] = p.smp.draw(epoch, m)
			}
		}
		step.Resampled = p.sampled
	}
	for m, b := range p.budgets {
		p.modeSampled[m] = b < nnz && !exact
	}
	step.Sampled = p.modeSampled

	epochEnd := (it+1)%p.epochLen == 0
	if (epochEnd && !p.finalFitOnly) || it == p.maxIters-1 {
		if p.allFull || exact {
			// Bitwise-cpals path: the SPLATT fit identity over the last
			// mode's exact MTTKRP, no extra tensor pass.
			step.Fit = cpals.FitFromLastMTTKRP
		} else {
			step.Fit = cpals.FitFullPass
		}
	}
	step.Checkpointable = epochEnd
	return step
}

// Update solves the mode's rows into the unnormalized factor — every row
// after an exact MTTKRP; after a sampled one only the rows the sample
// touched, keeping the rest at their previous value and pinning
// structurally empty rows to zero (what the exact solver computes for
// them) — and installs its normalized copy in factors[mode].
func (p *Policy) Update(mode int, m, v *la.Dense, factors []*la.Dense, _ []float64) []float64 {
	pinv := la.Pinv(v)
	u := p.unnorm[mode]
	if !p.modeSampled[mode] {
		cpals.SolveRows(u, m, pinv, p.workers)
	} else {
		smi := p.sampled[mode].ModeIndex(mode)
		fmi := p.t.ModeIndex(mode)
		la.RowBlocksApply(p.workers, u.Rows, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				switch {
				case smi.RowPtr[i+1] > smi.RowPtr[i]:
					la.VecMatInto(u.Row(i), m.Row(i), pinv)
				case fmi.RowPtr[i+1] == fmi.RowPtr[i]:
					row := u.Row(i)
					for r := range row {
						row[r] = 0
					}
				}
			}
		})
	}
	a := u.Clone()
	factors[mode] = a
	return la.NormalizeColumnsParallel(a, p.workers)
}

// State snapshots the sampler state a checkpoint carries.
func (p *Policy) State() *State {
	st := &State{
		ResampleEvery: p.epochLen,
		SampleCounts:  append([]int(nil), p.budgets...),
		Unnorm:        make([]*la.Dense, len(p.unnorm)),
	}
	for n, u := range p.unnorm {
		st.Unnorm[n] = u.Clone()
	}
	return st
}

// Solve runs randomized CP-ALS: the sweep engine with the local backend and
// the sampled policy. The result has the same shape and semantics as
// cpals.Solve's: normalized factors, lambda, and per-epoch EXACT fits
// (per-iteration when ResampleEvery is 1).
func Solve(t *tensor.COO, o Options) (*cpals.Result, error) {
	p, err := NewPolicy(t, o)
	if err != nil {
		return nil, err
	}
	return cpals.Run(t, o.Options, cpals.NewLocal(t, false, o.Workers()), p)
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

// sampler draws the per-epoch, per-mode weighted nonzero samples. All
// randomness flows through rng.UniformAt keyed by (seed, samplingTag,
// epoch, mode, draw), so draws are pure functions of the solver state —
// nothing here depends on worker count or timing.
type sampler struct {
	t       *tensor.COO
	seed    uint64
	budgets []int
	workers int

	scores [][]float64 // per mode: leverage score of each row
	weight []float64   // scratch: per-entry sampling weight
	counts []int32     // scratch: per-entry draw multiplicity
}

func newSampler(t *tensor.COO, seed uint64, budgets []int, workers int) *sampler {
	s := &sampler{t: t, seed: seed, budgets: budgets, workers: workers}
	s.scores = make([][]float64, t.Order())
	for m := range s.scores {
		s.scores[m] = make([]float64, t.Dims[m])
	}
	s.weight = make([]float64, len(t.Entries))
	s.counts = make([]int32, len(t.Entries))
	return s
}

// refreshScores recomputes every mode's per-row leverage score estimates
// from the current factors: lev_m(i) = a_i^T pinv(G_m) a_i, clamped at 0
// (the exact leverage scores of A_m's row space, up to pinv conditioning).
func (s *sampler) refreshScores(factors, grams []*la.Dense) {
	for m := range s.scores {
		p := la.Pinv(grams[m])
		a := factors[m]
		sc := s.scores[m]
		la.RowBlocksApply(s.workers, a.Rows, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				row := a.Row(i)
				var q float64
				for r := range row {
					var pr float64
					prow := p.Row(r)
					for c := range row {
						pr += prow[c] * row[c]
					}
					q += row[r] * pr
				}
				if q < 0 || math.IsNaN(q) {
					q = 0
				}
				sc[i] = q
			}
		})
	}
}

// draw samples budgets[mode] nonzeros with replacement, weighted by the
// product of the OTHER modes' leverage scores at each entry's coordinates,
// and returns them as an importance-weighted COO: each distinct drawn entry
// appears once, in storage order, with value val*count*total/(budget*w) —
// an unbiased estimator of the exact MTTKRP. Degenerate weight tables (all
// zero, infinite, NaN) fall back to uniform weights deterministically.
func (s *sampler) draw(epoch, mode int) *tensor.COO {
	t := s.t
	order := t.Order()
	n := len(t.Entries)
	la.RowBlocksApply(s.workers, n, func(lo, hi int) {
		for p := lo; p < hi; p++ {
			e := &t.Entries[p]
			w := 1.0
			for m := 0; m < order; m++ {
				if m == mode {
					continue
				}
				w *= s.scores[m][e.Idx[m]]
			}
			s.weight[p] = w
		}
	})
	var total float64
	for p := 0; p < n; p++ {
		total += s.weight[p]
	}
	if total <= 0 || math.IsInf(total, 0) || math.IsNaN(total) {
		for p := 0; p < n; p++ {
			s.weight[p] = 1
		}
		total = float64(n)
	} else {
		// Defensive mixing: blend the leverage weights with uniform so no
		// entry's importance scale (total/(budget*w)) can explode — a
		// tiny-weight entry that does get drawn would otherwise inject an
		// enormous scaled value and destabilize the sketched update. The
		// estimator divides by the weight actually used, so it stays
		// unbiased.
		mix := defensiveMix * total / float64(n)
		total = 0
		for p := 0; p < n; p++ {
			w := (1-defensiveMix)*s.weight[p] + mix
			s.weight[p] = w
			total += w
		}
	}

	// Systematic (low-discrepancy) resampling: one uniform offset u, then
	// budget equally spaced probes u, u+1, ... over the cdf scaled to
	// [0, budget). count_p = #probes inside entry p's cdf segment, so
	// E[count_p] = budget*w_p/total with variance at most 1 — entries
	// whose expected count exceeds 1 are included deterministically. Far
	// lower estimator variance than independent multinomial draws, still
	// unbiased, and still a pure function of (seed, epoch, mode).
	budget := s.budgets[mode]
	u := rng.UniformAt(s.seed, samplingTag, uint64(epoch), uint64(mode))
	step := total / float64(budget)
	distinct := 0
	pos := u * step
	cum := 0.0
	for p := 0; p < n; p++ {
		cum += s.weight[p]
		c := int32(0)
		for pos < cum {
			c++
			pos += step
		}
		s.counts[p] = c
		if c > 0 {
			distinct++
		}
	}

	out := tensor.New(t.Dims...)
	out.Entries = make([]tensor.Entry, 0, distinct)
	scale := total / float64(budget)
	for p := 0; p < n; p++ {
		c := s.counts[p]
		if c == 0 {
			continue
		}
		e := t.Entries[p]
		e.Val *= float64(c) * scale / s.weight[p]
		out.Entries = append(out.Entries, e)
	}
	return out
}
