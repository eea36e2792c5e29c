package cpals

import (
	"cstf/internal/la"
	"cstf/internal/par"
	"cstf/internal/tensor"
)

// Shared-memory parallel MTTKRP. The tensor's cached per-mode index
// (tensor.ModeIndex) partitions the nonzeros into contiguous OUTPUT-ROW
// ranges, so each worker owns a disjoint slice of the result and no
// synchronization is needed on the accumulation path. Because the index is
// a stable sort, the entries of one output row are visited in their
// original storage order no matter how rows are grouped into workers: the
// result is bitwise identical for every worker count, and bitwise identical
// to the entry-order reference MTTKRP.

// Workspace holds the reusable scratch of a CP-ALS run: one output matrix
// per mode (reused across iterations instead of reallocated order×iters
// times) and one length-R Hadamard accumulator per worker range. A zero
// Workspace is ready to use; it is NOT safe for concurrent runs — give each
// concurrent Solve its own.
type Workspace struct {
	outs []*la.Dense
	tmps [][]float64
}

// Out returns the cached rows×rank output matrix for `mode`, zeroed.
// The zeroing fans out over the same worker pool as the kernels.
func (w *Workspace) Out(mode, rows, rank, workers int) *la.Dense {
	for len(w.outs) <= mode {
		w.outs = append(w.outs, nil)
	}
	m := w.outs[mode]
	if m == nil || m.Rows != rows || m.Cols != rank {
		m = la.NewDense(rows, rank)
		w.outs[mode] = m
		return m
	}
	la.RowBlocksApply(workers, rows, func(lo, hi int) {
		d := m.Data[lo*rank : hi*rank]
		for i := range d {
			d[i] = 0
		}
	})
	return m
}

// tmp returns the length-`rank` scratch vector for worker range k.
func (w *Workspace) tmp(k, rank int) []float64 {
	for len(w.tmps) <= k {
		w.tmps = append(w.tmps, nil)
	}
	if cap(w.tmps[k]) < rank {
		w.tmps[k] = make([]float64, rank)
	}
	w.tmps[k] = w.tmps[k][:rank]
	return w.tmps[k]
}

// MTTKRPWorkers computes the mode-n MTTKRP on up to `workers` goroutines,
// writing into out (allocated when nil; must be t.Dims[mode]×rank and
// zeroed otherwise). ws may be nil for one-shot calls. The result is
// bitwise identical to MTTKRP for every worker count.
func MTTKRPWorkers(t *tensor.COO, mode int, factors []*la.Dense, workers int, out *la.Dense, ws *Workspace) *la.Dense {
	order := t.Order()
	if len(factors) != order {
		panic("cpals: factor count != tensor order")
	}
	rank := factors[0].Cols
	if out == nil {
		out = la.NewDense(t.Dims[mode], rank)
	}
	if ws == nil {
		ws = &Workspace{}
	}
	workers = par.Workers(workers)
	mi := t.ModeIndex(mode)
	ranges := mi.Ranges(workers)
	for k := range ranges {
		ws.tmp(k, rank) // materialize scratch before the fan-out
	}
	par.Run(workers, len(ranges), func(k int) {
		r := ranges[k]
		tmp := ws.tmps[k]
		for p := r.Lo; p < r.Hi; p++ {
			e := &t.Entries[mi.Perm[p]]
			for c := range tmp {
				tmp[c] = e.Val
			}
			for n := 0; n < order; n++ {
				if n == mode {
					continue
				}
				la.VecMulInto(tmp, factors[n].Row(int(e.Idx[n])))
			}
			la.VecAdd(out.Row(int(e.Idx[mode])), tmp)
		}
	})
	return out
}

// MTTKRPEntries adds the mode-`mode` MTTKRP contributions of entries to
// out, whose row i is output row rowLo+i. Every output element receives
// exactly the floating-point operations the reference kernels perform for
// it — the value times each other mode's factor element in increasing mode
// order, then added to the output — so for the same entry order the result
// is bitwise MTTKRPWorkers'. For 3rd- and 4th-order tensors the products
// are fused into one pass per output row instead of a scratch vector per
// factor. Entry indices must be in range.
func MTTKRPEntries(out *la.Dense, rowLo int, entries []tensor.Entry, mode int, factors []*la.Dense) {
	var others [tensor.MaxOrder]int
	no := 0
	for n := range factors {
		if n != mode {
			others[no] = n
			no++
		}
	}
	tmp := make([]float64, out.Cols)
	for i := range entries {
		e := &entries[i]
		dst := out.Row(int(e.Idx[mode]) - rowLo)
		v := e.Val
		// The float64 conversions round each product before the add, so
		// no compiler may fuse them into a multiply-add.
		switch no {
		case 2:
			a := factors[others[0]].Row(int(e.Idx[others[0]]))
			b := factors[others[1]].Row(int(e.Idx[others[1]]))
			_, _ = a[len(dst)-1], b[len(dst)-1]
			for r := range dst {
				dst[r] += float64(v * a[r] * b[r])
			}
		case 3:
			a := factors[others[0]].Row(int(e.Idx[others[0]]))
			b := factors[others[1]].Row(int(e.Idx[others[1]]))
			c := factors[others[2]].Row(int(e.Idx[others[2]]))
			_, _, _ = a[len(dst)-1], b[len(dst)-1], c[len(dst)-1]
			for r := range dst {
				dst[r] += float64(v * a[r] * b[r] * c[r])
			}
		default:
			for r := range tmp {
				tmp[r] = v
			}
			for _, n := range others[:no] {
				la.VecMulInto(tmp, factors[n].Row(int(e.Idx[n])))
			}
			la.VecAdd(dst, tmp)
		}
	}
}

// MTTKRPCSFWorkers is the parallel SPLATT-style CSF kernel: root fibers are
// split into contiguous chunks (balanced by child-fiber count) and each
// chunk is walked independently. Root indices are unique within a CSF tree,
// so chunks write disjoint output rows; per-root arithmetic is unchanged,
// so the result is bitwise identical to MTTKRPCSF for every worker count.
func MTTKRPCSFWorkers(csf *tensor.CSF, factors []*la.Dense, workers int) *la.Dense {
	order := len(csf.ModeOrder)
	if len(factors) != order {
		panic("cpals: factor count != tensor order")
	}
	rank := factors[0].Cols
	rootMode := csf.ModeOrder[0]
	out := la.NewDense(csf.Dims[rootMode], rank)
	nroots := len(csf.Idx[0])
	if csf.NNZ() == 0 || nroots == 0 {
		return out
	}
	workers = par.Workers(workers)
	if workers > nroots {
		workers = nroots
	}

	// Chunk roots by cumulative level-1 fiber count so skewed tensors
	// (a few huge slices) still balance. Like the serial CSF kernel this
	// assumes order >= 2.
	chunks := make([][2]int, 0, workers)
	total := int(csf.Ptr[0][nroots])
	lo := 0
	for p := 0; p < workers && lo < nroots; p++ {
		done := int(csf.Ptr[0][lo])
		target := done + (total-done+workers-p-1)/(workers-p)
		hi := lo
		for hi < nroots && int(csf.Ptr[0][hi+1]) <= target {
			hi++
		}
		if hi == lo {
			hi = lo + 1
		}
		chunks = append(chunks, [2]int{lo, hi})
		lo = hi
	}

	par.Run(workers, len(chunks), func(k int) {
		bufs := make([][]float64, order)
		for l := 1; l < order; l++ {
			bufs[l] = make([]float64, rank)
		}
		walk := csfWalker(csf, factors, bufs)
		for root := int32(chunks[k][0]); root < int32(chunks[k][1]); root++ {
			dst := out.Row(int(csf.Idx[0][root]))
			for ch := csf.Ptr[0][root]; ch < csf.Ptr[0][root+1]; ch++ {
				walk(1, ch, dst)
			}
		}
	})
	return out
}

// FitFromWorkers is FitFrom with the <X, X_hat> inner product computed as a
// deterministic blocked reduction on the worker pool.
func FitFromWorkers(normX float64, lastM, lastFactor *la.Dense, lambda []float64, grams []*la.Dense, workers int) float64 {
	inner := par.SumBlocks(workers, lastM.Rows, func(lo, hi int) float64 {
		var s float64
		for i := lo; i < hi; i++ {
			mrow := lastM.Row(i)
			arow := lastFactor.Row(i)
			for r := range mrow {
				s += mrow[r] * arow[r] * lambda[r]
			}
		}
		return s
	})
	return FitFromInner(normX, inner, lambda, grams)
}
