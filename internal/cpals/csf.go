package cpals

import (
	"cstf/internal/la"
	"cstf/internal/tensor"
)

// MTTKRPCSF computes the MTTKRP along the CSF tree's ROOT mode
// (csf.ModeOrder[0]) using SPLATT's fiber-reuse kernel: each internal
// node's partial result — the sum of its children's contributions Hadamard
// the node's factor row — is computed once and shared by every nonzero in
// the subtree. For tensors with fiber locality this does substantially
// fewer vector operations than the per-nonzero COO loop (Algorithm 2).
//
// factors are indexed by TENSOR mode (not CSF level). The result has one
// row per root-mode index.
func MTTKRPCSF(csf *tensor.CSF, factors []*la.Dense) *la.Dense {
	out := la.NewDense(csf.Dims[csf.ModeOrder[0]], factors[0].Cols)
	MTTKRPCSFInto(out, 0, csf, factors)
	return out
}

// MTTKRPCSFInto adds the MTTKRP of csf along its root mode into out, whose
// row i is output row rowLo+i; every root index of the tree must lie in
// [rowLo, rowLo+out.Rows). A dist worker runs it over the tree of its
// shard, and each row gets the bits MTTKRPCSF gives it on the whole
// tensor's tree.
func MTTKRPCSFInto(out *la.Dense, rowLo int, csf *tensor.CSF, factors []*la.Dense) {
	order := len(csf.ModeOrder)
	if len(factors) != order {
		panic("cpals: factor count != tensor order")
	}
	if csf.NNZ() == 0 {
		return
	}

	// One scratch accumulator per level below the root.
	bufs := make([][]float64, order)
	for l := 1; l < order; l++ {
		bufs[l] = make([]float64, out.Cols)
	}

	walk := csfWalker(csf, factors, bufs)

	for root := int32(0); root < int32(len(csf.Idx[0])); root++ {
		dst := out.Row(int(csf.Idx[0][root]) - rowLo)
		for ch := csf.Ptr[0][root]; ch < csf.Ptr[0][root+1]; ch++ {
			walk(1, ch, dst)
		}
	}
}

// csfWalker returns the recursive fiber walk shared by the serial and
// parallel CSF kernels: walk(l, n, dst) adds node n's subtree contribution
// (at level l) into dst. The leaf level is iterated inline by its parent —
// one call per fiber instead of one per nonzero — which changes no
// floating-point operation order, only call overhead.
func csfWalker(csf *tensor.CSF, factors []*la.Dense, bufs [][]float64) func(l int, n int32, dst []float64) {
	order := len(csf.ModeOrder)
	leafF := factors[csf.ModeOrder[order-1]]
	var walk func(l int, n int32, dst []float64)
	walk = func(l int, n int32, dst []float64) {
		row := factors[csf.ModeOrder[l]].Row(int(csf.Idx[l][n]))
		if l == order-1 {
			// Only reached when the tree is 2-level (order == 2).
			la.VecAddScaled(dst, csf.Vals[n], row)
			return
		}
		// Internal: sum children into this level's scratch, then multiply
		// by this node's row once — the reuse COO cannot express.
		acc := bufs[l]
		if l == order-2 {
			// The first leaf initializes acc (v*row == 0 + v*row bitwise for
			// the nonzero values CSF stores), the rest — repeated leaves of a
			// duplicate coordinate included — accumulate.
			leafIdx := csf.Idx[order-1]
			ch, hi := csf.Ptr[l][n], csf.Ptr[l][n+1]
			row0 := leafF.Row(int(leafIdx[ch]))
			v0 := csf.Vals[ch]
			for i := range acc {
				acc[i] = v0 * row0[i]
			}
			for ch++; ch < hi; ch++ {
				la.VecAddScaled(acc, csf.Vals[ch], leafF.Row(int(leafIdx[ch])))
			}
		} else {
			for i := range acc {
				acc[i] = 0
			}
			for ch := csf.Ptr[l][n]; ch < csf.Ptr[l][n+1]; ch++ {
				walk(l+1, ch, acc)
			}
		}
		for i := range dst {
			dst[i] += acc[i] * row[i]
		}
	}
	return walk
}

// BuildCSFs constructs one CSF per mode (mode n as root, remaining modes
// in increasing order), the SPLATT "one tree per mode" configuration that
// serves a full CP-ALS iteration.
func BuildCSFs(t *tensor.COO) []*tensor.CSF {
	out := make([]*tensor.CSF, t.Order())
	for n := range out {
		out[n] = tensor.NewCSF(t, tensor.RootedOrder(t.Order(), n))
	}
	return out
}
