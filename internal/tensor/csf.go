package tensor

import (
	"fmt"
	"math/bits"
	"slices"
)

// CSF is the compressed sparse fiber format of SPLATT (Smith et al.,
// IPDPS'15), the shared-memory state of the art the paper's related work
// cites. The nonzeros are organized as a forest: level 0 holds the unique
// indices of the first mode in ModeOrder, each pointing to its slice of
// level-1 nodes, and so on; leaves carry the values. An MTTKRP along the
// root mode then reuses each fiber's partial Hadamard product across all
// nonzeros sharing the fiber, which COO cannot.
//
// CSTF itself computes on COO (that is the paper's point — COO ships whole
// to the distributed engines); CSF exists here as the high-performance
// local kernel and as an independent MTTKRP implementation to validate
// against.
type CSF struct {
	ModeOrder []int      // ModeOrder[l] = tensor mode stored at level l
	Idx       [][]uint32 // per level: node indices (level L has one per nonzero)
	Ptr       [][]int32  // per level < last: Idx[l+1] range of node n is [Ptr[l][n], Ptr[l][n+1])
	Vals      []float64  // leaf values, aligned with the last level's Idx
	Dims      []int      // original tensor dims
}

// NewCSF builds a CSF tree for the given mode ordering (a permutation of
// 0..order-1). The entries are grouped by their root-mode index with a
// stable counting sort and each group goes through CSFBuilder.AddRoot, the
// same path the dist workers build their shard trees on, so a worker's tree
// over a row range is exactly that range of this tree. Duplicate
// coordinates are kept as repeated leaves in storage order.
func NewCSF(t *COO, modeOrder []int) *CSF {
	b := NewCSFBuilder(t.Dims, modeOrder, t.NNZ())
	mi := buildModeIndex(t, modeOrder[0])
	var idx []uint32
	var vals []float64
	for r := 0; r < t.Dims[modeOrder[0]]; r++ {
		idx, vals = idx[:0], vals[:0]
		for _, p := range mi.Perm[mi.RowPtr[r]:mi.RowPtr[r+1]] {
			e := &t.Entries[p]
			for _, m := range modeOrder[1:] {
				idx = append(idx, e.Idx[m])
			}
			vals = append(vals, e.Val)
		}
		b.AddRoot(uint32(r), idx, vals)
	}
	return b.CSF()
}

// RootedOrder is the mode order of a tree rooted at mode root, the other
// modes ascending: the one-tree-per-mode ordering of cpals.BuildCSFs and
// of the dist workers' shard trees.
func RootedOrder(order, root int) []int {
	mo := make([]int, 0, order)
	mo = append(mo, root)
	for m := 0; m < order; m++ {
		if m != root {
			mo = append(mo, m)
		}
	}
	return mo
}

// CSFBuilder assembles a CSF tree one root at a time, in ascending root
// order. Each root's entries arrive in storage order and are sorted there,
// stably, by the levels below the root — lexicographic order of the
// coordinates, duplicates in storage order — so no sorted copy of the whole
// tensor is ever made.
type CSFBuilder struct {
	c     *CSF
	width []uint // bits of each level below the root, for packed sort keys
	bits  uint   // their sum; > 64 means the coordinates do not pack

	keys []uint64 // per-group scratch: packed coordinates and positions
	perm []int32  // per-group scratch: the sorted positions
}

// NewCSFBuilder starts an empty tree over a tensor of the given dims with
// the given mode ordering (a permutation of 0..order-1); nnz, when known,
// sizes the leaf level.
func NewCSFBuilder(dims []int, modeOrder []int, nnz int) *CSFBuilder {
	order := len(dims)
	if len(modeOrder) != order {
		panic("tensor: CSF mode order length mismatch")
	}
	seen := make([]bool, order)
	for _, m := range modeOrder {
		if m < 0 || m >= order || seen[m] {
			panic(fmt.Sprintf("tensor: invalid CSF mode order %v", modeOrder))
		}
		seen[m] = true
	}
	c := &CSF{
		ModeOrder: append([]int(nil), modeOrder...),
		Idx:       make([][]uint32, order),
		Ptr:       make([][]int32, order-1),
		Vals:      make([]float64, 0, nnz),
		Dims:      append([]int(nil), dims...),
	}
	c.Idx[order-1] = make([]uint32, 0, nnz)
	b := &CSFBuilder{c: c}
	for _, m := range modeOrder[1:] {
		w := uint(bits.Len(uint(dims[m] - 1)))
		b.width = append(b.width, w)
		b.bits += w
	}
	return b
}

// AddRoot appends the subtree of root index root. Its n = len(vals)
// entries are given in storage order: entry i's indices at levels
// 1..order-1 are idx[i*(order-1) : (i+1)*(order-1)], its value vals[i].
// Roots must be added in strictly ascending order.
func (b *CSFBuilder) AddRoot(root uint32, idx []uint32, vals []float64) {
	c := b.c
	L := len(c.Idx)
	if n := len(c.Idx[0]); n > 0 && c.Idx[0][n-1] >= root {
		panic(fmt.Sprintf("tensor: CSF root %d added after root %d", root, c.Idx[0][n-1]))
	}
	if len(vals) == 0 {
		return
	}
	if L == 1 {
		// Every entry is a root-level leaf.
		for _, v := range vals {
			c.Idx[0] = append(c.Idx[0], root)
			c.Vals = append(c.Vals, v)
		}
		return
	}
	w := L - 1
	c.Idx[0] = append(c.Idx[0], root)
	c.Ptr[0] = append(c.Ptr[0], int32(len(c.Idx[1])))
	prev := -1
	for _, p32 := range b.order(idx, len(vals)) {
		p := int(p32)
		e := idx[p*w : p*w+w]
		newAt := 1
		if prev >= 0 {
			pe := idx[prev*w : prev*w+w]
			newAt = L - 1 // a duplicate coordinate: a repeated leaf
			for l := 1; l < L; l++ {
				if e[l-1] != pe[l-1] {
					newAt = l
					break
				}
			}
		}
		for l := newAt; l < L; l++ {
			c.Idx[l] = append(c.Idx[l], e[l-1])
			if l < L-1 {
				c.Ptr[l] = append(c.Ptr[l], int32(len(c.Idx[l+1])))
			}
		}
		c.Vals = append(c.Vals, vals[p])
		prev = p
	}
}

// order returns the positions 0..n-1 sorted by their coordinates, ties in
// position order. When the coordinates and the position pack into one
// uint64 the sort is a plain integer sort of those keys.
func (b *CSFBuilder) order(idx []uint32, n int) []int32 {
	w := len(b.width)
	perm := b.perm[:0]
	if posBits := uint(bits.Len(uint(n - 1))); b.bits+posBits <= 64 {
		keys := b.keys[:0]
		for i := 0; i < n; i++ {
			var key uint64
			for l, x := range idx[i*w : i*w+w] {
				key = key<<b.width[l] | uint64(x)
			}
			keys = append(keys, key<<posBits|uint64(i))
		}
		slices.Sort(keys)
		mask := uint64(1)<<posBits - 1
		for _, k := range keys {
			perm = append(perm, int32(k&mask))
		}
		b.keys = keys
	} else {
		for i := 0; i < n; i++ {
			perm = append(perm, int32(i))
		}
		slices.SortFunc(perm, func(p, q int32) int {
			if c := slices.Compare(idx[int(p)*w:int(p)*w+w], idx[int(q)*w:int(q)*w+w]); c != 0 {
				return c
			}
			return int(p - q)
		})
	}
	b.perm = perm
	return perm
}

// CSF closes the tree and returns it. The builder must not be used after.
func (b *CSFBuilder) CSF() *CSF {
	c := b.c
	for l := range c.Ptr {
		c.Ptr[l] = append(c.Ptr[l], int32(len(c.Idx[l+1])))
	}
	return c
}

// NNZ returns the number of stored nonzeros.
func (c *CSF) NNZ() int { return len(c.Vals) }

// Fibers returns the node count at each level (diagnostics: how much
// prefix sharing the ordering achieved).
func (c *CSF) Fibers() []int {
	out := make([]int, len(c.Idx))
	for l := range c.Idx {
		out[l] = len(c.Idx[l])
	}
	return out
}
