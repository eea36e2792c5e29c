package tensor

import (
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"cstf/internal/rng"
)

func TestCSFStructure(t *testing.T) {
	x := New(3, 4, 5)
	x.Append(1, 0, 1, 2)
	x.Append(2, 0, 1, 3)
	x.Append(3, 0, 2, 0)
	x.Append(4, 2, 0, 0)
	c := NewCSF(x, []int{0, 1, 2})
	if c.NNZ() != 4 {
		t.Fatalf("nnz %d", c.NNZ())
	}
	fibers := c.Fibers()
	// Roots: i=0 and i=2; level-1 nodes: (0,1), (0,2), (2,0); leaves: 4.
	if fibers[0] != 2 || fibers[1] != 3 || fibers[2] != 4 {
		t.Fatalf("fibers %v", fibers)
	}
	// Root 0 has children [0,2), root 2 has [2,3).
	if c.Ptr[0][0] != 0 || c.Ptr[0][1] != 2 || c.Ptr[0][2] != 3 {
		t.Fatalf("root ptrs %v", c.Ptr[0])
	}
	// Node (0,1) has two leaves.
	if c.Ptr[1][0] != 0 || c.Ptr[1][1] != 2 {
		t.Fatalf("level-1 ptrs %v", c.Ptr[1])
	}
}

func TestCSFEnumeratesAllNonzeros(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		order := 3 + src.Intn(2)
		dims := make([]int, order)
		for i := range dims {
			dims[i] = 4 + src.Intn(12)
		}
		x := GenUniform(seed, 150, dims...)
		mo := make([]int, order)
		for i := range mo {
			mo[i] = i
		}
		// Random mode order: rotate by a random amount.
		rot := src.Intn(order)
		mo = append(mo[rot:], mo[:rot]...)
		c := NewCSF(x, mo)
		if c.NNZ() != x.NNZ() {
			return false
		}
		// Walk the tree and reconstruct every coordinate; the multiset of
		// (coords, value) must equal the COO entries.
		recovered := New(dims...)
		idx := make([]int, order)
		var walk func(l int, n int32)
		walk = func(l int, n int32) {
			idx[mo[l]] = int(c.Idx[l][n])
			if l == order-1 {
				recovered.Append(c.Vals[n], idx...)
				return
			}
			for ch := c.Ptr[l][n]; ch < c.Ptr[l][n+1]; ch++ {
				walk(l+1, ch)
			}
		}
		// Roots need their leaf range walked via child pointers; roots are
		// level-0 nodes.
		if order >= 2 {
			for r := int32(0); r < int32(len(c.Idx[0])); r++ {
				idx[mo[0]] = int(c.Idx[0][r])
				for ch := c.Ptr[0][r]; ch < c.Ptr[0][r+1]; ch++ {
					walk(1, ch)
				}
			}
		}
		if recovered.NNZ() != x.NNZ() {
			return false
		}
		recovered.Sort()
		x.Sort()
		for i := range x.Entries {
			if x.Entries[i] != recovered.Entries[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestCSFValidation(t *testing.T) {
	x := GenUniform(1, 50, 5, 5, 5)
	for _, bad := range [][]int{{0, 1}, {0, 0, 1}, {0, 1, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewCSF(%v) must panic", bad)
				}
			}()
			NewCSF(x, bad)
		}()
	}
}

// Duplicate coordinates stay separate leaves of one fiber, in storage
// order, so a tree sums them exactly as the COO entries list them.
func TestCSFKeepsDuplicatesInStorageOrder(t *testing.T) {
	dup := New(3, 3, 3)
	dup.Append(1, 1, 1, 1)
	dup.Append(5, 1, 0, 2)
	dup.Append(2, 1, 1, 1)
	dup.Append(3, 1, 1, 1)
	c := NewCSF(dup, []int{0, 1, 2})
	if f := c.Fibers(); f[0] != 1 || f[1] != 2 || f[2] != 4 {
		t.Fatalf("fibers %v, want [1 2 4]", f)
	}
	if want := []uint32{2, 1, 1, 1}; !slices.Equal(c.Idx[2], want) {
		t.Fatalf("leaf indices %v, want %v", c.Idx[2], want)
	}
	if want := []float64{5, 1, 2, 3}; !slices.Equal(c.Vals, want) {
		t.Fatalf("leaf values %v, want %v", c.Vals, want)
	}
}

func TestCSFEmpty(t *testing.T) {
	c := NewCSF(New(3, 3, 3), []int{0, 1, 2})
	if c.NNZ() != 0 || len(c.Ptr[0]) != 1 {
		t.Fatalf("empty CSF: %+v", c)
	}
}

func TestCSFFiberCompression(t *testing.T) {
	// Data with strong fiber locality: few (i, j) pairs, many k values.
	x := New(10, 10, 200)
	src := rng.New(9)
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			for n := 0; n < 40; n++ {
				x.Append(1, i, j, src.Intn(200))
			}
		}
	}
	x.DedupSum()
	c := NewCSF(x, []int{0, 1, 2})
	fibers := c.Fibers()
	if fibers[0] != 5 || fibers[1] != 25 {
		t.Fatalf("expected 5 roots, 25 fibers; got %v", fibers)
	}
	if fibers[2] != x.NNZ() {
		t.Fatalf("leaves %d != nnz %d", fibers[2], x.NNZ())
	}
}

// Coordinates too wide to pack into one sort key take the comparison
// sort; both orderings build the same tree.
func TestCSFBuilderUnpackedSortMatchesPacked(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		x := GenUniform(seed, 400, 6, 5, 4, 7)
		for i := 0; i < 50; i++ {
			e := x.Entries[i*3]
			e.Val++
			x.Entries = append(x.Entries, e)
		}
		x.InvalidateIndex()
		mo := []int{2, 0, 3, 1}
		want := NewCSF(x, mo)

		b := NewCSFBuilder(x.Dims, mo, x.NNZ())
		b.bits = 65 // as if the levels below the root needed 65 bits
		mi := x.ModeIndex(mo[0])
		for r := 0; r < x.Dims[mo[0]]; r++ {
			var idx []uint32
			var vals []float64
			for _, p := range mi.Perm[mi.RowPtr[r]:mi.RowPtr[r+1]] {
				e := &x.Entries[p]
				for _, m := range mo[1:] {
					idx = append(idx, e.Idx[m])
				}
				vals = append(vals, e.Val)
			}
			b.AddRoot(uint32(r), idx, vals)
		}
		if got := b.CSF(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: comparison-sorted tree differs from the packed-key one", seed)
		}
	}
}
