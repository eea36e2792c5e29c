package cstf_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"cstf"
	"cstf/internal/cpals"
	"cstf/internal/dist"
	"cstf/internal/la"
	"cstf/internal/tensor"
)

// Golden hashes pin the bitwise contracts of every real-runtime solver:
// for each (algorithm, kernel) the SHA-256 of lambda, the factors and the
// fits must be the same at every Parallelism, at every dist worker count,
// and for a run resumed from a mid-run checkpoint. The hashes in
// testdata/golden.json were captured before the solvers shared one sweep
// engine; any change to them is a change of results, not a refactor. ncp
// on a fleet, which the engine made possible, must hash to the same ncp
// golden as the local runs.
//
//	go test -run TestGoldenHashes -update-golden .   # rewrite the file

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden.json from the current solvers")

const goldenPath = "testdata/golden.json"

// goldenEntry is one committed hash: the algorithm configuration, the
// MTTKRP kernel it ran, and the SHA-256 of its result.
type goldenEntry struct {
	Name   string `json:"name"`
	Kernel string `json:"kernel"`
	SHA256 string `json:"sha256"`
}

// goldenTensor is small but has one mode longer than four par blocks, so
// block-ordered reductions span several blocks at every worker count.
func goldenTensor() *cstf.Tensor {
	x := cstf.LowRankTensor(17, 4000, 3, 0.01, 9000, 50, 40)
	x.Dedup() // the hashes were captured on the deduplicated tensor
	return x
}

const (
	goldenRank  = 3
	goldenIters = 6
	goldenHead  = 4 // iteration the resumed runs were checkpointed at
)

// decompositionHash is the SHA-256 of lambda, every factor (shape and
// element bits) and every per-iteration fit.
func decompositionHash(lambda []float64, factors [][]float64, shapes [][2]int, fits []float64) string {
	h := sha256.New()
	put := func(v uint64) {
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	putFloats := func(xs []float64) {
		put(uint64(len(xs)))
		for _, v := range xs {
			put(math.Float64bits(v))
		}
	}
	putFloats(lambda)
	put(uint64(len(factors)))
	for n, f := range factors {
		put(uint64(shapes[n][0]))
		put(uint64(shapes[n][1]))
		putFloats(f)
	}
	putFloats(fits)
	return hex.EncodeToString(h.Sum(nil))
}

func publicHash(d *cstf.Decomposition) string {
	var factors [][]float64
	var shapes [][2]int
	for _, f := range d.Factors {
		data := make([]float64, 0, f.Rows()*f.Cols())
		for i := 0; i < f.Rows(); i++ {
			data = append(data, f.Row(i)...)
		}
		factors = append(factors, data)
		shapes = append(shapes, [2]int{f.Rows(), f.Cols()})
	}
	return decompositionHash(d.Lambda, factors, shapes, d.Fits)
}

func resultHash(r *cpals.Result) string {
	var factors [][]float64
	var shapes [][2]int
	for _, f := range r.Factors {
		factors = append(factors, f.Data)
		shapes = append(shapes, [2]int{f.Rows, f.Cols})
	}
	return decompositionHash(r.Lambda, factors, shapes, r.Fits)
}

// goldenCase is one (algorithm, kernel) configuration of the public API.
type goldenCase struct {
	name    string
	kernel  string
	opts    cstf.Options
	workers []int // dist fleet sizes to run it on besides coordinator-only (nil: none)
	local   bool  // also run it without a fleet
	// internal runs the fleet sizes through dist.Solve with the COO
	// kernel instead of the public API, whose dist algorithm always runs
	// the CSF kernel.
	internal bool
}

func goldenCases(nnz int) []goldenCase {
	base := cstf.Options{Rank: goldenRank, MaxIters: goldenIters, NoConvergenceCheck: true, Seed: 3}
	with := func(f func(o *cstf.Options)) cstf.Options {
		o := base
		f(&o)
		return o
	}
	fleets := []int{1, 2, 4}
	return []goldenCase{
		{name: "serial", kernel: "coo", local: true,
			opts: with(func(o *cstf.Options) { o.Algorithm = cstf.Serial })},
		{name: "dist", kernel: "coo", workers: fleets, internal: true},
		{name: "dist", kernel: "csf", workers: fleets,
			opts: with(func(o *cstf.Options) { o.Algorithm = cstf.Dist })},
		{name: "rals-sampled", kernel: "coo", local: true, workers: fleets,
			opts: with(func(o *cstf.Options) {
				o.Algorithm = cstf.RALS
				o.RALS = cstf.RALSOptions{SampleFraction: 0.3, ResampleEvery: 2}
			})},
		{name: "rals-full-budget", kernel: "coo", local: true, workers: fleets,
			opts: with(func(o *cstf.Options) {
				o.Algorithm = cstf.RALS
				o.RALS = cstf.RALSOptions{SampleCount: nnz}
			})},
		{name: "rals-polish", kernel: "coo", local: true, workers: fleets,
			opts: with(func(o *cstf.Options) {
				o.Algorithm = cstf.RALS
				o.RALS = cstf.RALSOptions{SampleFraction: 0.3, ResampleEvery: 2, ExactFinishIters: 2}
			})},
		{name: "ncp", kernel: "coo", local: true, workers: fleets,
			opts: with(func(o *cstf.Options) {
				o.Algorithm = cstf.NCP
				o.NTF = cstf.NTFOptions{InnerIters: 2}
			})},
	}
}

// runPublic runs one configuration fresh, or resumed from the checkpoint
// a run of the same options wrote at goldenHead before it was cancelled.
// The head run keeps MaxIters: rals' polish phase is scheduled from it.
func runPublic(t *testing.T, x *cstf.Tensor, o cstf.Options, resumed bool) string {
	t.Helper()
	if !resumed {
		d, err := cstf.Decompose(x, o)
		if err != nil {
			t.Fatal(err)
		}
		return publicHash(d)
	}
	path := filepath.Join(t.TempDir(), "golden.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	head := o
	head.Faults.CheckpointEvery = goldenHead
	head.Faults.CheckpointPath = path
	head.OnIteration = cancelAfter(cancel)
	if _, err := cstf.DecomposeContext(ctx, x, head); !errors.Is(err, context.Canceled) {
		t.Fatalf("head run: want context.Canceled after iteration %d, got %v", goldenHead, err)
	}
	d, err := cstf.DecomposeResume(x, path, o)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	return publicHash(d)
}

// cancelAfter cancels the run once iteration goldenHead-1 has reported,
// so the solver stops right after writing the goldenHead checkpoint.
func cancelAfter(cancel context.CancelFunc) func(int, float64) bool {
	return func(iter int, _ float64) bool {
		if iter == goldenHead-1 {
			cancel()
		}
		return false
	}
}

// internalHash runs solve with the given kernel through the solvers'
// internal options, fresh or resumed from the state its checkpoint hook
// saw at goldenHead. It covers the configurations the public API has no
// switch for: the serial CSF solve, and the COO kernel on a dist fleet.
func internalHash(t *testing.T, x *cstf.Tensor, csf bool, parallelism int, resumed bool, solve func(*tensor.COO, cpals.Options) (*cpals.Result, error)) string {
	t.Helper()
	coo := internalTensor(x)
	opts := cpals.Options{Rank: goldenRank, MaxIters: goldenIters, Seed: 3,
		Parallelism: parallelism, CSFKernel: csf}
	if resumed {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		head := opts
		head.Ctx = ctx
		head.OnIteration = cancelAfter(cancel)
		head.CheckpointEvery = goldenHead
		head.OnCheckpoint = func(iter int, lambda []float64, factors []*la.Dense, fits []float64) error {
			opts.StartIter = iter
			opts.InitLambda = la.VecClone(lambda)
			opts.InitFits = append([]float64(nil), fits...)
			opts.InitFactors = nil
			for _, f := range factors {
				opts.InitFactors = append(opts.InitFactors, f.Clone())
			}
			return nil
		}
		if _, err := solve(coo, head); !errors.Is(err, context.Canceled) {
			t.Fatalf("head run: want context.Canceled, got %v", err)
		}
		if opts.StartIter != goldenHead {
			t.Fatalf("checkpoint hook fired at %d, want %d", opts.StartIter, goldenHead)
		}
	}
	res, err := solve(coo, opts)
	if err != nil {
		t.Fatal(err)
	}
	return resultHash(res)
}

// distSolve is dist.Solve on the workers of cl.
func distSolve(cl *dist.LocalCluster) func(*tensor.COO, cpals.Options) (*cpals.Result, error) {
	return func(x *tensor.COO, o cpals.Options) (*cpals.Result, error) {
		res, _, err := dist.Solve(x, o, cl.Config())
		return res, err
	}
}

// internalTensor copies a public tensor into the solver representation,
// entry for entry in storage order.
func internalTensor(x *cstf.Tensor) *tensor.COO {
	coo := tensor.New(x.Dims()...)
	for i := 0; i < x.NNZ(); i++ {
		idx, v := x.Entry(i)
		coo.Append(v, idx...)
	}
	return coo
}

func TestGoldenHashes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every solver at every placement")
	}
	x := goldenTensor()
	got := map[string]string{} // "name/kernel" -> hash
	var order []goldenEntry
	record := func(name, kernel, label, h string) {
		key := name + "/" + kernel
		if prev, ok := got[key]; !ok {
			got[key] = h
			order = append(order, goldenEntry{Name: name, Kernel: kernel})
		} else if prev != h {
			t.Errorf("%s (%s): hash %s differs from the first placement's %s", key, label, h[:12], prev[:12])
		}
	}

	for _, p := range []int{1, 2} {
		for _, resumed := range []bool{false, true} {
			record("serial", "csf", fmt.Sprintf("P%d resumed=%v", p, resumed), internalHash(t, x, true, p, resumed, cpals.Solve))
		}
	}
	for _, c := range goldenCases(x.NNZ()) {
		for _, p := range []int{1, 2} {
			for _, resumed := range []bool{false, true} {
				o := c.opts
				o.Parallelism = p
				if c.local {
					record(c.name, c.kernel, fmt.Sprintf("local P%d resumed=%v", p, resumed), runPublic(t, x, o, resumed))
				}
				for _, w := range c.workers {
					cl, err := dist.StartInProcess(w)
					if err != nil {
						t.Fatal(err)
					}
					var h string
					if c.internal {
						h = internalHash(t, x, false, p, resumed, distSolve(cl))
					} else {
						o.Dist.Addrs = cl.Addrs
						h = runPublic(t, x, o, resumed)
					}
					cl.Close()
					record(c.name, c.kernel, fmt.Sprintf("%d workers P%d resumed=%v", w, p, resumed), h)
				}
			}
		}
	}

	for i := range order {
		order[i].SHA256 = got[order[i].Name+"/"+order[i].Kernel]
	}
	if *updateGolden {
		b, err := json.MarshalIndent(order, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create it)", err)
	}
	var want []goldenEntry
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	for _, w := range want {
		h, ok := got[w.Name+"/"+w.Kernel]
		if !ok {
			t.Errorf("golden %s/%s was not computed", w.Name, w.Kernel)
			continue
		}
		if h != w.SHA256 {
			t.Errorf("%s/%s: hash %s, golden %s", w.Name, w.Kernel, h, w.SHA256)
		}
	}
	if len(want) != len(order) {
		t.Errorf("computed %d configurations, golden file has %d", len(order), len(want))
	}
}
