package main

import (
	"context"
	"fmt"
	"runtime"
	"time"
	"unsafe"

	"cstf"
	"cstf/internal/cpals"
	"cstf/internal/dist"
	"cstf/internal/la"
	"cstf/internal/rng"
	"cstf/internal/tensor"
	"cstf/internal/workload"
)

// alsSpec is one exact CP-ALS workload.
type alsSpec struct {
	name    string
	alg     cstf.Algorithm
	rank    int
	iters   int
	tensors int // inputs per run, all drawn from the seed
	gen     func(seed uint64, small bool) *tensor.COO
}

// nell1Tensor is the nell1 stand-in of workload.Datasets() at about 1M
// nonzeros (modes about 20k x 15k x 178k, Zipf-skewed fibers), drawn from
// the benchmark seed instead of the dataset's fixed one.
func nell1Tensor(seed uint64, small bool) *tensor.COO {
	c, err := workload.ByName("nell1")
	if err != nil {
		panic(err)
	}
	nnz := 1_000_000
	if small {
		nnz = 20_000
	}
	scale := float64(nnz) / float64(c.NNZ)
	return tensor.GenZipf(seed, c.ScaledNNZ(scale), c.Skew, c.ScaledDims(scale)...)
}

// blockTensor is a 4th-order dense-block tensor: about 1M nonzeros in
// 10^4-cell blocks of an 800 x 600 x 500 x 400 space.
func blockTensor(seed uint64, small bool) *tensor.COO {
	if small {
		return tensor.GenBlockSparse(seed, 20_000, 8, 5, 0.1, 80, 60, 50, 40)
	}
	return tensor.GenBlockSparse(seed, 1_000_000, 8, 10, 0.1, 800, 600, 500, 400)
}

var (
	alsSerial = alsSpec{name: "als-serial", alg: cstf.Serial, rank: 16, iters: 5, tensors: 1, gen: nell1Tensor}
	// als-dist solves three inputs per run: its solve time and fit depend
	// on where the generator puts the blocks (the shards' balance over the
	// workers, subnormal factor entries), and the run reports their mean.
	alsDist = alsSpec{name: "als-dist", alg: cstf.Dist, rank: 16, iters: 10, tensors: 3, gen: blockTensor}
)

// inputSeed is the generator seed of input k of a run: the run's seed for
// the first input, a hash of it for the others.
func inputSeed(seed uint64, k int) uint64 {
	if k == 0 {
		return seed
	}
	return rng.Hash64(seed, 0xa15, uint64(k))
}

// alsInput is one generated training tensor, in both representations.
type alsInput struct {
	x *tensor.COO
	t *cstf.Tensor
}

// distWorkers is the in-process TCP-loopback worker count of als-dist.
const distWorkers = 2

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 3

// publicTensor copies an internal COO tensor into the public API's type.
func publicTensor(x *tensor.COO) *cstf.Tensor {
	t := cstf.NewTensor(x.Dims...)
	idx := make([]int, x.Order())
	for i := range x.Entries {
		e := &x.Entries[i]
		for n := range idx {
			idx[n] = int(e.Idx[n])
		}
		t.Append(e.Val, idx...)
	}
	return t
}

// denseFactors copies a decomposition's factors into la matrices.
func denseFactors(d *cstf.Decomposition) []*la.Dense {
	out := make([]*la.Dense, len(d.Factors))
	for n, f := range d.Factors {
		m := la.NewDense(f.Rows(), f.Cols())
		for i := 0; i < f.Rows(); i++ {
			copy(m.Row(i), f.Row(i))
		}
		out[n] = m
	}
	return out
}

// solveRun is one timed Decompose call.
type solveRun struct {
	d     *cstf.Decomposition
	dur   time.Duration
	iters []time.Duration // wall time between progress reports
}

// solve runs one decomposition, timing it and every iteration from the
// OnIteration progress reports; with a tracer each iteration is a span.
func solve(t *cstf.Tensor, o cstf.Options, tr *tracer, parent int, name string) (solveRun, error) {
	var run solveRun
	id := tr.begin(name, parent)
	start := time.Now()
	last := start
	o.OnIteration = func(iter int, fit float64) bool {
		now := time.Now()
		run.iters = append(run.iters, now.Sub(last))
		tr.add("solver.iter", id, last, now)
		last = now
		return false
	}
	d, err := cstf.DecomposeContext(context.Background(), t, o)
	run.dur = time.Since(start)
	tr.end(id)
	run.d = d
	return run, err
}

// reportTimes estimates, from repeated solves of the same work, the time
// from the call at which one solve reports each fit, in ms: the k-th is
// the sum over the first k iterations of the median over solves of that
// iteration's time. A median per iteration keeps a stall the shared host
// gives one iteration out of the estimate, and keeps iterations that cost
// more than others (the first, or late ones with many subnormal factor
// entries) at their own cost. Every solve runs the same iteration count.
func reportTimes(runs []solveRun) []float64 {
	var at []float64
	var t float64
	for i := range runs[0].iters {
		var its []float64
		for _, r := range runs {
			its = append(its, ms(r.iters[i]))
		}
		t += median(its)
		at = append(at, t)
	}
	return at
}

// solveSeconds estimates the wall time of one solve: the time of its last
// fit report (reportTimes) plus the median time the call took beyond it.
func solveSeconds(runs []solveRun) float64 {
	var tails []float64
	for _, r := range runs {
		d := r.dur
		for _, it := range r.iters {
			d -= it
		}
		tails = append(tails, d.Seconds())
	}
	at := reportTimes(runs)
	return median(tails) + at[len(at)-1]/1e3
}

// runALS runs an exact CP-ALS workload: set up, then for each input an
// untimed warm-up solve and repeated timed solves for its share of the
// run's duration; a traced run adds the reference solves and the per-layer
// probes on the first input.
func runALS(c *config, rep *report, tr *tracer, spec alsSpec) error {
	root := tr.begin("workload."+spec.name, 0)
	defer tr.end(root)

	input := func(k int) alsInput {
		x := spec.gen(inputSeed(c.seed, k), c.small)
		return alsInput{x: x, t: publicTensor(x)}
	}
	var (
		in0     alsInput
		cl      *dist.LocalCluster
		setups  []float64
		genTime []float64
	)
	for i := 0; i < setupReps; i++ {
		if cl != nil {
			cl.Close()
			cl = nil
		}
		in0 = alsInput{}
		runtime.GC() // start each set-up from the same heap
		start := time.Now()
		genTime = append(genTime, ms(tr.timed("tensor.generate", root, func() { in0 = input(0) })))
		if spec.alg == cstf.Dist {
			var err error
			if cl, err = dist.StartInProcess(distWorkers); err != nil {
				return fmt.Errorf("start dist workers: %w", err)
			}
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	if cl != nil {
		defer cl.Close()
	}
	rep.set("setup_s", median(setups))
	rep.set("tensor.generate_ms", median(genTime))

	opts := cstf.Options{
		Algorithm: spec.alg, Rank: spec.rank, MaxIters: spec.iters,
		NoConvergenceCheck: true, Seed: c.seed,
	}
	if cl != nil {
		opts.Dist.Addrs = cl.Addrs
	}

	// A batch workload has no serving path: the caller's request is the
	// Decompose call itself (closed loop, one client), and its freshness is
	// how long after the call each fit is reported (lag_p50_ms and
	// lag_p90_ms are quantiles over the fits of one call). Set-up
	// makes the first input; the others are made, untimed, when their turn
	// comes and dropped after it, so only two are held at once. Each input
	// gets one untimed warm-up solve, which also carries the fit check, and
	// an equal share of the measured phase.
	var (
		first          solveRun // the first input's first measured solve
		trains, fits   []float64
		lag50, lag90   []float64
		solves, failed int
	)
	slot := c.run / time.Duration(spec.tensors)
	for k := 0; k < spec.tensors; k++ {
		in := in0
		if k > 0 {
			runtime.GC()
			in = input(k)
		}
		rep.notef("input %d: dims %v, nnz %d, rank %d, %d iterations", k, in.x.Dims, in.x.NNZ(), spec.rank, spec.iters)
		warm, err := solve(in.t, opts, nil, root, "")
		solves++
		if err != nil {
			rep.ops(solves, failed+1)
			return fmt.Errorf("input %d: warm-up solve: %w", k, err)
		}
		rep.check(fmt.Sprintf("input %d: fit matches an independent recomputation", k),
			checkFit(in.x, warm.d.Lambda, denseFactors(warm.d), warm.d.Fit(), fitRecomputeTol))
		var runs []solveRun
		start := time.Now()
		for len(runs) == 0 || time.Since(start) < slot {
			run, err := solve(in.t, opts, tr, root, "solve."+string(spec.alg))
			solves++
			if err != nil {
				failed++
				rep.check("solve", err)
				break
			}
			rep.check(fmt.Sprintf("input %d: repeated solve reproduces the fit bitwise", k), sameBits(warm.d.Fit(), run.d.Fit()))
			runs = append(runs, run)
		}
		if len(runs) == 0 {
			break
		}
		if k == 0 {
			first = runs[0]
		}
		trains = append(trains, solveSeconds(runs))
		at := reportTimes(runs)
		lag50 = append(lag50, quantile(at, 0.5))
		lag90 = append(lag90, quantile(at, 0.9))
		fits = append(fits, runs[0].d.Fit())
	}
	rep.ops(solves, failed)
	if len(trains) < spec.tensors {
		return nil
	}
	mean := func(xs []float64) float64 { return sum(xs) / float64(len(xs)) }
	train := mean(trains)
	rep.set("train_s", train)
	rep.set("train_fit", mean(fits))
	rep.set("query_p50_ms", 1e3*train)
	rep.set("query_qps", 1/train)
	rep.set("lag_p50_ms", mean(lag50))
	rep.set("lag_p90_ms", mean(lag90))
	rep.notef("samples: %d timed solves of %d iterations over %d inputs, after one warm-up solve each", solves-spec.tensors, spec.iters, spec.tensors)

	if !c.traced {
		return nil
	}
	var iterMs []float64
	for _, it := range first.iters {
		iterMs = append(iterMs, ms(it))
	}
	rep.set("solver.iter_ms", median(iterMs))
	rep.set("solver.iters", float64(first.d.Iters))

	// The probes and references use the first input. An untraced solve of
	// the same algorithm gives the tracing overhead; a serial solve of the
	// same tensor and options is the fit reference.
	x, t := in0.x, in0.t
	plain, plainDur, err := timeSolve(t, opts)
	if err != nil {
		return fmt.Errorf("untraced reference solve: %w", err)
	}
	rep.set("trace.overhead_frac", trains[0]/plainDur.Seconds()-1)
	serial, serialDur := plain, plainDur
	if spec.alg != cstf.Serial {
		serialOpts := opts
		serialOpts.Algorithm = cstf.Serial
		serialOpts.Dist = cstf.DistOptions{}
		if serial, serialDur, err = timeSolve(t, serialOpts); err != nil {
			return fmt.Errorf("serial reference solve: %w", err)
		}
	}
	rep.check("fit agrees with a serial solve", relClose(first.d.Fit(), serial.Fit(), 1e-9))

	if spec.alg == cstf.Dist {
		m := first.d.Metrics
		rep.set("dist.wire_sent_mb", float64(m.WireBytesSent)/1e6)
		rep.set("dist.wire_recv_mb", float64(m.WireBytesRecv)/1e6)
		rep.set("dist.shard_mb", float64(m.WireShardBytes)/1e6)
		rep.set("dist.factor_mb", float64(m.WireFactorBytes)/1e6)
		rep.set("dist.delta_frames", float64(m.WireDeltaFrames))
		rep.set("dist.worker_deaths", float64(m.WorkerDeaths))
		rep.set("dist.reassignments", float64(m.TaskReassignments))
		rep.set("dist.vs_serial_ratio", plainDur.Seconds()/serialDur.Seconds())
		probeCodec(x, denseFactors(first.d), rep, tr, root)
	}
	probeKernels(x, first.d.Lambda, denseFactors(first.d), median(iterMs), rep, tr, root)
	return nil
}

// timeSolve is the wall time of one untraced Decompose call.
func timeSolve(t *cstf.Tensor, o cstf.Options) (*cstf.Decomposition, time.Duration, error) {
	start := time.Now()
	d, err := cstf.Decompose(t, o)
	return d, time.Since(start), err
}

// probeKernels times the exported kernels of one ALS iteration on the
// training tensor x with its final factors: MTTKRP per mode with both the
// COO and the CSF kernel, and the la steps of the row update. The sum of
// one iteration's COO kernel and la times, plus the fit, is what the
// probes explain of iterMs; the rest is solver.unaccounted_frac.
func probeKernels(x *tensor.COO, lambda []float64, factors []*la.Dense, iterMs float64, rep *report, tr *tracer, parent int) {
	root := tr.begin("probe.kernels", parent)
	defer tr.end(root)
	const reps = 3
	w := (&cpals.Options{}).Workers()
	order, rank, nnz := x.Order(), factors[0].Cols, x.NNZ()
	best := func(name string, f func()) float64 {
		var ts []float64
		for i := 0; i < reps; i++ {
			ts = append(ts, ms(tr.timed(name, root, f)))
		}
		return median(ts)
	}

	var csfs []*tensor.CSF
	rep.set("tensor.csf_build_ms", best("cpals.BuildCSFs", func() { csfs = cpals.BuildCSFs(x) }))
	rep.set("tensor.bytes_per_nnz", float64(unsafe.Sizeof(tensor.Entry{})))

	grams := make([]*la.Dense, order)
	for n := range factors {
		grams[n] = la.GramParallel(factors[n], w)
	}
	ws := &cpals.Workspace{}
	var cooSum, csfSum, gramSum, pinvSum, solveSum, normSum, bytes float64
	var lastM *la.Dense
	for n := 0; n < order; n++ {
		var m *la.Dense
		coo := best(fmt.Sprintf("cpals.mttkrp.coo.m%d", n), func() {
			m = cpals.MTTKRPWorkers(x, n, factors, w, ws.Out(n, x.Dims[n], rank, w), ws)
		})
		csf := best(fmt.Sprintf("cpals.mttkrp.csf.m%d", n), func() { cpals.MTTKRPCSFWorkers(csfs[n], factors, w) })
		rep.set(fmt.Sprintf("cpals.mttkrp.coo.m%d_ms", n), coo)
		rep.set(fmt.Sprintf("cpals.mttkrp.csf.m%d_ms", n), csf)
		cooSum += coo
		csfSum += csf
		// Computed bytes of the COO kernel: every entry, one gathered
		// factor row per other mode, and the output rows once.
		bytes += float64(nnz)*(float64(unsafe.Sizeof(tensor.Entry{}))+float64((order-1)*rank*8)) + float64(x.Dims[n]*rank*8)

		gramSum += best("la.GramParallel", func() { la.GramParallel(factors[n], w) })
		var pinv *la.Dense
		pinvSum += best("la.Pinv", func() { pinv = la.Pinv(cpals.HadamardOfGramsExcept(grams, n)) })
		a := la.NewDense(factors[n].Rows, rank)
		solveSum += best("la.row_solve", func() {
			la.RowBlocksApply(w, a.Rows, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					la.VecMatInto(a.Row(i), m.Row(i), pinv)
				}
			})
		})
		normSum += best("la.NormalizeColumnsParallel", func() {
			b := factors[n].Clone()
			la.NormalizeColumnsParallel(b, w)
		})
		lastM = m
	}
	fitMs := best("cpals.FitFromWorkers", func() {
		cpals.FitFromWorkers(x.Norm(), lastM, factors[order-1], lambda, grams, w)
	})
	flops := float64(order) * cpals.MTTKRPFlops(nnz, order, rank)
	rep.set("cpals.mttkrp.coo_gflops", flops/cooSum/1e6)
	rep.set("cpals.mttkrp.csf_gflops", flops/csfSum/1e6)
	rep.set("cpals.mttkrp.coo_gbps_computed", bytes/cooSum/1e6)
	rep.set("cpals.fit_ms", fitMs)
	rep.set("la.gram_ms", gramSum)
	rep.set("la.pinv_ms", pinvSum)
	rep.set("la.row_solve_ms", solveSum)
	rep.set("la.normalize_ms", normSum)
	explained := cooSum + gramSum + pinvSum + solveSum + normSum + fitMs
	rep.set("solver.unaccounted_frac", (iterMs-explained)/iterMs)
	rep.notef("kernel ledger (computed): COO %.2f GFLOP/s, CSF %.2f GFLOP/s over %d modes; faster kernel: %s",
		flops/cooSum/1e6, flops/csfSum/1e6, order, fasterKernel(cooSum, csfSum))
}

func fasterKernel(coo, csf float64) string {
	if csf < coo {
		return "csf"
	}
	return "coo"
}

// probeCodec times the dist wire codec on payloads the size of this
// workload's: one worker's shard of mode 0, and a factor delta carrying
// every row of the longest mode.
func probeCodec(x *tensor.COO, factors []*la.Dense, rep *report, tr *tracer, parent int) {
	root := tr.begin("probe.codec", parent)
	defer tr.end(root)
	const reps = 3
	hi := x.Dims[0] / distWorkers
	sh := &dist.Shard{Mode: 0, Order: x.Order(), RowLo: 0, RowHi: hi}
	for i := range x.Entries {
		if int(x.Entries[i].Idx[0]) < hi {
			sh.Entries = append(sh.Entries, x.Entries[i])
		}
	}
	long := 0
	for n, f := range factors {
		if f.Rows > factors[long].Rows {
			long = n
		}
	}
	f := factors[long]
	delta := &dist.FactorDelta{Mode: long, Cols: f.Cols, Rows: f.Data}
	for i := 0; i < f.Rows; i++ {
		delta.Indices = append(delta.Indices, i)
	}
	var enc, dec, encD, decD []float64
	for i := 0; i < reps; i++ {
		var b, bd []byte
		enc = append(enc, ms(tr.timed("dist.EncodeShard", root, func() { b = dist.EncodeShard(sh) })))
		dec = append(dec, ms(tr.timed("dist.DecodeShard", root, func() {
			if _, err := dist.DecodeShard(b); err != nil {
				rep.check("shard codec round trip", err)
			}
		})))
		encD = append(encD, ms(tr.timed("dist.EncodeFactorDelta", root, func() { bd = dist.EncodeFactorDelta(delta) })))
		decD = append(decD, ms(tr.timed("dist.DecodeFactorDelta", root, func() {
			if _, err := dist.DecodeFactorDelta(bd); err != nil {
				rep.check("delta codec round trip", err)
			}
		})))
	}
	rep.set("dist.encode_shard_ms", median(enc))
	rep.set("dist.decode_shard_ms", median(dec))
	rep.set("dist.encode_delta_ms", median(encD))
	rep.set("dist.decode_delta_ms", median(decD))
}
