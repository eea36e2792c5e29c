package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cstf"
	"cstf/internal/ckpt"
	"cstf/internal/fleet"
	"cstf/internal/la"
	"cstf/internal/ntf"
	"cstf/internal/rank"
	"cstf/internal/rng"
	"cstf/internal/serve"
	"cstf/internal/stream"
	"cstf/internal/tensor"
)

// recsysSize sizes recsys-live.
type recsysSize struct {
	users, items, contexts, groups, nnz int
	trainIters                          int
	streamPct                           int     // percent of training interactions held back as the write stream
	window                              int     // events per ApplyDelta window
	eventRate                           float64 // write events per second
	readRate                            float64 // open-loop reads per second
	sweepEvery, sweepIters              int     // sampled full sweep every N windows
	probes                              int     // fleet-vs-single-node probe queries per window
}

func recsysSizing(small bool) recsysSize {
	if small {
		return recsysSize{users: 300, items: 2000, contexts: 3, groups: 4, nnz: 12_000, trainIters: 4,
			streamPct: 10, window: 50, eventRate: 200, readRate: 100, sweepEvery: 2, sweepIters: 1, probes: 2}
	}
	const window = 250
	return recsysSize{users: 6000, items: 20_000, contexts: 4, groups: 16, nnz: 600_000, trainIters: 8,
		streamPct: 5, window: window, sweepEvery: 4, sweepIters: 2, probes: 3,
		readRate:  readLoad * refCapacityQPS,
		eventRate: window * writeLoad / refWriteSeconds,
	}
}

// The open-loop rates of the full-size workload are fixed fractions of two
// reference measurements on the 2-core sizing host (perfbench/README.md,
// "recsys-live load"). They are constants, not measured per run, so that a
// faster read or write path meets the same offered load.
const (
	// refCapacityQPS is the closed-loop capacity of the uncached read path
	// (query_qps, median of seeds 1-10: 911/s).
	refCapacityQPS = 900
	// refWriteSeconds is the write path's busy time per 250-event window:
	// ApplyDelta 118 ms + Publish 84 ms + RollingReload 35 ms + a quarter
	// of a sampled FullSweep (237 ms).
	refWriteSeconds = 0.3
	// readLoad is the share of capacity offered as reads: low enough that
	// the read queue stays short and the latency is the read path's, not
	// a backlog's.
	readLoad = 0.25
	// writeLoad is the share of each window's arrival time the write path
	// is busy, so windows never queue behind one another.
	writeLoad = 0.3
)

// Read mix of the open-loop phase, in percent; the rest are Similar. The
// mix is the fleet experiment's (internal/experiments/fleet.go: ranked
// queries dominate) and the user skew is the Zipf exponent of the user
// modes of the repository's recommendation-shaped datasets (delicious3d
// and flickr in workload.Datasets).
const (
	topKPct    = 90
	predictPct = 5
	userTheta  = 0.8 // Zipf skew of the users reads ask about
	topK       = 10
	replicas   = 2
	clients    = 2
	// trainReps is how many times the model trains; train_s is estimated
	// from all of them.
	trainReps = 6
	// qpsSlice is the slice of the closed-loop phase each rate is taken
	// over; query_qps is the median slice rate.
	qpsSlice = 250 * time.Millisecond
	// writerParallelism bounds the write path's kernels to one core, so
	// the other stays available to reads between write bursts.
	writerParallelism = 1
)

// recsysInputs is everything set-up derives from the seed.
type recsysInputs struct {
	base   *tensor.COO    // initial training interactions
	public *cstf.Tensor   // base, in the public API's type
	events []tensor.Entry // training interactions that arrive as writes
	held   *tensor.COO    // one held-out interaction per user
	seen   [][]int        // per user: sorted items in base (the exclude set)
}

func makeRecsysInputs(seed uint64, sz recsysSize) (*recsysInputs, error) {
	x := tensor.GenRecsys(seed, sz.nnz, sz.users, sz.items, sz.contexts, sz.groups, 0.02)
	train, held, err := rank.Split(x, seed, 0)
	if err != nil {
		return nil, err
	}
	in := &recsysInputs{base: tensor.New(train.Dims...), held: held, seen: make([][]int, sz.users)}
	// A per-entry coordinate hash carves the write stream out of the
	// training set, and orders it: the same seed gives the same windows.
	type keyed struct {
		h uint64
		e tensor.Entry
	}
	var stream []keyed
	for _, e := range train.Entries {
		h := rng.Hash64(seed, 0x5eed, uint64(e.Idx[0]), uint64(e.Idx[1]), uint64(e.Idx[2]))
		if int(h%100) < sz.streamPct {
			stream = append(stream, keyed{h, e})
			continue
		}
		in.base.Entries = append(in.base.Entries, e)
		in.seen[e.Idx[0]] = append(in.seen[e.Idx[0]], int(e.Idx[1]))
	}
	sort.Slice(stream, func(a, b int) bool { return stream[a].h < stream[b].h })
	for _, k := range stream {
		in.events = append(in.events, k.e)
	}
	for u := range in.seen {
		s := in.seen[u]
		sort.Ints(s)
		out := s[:0]
		for i, v := range s {
			if i == 0 || v != s[i-1] {
				out = append(out, v)
			}
		}
		in.seen[u] = out
	}
	in.public = publicTensor(in.base)
	return in, nil
}

// live is the serving side of recsys-live: a sharded router over local
// replicas that reload the published checkpoint.
type live struct {
	path string
	lf   *fleet.LocalFleet
	rt   *fleet.Router
}

func startLive(path string) (*live, error) {
	lf, err := fleet.StartLocal(replicas, func(int) (*serve.Model, error) { return serve.LoadCheckpoint(path) },
		serve.Config{}, serve.HandlerConfig{ReloadPath: path})
	if err != nil {
		return nil, err
	}
	rt, err := fleet.New(fleet.Config{Replicas: lf.Configs(), Shard: true, ProbeInterval: 100 * time.Millisecond, Timeout: 30 * time.Second})
	if err != nil {
		lf.Close()
		return nil, err
	}
	return &live{path: path, lf: lf, rt: rt}, nil
}

func (l *live) Close() {
	l.rt.Close()
	l.lf.Close()
}

// writeStats is what the write path measured.
type writeStats struct {
	lag, queueWait                []float64 // per event, ms
	apply, publish, reload, sweep []float64 // per window or sweep, ms
	touched                       []float64
	windows, failed               int
	probes                        int
}

// runRecsys runs recsys-live: ncp training through the public API, then
// open-loop reads against a sharded fleet while open-loop writes stream
// through the updater, publisher and rolling reloads, then a closed-loop
// capacity phase and the final ranking evaluation.
func runRecsys(c *config, rep *report, tr *tracer) error {
	sz := recsysSizing(c.small)
	root := tr.begin("workload.recsys-live", 0)
	defer tr.end(root)

	var in *recsysInputs
	var setups, gens []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC() // start each set-up from the same heap
		start := time.Now()
		var err error
		gens = append(gens, ms(tr.timed("tensor.generate", root, func() { in, err = makeRecsysInputs(c.seed, sz) })))
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	rep.set("tensor.generate_ms", median(gens))

	opts := cstf.Options{Algorithm: cstf.NCP, Rank: sz.groups, MaxIters: sz.trainIters, NoConvergenceCheck: true, Seed: c.seed}
	traceOpts := opts
	ncpPath := filepath.Join(c.work, "ncp.ckpt")
	if c.traced {
		traceOpts.Faults = cstf.FaultOptions{CheckpointEvery: sz.trainIters, CheckpointPath: ncpPath}
	}
	// Training runs trainReps times, half before the live phases and half
	// after them, so that train_s, estimated from all of them, spans the
	// run rather than one stretch of the host's load. Every repeat must
	// reproduce the first model bitwise.
	var runs []solveRun
	var trains, plain []float64
	train := func(n int) error {
		for i := 0; i < n; i++ {
			runtime.GC() // start each training from the same heap
			r, err := solve(in.public, traceOpts, tr, root, "solve.ncp")
			rep.ops(1, 0)
			if err != nil {
				return fmt.Errorf("ncp training: %w", err)
			}
			trains = append(trains, r.dur.Seconds())
			if c.traced {
				// The untraced reference for trace.overhead_frac alternates
				// with the traced trainings and uses the same options, so
				// both sides write the same checkpoint.
				_, dur, err := timeSolve(in.public, traceOpts)
				if err != nil {
					return err
				}
				plain = append(plain, dur.Seconds())
			}
			runs = append(runs, r)
			if len(runs) > 1 {
				rep.check("repeated ncp training reproduces the fit bitwise", sameBits(runs[0].d.Fit(), r.d.Fit()))
			}
		}
		return nil
	}
	if err := train(trainReps / 2); err != nil {
		return err
	}
	run := runs[0]
	d := run.d
	factors := denseFactors(d)
	rep.set("train_fit", d.Fit())
	rep.check("fit matches an independent recomputation", checkFit(in.base, d.Lambda, factors, d.Fit(), fitRecomputeTol))
	rep.notef("input: dims %v, base nnz %d, %d write events, %d held-out, rank %d, %d iterations",
		in.base.Dims, in.base.NNZ(), len(in.events), in.held.NNZ(), sz.groups, sz.trainIters)

	// Set-up continues after training: the first publish and the fleet.
	liveStart := time.Now()
	u, err := stream.NewUpdater(in.base, d.Lambda, factors, c.seed, writerParallelism)
	if err != nil {
		return err
	}
	u.SetSweepSampling(&stream.SweepSampling{SampleFraction: 0.1})
	path := filepath.Join(c.work, "model.ckpt")
	pub := stream.NewPublisher(path, c.seed)
	if _, err := pub.Publish(u, d.Fit()); err != nil {
		return err
	}
	lv, err := startLive(path)
	if err != nil {
		return fmt.Errorf("start fleet: %w", err)
	}
	defer lv.Close()
	rep.set("setup_s", median(setups)+time.Since(liveStart).Seconds())

	// Open-loop phase: reads and writes at fixed rates for 13/20 of the run.
	phase := c.run * 13 / 20
	nEvents := int(sz.eventRate*phase.Seconds()) / sz.window * sz.window
	if nEvents > len(in.events)/sz.window*sz.window {
		nEvents = len(in.events) / sz.window * sz.window
	}
	if nEvents == 0 {
		return fmt.Errorf("no write window fits: %d events", len(in.events))
	}
	ctx := context.Background()
	var ws writeStats
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ws = writePath(ctx, c, rep, tr, root, sz, in, u, pub, lv, in.events[:nEvents])
	}()
	reads := readPhase(ctx, c.seed, sz, in, lv.rt, phase)
	wg.Wait()

	rep.ops(reads.scheduled+ws.windows, (reads.scheduled-reads.ok)+ws.failed)
	rep.check("open-loop reads (rolling reloads drop no query)", checkNoDrops(reads.scheduled, reads.ok))
	rep.set("query_p50_ms", median(reads.latency))
	rep.set("loadgen.query_p95_ms", quantile(reads.latency, 0.95))
	rep.set("loadgen.query_p99_ms", quantile(reads.latency, 0.99))
	rep.set("loadgen.late_p99_ms", quantile(reads.late, 0.99))
	rep.set("lag_p50_ms", median(ws.lag))
	rep.set("lag_p90_ms", quantile(ws.lag, 0.9))
	rep.notef("samples: %d open-loop reads, %d events in %d windows (%d probe queries checked)",
		len(reads.latency), len(ws.lag), ws.windows, ws.probes)

	// Closed-loop capacity phase.
	rates, done, failed := closedLoop(ctx, c.seed, sz, in, lv.rt, c.run*3/10)
	rep.ops(done+failed, failed)
	rep.set("query_qps", median(rates))
	busy := (sum(ws.apply) + sum(ws.publish) + sum(ws.reload) + sum(ws.sweep)) / float64(max(ws.windows, 1))
	arrival := 1e3 * float64(sz.window) / sz.eventRate
	rep.notef("load: reads at %.0f/s, %.2f of this run's capacity (%.0f/s); write path busy %.0f ms per window, %.2f of its %.0f ms arrival time",
		sz.readRate, sz.readRate/median(rates), median(rates), busy, busy/arrival, arrival)

	if err := train(trainReps - trainReps/2); err != nil {
		return err
	}
	rep.set("train_s", solveSeconds(runs))
	rep.notef("training: %d ncp solves of %d iterations, %.3f s each", len(runs), sz.trainIters, trains)
	if c.traced {
		rep.set("trace.overhead_frac", median(trains)/median(plain)-1)
	}

	// The final served model is ranked over the held-out split.
	final, err := serve.LoadCheckpoint(path)
	if err != nil {
		return err
	}
	var hr, pop rank.Metrics
	tr.timed("rank.EvalModel", root, func() { hr, err = rank.EvalModel(final, u.Tensor(), in.held, 0, 1, topK) })
	if err != nil {
		return err
	}
	if pop, err = rank.EvalPopularity(u.Tensor(), in.held, 0, 1, topK); err != nil {
		return err
	}
	rep.set("rank.hr_at_10", hr.HR)
	rep.set("rank.pop_hr_at_10", pop.HR)
	rep.check("served model beats popularity", checkBeatsPopularity(hr.HR, pop.HR))
	rep.notef("ranking: HR@10 %.4f over %d held-out cases (popularity %.4f)", hr.HR, hr.Cases, pop.HR)

	if !c.traced {
		return nil
	}
	var iterMs []float64
	for _, it := range run.iters {
		iterMs = append(iterMs, ms(it))
	}
	rep.set("solver.iter_ms", median(iterMs))
	rep.set("solver.iters", float64(d.Iters))
	cp, err := ckpt.Load(ncpPath)
	if err != nil {
		return fmt.Errorf("read ncp checkpoint: %w", err)
	}
	if cp.NTF != nil {
		rep.set("ntf.saturated_frac", ntf.SaturatedFrac(&ntf.State{Saturated: cp.NTF.Saturated}))
	}
	rep.set("stream.queue_wait_ms", median(ws.queueWait))
	rep.set("stream.apply_delta_ms", median(ws.apply))
	rep.set("stream.publish_ms", median(ws.publish))
	rep.set("stream.touched_rows", median(ws.touched))
	rep.set("stream.full_sweep_ms", median(ws.sweep))
	var loads []float64
	for i := 0; i < 3; i++ {
		loads = append(loads, ms(tr.timed("serve.LoadCheckpoint", root, func() { _, err = serve.LoadCheckpoint(path) })))
		if err != nil {
			return err
		}
	}
	rep.set("ckpt.read_ms", median(loads))
	rep.set("fleet.rolling_reload_ms", median(ws.reload))
	if st, err := os.Stat(path); err == nil {
		rep.set("ckpt.mb", float64(st.Size())/1e6)
	}
	probeServing(ctx, final, in, sz, lv, rep, tr, root)
	probeKernels(in.base, d.Lambda, factors, median(iterMs), rep, tr, root)
	return nil
}

// writePath consumes the write events: they arrive open-loop at the event
// rate into a stream.Queue; fixed-size windows are applied, a sampled full
// sweep runs every sweepEvery windows, and each window is published and
// rolled onto the fleet. After each roll, probe queries through the router
// are compared bitwise with a single-node scan of the published version.
func writePath(ctx context.Context, c *config, rep *report, tr *tracer, parent int, sz recsysSize,
	in *recsysInputs, u *stream.Updater, pub *stream.Publisher, lv *live, events []tensor.Entry) writeStats {
	var ws writeStats
	q := stream.NewQueue(stream.QueueConfig{Depth: len(events) + 1})
	start := time.Now()
	go func() {
		for i, e := range events {
			due := start.Add(time.Duration(float64(i) / sz.eventRate * float64(time.Second)))
			time.Sleep(time.Until(due))
			q.Push(e, due)
		}
		q.Close()
	}()
	src := rng.New(rng.Hash64(c.seed, 0x9b0be))
	var buf []stream.Event
	for {
		batch, open := q.Drain(sz.window-len(buf), 50*time.Millisecond)
		now := time.Now()
		for _, ev := range batch {
			ws.queueWait = append(ws.queueWait, ms(now.Sub(ev.At)))
		}
		buf = append(buf, batch...)
		if len(buf) < sz.window && open {
			continue
		}
		if len(buf) == 0 {
			break
		}
		if err := applyWindow(ctx, &ws, rep, tr, parent, sz, in, u, pub, lv, buf, src); err != nil {
			ws.failed++
			rep.check(fmt.Sprintf("write window %d", ws.windows), err)
		}
		ws.windows++
		buf = buf[:0]
		if !open {
			break
		}
	}
	rep.set("stream.events_dropped", float64(q.Stats().Dropped))
	return ws
}

func applyWindow(ctx context.Context, ws *writeStats, rep *report, tr *tracer, parent int, sz recsysSize,
	in *recsysInputs, u *stream.Updater, pub *stream.Publisher, lv *live, buf []stream.Event, src *rng.SplitMix64) error {
	id := tr.begin("stream.window", parent)
	defer tr.end(id)
	delta := make([]tensor.Entry, len(buf))
	for i, ev := range buf {
		delta[i] = ev.Entry
	}
	var st stream.UpdateStats
	var err error
	ws.apply = append(ws.apply, ms(tr.timed("stream.ApplyDelta", id, func() { st, err = u.ApplyDelta(delta) })))
	if err != nil {
		return err
	}
	ws.touched = append(ws.touched, float64(st.TouchedRows))
	if (ws.windows+1)%sz.sweepEvery == 0 {
		ws.sweep = append(ws.sweep, ms(tr.timed("stream.FullSweep", id, func() { _, err = u.FullSweep(sz.sweepIters) })))
		if err != nil {
			return err
		}
	}
	ws.publish = append(ws.publish, ms(tr.timed("stream.Publish", id, func() { _, err = pub.Publish(u, u.Fit()) })))
	if err != nil {
		return err
	}
	ws.reload = append(ws.reload, ms(tr.timed("fleet.RollingReload", id, func() { err = lv.rt.RollingReload(ctx) })))
	if err != nil {
		return err
	}
	now := time.Now()
	for _, ev := range buf {
		ws.lag = append(ws.lag, ms(now.Sub(ev.At)))
	}

	// The single-node reference is the updater's state that was just
	// published, so the probes check the checkpoint round trip, the
	// replicas' reload and the router's scatter-gather together.
	facs := make([]*la.Dense, len(u.Factors()))
	for n, f := range u.Factors() {
		facs[n] = f.Clone()
	}
	single, err := serve.NewModel(la.VecClone(u.Lambda()), facs, uint64(pub.Version()), 0)
	if err != nil {
		return err
	}
	for j := 0; j < sz.probes; j++ {
		user := src.Intn(sz.users)
		got, err := lv.rt.TopKExclude(ctx, 1, 0, user, topK, in.seen[user])
		if err != nil {
			return fmt.Errorf("probe query: %w", err)
		}
		want, err := single.TopKGivenRangeExclude(1, 0, user, topK, 0, single.Dims[1], in.seen[user])
		if err != nil {
			return err
		}
		ws.probes++
		rep.check(fmt.Sprintf("window %d: sharded TopK-with-exclude equals a single-node scan", ws.windows), sameScored(got, want))
	}
	return nil
}

// readStats is what the open-loop read phase measured.
type readStats struct {
	scheduled, ok int
	latency       []float64 // ms from each read's due time
	late          []float64 // ms the scheduler released each read after its due time
}

// readPhase sends reads open-loop at the read rate for d: a scheduler
// releases each read at its due time to two client goroutines, and each
// read's latency is measured from its due time, so time spent waiting for
// a free client counts.
func readPhase(ctx context.Context, seed uint64, sz recsysSize, in *recsysInputs, rt *fleet.Router, d time.Duration) readStats {
	n := int(sz.readRate * d.Seconds())
	type req struct {
		due, sent time.Time
		i         int
	}
	ch := make(chan req, n) // sized to the schedule, so the scheduler never blocks
	var mu sync.Mutex
	rs := readStats{scheduled: n}
	users := rng.NewZipf(sz.users, userTheta)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range ch {
				err := readOne(ctx, seed, sz, in, rt, users, r.i)
				lat := ms(time.Since(r.due))
				mu.Lock()
				if err == nil {
					rs.ok++
					rs.latency = append(rs.latency, lat)
				}
				rs.late = append(rs.late, ms(r.sent.Sub(r.due)))
				mu.Unlock()
			}
		}()
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) / sz.readRate * float64(time.Second)))
		time.Sleep(time.Until(due))
		ch <- req{due: due, sent: time.Now(), i: i}
	}
	close(ch)
	wg.Wait()
	return rs
}

// readOne issues read i of a seed-determined mix: TopK-with-exclude for a
// Zipf-drawn user, Predict, or Similar.
func readOne(ctx context.Context, seed uint64, sz recsysSize, in *recsysInputs, rt *fleet.Router, users *rng.Zipf, i int) error {
	src := rng.New(rng.Hash64(seed, 0x4ead, uint64(i)))
	user := users.Next(src)
	switch p := src.Intn(100); {
	case p < topKPct:
		_, err := rt.TopKExclude(ctx, 1, 0, user, topK, in.seen[user])
		return err
	case p < topKPct+predictPct:
		_, err := rt.Predict(ctx, user, src.Intn(sz.items), src.Intn(sz.contexts))
		return err
	default:
		_, err := rt.Similar(ctx, 1, src.Intn(sz.items), topK)
		return err
	}
}

// closedLoop runs two clients issuing TopK-with-exclude back to back for d,
// each read for a user no earlier read of the phase asked about.
// It returns the completion rate of each qpsSlice of the phase, and the
// completed and failed read counts.
func closedLoop(ctx context.Context, seed uint64, sz recsysSize, in *recsysInputs, rt *fleet.Router, d time.Duration) (rates []float64, done, failed int) {
	slices := int(d / qpsSlice)
	counts := make([]atomic.Int64, slices)
	// Every read asks about a different user, in a seed-shuffled order, so
	// the phase measures the uncached read path.
	src := rng.New(rng.Hash64(seed, 0xc105ed))
	order := make([]int, sz.users)
	for i := range order {
		j := src.Intn(i + 1)
		order[i], order[j] = order[j], i
	}
	var bad, next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				user := order[int(next.Add(1)-1)%len(order)]
				_, err := rt.TopKExclude(ctx, 1, 0, user, topK, in.seen[user])
				slice := int(time.Since(start) / qpsSlice)
				if slice >= slices {
					return
				}
				if err != nil {
					bad.Add(1)
					continue
				}
				counts[slice].Add(1)
			}
		}()
	}
	wg.Wait()
	for i := range counts {
		n := counts[i].Load()
		done += int(n)
		rates = append(rates, float64(n)/qpsSlice.Seconds())
	}
	return rates, done, int(bad.Load())
}

// probeServing times one ranked query at each serving layer on the final
// model, for users the load phases rarely ask about (the Zipf tail), so
// the result cache is cold: the model scan, the replica's Server, one
// replica over HTTP, the router, and the router's merge.
func probeServing(ctx context.Context, m *serve.Model, in *recsysInputs, sz recsysSize, lv *live, rep *report, tr *tracer, parent int) {
	root := tr.begin("probe.serving", parent)
	defer tr.end(root)
	const n = 20
	items := m.Dims[1]
	srv := lv.lf.Replicas[0].Server
	client := &http.Client{Timeout: 30 * time.Second}
	var scan, server, httpT, route, merge []float64
	for j := 0; j < n; j++ {
		user := sz.users - 1 - j
		ex := in.seen[user]
		var err error
		var a, b []serve.Scored
		scan = append(scan, ms(tr.timed("serve.Model.TopKGivenRangeExclude", root, func() {
			a, err = m.TopKGivenRangeExclude(1, 0, user, topK, 0, items/2, ex)
			if err == nil {
				b, err = m.TopKGivenRangeExclude(1, 0, user, topK, items/2, items, ex)
			}
		})))
		rep.check("model scan", err)
		merge = append(merge, ms(tr.timed("serve.MergeTopK", root, func() { serve.MergeTopK(topK, a, b) })))
		server = append(server, ms(tr.timed("serve.Server.TopKRangeExclude", root, func() {
			_, err = srv.TopKRangeExclude(ctx, 1, 0, user, topK, 0, items, ex)
		})))
		rep.check("server query", err)
		httpT = append(httpT, ms(tr.timed("serve.http", root, func() { err = httpTopK(client, lv.lf.Replicas[1].URL, user, ex) })))
		rep.check("replica HTTP query", err)
		route = append(route, ms(tr.timed("fleet.Router.TopKExclude", root, func() {
			_, err = lv.rt.TopKExclude(ctx, 1, 0, user, topK, ex)
		})))
		rep.check("router query", err)
	}
	rep.set("serve.scan_ms", median(scan))
	rep.set("serve.scan_gflops", 2*float64(items*len(m.Lambda()))/median(scan)/1e6)
	rep.set("serve.server_ms", median(server))
	rep.set("serve.http_ms", median(httpT))
	rep.set("fleet.route_ms", median(route))
	rep.set("fleet.merge_ms", median(merge))

	var hits, misses, batches, batched, shed float64
	for _, r := range lv.lf.Replicas {
		st := r.Server.Stats()
		hits += float64(st.CacheHits)
		misses += float64(st.CacheMisses)
		batches += float64(st.Batches)
		batched += float64(st.BatchedRequests)
		shed += float64(st.Shed)
	}
	rep.set("serve.cache_hit_rate", hits/max(hits+misses, 1))
	rep.set("serve.mean_batch", batched/max(batches, 1))
	rep.set("serve.shed", shed)
	var retries, errs float64
	for _, r := range lv.rt.Stats().Replicas {
		retries += float64(r.Retries)
		errs += float64(r.Errors)
	}
	rep.set("fleet.retries", retries)
	rep.set("fleet.errors", errs)
}

// httpTopK sends one full-mode TopK-with-exclude straight to a replica.
func httpTopK(client *http.Client, url string, user int, exclude []int) error {
	body, err := json.Marshal(map[string]any{"mode": 1, "given": 0, "row": user, "k": topK, "exclude": exclude})
	if err != nil {
		return err
	}
	resp, err := client.Post(url+"/topk", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("replica answered %s", resp.Status)
	}
	return nil
}
