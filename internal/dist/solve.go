package dist

import (
	"errors"
	"fmt"
	"time"

	"cstf/internal/chaos"
	"cstf/internal/cpals"
	"cstf/internal/la"
	"cstf/internal/rals"
	"cstf/internal/tensor"
)

// Run runs the sweep engine with every MTTKRP executed on the workers cfg
// names and p deciding the row updates. Only where the MTTKRPs run
// changes, so the result is bitwise identical to cpals.Run with the local
// backend of o.CSFKernel's kernel for every worker count and every task
// placement, including placements forced by worker deaths. (The CSF kernel
// is not bitwise the COO one: it evaluates the same sums in a different
// order.)
//
// The returned Stats are real measurements (wall clock, bytes on sockets),
// populated even when the solve fails partway.
func Run(t *tensor.COO, o cpals.Options, p cpals.Policy, cfg Config) (*cpals.Result, Stats, error) {
	start := time.Now()
	if err := o.Validate(t); err != nil {
		return nil, Stats{}, err
	}
	s, err := NewSession(t, o.Rank, o.CSFKernel, cfg)
	if err != nil {
		return nil, Stats{WallSeconds: time.Since(start).Seconds()}, err
	}
	defer s.Close()
	if hook := o.OnCheckpoint; hook != nil && s.cfg.OnTornWrite != nil && s.cfg.Plan != nil {
		// A scheduled TornWrite fires right after the checkpoint callback:
		// the hook damages the file just written, simulating a crash
		// mid-write that a later resume must detect.
		o.OnCheckpoint = func(iter int, lambda []float64, factors []*la.Dense, fits []float64) error {
			if err := hook(iter, lambda, factors, fits); err != nil {
				return err
			}
			if len(s.cfg.Plan.TakeEvents(s.stageSeq, chaos.TornWrite)) > 0 {
				s.logf("dist: chaos tears the checkpoint written at iteration %d", iter)
				s.cfg.OnTornWrite(iter)
			}
			return nil
		}
	}
	f := newFleet(s, o.Workers())
	res, err := cpals.Run(t, o, f, p)
	st := s.Stats()
	st.Degraded = f.degraded
	st.WallSeconds = time.Since(start).Seconds()
	return res, st, err
}

// Solve runs exact CP-ALS on the fleet: Run with the least-squares policy.
func Solve(t *tensor.COO, opts cpals.Options, cfg Config) (*cpals.Result, Stats, error) {
	return Run(t, opts, cpals.LS{Workers: opts.Workers()}, cfg)
}

// SolveSampled runs randomized ALS (internal/rals) on the fleet: Run with
// the sampled policy. Each epoch's sampled tensors are cut into shards on
// the full tensor's frozen row ranges and shipped to the same workers, so
// the result is bitwise identical to rals.Solve.
func SolveSampled(t *tensor.COO, o rals.Options, cfg Config) (*cpals.Result, Stats, error) {
	p, err := rals.NewPolicy(t, o)
	if err != nil {
		return nil, Stats{}, err
	}
	return Run(t, o.Options, p, cfg)
}

// fleet is the cpals.Backend that runs MTTKRPs on a Session's workers. All
// methods run on the solver goroutine.
//
// Range k of every mode's frozen partition lives on worker slot k: its
// full shard is shipped at the mode's first exact MTTKRP, its sampled
// shard at every epoch. A task that lands off its home slot gets the shard
// re-shipped and every input factor resynced as needed.
//
// Fleet collapse — no live worker for a stage, or fewer than
// Config.MinWorkers live before one — does not fail the run unless
// MinWorkers is negative: the backend switches to coordinator-local
// MTTKRPs for the rest of the solve, bitwise identical to the distributed
// ones.
type fleet struct {
	s      *Session
	ranges [][]tensor.NNZRange // frozen full-tensor row partition per mode
	local  *cpals.Local        // the kernels after fleet collapse
	w      int
	ws     cpals.Workspace
	cur    []*la.Dense // live factors, for rejoin resyncs

	epoch    int // Resample calls so far: tags the sampled shards' generation
	sampled  []*tensor.COO
	shipped  []bool // shipped[mode]: the full shards went out
	degraded bool
}

func newFleet(s *Session, w int) *fleet {
	t := s.t
	order := t.Order()
	f := &fleet{
		s:       s,
		ranges:  make([][]tensor.NNZRange, order),
		local:   cpals.NewLocal(t, s.csf, w),
		w:       w,
		cur:     make([]*la.Dense, order),
		shipped: make([]bool, order),
	}
	// The cut points depend only on (tensor, worker count), so re-runs —
	// and reassignments within a run — see identical tasks.
	for m := range f.ranges {
		f.ranges[m] = t.ModeIndex(m).Ranges(len(s.remotes))
	}
	s.InitComms(f.ranges)
	s.TrackFactors(f.cur)
	return f
}

// gen is the generation tag of the shards an MTTKRP reads: 1 for full
// shards, the epoch count (from 1) for the current epoch's sampled ones.
// 0, the value of an absent key, never matches.
func (f *fleet) gen(sampled bool) int {
	if sampled {
		return f.epoch
	}
	return 1
}

// ship sends worker r the (mode, rg) shard of the full tensor or of the
// current sample, replacing whatever it held under the same key.
func (f *fleet) ship(r *remote, mode int, rg tensor.NNZRange, sampled bool) error {
	src := f.s.t
	if sampled {
		src = f.sampled[mode]
	}
	mi := src.ModeIndex(mode)
	perm := mi.Perm[mi.RowPtr[rg.RowLo]:mi.RowPtr[rg.RowHi]]
	sh := &Shard{Mode: mode, Order: src.Order(), RowLo: rg.RowLo, RowHi: rg.RowHi, Sampled: sampled}
	buf := make([]byte, 0, shardSizeBound(src.Dims, mode, rg.RowLo, rg.RowHi, len(perm)))
	payload := appendShard(buf, sh, src.Entries, perm)
	if err := f.s.enqueue(r, MsgShard, payload); err != nil {
		return err
	}
	f.s.stats.ShardBytes += int64(len(payload))
	r.shards[shardKey{mode, rg.RowLo, rg.RowHi, sampled}] = f.gen(sampled)
	return nil
}

// shipHome sends every non-empty range's shard to its live home worker. A
// failed send is left for the task's prep hook to retry wherever the task
// lands.
func (f *fleet) shipHome(mode int, sampled bool) {
	for k, rg := range f.ranges[mode] {
		if f.empty(mode, rg, sampled) {
			continue
		}
		if r := f.s.remotes[k]; r.alive.Load() {
			f.ship(r, mode, rg, sampled)
		}
	}
}

// empty reports a range with no nonzeros to read: never for the full
// tensor (Ranges drops empty ranges), often for a sample.
func (f *fleet) empty(mode int, rg tensor.NNZRange, sampled bool) bool {
	if !sampled {
		return false
	}
	mi := f.sampled[mode].ModeIndex(mode)
	return mi.RowPtr[rg.RowLo] == mi.RowPtr[rg.RowHi]
}

func (f *fleet) Resample(sampled []*tensor.COO) {
	f.epoch++
	f.sampled = sampled
	f.local.Resample(sampled)
	if !f.degraded {
		for m, sm := range sampled {
			if sm != nil {
				f.shipHome(m, true)
			}
		}
	}
}

func (f *fleet) FactorUpdated(mode int, m *la.Dense) {
	f.cur[mode] = m
	if !f.degraded {
		f.s.FactorUpdate(mode, m)
	}
}

// MTTKRP runs one stage of PartialMTTKRP tasks, one per non-empty range.
// Output row ranges are disjoint, so assembly is pure placement; rows no
// range covers stay zero, as the local kernels leave them.
func (f *fleet) MTTKRP(mode int, factors []*la.Dense, sampled bool) (*la.Dense, error) {
	if !f.degraded {
		if live, floor := f.s.Alive(), f.s.minWorkers(); live < floor {
			f.degrade(&NoWorkersError{Stage: f.s.stageSeq, Live: live, Floor: floor})
		}
	}
	if f.degraded {
		return f.local.MTTKRP(mode, factors, sampled)
	}
	if !sampled && !f.shipped[mode] {
		f.shipHome(mode, false)
		f.shipped[mode] = true
	}
	rank := factors[0].Cols
	out := f.ws.Out(mode, f.s.t.Dims[mode], rank, f.w)
	var tasks []*stageTask
	for k, rg := range f.ranges[mode] {
		if f.empty(mode, rg, sampled) {
			continue
		}
		rg, k := rg, k
		key := shardKey{mode, rg.RowLo, rg.RowHi, sampled}
		tasks = append(tasks, &stageTask{
			task: &Task{Kind: TaskPartialMTTKRP, Mode: mode, RowLo: rg.RowLo, RowHi: rg.RowHi, Sampled: sampled},
			home: k,
			prep: func(r *remote) error {
				if r.slot != k {
					// The MTTKRP inputs are every factor but this mode's.
					for m := range factors {
						if m == mode {
							continue
						}
						if err := f.s.ensureCurrent(r, m, factors[m]); err != nil {
							return err
						}
					}
				}
				if r.shards[key] == f.gen(sampled) {
					return nil
				}
				f.s.stats.ShardResends++
				return f.ship(r, mode, rg, sampled)
			},
			onResult: func(res *Result) error {
				if res.Rows == nil || res.Rows.Rows != rg.RowHi-rg.RowLo || res.Rows.Cols != rank {
					return fmt.Errorf("dist: mttkrp mode %d rows [%d,%d): malformed result", mode, rg.RowLo, rg.RowHi)
				}
				copy(out.Data[rg.RowLo*rank:rg.RowHi*rank], res.Rows.Data)
				return nil
			},
		})
	}
	err := f.s.runStage(tasks)
	var nw *NoWorkersError
	if errors.As(err, &nw) && f.s.cfg.MinWorkers >= 0 {
		// Partial results may have landed in out; the local kernels
		// recompute the whole MTTKRP with the same bits.
		f.degrade(err)
		return f.local.MTTKRP(mode, factors, sampled)
	}
	return out, err
}

// degrade moves every remaining MTTKRP to the coordinator.
func (f *fleet) degrade(cause error) {
	f.s.logf("dist: %v; degrading to coordinator-local MTTKRPs", cause)
	f.degraded = true
}
