package dist

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"cstf/internal/cpals"
	"cstf/internal/la"
	"cstf/internal/rng"
	"cstf/internal/tensor"
)

// Worker serves MTTKRP tasks for one coordinator at a time. It is a pure
// executor: all control flow (partitioning, scheduling, reduction order,
// convergence) lives in the coordinator, so a worker is stateless between
// sessions and can be killed at any moment without corrupting a run.
type Worker struct {
	// Logf, when non-nil, receives connection-lifecycle log lines.
	Logf func(format string, args ...any)

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
}

// NewWorker returns a Worker ready to Serve.
func NewWorker() *Worker { return &Worker{conns: map[net.Conn]struct{}{}} }

func (w *Worker) logf(format string, args ...any) {
	if w.Logf != nil {
		w.Logf(format, args...)
	}
}

// Serve accepts coordinator connections on ln until the listener fails or
// Close is called, handling one session at a time. Sequential sessions
// (e.g. consecutive benchmark runs) reuse the same worker process.
func (w *Worker) Serve(ln net.Listener) error {
	w.mu.Lock()
	if w.conns == nil {
		w.conns = map[net.Conn]struct{}{}
	}
	if w.closed {
		w.mu.Unlock()
		ln.Close()
		return fmt.Errorf("dist: worker is closed")
	}
	w.ln = ln
	w.mu.Unlock()
	pol := defaultRetry
	seed := rng.Hash64(rng.HashAny(ln.Addr().String()), 0x5e12)
	acceptFails := 0
	for {
		c, err := ln.Accept()
		if err != nil {
			w.mu.Lock()
			closed := w.closed
			w.mu.Unlock()
			if closed {
				return nil
			}
			// Transient failures (EMFILE, network stack hiccups) back off
			// under the shared policy instead of tearing the worker down; a
			// closed listener or persistent error still exits. Consecutive
			// failures are bounded — a successful accept resets the count.
			if errors.Is(err, net.ErrClosed) {
				return err
			}
			if acceptFails < pol.MaxAttempts {
				acceptFails++
				w.logf("dist: worker accept (attempt %d): %v", acceptFails, err)
				t := time.NewTimer(pol.Delay(seed, acceptFails))
				<-t.C
				continue
			}
			return err
		}
		acceptFails = 0
		w.mu.Lock()
		if w.closed {
			w.mu.Unlock()
			c.Close()
			return nil
		}
		w.conns[c] = struct{}{}
		w.mu.Unlock()
		w.logf("dist: worker session from %s", c.RemoteAddr())
		w.handle(c)
		w.mu.Lock()
		delete(w.conns, c)
		w.mu.Unlock()
	}
}

// Close stops the listener and severs any active coordinator connection.
// From the coordinator's perspective this is indistinguishable from the
// worker process dying — which is exactly what chaos kills use it for.
func (w *Worker) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.closed = true
	if w.ln != nil {
		w.ln.Close()
	}
	for c := range w.conns {
		c.Close()
	}
	return nil
}

// shardKey identifies a resident shard: shards are cut per (mode,
// output-row range) and never overlap within a mode; a worker holds at
// most one full and one sampled shard per range.
type shardKey struct {
	mode         int
	rowLo, rowHi int
	sampled      bool
}

// wsession is the per-connection worker state. The read loop stores
// shards/factors and the executor goroutine reads them; the mutex makes
// the handoff safe when a reassigned shard arrives while an earlier task
// of the same stage is still executing. Factor updates (full or delta)
// swap the matrix pointer under the mutex — copy-on-write — so a task
// that snapshotted the previous matrix keeps reading consistent state.
type wsession struct {
	mu      sync.Mutex
	hello   *Hello
	shards  map[shardKey]resident
	factors []*la.Dense
}

// resident is a shard as the worker keeps it. A full shard of a session
// that runs the CSF kernel (Hello flag HelloUseCSF) is its CSF tree, in
// the tensor.RootedOrder of the shard's mode, built while the payload is
// decoded; its entries are never materialised. Any other shard keeps its
// entries for the COO kernel.
type resident struct {
	entries []tensor.Entry
	tree    *tensor.CSF
}

func (w *Worker) handle(c net.Conn) {
	defer c.Close()
	br := bufio.NewReaderSize(c, 1<<16)
	bw := bufio.NewWriterSize(c, 1<<16)
	var wmu sync.Mutex
	send := func(t MsgType, payload []byte) error {
		wmu.Lock()
		defer wmu.Unlock()
		if err := WriteFrame(bw, t, payload); err != nil {
			return err
		}
		return bw.Flush()
	}

	s := &wsession{shards: map[shardKey]resident{}}

	// Tasks execute on their own goroutine so the read loop keeps
	// answering heartbeats while a long MTTKRP runs.
	taskc := make(chan *Task, 64)
	done := make(chan struct{})
	defer func() { close(taskc); <-done }()
	go func() {
		defer close(done)
		broken := false // keep draining taskc so the read loop never blocks
		for t := range taskc {
			if broken {
				continue
			}
			res, err := s.execGuarded(t)
			if err != nil {
				if send(MsgErr, EncodeErr(&RemoteError{TaskID: t.ID, Msg: err.Error()})) != nil {
					broken = true
				}
				continue
			}
			if send(MsgResult, EncodeResult(res)) != nil {
				broken = true
			}
		}
	}()

	for {
		mt, payload, err := ReadFrame(br)
		if err != nil {
			if err != io.EOF {
				w.logf("dist: worker read: %v", err)
			}
			return
		}
		switch mt {
		case MsgHello:
			h, err := DecodeHello(payload)
			if err != nil {
				w.logf("dist: worker bad hello: %v", err)
				return
			}
			if h.Version != ProtocolVersion {
				send(MsgErr, EncodeErr(&RemoteError{Msg: (&VersionError{Coordinator: h.Version, Worker: ProtocolVersion}).Error()}))
				return
			}
			s.mu.Lock()
			s.hello = h
			s.factors = make([]*la.Dense, h.Order)
			s.mu.Unlock()
			if err := send(MsgHelloAck, EncodeHello(&Hello{Version: ProtocolVersion, Order: h.Order, Rank: h.Rank, Dims: h.Dims, Worker: h.Worker, Workers: h.Workers})); err != nil {
				return
			}
		case MsgShard:
			if err := s.addShard(payload); err != nil {
				w.logf("dist: worker refused shard: %v", err)
				send(MsgErr, EncodeErr(&RemoteError{Msg: err.Error()}))
				return
			}
		case MsgFactor:
			f, err := DecodeFactor(payload)
			if err != nil {
				w.logf("dist: worker bad factor: %v", err)
				return
			}
			s.mu.Lock()
			if s.factors == nil || f.Mode >= len(s.factors) {
				s.mu.Unlock()
				w.logf("dist: worker factor before hello or mode out of range")
				return
			}
			s.factors[f.Mode] = f.M
			s.mu.Unlock()
		case MsgFactorDelta:
			fd, err := DecodeFactorDelta(payload)
			if err != nil {
				w.logf("dist: worker bad factor delta: %v", err)
				return
			}
			if err := s.applyDelta(fd); err != nil {
				send(MsgErr, EncodeErr(&RemoteError{Msg: err.Error()}))
				return
			}
		case MsgTask:
			t, err := DecodeTask(payload)
			if err != nil {
				w.logf("dist: worker bad task: %v", err)
				return
			}
			taskc <- t
		case MsgPing:
			if err := send(MsgPong, payload); err != nil {
				return
			}
		case MsgShutdown:
			return
		default:
			w.logf("dist: worker unexpected frame %v", mt)
			return
		}
	}
}

// addShard decodes a shard payload and makes it resident, replacing the
// shard held under the same key (per-epoch sampled shards reuse theirs).
// Every index is checked against the session shape while it is decoded, so
// the kernels can trust the shard; a payload that is malformed or does not
// fit is a protocol error.
func (s *wsession) addShard(payload []byte) error {
	s.mu.Lock()
	h := s.hello
	s.mu.Unlock()
	if h == nil {
		return fmt.Errorf("shard before hello")
	}
	r, err := newShardReader(payload, h.Dims)
	if err != nil {
		return err
	}
	var res resident
	if h.Flags&HelloUseCSF != 0 && !r.shard.Sampled {
		res.tree = buildShardTree(r, h.Dims)
	} else {
		res.entries = readEntries(r)
	}
	if err := r.finish(); err != nil {
		return err
	}
	sh := r.shard
	s.mu.Lock()
	s.shards[shardKey{sh.Mode, sh.RowLo, sh.RowHi, sh.Sampled}] = res
	s.mu.Unlock()
	return nil
}

// buildShardTree decodes a shard's row groups straight into the levels of
// its CSF tree. The groups arrive in ascending row order, each in storage
// order, so the tree equals rows [RowLo, RowHi) of the whole tensor's
// tree for the same mode. A decode error stops the walk; the caller reads
// it from r.finish.
func buildShardTree(r *shardReader, dims []int) *tensor.CSF {
	b := tensor.NewCSFBuilder(dims, tensor.RootedOrder(len(dims), r.shard.Mode), r.nnz)
	for r.next() {
		b.AddRoot(uint32(r.row), r.idx, r.vals)
	}
	return b.CSF()
}

// applyDelta patches the changed rows of one factor copy-on-write: the
// resident matrix is cloned, the rows land in the clone, and the pointer
// swaps under the lock. A task that snapshotted the old matrix keeps
// reading unchanged state — the coordinator guarantees any task that must
// see the new rows is sent after the delta on the same ordered connection.
// A delta for a factor never broadcast is a protocol error: deltas are
// only valid against state this worker was actually sent.
func (s *wsession) applyDelta(fd *FactorDelta) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.factors == nil || fd.Mode < 0 || fd.Mode >= len(s.factors) {
		return fmt.Errorf("factor delta before hello or mode %d out of range", fd.Mode)
	}
	f := s.factors[fd.Mode]
	if f == nil {
		return fmt.Errorf("factor delta for mode %d before any full broadcast", fd.Mode)
	}
	if fd.Cols != f.Cols {
		return fmt.Errorf("factor delta mode %d: %d cols, resident factor has %d", fd.Mode, fd.Cols, f.Cols)
	}
	n := len(fd.Indices)
	if n > 0 && fd.Indices[n-1] >= f.Rows {
		return fmt.Errorf("factor delta mode %d: row %d out of %d", fd.Mode, fd.Indices[n-1], f.Rows)
	}
	nf := f.Clone()
	for i, idx := range fd.Indices {
		copy(nf.Row(idx), fd.Rows[i*fd.Cols:(i+1)*fd.Cols])
	}
	s.factors[fd.Mode] = nf
	return nil
}

// execGuarded runs a task, converting any panic (e.g. a malformed shard
// driving a library precondition) into a reported task error instead of
// crashing the worker process.
func (s *wsession) execGuarded(t *Task) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("task panic: %v", r)
		}
	}()
	return s.exec(t)
}

// snapshot resolves the state a task needs under the lock, so execution
// proceeds without holding it.
func (s *wsession) snapshot() (*Hello, []*la.Dense) {
	s.mu.Lock()
	defer s.mu.Unlock()
	factors := make([]*la.Dense, len(s.factors))
	copy(factors, s.factors)
	return s.hello, factors
}

func (s *wsession) exec(t *Task) (*Result, error) {
	hello, factors := s.snapshot()
	if hello == nil {
		return nil, fmt.Errorf("task before hello")
	}
	if t.Kind != TaskPartialMTTKRP {
		return nil, fmt.Errorf("unknown task kind %d", uint8(t.Kind))
	}
	return s.execMTTKRP(t, hello, factors)
}

// execMTTKRP computes output rows [RowLo, RowHi) of the mode-t.Mode MTTKRP
// from the resident full or sampled shard. A shard kept as entries is in
// the stable ModeIndex Perm order, and each output row is accumulated
// entry by entry in that order — the identical floating-point sequence the
// shared-memory MTTKRPWorkers kernel performs for those rows. A shard kept
// as a CSF tree gives each row the bits the single-process CSF kernel
// gives it: NewCSF builds every root's subtree the way buildShardTree does.
// (The CSF kernel is not bitwise the COO one: the factored arithmetic
// associates the same sums differently.)
func (s *wsession) execMTTKRP(t *Task, hello *Hello, factors []*la.Dense) (*Result, error) {
	key := shardKey{t.Mode, t.RowLo, t.RowHi, t.Sampled}
	s.mu.Lock()
	sh, ok := s.shards[key]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("no resident shard for mode %d rows [%d,%d) (sampled %v)", t.Mode, t.RowLo, t.RowHi, t.Sampled)
	}
	for n, f := range factors {
		if n != t.Mode && f == nil {
			return nil, fmt.Errorf("mttkrp mode %d: factor %d not broadcast", t.Mode, n)
		}
	}
	if factors[t.Mode] == nil {
		// The kernels read only the other modes' rows; give them the shape.
		factors[t.Mode] = la.NewDense(hello.Dims[t.Mode], hello.Rank)
	}
	out := la.NewDense(t.RowHi-t.RowLo, hello.Rank)
	if sh.tree != nil {
		cpals.MTTKRPCSFInto(out, t.RowLo, sh.tree, factors)
	} else {
		cpals.MTTKRPEntries(out, t.RowLo, sh.entries, t.Mode, factors)
	}
	return &Result{ID: t.ID, Kind: t.Kind, RowLo: t.RowLo, Rows: out}, nil
}
