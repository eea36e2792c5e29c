// Package dist is the real distributed runtime: a coordinator/worker
// system that executes CP-ALS MTTKRPs across OS processes over TCP. It is
// the first execution path in this repository that moves actual bytes over
// actual sockets — everything in internal/cluster remains a cost model.
//
// Dist is a place where MTTKRPs run, not a separate solver: the fleet is a
// cpals.Backend for the shared sweep engine, so every row-update policy
// (exact least squares, sampled least squares, NNLS) runs on it unchanged.
// MTTKRP is the only stage whose cost grows with nnz; the R x R gram
// Hadamard, the pseudo-inverse, the row updates, grams and the fit stay on
// the coordinator and run the serial kernels, so they are bitwise equal to
// a single-process run by construction.
//
// There is no closure shipping. The protocol has one task kind,
// PartialMTTKRP. The coordinator partitions the tensor once per mode with
// tensor.ModeIndex row partitioning, ships each worker its nonzero shards
// (and, for sampled ALS, each epoch's sampled shards cut on the same row
// ranges), and ships each updated factor per mode update as a delta of the
// rows that changed AND that the receiving worker's shards touch (full
// matrices only at session start and on resync). PartialMTTKRP output rows
// are disjoint between workers — the shards are cut at output-row
// boundaries — so "reduction" is assembly, and each row's accumulation
// order is the shard's stable Perm order: exactly the per-row sequence of
// the shared-memory kernel. The factorization is therefore bitwise
// identical to the single-process solver for every worker count and every
// task placement (including after worker deaths).
//
// Failure handling: the coordinator pings every worker; a missed-heartbeat
// timeout, a checksum-failed frame, or any socket error marks the worker
// dead, and its outstanding tasks are reassigned to survivors, re-sending
// the needed shard from the coordinator's resident copy — and a
// full-factor resync for any factor the substitute holds stale, never a
// delta against state it was not sent. A dead worker is not gone for
// good: a background rejoin loop redials its address with exponential
// backoff + jitter and, when the worker answers the handshake again, it is
// re-admitted mid-solve — shards re-ship lazily, factors resync in full —
// and its home tasks route back to it. If the live fleet falls below
// Config.MinWorkers, the backend switches to coordinator-local MTTKRPs for
// the rest of the run, bitwise identical to the distributed result. A
// chaos.FaultPlan can kill real worker processes, sever connections
// without killing (NetPartition), and corrupt outbound frames
// (FrameCorrupt) at stage boundaries, driving the same recovery paths the
// simulator models.
package dist

import (
	"fmt"

	"cstf/internal/la"
	"cstf/internal/tensor"
)

// ProtocolVersion is bumped on any wire-format change. Hello carries it;
// a mismatch aborts the handshake with a *VersionError. Version 2 added
// FactorDelta frames, the row-grouped varint shard encoding, and the Hello
// flags byte. Version 3 widened the frame header with a CRC32-C over the
// type byte and payload. Version 4 dropped every task kind but
// PartialMTTKRP and added the sampled flag to shards and tasks.
const ProtocolVersion = 4

// MsgType identifies a protocol frame.
type MsgType uint8

// The protocol frame types. Coordinator-to-worker unless noted.
const (
	MsgHello       MsgType = iota + 1 // session config
	MsgHelloAck                       // worker -> coordinator: handshake reply
	MsgShard                          // one mode's nonzero shard for a row range
	MsgFactor                         // full factor matrix broadcast
	MsgTask                           // task descriptor
	MsgResult                         // worker -> coordinator: task result
	MsgPing                           // heartbeat probe
	MsgPong                           // worker -> coordinator: heartbeat reply
	MsgErr                            // worker -> coordinator: task failure
	MsgShutdown                       // end of session
	MsgFactorDelta                    // changed factor rows since the last send
)

func (t MsgType) String() string {
	switch t {
	case MsgHello:
		return "hello"
	case MsgHelloAck:
		return "hello-ack"
	case MsgShard:
		return "shard"
	case MsgFactor:
		return "factor"
	case MsgTask:
		return "task"
	case MsgResult:
		return "result"
	case MsgPing:
		return "ping"
	case MsgPong:
		return "pong"
	case MsgErr:
		return "err"
	case MsgShutdown:
		return "shutdown"
	case MsgFactorDelta:
		return "factor-delta"
	default:
		return fmt.Sprintf("msg(%d)", uint8(t))
	}
}

// TaskKind enumerates the task vocabulary.
type TaskKind uint8

// TaskPartialMTTKRP computes the MTTKRP output rows [RowLo, RowHi) of one
// mode from the resident shard for that (mode, range) — the full tensor's
// shard, or the current sampled one. It is the only task kind.
const TaskPartialMTTKRP TaskKind = 1

func (k TaskKind) String() string {
	if k == TaskPartialMTTKRP {
		return "partial-mttkrp"
	}
	return fmt.Sprintf("task(%d)", uint8(k))
}

// Hello flag bits (Hello.Flags).
const (
	// HelloUseCSF asks the worker to keep its full shards as CSF trees
	// and run PartialMTTKRP on them with the SPLATT kernel instead of the
	// per-nonzero COO loop. Sampled shards stay COO.
	HelloUseCSF uint8 = 1 << 0
)

// Hello is the session handshake: tensor shape, decomposition rank, and
// the worker's identity within the session.
type Hello struct {
	Version uint16
	Flags   uint8 // Hello* bits
	Order   int
	Rank    int   // decomposition rank R
	Dims    []int // len Order
	Worker  int   // this worker's slot (rank order of reductions)
	Workers int   // session worker count
}

// Shard is one worker's share of a mode's nonzeros: exactly the entries
// whose Idx[Mode] falls in [RowLo, RowHi), in the stable ModeIndex Perm
// order. Only the first Order indices of each entry are on the wire.
// Sampled shards hold an epoch's importance-weighted sample instead of the
// full tensor; a worker keeps one of each per (mode, row range), and a new
// epoch's sampled shard replaces the previous one.
type Shard struct {
	Mode         int
	Order        int
	RowLo, RowHi int
	Sampled      bool
	Entries      []tensor.Entry
}

// Factor is a full factor-matrix broadcast for one mode.
type Factor struct {
	Mode int
	M    *la.Dense
}

// FactorDelta carries the factor rows of one mode that changed since the
// coordinator's last send to this worker. Rows[i] (a length-Cols row)
// replaces row Indices[i] of the resident factor; Indices are strictly
// ascending. A delta is only ever sent against state the worker is known
// to hold — a worker that never received the mode's full factor rejects
// the frame as a protocol error.
type FactorDelta struct {
	Mode    int
	Cols    int
	Indices []int     // strictly ascending row indices
	Rows    []float64 // len(Indices)*Cols, row-major
}

// Task is one PartialMTTKRP descriptor.
type Task struct {
	ID           uint64
	Kind         TaskKind
	Mode         int
	RowLo, RowHi int
	Sampled      bool // run over the resident sampled shard, not the full one
}

// Result is a completed task's payload: the MTTKRP output rows
// [RowLo, RowLo+Rows.Rows).
type Result struct {
	ID    uint64
	Kind  TaskKind
	RowLo int
	Rows  *la.Dense
}

// VersionError reports a handshake between peers of different protocol
// versions. Workers refuse a foreign coordinator with this error's text,
// which is also what workers of earlier versions send.
type VersionError struct {
	Coordinator, Worker uint16
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("protocol version mismatch: coordinator %d, worker %d", e.Coordinator, e.Worker)
}

// parseVersionError recognizes a worker's handshake refusal text.
func parseVersionError(msg string) (*VersionError, bool) {
	var e VersionError
	if n, _ := fmt.Sscanf(msg, "protocol version mismatch: coordinator %d, worker %d", &e.Coordinator, &e.Worker); n == 2 {
		return &e, true
	}
	return nil, false
}

// RemoteError is a task failure reported by a worker over the wire (as
// opposed to a transport failure, which kills the worker). It indicates a
// protocol-level bug — e.g. a task referencing a shard the worker was
// never sent — and aborts the session rather than triggering reassignment.
type RemoteError struct {
	TaskID uint64
	Msg    string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("dist: worker failed task %d: %s", e.TaskID, e.Msg)
}

// DecodeError reports malformed wire bytes: truncation, trailing garbage,
// counts that exceed the payload, or out-of-range fields. Decoders return
// it instead of panicking, so a corrupt or adversarial peer cannot crash
// the process.
type DecodeError struct {
	Msg    string
	Offset int // byte offset the decoder had reached
}

func (e *DecodeError) Error() string {
	return fmt.Sprintf("dist: decode error at byte %d: %s", e.Offset, e.Msg)
}

// CorruptFrameError reports a frame whose CRC32-C did not match its
// contents: the bytes were damaged in flight (or by a torn write on a
// proxy), not malformed by the peer. The receiver resets the connection —
// frame boundaries cannot be trusted after corruption — and the
// coordinator's normal death/rejoin machinery retries the lost work.
type CorruptFrameError struct {
	Type      MsgType
	Want, Got uint32 // header checksum vs computed checksum
}

func (e *CorruptFrameError) Error() string {
	return fmt.Sprintf("dist: corrupt %s frame: checksum %08x != %08x", e.Type, e.Got, e.Want)
}
