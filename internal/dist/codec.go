package dist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"slices"

	"cstf/internal/la"
	"cstf/internal/tensor"
)

// Compact binary wire codec. Framing is a 9-byte header — type byte,
// big-endian uint32 payload length, big-endian CRC32-C over the type byte
// and payload — followed by the payload. Payload encodings are fixed-width
// big-endian; float64s travel as IEEE-754 bits. Every decoder is total:
// malformed input of any kind returns a *DecodeError, never a panic, and
// element counts are validated against the remaining payload BEFORE
// allocation so a corrupt length prefix cannot force a huge allocation.
// A checksum mismatch is a *CorruptFrameError, distinct from *DecodeError,
// so callers can tell line corruption from a peer speaking garbage; both
// end the connection — corruption is never silently absorbed.

// maxFrame bounds a frame payload (1 GiB). Shards of real tensors are the
// largest messages; a tensor bigger than this must be cut into more
// workers, not a bigger frame.
const maxFrame = 1 << 30

// frameHeaderLen is the wire header size: type(1) + length(4) + crc32c(4).
const frameHeaderLen = 9

// castagnoli is the CRC32-C table; hardware-accelerated on amd64/arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frameCRC covers the type byte and the payload. The length field is not
// covered directly, but a corrupted length makes the receiver checksum a
// different byte span, so it still fails the CRC (or the read blocks and
// the heartbeat kills the connection).
func frameCRC(t MsgType, payload []byte) uint32 {
	crc := crc32.Update(0, castagnoli, []byte{byte(t)})
	return crc32.Update(crc, castagnoli, payload)
}

// WriteFrame writes one frame: type byte, big-endian length, CRC32-C,
// payload.
func WriteFrame(w io.Writer, t MsgType, payload []byte) error {
	if len(payload) > maxFrame {
		return fmt.Errorf("dist: frame payload %d bytes exceeds limit %d", len(payload), maxFrame)
	}
	var hdr [frameHeaderLen]byte
	hdr[0] = byte(t)
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[5:], frameCRC(t, payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one frame. Transport errors pass through; a length
// beyond maxFrame or an unknown type byte yields a *DecodeError; a
// checksum mismatch yields a *CorruptFrameError.
func ReadFrame(r io.Reader) (MsgType, []byte, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	t := MsgType(hdr[0])
	if t < MsgHello || t > MsgFactorDelta {
		return 0, nil, &DecodeError{Msg: fmt.Sprintf("unknown frame type %d", hdr[0])}
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > maxFrame {
		return 0, nil, &DecodeError{Msg: fmt.Sprintf("frame length %d exceeds limit %d", n, maxFrame)}
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	want := binary.BigEndian.Uint32(hdr[5:])
	if got := frameCRC(t, payload); got != want {
		return 0, nil, &CorruptFrameError{Type: t, Want: want, Got: got}
	}
	return t, payload, nil
}

// --- append-style encoders ---

func appendU8(b []byte, v uint8) []byte { return append(b, v) }
func appendU16(b []byte, v uint16) []byte {
	return binary.BigEndian.AppendUint16(b, v)
}
func appendU32(b []byte, v uint32) []byte {
	return binary.BigEndian.AppendUint32(b, v)
}
func appendU64(b []byte, v uint64) []byte {
	return binary.BigEndian.AppendUint64(b, v)
}
func appendF64(b []byte, v float64) []byte {
	return binary.BigEndian.AppendUint64(b, math.Float64bits(v))
}

// appendUvarint encodes a varint (the only variable-width element in the
// protocol; shard payloads are index-heavy and dominated by small values).
func appendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

// appendDense encodes rows, cols, then the row-major data.
func appendDense(b []byte, m *la.Dense) []byte {
	b = appendU32(b, uint32(m.Rows))
	b = appendU32(b, uint32(m.Cols))
	for _, v := range m.Data {
		b = appendF64(b, v)
	}
	return b
}

// appendBool encodes a flag byte.
func appendBool(b []byte, v bool) []byte {
	if v {
		return appendU8(b, 1)
	}
	return appendU8(b, 0)
}

// --- sticky-error decoder ---

type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail(msg string) {
	if d.err == nil {
		d.err = &DecodeError{Msg: msg, Offset: d.off}
	}
}

func (d *dec) need(n int) bool {
	if d.err != nil {
		return false
	}
	if len(d.b)-d.off < n {
		d.fail(fmt.Sprintf("truncated: need %d bytes, have %d", n, len(d.b)-d.off))
		return false
	}
	return true
}

func (d *dec) u8() uint8 {
	if !d.need(1) {
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *dec) u16() uint16 {
	if !d.need(2) {
		return 0
	}
	v := binary.BigEndian.Uint16(d.b[d.off:])
	d.off += 2
	return v
}

func (d *dec) u32() uint32 {
	if !d.need(4) {
		return 0
	}
	v := binary.BigEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *dec) u64() uint64 {
	if !d.need(8) {
		return 0
	}
	v := binary.BigEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *dec) f64() float64 { return math.Float64frombits(d.u64()) }

// uvarint decodes one varint, bounding it to maxFrame so downstream int
// conversions cannot overflow.
func (d *dec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	if v > maxFrame {
		d.fail(fmt.Sprintf("varint %d out of range", v))
		return 0
	}
	d.off += n
	return v
}

// count validates an element count against the remaining payload, given a
// fixed per-element width, before the caller allocates.
func (d *dec) count(n uint32, elemBytes int, what string) int {
	if d.err != nil {
		return 0
	}
	if int64(n)*int64(elemBytes) > int64(len(d.b)-d.off) {
		d.fail(fmt.Sprintf("%s count %d exceeds remaining payload", what, n))
		return 0
	}
	return int(n)
}

func (d *dec) dense() *la.Dense {
	rows := d.u32()
	cols := d.u32()
	if d.err != nil {
		return nil
	}
	if rows > maxFrame/8 || cols > maxFrame/8 {
		d.fail(fmt.Sprintf("dense dimensions %dx%d out of range", rows, cols))
		return nil
	}
	total := int64(rows) * int64(cols)
	if total*8 > int64(len(d.b)-d.off) {
		d.fail(fmt.Sprintf("dense %dx%d exceeds remaining payload", rows, cols))
		return nil
	}
	m := la.NewDense(int(rows), int(cols))
	for i := range m.Data {
		m.Data[i] = d.f64()
	}
	return m
}

func (d *dec) flag() bool {
	switch d.u8() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("invalid flag byte")
		return false
	}
}

// done enforces that the payload was consumed exactly.
func (d *dec) done() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return &DecodeError{Msg: fmt.Sprintf("%d trailing bytes", len(d.b)-d.off), Offset: d.off}
	}
	return nil
}

// --- message codecs ---

// EncodeHello serializes a handshake.
func EncodeHello(h *Hello) []byte {
	b := appendU16(nil, h.Version)
	b = appendU8(b, h.Flags)
	b = appendU8(b, uint8(h.Order))
	b = appendU16(b, uint16(h.Rank))
	b = appendU16(b, uint16(h.Worker))
	b = appendU16(b, uint16(h.Workers))
	for _, dim := range h.Dims {
		b = appendU32(b, uint32(dim))
	}
	return b
}

// DecodeHello parses a handshake.
func DecodeHello(b []byte) (*Hello, error) {
	d := &dec{b: b}
	h := &Hello{
		Version: d.u16(),
		Flags:   d.u8(),
		Order:   int(d.u8()),
		Rank:    int(d.u16()),
		Worker:  int(d.u16()),
		Workers: int(d.u16()),
	}
	if d.err == nil && (h.Order < 1 || h.Order > tensor.MaxOrder) {
		d.fail(fmt.Sprintf("order %d out of range [1,%d]", h.Order, tensor.MaxOrder))
	}
	if d.err == nil && h.Rank < 1 {
		d.fail("rank must be positive")
	}
	n := 0
	if d.err == nil {
		n = h.Order
	}
	h.Dims = make([]int, 0, n)
	for i := 0; i < n; i++ {
		dim := d.u32()
		if d.err == nil && dim == 0 {
			d.fail(fmt.Sprintf("mode %d has size 0", i))
		}
		h.Dims = append(h.Dims, int(dim))
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return h, nil
}

// EncodeShard serializes a nonzero shard in the row-grouped varint format:
// header, then one group per distinct output row — varint row delta, varint
// entry count, then per entry the OTHER modes' indices as varints plus the
// float64 value. Grouping drops the 4-byte mode index every entry repeats,
// and varints shrink the remaining indices; on real tensors this roughly
// halves shard bytes versus the v1 fixed-width layout while the decoded
// entry order — ascending row, original storage order within a row — is
// exactly the stable ModeIndex Perm order the kernels require.
//
// Entries must already be in that order; a violation is an internal
// invariant failure, not a wire condition.
func EncodeShard(s *Shard) []byte { return appendShard(nil, s, s.Entries, nil) }

// appendShard encodes the header of s followed by entries[perm[0]],
// entries[perm[1]], ... — or entries in order when perm is nil — so the
// coordinator encodes a shard straight from a tensor's ModeIndex
// permutation without copying its entries out first.
func appendShard(b []byte, s *Shard, entries []tensor.Entry, perm []int32) []byte {
	n := len(entries)
	if perm != nil {
		n = len(perm)
	}
	at := func(i int) *tensor.Entry {
		if perm != nil {
			return &entries[perm[i]]
		}
		return &entries[i]
	}
	b = appendU8(b, uint8(s.Mode))
	b = appendU8(b, uint8(s.Order))
	b = appendBool(b, s.Sampled)
	b = appendU32(b, uint32(s.RowLo))
	b = appendU32(b, uint32(s.RowHi))
	b = appendU32(b, uint32(n))
	prevRow := s.RowLo - 1 // first group's delta is row-RowLo+1 .. keeps deltas >= 1
	for i := 0; i < n; {
		row := int(at(i).Idx[s.Mode])
		if row <= prevRow || row >= s.RowHi {
			panic(fmt.Sprintf("dist: shard entries not in ascending row order (row %d after %d)", row, prevRow))
		}
		j := i
		for j < n && int(at(j).Idx[s.Mode]) == row {
			j++
		}
		b = appendUvarint(b, uint64(row-prevRow))
		b = appendUvarint(b, uint64(j-i))
		for ; i < j; i++ {
			e := at(i)
			for m := 0; m < s.Order; m++ {
				if m == s.Mode {
					continue
				}
				b = appendUvarint(b, uint64(e.Idx[m]))
			}
			b = appendF64(b, e.Val)
		}
		prevRow = row
	}
	return b
}

// shardSizeBound bounds the encoded size of a shard of n entries over rows
// [rowLo, rowHi) of a tensor with the given dims, so an encoder can
// allocate its buffer once.
func shardSizeBound(dims []int, mode, rowLo, rowHi, n int) int {
	perEntry := 8
	for m, d := range dims {
		if m != mode {
			perEntry += uvarintLen(uint64(d - 1))
		}
	}
	perGroup := uvarintLen(uint64(rowHi-rowLo)) + uvarintLen(uint64(n))
	return 15 + n*perEntry + min(n, rowHi-rowLo)*perGroup
}

// uvarintLen is the encoded length of v as a varint.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// DecodeShard parses a nonzero shard, validating the entry count against
// the payload length, row deltas against [RowLo, RowHi), and group counts
// against the declared total.
func DecodeShard(b []byte) (*Shard, error) {
	r, err := newShardReader(b, nil)
	if err != nil {
		return nil, err
	}
	r.shard.Entries = readEntries(r)
	if err := r.finish(); err != nil {
		return nil, err
	}
	return r.shard, nil
}

// readEntries decodes a shard's remaining row groups into entries. A decode
// error stops the walk; the caller reads it from r.finish.
func readEntries(r *shardReader) []tensor.Entry {
	s := r.shard
	entries := make([]tensor.Entry, 0, r.nnz)
	for r.next() {
		for i, v := range r.vals {
			e := tensor.Entry{Val: v}
			e.Idx[s.Mode] = uint32(r.row)
			k := i * (s.Order - 1)
			for m := 0; m < s.Order; m++ {
				if m != s.Mode {
					e.Idx[m] = r.idx[k]
					k++
				}
			}
			entries = append(entries, e)
		}
	}
	return entries
}

// shardReader walks a shard payload one row group at a time, so a
// receiver can build what it keeps (entries, or a CSF tree) group by group
// without an intermediate copy. After each successful next, row is the
// group's output row, vals its values and idx its entries' other-mode
// indices — entry-major, modes ascending, Order-1 per entry — both valid
// until the following next. Malformed input ends the walk with a
// *DecodeError, a shard that does not fit the dims given to
// newShardReader with a plain error.
type shardReader struct {
	d      dec
	shard  *Shard   // header fields only
	bounds []uint64 // per other mode, ascending: indices must be below it
	nnz    int      // declared entry count
	read   int      // entries walked so far
	row    int
	idx    []uint32
	vals   []float64
}

// newShardReader parses the shard header; an error means there is nothing
// to walk. When dims is non-nil, the shard must fit a tensor of those
// dims: its order, its row range and every index are checked.
func newShardReader(b []byte, dims []int) (*shardReader, error) {
	r := &shardReader{d: dec{b: b}}
	d := &r.d
	s := &Shard{
		Mode:    int(d.u8()),
		Order:   int(d.u8()),
		Sampled: d.flag(),
		RowLo:   int(d.u32()),
		RowHi:   int(d.u32()),
	}
	r.shard = s
	if d.err == nil && (s.Order < 1 || s.Order > tensor.MaxOrder) {
		d.fail(fmt.Sprintf("order %d out of range [1,%d]", s.Order, tensor.MaxOrder))
	}
	if d.err == nil && s.Mode >= s.Order {
		d.fail(fmt.Sprintf("mode %d out of range for order %d", s.Mode, s.Order))
	}
	if d.err == nil && s.RowHi < s.RowLo {
		d.fail(fmt.Sprintf("row range [%d,%d) inverted", s.RowLo, s.RowHi))
	}
	if d.err == nil && dims != nil && (s.Order != len(dims) || s.RowHi > dims[s.Mode]) {
		d.err = fmt.Errorf("shard mode %d rows [%d,%d) does not fit the session shape", s.Mode, s.RowLo, s.RowHi)
	}
	for m := 0; d.err == nil && m < s.Order; m++ {
		if m == s.Mode {
			continue
		}
		bound := uint64(maxFrame + 1)
		if dims != nil {
			bound = uint64(dims[m])
		}
		r.bounds = append(r.bounds, bound)
	}
	// Tightest guaranteed wire width per entry: one varint byte per other
	// mode plus the 8-byte value.
	r.nnz = d.count(d.u32(), s.Order-1+8, "shard entry")
	r.row = s.RowLo - 1
	return r, d.err
}

// next decodes the following row group; it returns false at the end of
// the shard or on the first error.
func (r *shardReader) next() bool {
	d, s := &r.d, r.shard
	if d.err != nil || r.read == r.nnz {
		return false
	}
	delta := int(d.uvarint())
	if d.err == nil && delta == 0 {
		d.fail(fmt.Sprintf("shard row %d repeated", r.row))
	}
	r.row += delta
	if d.err == nil && r.row >= s.RowHi {
		d.fail(fmt.Sprintf("shard row %d outside [%d,%d)", r.row, s.RowLo, s.RowHi))
	}
	cnt := int(d.uvarint())
	if d.err == nil && (cnt < 1 || cnt > r.nnz-r.read) {
		d.fail(fmt.Sprintf("shard row group count %d out of range", cnt))
	}
	if d.err != nil {
		return false
	}
	// The entries are the bulk of a shard: decode them in one tight pass
	// over the bytes, with one- and two-byte varints inline, the same
	// checks as the dec methods, and every index checked against its
	// bound.
	w := s.Order - 1
	r.idx = slices.Grow(r.idx[:0], cnt*w)[:cnt*w]
	r.vals = slices.Grow(r.vals[:0], cnt)[:cnt]
	b, off := d.b, d.off
	for i := 0; i < cnt; i++ {
		for j, bound := range r.bounds {
			if off >= len(b) {
				d.off = off
				d.fail("truncated: need 1 bytes, have 0")
				return false
			}
			v := uint64(b[off])
			switch {
			case v < 0x80:
				off++
			case off+1 < len(b) && b[off+1] < 0x80:
				v = v&0x7f | uint64(b[off+1])<<7
				off += 2
			default:
				var n int
				if v, n = binary.Uvarint(b[off:]); n <= 0 {
					d.off = off
					d.fail("bad varint")
					return false
				}
				off += n
			}
			if v >= bound {
				d.off = off
				if v > maxFrame {
					d.fail(fmt.Sprintf("varint %d out of range", v))
				} else {
					m := j
					if m >= s.Mode {
						m++
					}
					d.err = fmt.Errorf("shard mode %d: entry index %d out of range for mode %d (%d rows)", s.Mode, v, m, bound)
				}
				return false
			}
			r.idx[i*w+j] = uint32(v)
		}
		if len(b)-off < 8 {
			d.off = off
			d.fail(fmt.Sprintf("truncated: need 8 bytes, have %d", len(b)-off))
			return false
		}
		r.vals[i] = math.Float64frombits(binary.BigEndian.Uint64(b[off:]))
		off += 8
	}
	d.off = off
	r.read += cnt
	return true
}

// finish reports the walk's error, or a payload not consumed exactly.
func (r *shardReader) finish() error {
	return r.d.done()
}

// EncodeFactor serializes a factor broadcast.
func EncodeFactor(f *Factor) []byte {
	b := appendU8(nil, uint8(f.Mode))
	return appendDense(b, f.M)
}

// DecodeFactor parses a factor broadcast.
func DecodeFactor(b []byte) (*Factor, error) {
	d := &dec{b: b}
	f := &Factor{Mode: int(d.u8())}
	f.M = d.dense()
	if err := d.done(); err != nil {
		return nil, err
	}
	return f, nil
}

// EncodeFactorDelta serializes a changed-rows factor update: mode, column
// count, row count, the strictly ascending row indices, then the row data.
func EncodeFactorDelta(f *FactorDelta) []byte {
	b := appendU8(nil, uint8(f.Mode))
	b = appendU16(b, uint16(f.Cols))
	b = appendU32(b, uint32(len(f.Indices)))
	for _, idx := range f.Indices {
		b = appendU32(b, uint32(idx))
	}
	for _, v := range f.Rows {
		b = appendF64(b, v)
	}
	return b
}

// DecodeFactorDelta parses a changed-rows factor update, validating the
// row count against the payload and that the indices strictly ascend. The
// receiver still has to bound the indices against its resident factor —
// the frame does not carry the matrix shape.
func DecodeFactorDelta(b []byte) (*FactorDelta, error) {
	d := &dec{b: b}
	f := &FactorDelta{
		Mode: int(d.u8()),
		Cols: int(d.u16()),
	}
	if d.err == nil && f.Cols < 1 {
		d.fail("factor delta with no columns")
	}
	n := d.count(d.u32(), 4+8*f.Cols, "factor delta row")
	f.Indices = make([]int, 0, n)
	for i := 0; i < n; i++ {
		idx := int(d.u32())
		if d.err == nil && len(f.Indices) > 0 && idx <= f.Indices[len(f.Indices)-1] {
			d.fail(fmt.Sprintf("factor delta indices not ascending at %d", idx))
		}
		f.Indices = append(f.Indices, idx)
	}
	if d.err == nil {
		f.Rows = make([]float64, n*f.Cols)
		for i := range f.Rows {
			f.Rows[i] = d.f64()
		}
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return f, nil
}

// EncodeTask serializes a task descriptor.
func EncodeTask(t *Task) []byte {
	b := appendU64(nil, t.ID)
	b = appendU8(b, uint8(t.Kind))
	b = appendU8(b, uint8(t.Mode))
	b = appendU32(b, uint32(t.RowLo))
	b = appendU32(b, uint32(t.RowHi))
	return appendBool(b, t.Sampled)
}

// DecodeTask parses a task descriptor.
func DecodeTask(b []byte) (*Task, error) {
	d := &dec{b: b}
	t := &Task{
		ID:      d.u64(),
		Kind:    TaskKind(d.u8()),
		Mode:    int(d.u8()),
		RowLo:   int(d.u32()),
		RowHi:   int(d.u32()),
		Sampled: d.flag(),
	}
	if d.err == nil && t.Kind != TaskPartialMTTKRP {
		d.fail(fmt.Sprintf("unknown task kind %d", uint8(t.Kind)))
	}
	if d.err == nil && t.RowHi < t.RowLo {
		d.fail("inverted task range")
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return t, nil
}

// EncodeResult serializes a task result.
func EncodeResult(r *Result) []byte {
	b := appendU64(nil, r.ID)
	b = appendU8(b, uint8(r.Kind))
	b = appendU32(b, uint32(r.RowLo))
	return appendDense(b, r.Rows)
}

// DecodeResult parses a task result.
func DecodeResult(b []byte) (*Result, error) {
	d := &dec{b: b}
	r := &Result{
		ID:    d.u64(),
		Kind:  TaskKind(d.u8()),
		RowLo: int(d.u32()),
	}
	if d.err == nil && r.Kind != TaskPartialMTTKRP {
		d.fail(fmt.Sprintf("unknown task kind %d", uint8(r.Kind)))
	}
	r.Rows = d.dense()
	if err := d.done(); err != nil {
		return nil, err
	}
	return r, nil
}

// EncodeSeq serializes a ping/pong heartbeat sequence number.
func EncodeSeq(seq uint64) []byte { return appendU64(nil, seq) }

// DecodeSeq parses a ping/pong heartbeat sequence number.
func DecodeSeq(b []byte) (uint64, error) {
	d := &dec{b: b}
	seq := d.u64()
	if err := d.done(); err != nil {
		return 0, err
	}
	return seq, nil
}

// EncodeErr serializes a worker task failure.
func EncodeErr(e *RemoteError) []byte {
	b := appendU64(nil, e.TaskID)
	b = appendU32(b, uint32(len(e.Msg)))
	return append(b, e.Msg...)
}

// DecodeErr parses a worker task failure.
func DecodeErr(b []byte) (*RemoteError, error) {
	d := &dec{b: b}
	e := &RemoteError{TaskID: d.u64()}
	n := d.count(d.u32(), 1, "error message")
	if d.err == nil {
		e.Msg = string(d.b[d.off : d.off+n])
		d.off += n
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return e, nil
}
