package dist

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"cstf/internal/cpals"
	"cstf/internal/la"
	"cstf/internal/tensor"
)

func testShard() *Shard {
	s := &Shard{Mode: 1, Order: 3, RowLo: 4, RowHi: 9}
	// Ascending mode-1 rows with repeats — the stable Perm order the
	// row-grouped encoding requires.
	rows := []uint32{4, 4, 5, 6, 6, 6, 8}
	for i := 0; i < 7; i++ {
		var e tensor.Entry
		e.Idx[0] = uint32(i * 3)
		e.Idx[1] = rows[i]
		e.Idx[2] = uint32(i)
		e.Val = 0.5 + float64(i)
		s.Entries = append(s.Entries, e)
	}
	return s
}

func denseOf(rows, cols int, base float64) *la.Dense {
	m := la.NewDense(rows, cols)
	for i := range m.Data {
		m.Data[i] = base + float64(i)*0.25
	}
	return m
}

func TestCodecRoundTrips(t *testing.T) {
	hello := &Hello{Version: ProtocolVersion, Order: 3, Rank: 5, Dims: []int{10, 20, 30}, Worker: 2, Workers: 4}
	if got, err := DecodeHello(EncodeHello(hello)); err != nil || !reflect.DeepEqual(got, hello) {
		t.Fatalf("hello round trip: got %+v, err %v", got, err)
	}

	sh := testShard()
	if got, err := DecodeShard(EncodeShard(sh)); err != nil || !reflect.DeepEqual(got, sh) {
		t.Fatalf("shard round trip: got %+v, err %v", got, err)
	}

	f := &Factor{Mode: 2, M: denseOf(4, 3, 1)}
	if got, err := DecodeFactor(EncodeFactor(f)); err != nil || !reflect.DeepEqual(got, f) {
		t.Fatalf("factor round trip: got %+v, err %v", got, err)
	}

	fd := &FactorDelta{Mode: 1, Cols: 3, Indices: []int{0, 4, 17}, Rows: denseOf(3, 3, -2).Data}
	if got, err := DecodeFactorDelta(EncodeFactorDelta(fd)); err != nil || !reflect.DeepEqual(got, fd) {
		t.Fatalf("factor delta round trip: got %+v, err %v", got, err)
	}

	sampled := testShard()
	sampled.Sampled = true
	if got, err := DecodeShard(EncodeShard(sampled)); err != nil || !reflect.DeepEqual(got, sampled) {
		t.Fatalf("sampled shard round trip: got %+v, err %v", got, err)
	}

	tasks := []*Task{
		{ID: 7, Kind: TaskPartialMTTKRP, Mode: 1, RowLo: 3, RowHi: 9},
		{ID: 8, Kind: TaskPartialMTTKRP, Mode: 2, RowLo: 0, RowHi: 4, Sampled: true},
	}
	for _, task := range tasks {
		got, err := DecodeTask(EncodeTask(task))
		if err != nil || !reflect.DeepEqual(got, task) {
			t.Fatalf("task %d round trip: got %+v, err %v", task.ID, got, err)
		}
	}

	results := []*Result{
		{ID: 7, Kind: TaskPartialMTTKRP, RowLo: 3, Rows: denseOf(6, 5, 0)},
		{ID: 8, Kind: TaskPartialMTTKRP, RowLo: 0, Rows: denseOf(0, 5, 0)},
	}
	for _, r := range results {
		got, err := DecodeResult(EncodeResult(r))
		if err != nil || !reflect.DeepEqual(got, r) {
			t.Fatalf("result %d round trip: got %+v, err %v", r.ID, got, err)
		}
	}

	e := &RemoteError{TaskID: 42, Msg: "shard missing"}
	if got, err := DecodeErr(EncodeErr(e)); err != nil || !reflect.DeepEqual(got, e) {
		t.Fatalf("err round trip: got %+v, err %v", got, err)
	}
	if got, err := DecodeSeq(EncodeSeq(99)); err != nil || got != 99 {
		t.Fatalf("seq round trip: got %d, err %v", got, err)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := EncodeSeq(123)
	if err := WriteFrame(&buf, MsgPing, payload); err != nil {
		t.Fatal(err)
	}
	mt, got, err := ReadFrame(&buf)
	if err != nil || mt != MsgPing || !bytes.Equal(got, payload) {
		t.Fatalf("frame round trip: type %v payload %x err %v", mt, got, err)
	}
}

// wantDecodeError asserts the decoder rejects the input with a typed
// *DecodeError rather than panicking or succeeding.
func wantDecodeError(t *testing.T, name string, err error) {
	t.Helper()
	var de *DecodeError
	if !errors.As(err, &de) {
		t.Fatalf("%s: want *DecodeError, got %v", name, err)
	}
}

func TestCodecRejectsMalformedInput(t *testing.T) {
	full := EncodeShard(testShard())
	// Every truncation of a valid message must fail cleanly.
	for cut := 0; cut < len(full); cut++ {
		if _, err := DecodeShard(full[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	_, err := DecodeShard(append(append([]byte{}, full...), 0xFF))
	wantDecodeError(t, "trailing byte", err)

	// Corrupt the entry count upward: count validation must catch it
	// before any allocation.
	corrupt := append([]byte{}, full...)
	corrupt[11] = 0xFF // high byte of the u32 entry count at offset 11
	_, err = DecodeShard(corrupt)
	wantDecodeError(t, "inflated count", err)

	// A row-group delta that lands outside [RowLo, RowHi): offset 15 is the
	// first group's row-delta varint (1 for row 4); 0x3F would mean row 66.
	corrupt = append([]byte{}, full...)
	corrupt[15] = 0x3F
	_, err = DecodeShard(corrupt)
	wantDecodeError(t, "out-of-range row group", err)

	// A row-group delta of 0 repeats the previous group's row: offset 37
	// is the second group's delta (15-byte header, then the first group:
	// delta, count and two 10-byte entries).
	corrupt = append([]byte{}, full...)
	corrupt[37] = 0
	_, err = DecodeShard(corrupt)
	wantDecodeError(t, "repeated row group", err)

	// Inverted task range, unknown kinds (including the task kinds of
	// protocol v3, which v4 dropped) and a bad flag byte.
	_, err = DecodeTask(EncodeTask(&Task{ID: 1, Kind: TaskPartialMTTKRP, RowLo: 5, RowHi: 2}))
	wantDecodeError(t, "inverted range", err)
	for _, k := range []TaskKind{0, 2, 3, 4, 200} {
		_, err = DecodeTask(EncodeTask(&Task{ID: 1, Kind: k}))
		wantDecodeError(t, "unknown kind", err)
	}
	raw := EncodeTask(&Task{ID: 1, Kind: TaskPartialMTTKRP, RowLo: 0, RowHi: 1})
	raw[18] = 7 // sampled flag byte
	_, err = DecodeTask(raw)
	wantDecodeError(t, "flag byte", err)

	// Hello with order beyond MaxOrder (byte 3: version u16, flags u8, order).
	h := EncodeHello(&Hello{Version: 1, Order: 3, Rank: 2, Dims: []int{2, 2, 2}})
	h[3] = 200
	_, err = DecodeHello(h)
	wantDecodeError(t, "order", err)

	// Factor deltas: non-ascending indices and an inflated row count.
	fd := &FactorDelta{Mode: 1, Cols: 2, Indices: []int{3, 5, 9}, Rows: make([]float64, 6)}
	dRaw := EncodeFactorDelta(fd)
	swap := append([]byte{}, dRaw...)
	copy(swap[7:11], swap[11:15]) // duplicate index 5 over index 3
	_, err = DecodeFactorDelta(swap)
	wantDecodeError(t, "non-ascending delta", err)
	inflated := append([]byte{}, dRaw...)
	inflated[4] = 0xFF // low bytes of the row count
	_, err = DecodeFactorDelta(inflated)
	wantDecodeError(t, "inflated delta count", err)
	for cut := 0; cut < len(dRaw); cut++ {
		if _, err := DecodeFactorDelta(dRaw[:cut]); err == nil {
			t.Fatalf("delta truncation at %d accepted", cut)
		}
	}

	// Frames: unknown type byte and oversized length (9-byte header:
	// type, u32 length, u32 crc32c).
	_, _, err = ReadFrame(bytes.NewReader([]byte{0xEE, 0, 0, 0, 0, 0, 0, 0, 0}))
	wantDecodeError(t, "frame type", err)
	_, _, err = ReadFrame(bytes.NewReader([]byte{byte(MsgPing), 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}))
	wantDecodeError(t, "frame length", err)
}

// TestFrameChecksumDetectsCorruption flips every bit of a framed message
// in turn; no flip may yield the original frame back as a clean read. A
// flipped payload or type byte must surface as *CorruptFrameError (or a
// *DecodeError for an invalid type byte); a flipped length byte either
// fails the checksum over the mis-sized span or starves the read.
func TestFrameChecksumDetectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	payload := EncodeSeq(0x1122334455667788)
	if err := WriteFrame(&buf, MsgPing, payload); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	sawCorrupt := false
	for i := 0; i < len(frame)*8; i++ {
		mut := append([]byte{}, frame...)
		mut[i/8] ^= 1 << (i % 8)
		mt, got, err := ReadFrame(bytes.NewReader(mut))
		if err == nil && mt == MsgPing && bytes.Equal(got, payload) {
			t.Fatalf("bit flip %d absorbed silently", i)
		}
		var ce *CorruptFrameError
		if errors.As(err, &ce) {
			sawCorrupt = true
		}
	}
	if !sawCorrupt {
		t.Fatal("no flip produced a *CorruptFrameError")
	}
	// And a double check that an intact frame still reads cleanly.
	if _, got, err := ReadFrame(bytes.NewReader(frame)); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("intact frame rejected: %x err %v", got, err)
	}
}

// FuzzDecode drives every payload decoder with arbitrary bytes; the only
// acceptable failure mode is a returned error.
func FuzzDecode(f *testing.F) {
	f.Add(uint8(MsgHello), EncodeHello(&Hello{Version: 1, Order: 3, Rank: 4, Dims: []int{5, 6, 7}, Worker: 1, Workers: 2}))
	f.Add(uint8(MsgShard), EncodeShard(testShard()))
	f.Add(uint8(MsgFactor), EncodeFactor(&Factor{Mode: 1, M: denseOf(3, 2, 0)}))
	f.Add(uint8(MsgFactorDelta), EncodeFactorDelta(&FactorDelta{Mode: 0, Cols: 2, Indices: []int{1, 2}, Rows: []float64{1, 2, 3, 4}}))
	f.Add(uint8(MsgTask), EncodeTask(&Task{ID: 3, Kind: TaskPartialMTTKRP, RowLo: 1, RowHi: 4}))
	f.Add(uint8(MsgTask), EncodeTask(&Task{ID: 4, Kind: TaskPartialMTTKRP, RowLo: 0, RowHi: 1, Sampled: true}))
	f.Add(uint8(MsgResult), EncodeResult(&Result{ID: 3, Kind: TaskPartialMTTKRP, RowLo: 1, Rows: denseOf(3, 2, 0)}))
	f.Add(uint8(MsgErr), EncodeErr(&RemoteError{TaskID: 9, Msg: "boom"}))
	f.Add(uint8(MsgPing), EncodeSeq(77))
	f.Add(uint8(0), []byte{})
	f.Fuzz(func(t *testing.T, kind uint8, b []byte) {
		switch MsgType(kind) {
		case MsgHello, MsgHelloAck:
			DecodeHello(b)
		case MsgShard:
			DecodeShard(b)
			// The worker's path: straight into a CSF tree, range-checked.
			if r, err := newShardReader(b, []int{32, 16, 16}); err == nil {
				buildShardTree(r, []int{32, 16, 16})
				r.finish()
			}
		case MsgFactor:
			DecodeFactor(b)
		case MsgFactorDelta:
			DecodeFactorDelta(b)
		case MsgTask:
			DecodeTask(b)
		case MsgResult:
			DecodeResult(b)
		case MsgErr:
			DecodeErr(b)
		default:
			DecodeSeq(b)
		}
		// Frame parsing must also be total on arbitrary bytes.
		ReadFrame(bytes.NewReader(b))
	})
}

// The coordinator encodes a shard straight from a ModeIndex permutation;
// the bytes equal EncodeShard of the entries copied out in that order, and
// fit the buffer shardSizeBound sizes.
func TestAppendShardFromPermutation(t *testing.T) {
	x := tensor.GenUniform(5, 400, 30, 20, 10)
	for mode := 0; mode < x.Order(); mode++ {
		mi := x.ModeIndex(mode)
		for _, rg := range mi.Ranges(3) {
			perm := mi.Perm[rg.Lo:rg.Hi]
			sh := &Shard{Mode: mode, Order: x.Order(), RowLo: rg.RowLo, RowHi: rg.RowHi}
			for _, p := range perm {
				sh.Entries = append(sh.Entries, x.Entries[p])
			}
			bound := shardSizeBound(x.Dims, mode, rg.RowLo, rg.RowHi, len(perm))
			got := appendShard(make([]byte, 0, bound), &Shard{Mode: mode, Order: x.Order(), RowLo: rg.RowLo, RowHi: rg.RowHi}, x.Entries, perm)
			if want := EncodeShard(sh); !bytes.Equal(got, want) {
				t.Fatalf("mode %d rows [%d,%d): permutation encoding differs", mode, rg.RowLo, rg.RowHi)
			}
			if len(got) > bound {
				t.Fatalf("mode %d rows [%d,%d): %d bytes over the %d-byte bound", mode, rg.RowLo, rg.RowHi, len(got), bound)
			}
		}
	}
}

// A worker decodes a full shard straight into its CSF tree: the tree is
// NewCSF of the shard's entries, duplicates included, and gives its rows
// the bits the whole tensor's tree gives them. An index outside the
// session dims is refused while decoding.
func TestShardDecodesIntoCSFTree(t *testing.T) {
	x := tensor.GenUniform(8, 300, 12, 9, 7)
	for i := 0; i < 40; i++ { // duplicate coordinates with other values
		e := x.Entries[i*5]
		e.Val += 1
		x.Entries = append(x.Entries, e)
	}
	x.InvalidateIndex()
	const mode = 1
	mo := []int{1, 0, 2}
	factors := []*la.Dense{denseOf(12, 3, 0.1), denseOf(9, 3, 0.2), denseOf(7, 3, 0.3)}
	whole := cpals.MTTKRPCSF(tensor.NewCSF(x, mo), factors)
	mi := x.ModeIndex(mode)
	for _, rg := range mi.Ranges(2) {
		sh := &Shard{Mode: mode, Order: 3, RowLo: rg.RowLo, RowHi: rg.RowHi}
		payload := appendShard(nil, sh, x.Entries, mi.Perm[rg.Lo:rg.Hi])
		r, err := newShardReader(payload, x.Dims)
		if err != nil {
			t.Fatal(err)
		}
		tree := buildShardTree(r, x.Dims)
		if err := r.finish(); err != nil {
			t.Fatal(err)
		}
		sub := tensor.New(x.Dims...)
		for _, e := range x.Entries {
			if row := int(e.Idx[mode]); row >= rg.RowLo && row < rg.RowHi {
				sub.Entries = append(sub.Entries, e)
			}
		}
		if want := tensor.NewCSF(sub, mo); !reflect.DeepEqual(tree, want) {
			t.Fatalf("rows [%d,%d): shard tree differs from NewCSF of its entries", rg.RowLo, rg.RowHi)
		}
		got := la.NewDense(rg.RowHi-rg.RowLo, 3)
		cpals.MTTKRPCSFInto(got, rg.RowLo, tree, factors)
		for i, v := range got.Data {
			if w := whole.Data[rg.RowLo*3+i]; math.Float64bits(v) != math.Float64bits(w) {
				t.Fatalf("rows [%d,%d): element %d %v != %v", rg.RowLo, rg.RowHi, i, v, w)
			}
		}
	}

	bad := []int{12, 9, 6} // mode 2 has 7 rows in the shard's tensor
	payload := appendShard(nil, &Shard{Mode: mode, Order: 3, RowLo: 0, RowHi: 9}, x.Entries, mi.Perm)
	r, err := newShardReader(payload, bad)
	if err != nil {
		t.Fatal(err)
	}
	buildShardTree(r, bad)
	err = r.finish()
	var de *DecodeError
	if err == nil || errors.As(err, &de) || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("want an out-of-range error that is not a *DecodeError, got %v", err)
	}
}
