package dist

import (
	"testing"

	"cstf/internal/tensor"
)

// treeSink keeps the benchmarked trees alive.
var treeSink *tensor.CSF

// BenchmarkShardToCSF is what a worker spends taking in one full shard of
// the als-dist benchmark's tensor (1M nonzeros of order 4 over two
// workers: the first mode-0 half): decoding the payload and building the
// shard's CSF tree.
func BenchmarkShardToCSF(b *testing.B) {
	x := tensor.GenBlockSparse(1, 1_000_000, 8, 10, 0.1, 800, 600, 500, 400)
	mi := x.ModeIndex(0)
	rg := mi.Ranges(2)[0]
	payload := appendShard(nil, &Shard{Mode: 0, Order: x.Order(), RowLo: rg.RowLo, RowHi: rg.RowHi}, x.Entries, mi.Perm[rg.Lo:rg.Hi])
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := newShardReader(payload, x.Dims)
		if err != nil {
			b.Fatal(err)
		}
		treeSink = buildShardTree(r, x.Dims)
		if err := r.finish(); err != nil {
			b.Fatal(err)
		}
	}
}
