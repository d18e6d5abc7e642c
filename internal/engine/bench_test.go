package engine

import (
	"fmt"
	"testing"

	"mpcquery/internal/data"
	"mpcquery/internal/hashing"
	"mpcquery/internal/query"
)

// benchRound runs one steady-state communication round on a pre-seeded
// cluster: 64 servers each forwarding their ~1000 binary tuples. The
// cluster is created and seeded once, so the benchmark measures the
// per-round cost of the batched path — emission buffers and inbox arenas
// are reused across iterations.
const benchP, benchPerServer = 64, 1000

func newBenchCluster() *Cluster {
	c := NewCluster(benchP, 20)
	for s := 0; s < benchP; s++ {
		for t := 0; t < benchPerServer; t++ {
			c.Seed(s, 0, []int64{int64(t), int64(s)})
		}
	}
	return c
}

// BenchmarkRound measures the batched columnar round: per-(sender→dest)
// flat buffers, destination-sharded parallel delivery, arena reuse.
func BenchmarkRound(b *testing.B) {
	c := newBenchCluster()
	route := func(s int, inbox *Inbox, emit *Emitter) {
		inbox.Each(func(kind int, tuple []int64) {
			emit.EmitTuple(int(tuple[0])%benchP, kind, tuple)
		})
	}
	c.Round("warmup", route)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Round("bench", route)
	}
	b.ReportMetric(float64(benchP*benchPerServer), "msgs/round")
}

// BenchmarkRoundEmitBatch is BenchmarkRound using the bulk EmitBatch path:
// each server forwards its inbox batches wholesale to one destination.
func BenchmarkRoundEmitBatch(b *testing.B) { benchRoundEmitBatch(b, 0) }

// BenchmarkRoundEmitBatchStreamed is BenchmarkRoundEmitBatch in pipelined
// rounds at the default chunk size.
func BenchmarkRoundEmitBatchStreamed(b *testing.B) { benchRoundEmitBatch(b, DefaultStreamChunk) }

func benchRoundEmitBatch(b *testing.B, chunk int) {
	c := newBenchCluster()
	c.SetStreamChunk(chunk)
	route := func(s int, inbox *Inbox, emit *Emitter) {
		inbox.EachBatch(func(bt Batch) {
			emit.EmitBatch((s+1)%benchP, bt.Kind, bt.Arity, bt.Vals)
		})
	}
	c.Round("warmup", route)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Round("bench", route)
	}
	b.ReportMetric(float64(benchP*benchPerServer), "msgs/round")
}

// BenchmarkRoundEmitFanout replicates every seeded tuple to a 4-server
// subcube through the bulk fan-out, the HyperCube shuffle's emission shape.
// Servers re-emit their seeded input each round (a copy: the inbox holds the
// previous round's 4× deliveries), so the round is steady-state.
func BenchmarkRoundEmitFanout(b *testing.B) { benchRoundEmitFanout(b, 0) }

// BenchmarkRoundEmitFanoutStreamed is BenchmarkRoundEmitFanout in pipelined
// rounds at the default chunk size.
func BenchmarkRoundEmitFanoutStreamed(b *testing.B) { benchRoundEmitFanout(b, DefaultStreamChunk) }

func benchRoundEmitFanout(b *testing.B, chunk int) {
	c := newBenchCluster()
	c.SetStreamChunk(chunk)
	input := make([][]int64, benchP)
	for s := range input {
		input[s] = append(input[s], c.Inbox(s).Batch(0).Vals...)
	}
	offsets := []int{0, 16, 32, 48}
	route := func(s int, _ *Inbox, emit *Emitter) {
		for off := 0; off < len(input[s]); off += 2 {
			tuple := input[s][off : off+2]
			emit.EmitFanout(int(tuple[0])%16, offsets, 0, tuple)
		}
	}
	c.Round("warmup", route)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Round("bench", route)
	}
	b.ReportMetric(float64(4*benchP*benchPerServer), "msgs/round")
}

// BenchmarkRoundEmitRouted routes every server's seeded input through a
// block's compiled route with one EmitRouted, as the HyperCube shuffle
// routes an inbox batch: fan-out 1 on an 8×8 grid hashing both columns, and
// fan-out 4 on a 16×4 grid hashing the first, each in barrier and in
// pipelined rounds at the default chunk size. Servers re-emit a copy of
// their seeded input, so the round is steady-state.
func BenchmarkRoundEmitRouted(b *testing.B) {
	blocks := map[int]*hashing.Block{
		1: hashing.NewBlock(0, hashing.NewGrid([]int{8, 8}), [][]int{{0, 1}}),
		4: hashing.NewBlock(0, hashing.NewGrid([]int{16, 4}), [][]int{{0, -1}}),
	}
	f := hashing.NewFamily(1, 2)
	for _, fan := range []int{1, 4} {
		for _, chunk := range []int{0, DefaultStreamChunk} {
			name := fmt.Sprintf("fanout=%d", fan)
			if chunk > 0 {
				name += "/streamed"
			}
			b.Run(name, func(b *testing.B) {
				c := newBenchCluster()
				c.SetStreamChunk(chunk)
				input := make([][]int64, benchP)
				for s := range input {
					input[s] = append(input[s], c.Inbox(s).Batch(0).Vals...)
				}
				route := func(s int, _ *Inbox, emit *Emitter) {
					emit.EmitRouted(blocks[fan], f, 0, 2, input[s])
				}
				c.Round("warmup", route)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c.Round("bench", route)
				}
				b.ReportMetric(float64(fan*benchP*benchPerServer), "msgs/round")
			})
		}
	}
}

func BenchmarkParallelFor(b *testing.B) {
	sink := make([]int, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ParallelFor(256, func(j int) { sink[j] = j * j })
	}
}

// BenchmarkSeedPartitioned deals the triangle's three relations of 20 000
// binary tuples each over 64 servers: the free input placement every
// one-round strategy starts from. The inboxes are emptied between deals, so
// their arenas are reused, as a pooled cluster's are.
func BenchmarkSeedPartitioned(b *testing.B) {
	const m = 20_000
	q := query.Triangle()
	db := data.NewDatabase(1 << 20)
	for j, a := range q.Atoms {
		rel := data.NewRelation(a.Name, 2)
		for i := 0; i < m; i++ {
			rel.Append(int64(i), int64((i*(j+7))%m))
		}
		db.Add(rel)
	}
	c := NewCluster(benchP, 20)
	defer c.Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ib := range c.inbox {
			ib.reset()
		}
		c.SeedPartitioned(benchP, q, db)
	}
}
