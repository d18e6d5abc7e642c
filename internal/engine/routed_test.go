package engine_test

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"mpcquery/internal/engine"
	"mpcquery/internal/hashing"
	"mpcquery/internal/obs"
	"mpcquery/internal/transport"
)

// routedP servers hold two blocks over the variables x, y, z: a 2×4×4 grid at
// offset 0 and a 2×2×2 grid at offset 32.
const routedP, routedBits = 40, 12

// routedAtoms gives, for every message kind, the grid dimension of each of
// its columns (-1: not hashed).
var routedAtoms = [][]int{
	{0, 1, 2},  // 0: every dimension fixed, fan-out 1
	{0, 1},     // 1: z free, fan-out 4 on the first grid
	{0, -1},    // 2: y and z free, fan-out 16
	{1, 1, 2},  // 3: y repeated, a guard that can empty the subcube; x free
	{0, 1, -1}, // 4: kind 1's subcubes: the two share targets
	{0, 1, 2},  // 5: kind 0's destinations
}

func routedBlocks() []*hashing.Block {
	return []*hashing.Block{
		hashing.NewBlock(0, hashing.NewGrid([]int{2, 4, 4}), routedAtoms),
		hashing.NewBlock(32, hashing.NewGrid([]int{2, 2, 2}), routedAtoms),
	}
}

// routedCall is one EmitRouted of a sender: tuples [lo, hi) of its input of
// kind (hi < 0: to the end) through block blk.
type routedCall struct{ kind, blk, lo, hi int }

// routedScript interleaves kinds that share targets (0 and 5, 1 and 4),
// resumes a kind after another, and routes some kinds through both blocks.
var routedScript = []routedCall{
	{0, 0, 0, 5}, {1, 0, 0, 5}, {4, 0, 0, -1}, {1, 0, 5, -1}, {0, 0, 5, -1}, {5, 0, 0, -1},
	{2, 0, 0, -1}, {3, 0, 0, -1}, {0, 1, 0, -1}, {2, 1, 0, -1}, {3, 1, 0, -1}, {1, 1, 0, -1},
}

// routedInput draws every server's tuples of every kind, 6 to 12 each, from
// a domain small enough that a repeated variable's two values are often
// equal.
func routedInput() [][][]int64 {
	input := make([][][]int64, routedP)
	for s := range input {
		rng := rand.New(rand.NewSource(int64(s)))
		input[s] = make([][]int64, len(routedAtoms))
		for k, dims := range routedAtoms {
			for i := 0; i < (6+s%7)*len(dims); i++ {
				input[s][k] = append(input[s][k], rng.Int63n(8))
			}
		}
	}
	return input
}

// How routedRound routes a call's tuples.
const (
	asBlock   = iota // one EmitRouted
	perTuple         // one EmitRouted per tuple, each a block of one
	perFanout        // Route.Base and one EmitFanout per tuple
)

// routedRound plays routedScript, routing each call's tuples as form says.
func routedRound(input [][][]int64, blocks []*hashing.Block, f *hashing.Family, form int) func(int, *engine.Inbox, *engine.Emitter) {
	return func(s int, _ *engine.Inbox, emit *engine.Emitter) {
		for _, call := range routedScript {
			arity := len(routedAtoms[call.kind])
			vals := input[s][call.kind]
			hi := len(vals) / arity
			if call.hi >= 0 {
				hi = min(hi, call.hi)
			}
			vals = vals[min(call.lo, hi)*arity : hi*arity]
			blk := blocks[call.blk]
			if form == asBlock {
				emit.EmitRouted(blk, f, call.kind, arity, vals)
				continue
			}
			for off := 0; off < len(vals); off += arity {
				t, r := vals[off:off+arity], blk.Routes[call.kind]
				switch base, ok := r.Base(f, t); form {
				case perTuple:
					emit.EmitRouted(blk, f, call.kind, arity, t)
				case perFanout:
					if ok {
						emit.EmitFanout(blk.Offset+base, r.Offsets(), call.kind, t)
					}
				}
			}
		}
	}
}

// routedRun plays two routed rounds on a cluster of env at the given chunk
// size and renders what they leave: every owned inbox span by span, the
// round statistics, the chunk flushes and the engine-buffer peak.
func routedRun(env engine.Env, chunk, form int) string {
	env.Trace, env.Mem = obs.NewTrace(), &engine.MemGauge{}
	c := engine.NewClusterEnv(env, routedP, routedBits)
	defer c.Release()
	c.SetStreamChunk(chunk)
	round := routedRound(routedInput(), routedBlocks(), hashing.NewFamily(5, 3), form)
	var b strings.Builder
	lo, hi := c.Owned()
	for r := 0; r < 2; r++ {
		c.Round(fmt.Sprintf("routed-%d", r), round)
		for s := lo; s < hi; s++ {
			fmt.Fprintf(&b, "round %d server %d: %s\n", r, s, engine.SpanLayout(c, s))
		}
	}
	for r, st := range c.Record(nil, 0).Rounds {
		fmt.Fprintf(&b, "round %d: %+v\n", r, st)
	}
	for r, ro := range c.Trace().Rounds() {
		fmt.Fprintf(&b, "round %d: %d chunk flushes\n", r, ro.ChunkFlushes)
	}
	fmt.Fprintf(&b, "peak %d B\n", env.Mem.Peak())
	return b.String()
}

// sharedSpans counts the spans a rendering lists under one server that lie in
// another server's arena: multicast tuples, landed once.
func sharedSpans(render string) int {
	n := 0
	for _, line := range strings.Split(render, "\n") {
		var r, s int
		head, spans, _ := strings.Cut(line, ": ")
		if _, err := fmt.Sscanf(head, "round %d server %d", &r, &s); err == nil {
			n += strings.Count(spans, " @") - strings.Count(spans, fmt.Sprintf(" @%d ", s))
		}
	}
	return n
}

// TestEmitRoutedBlockMatchesPerTuple: routing a block in one EmitRouted,
// routing its tuples one call each, and staging each tuple with EmitFanout
// at its route's base deliver the same thing — every inbox's spans, in
// order, with their values and the arena they lie in, the round statistics,
// the chunk flushes and the engine-buffer peak — for fan-out 1, 4 and 16 and
// a guarded route, through two blocks at different offsets, in barrier,
// pipelined and linked rounds.
func TestEmitRoutedBlockMatchesPerTuple(t *testing.T) {
	f, input := hashing.NewFamily(5, 3), routedInput()
	kept, dropped := 0, 0
	for _, blk := range routedBlocks() {
		r := blk.Routes[3]
		for s := range input {
			for vals := input[s][3]; len(vals) > 0; vals = vals[3:] {
				if _, ok := r.Base(f, vals[:3]); ok {
					kept++
				} else {
					dropped++
				}
			}
		}
	}
	if kept == 0 || dropped == 0 {
		t.Fatalf("the guarded route kept %d tuples and dropped %d: both must occur", kept, dropped)
	}

	// run renders the three forms on one environment; a rank of a group
	// must create its clusters in the order the other ranks do.
	run := func(env engine.Env, chunk int) (got [3]string) {
		for form := range got {
			got[form] = routedRun(env, chunk, form)
		}
		return got
	}
	check := func(label string, got [3]string) {
		t.Helper()
		for form, name := range []string{"", "tuple by tuple", "through EmitFanout"} {
			if form > 0 && got[form] != got[asBlock] {
				t.Errorf("%s: routed as blocks\n%s\nrouted %s\n%s", label, got[asBlock], name, got[form])
			}
		}
	}
	for _, chunk := range []int{0, 1, 3, 7} {
		got := run(engine.Env{}, chunk)
		check(fmt.Sprintf("chunk %d", chunk), got)
		if sharedSpans(got[asBlock]) == 0 {
			t.Fatalf("chunk %d: no server lists a span landed in another's arena: nothing was multicast", chunk)
		}
	}
	for _, chunk := range []int{0, 3} {
		check(fmt.Sprintf("replay link, chunk %d", chunk), run(engine.Env{Net: engine.ReplayTransport{}}, chunk))
	}

	addrs, err := transport.FreeLoopbackAddrs(2)
	if err != nil {
		t.Fatal(err)
	}
	var got [2][3]string
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for r := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := transport.Dial(r, addrs, nil)
			if err != nil {
				errs[r] = err
				return
			}
			defer s.Close()
			got[r] = run(engine.Env{Net: s}, 3)
		}()
	}
	wg.Wait()
	for r := range got {
		if errs[r] != nil {
			t.Fatalf("rank %d: %v", r, errs[r])
		}
		check(fmt.Sprintf("two ranks over loopback, rank %d", r), got[r])
	}
}

// TestEmitRoutedAllocatesNothing: a warm emitter routes the whole script,
// fan-out 1 to 16, without an allocation.
func TestEmitRoutedAllocatesNothing(t *testing.T) {
	c := engine.NewCluster(routedP, routedBits)
	defer c.Release()
	play := routedRound(routedInput(), routedBlocks(), hashing.NewFamily(5, 3), asBlock)
	c.Round("warm", func(s int, in *engine.Inbox, emit *engine.Emitter) {
		for range 12 {
			play(s, in, emit)
		}
	})
	e := engine.EmitterOf(c, 0)
	if allocs := testing.AllocsPerRun(10, func() {
		e.Restage(routedP)
		play(0, nil, e)
	}); allocs != 0 {
		t.Errorf("a warm EmitRouted allocates %v objects per script", allocs)
	}
}

// TestEmitRoutedValidation: a block whose arity is not positive, whose
// length is not a multiple of its arity, or whose tuples are shorter than
// the columns its route reads panics with a message saying so.
func TestEmitRoutedValidation(t *testing.T) {
	c := engine.NewCluster(routedP, routedBits)
	defer c.Release()
	e := engine.EmitterOf(c, 0)
	e.Restage(routedP)
	blk, f := routedBlocks()[0], hashing.NewFamily(5, 3)
	for _, tc := range []struct {
		name        string
		kind, arity int
		vals        []int64
		want        string
	}{
		{"zero arity", 1, 0, nil, "engine: routed arity must be positive"},
		{"ragged block", 1, 2, []int64{1, 2, 3}, "engine: routed block of 3 values is not a multiple of arity 2"},
		{"short tuples", 0, 2, []int64{1, 2}, "engine: the route of kind 0 reads column 2 of arity-2 tuples"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if msg, _ := recover().(string); msg != tc.want {
					t.Errorf("panic %q, want %q", msg, tc.want)
				}
			}()
			e.EmitRouted(blk, f, tc.kind, tc.arity, tc.vals)
		})
	}
}
