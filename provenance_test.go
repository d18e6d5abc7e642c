package mpcquery

import (
	"fmt"
	"math/rand"
	"os"
	"slices"
	"sync"
	"testing"

	"mpcquery/internal/localjoin"
	"mpcquery/internal/query"
	"mpcquery/internal/transport"
)

// TestMain turns the kernel's fetch check on for every test of this package:
// each index a server takes from a phase's cache is compared, value for
// value, with the fragment that server holds. The golden, kernel, streaming,
// transport and fault equivalence suites thereby all run under it, and a
// fragment id that promises more than the routes deliver fails the Run that
// used it.
func TestMain(m *testing.M) {
	localjoin.VerifySharedForTest(true)
	os.Exit(m.Run())
}

// fragmentLedger is the provenance tests' observer: it keeps the first
// fragment presented under every (phase, atom, id) and compares every later
// one with it. It also notes which servers presented each fragment, of how
// many servers in their cluster.
type fragmentLedger struct {
	mu      sync.Mutex
	first   map[fragmentKey][]int64
	servers map[fragmentKey][]int
	p       map[fragmentKey]int
	shared  int // presentations that found an earlier one to agree with
	broken  []string
}

type fragmentKey struct {
	cache *localjoin.IndexCache
	atom  int
	id    uint64
}

func (l *fragmentLedger) observe(cache *localjoin.IndexCache, servers, server, atom int, id uint64, vals []int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	k := fragmentKey{cache, atom, id}
	l.servers[k] = append(l.servers[k], server)
	l.p[k] = servers
	first, seen := l.first[k]
	switch {
	case !seen:
		l.first[k] = slices.Clone(vals)
	case slices.Equal(first, vals):
		l.shared++
	default:
		l.broken = append(l.broken, fmt.Sprintf("atom %d id %d: %d values, first server presented %d", atom, id, len(vals), len(first)))
	}
}

// watchFragments installs a fresh ledger for the duration of the test.
func watchFragments(t *testing.T) *fragmentLedger {
	l := &fragmentLedger{first: make(map[fragmentKey][]int64), servers: make(map[fragmentKey][]int), p: make(map[fragmentKey]int)}
	localjoin.ObserveFragmentsForTest(l.observe)
	t.Cleanup(func() { localjoin.ObserveFragmentsForTest(nil) })
	return l
}

// sharedWithin returns the shared presentations the ledger's phases would
// have had with their servers split over a group of ranks: each rank
// evaluates its own block of every cluster's p servers, [r·p/ranks,
// (r+1)·p/ranks), with a cache of its own, so only presentations within one
// block can share.
func (l *fragmentLedger) sharedWithin(ranks int) int {
	n := 0
	for k, servers := range l.servers {
		p := l.p[k]
		for r := 0; r < ranks; r++ {
			in := 0
			for _, s := range servers {
				if s >= r*p/ranks && s < (r+1)*p/ranks {
					in++
				}
			}
			n += max(in-1, 0)
		}
	}
	return n
}

// randomProvenanceQuery draws a connected query over binary and ternary atoms
// with repeated variables inside atoms, and a database over a small domain so
// that fragments are non-trivial on every server.
func randomProvenanceQuery(rng *rand.Rand) (*Query, *Database) {
	pool := []string{"x", "y", "z", "u"}
	nAtoms := 2 + rng.Intn(3)
	atoms := make([]Atom, nAtoms)
	for j := range atoms {
		vars := make([]string, 2+rng.Intn(2))
		for c := range vars {
			vars[c] = pool[rng.Intn(len(pool))]
		}
		if j > 0 { // chain every atom to the one before it
			vars[0] = atoms[j-1].Vars[rng.Intn(len(atoms[j-1].Vars))]
		}
		atoms[j] = Atom{Name: fmt.Sprintf("S%d", j+1), Vars: vars}
	}
	q := query.New("q", atoms...)
	db := NewDatabase(1 << 10)
	for _, a := range atoms {
		rel := NewRelation(a.Name, len(a.Vars))
		row := make([]int64, len(a.Vars))
		for i := 0; i < 150; i++ {
			for c := range row {
				row[c] = rng.Int63n(24)
			}
			rel.AppendTuple(row)
		}
		db.Add(rel)
	}
	return q, db
}

// TestFragmentIDsNameIdenticalFragments pins the invariant content hashing
// used to give for free: within one computation phase, two servers that
// present the same non-zero fragment id for atom j hold byte-identical
// atom-j fragments. It holds for explicit HyperCube shares (including shares
// of 1) over random queries with repeated variables, for self-joins, and for
// every skew layout that passes ids, under barrier delivery, pipelined
// delivery and a two-rank worker group — delivery order is part of the
// fragment.
func TestFragmentIDsNameIdenticalFragments(t *testing.T) {
	type scenario struct {
		name string
		run  func(extra ...RunOption) (*Report, error)
	}
	var scenarios []scenario
	add := func(name string, q *Query, db func() *Database, opts ...RunOption) {
		scenarios = append(scenarios, scenario{name, func(extra ...RunOption) (*Report, error) {
			return Run(q, db(), slices.Concat(opts, extra)...) // ranks call this concurrently: never append into opts
		}})
	}

	rng := rand.New(rand.NewSource(2024))
	for i := 0; i < 12; i++ {
		q, db := randomProvenanceQuery(rng)
		shares := make([]int, q.NumVars())
		for v := range shares {
			shares[v] = 1 + rng.Intn(3)
		}
		add(fmt.Sprintf("shares-%d-%v", i, shares), q, func() *Database { return db },
			WithStrategy(HyperCubeShares(shares...)), WithSeed(rng.Int63n(1000)))
	}
	edges := func() *Database {
		r := rand.New(rand.NewSource(105))
		e := NewRelation("E", 2)
		for i := 0; i < 200; i++ {
			e.Append(r.Int63n(40), r.Int63n(40))
		}
		db := NewDatabase(1 << 10)
		db.Add(e)
		return db
	}
	add("selfjoin-paths", nil, edges, WithServers(27), WithSeed(3), WithStrategy(SelfJoin("paths",
		Atom{Name: "E", Vars: []string{"x", "y"}},
		Atom{Name: "E", Vars: []string{"y", "z"}},
		Atom{Name: "E", Vars: []string{"z", "u"}})))
	for seed := int64(1); seed <= 2; seed++ {
		tri, star := Triangle(), Star(3)
		triMatching := func() *Database { return MatchingDatabase(rand.New(rand.NewSource(seed)), tri, 300, 1<<12) }
		triSkew := func() *Database {
			return SkewedTriangleDatabase(rand.New(rand.NewSource(seed)), 300, 1<<12, 7, 90)
		}
		starSkew := func() *Database {
			return SkewedStarDatabase(rand.New(rand.NewSource(seed)), 3, 300, 1<<12, map[int64]int{5: 80, 9: 40})
		}
		common := []RunOption{WithServers(32), WithSeed(10 + seed)}
		add(fmt.Sprintf("hypercube-matching-%d", seed), tri, triMatching, append(common, WithStrategy(HyperCube()))...)
		add(fmt.Sprintf("skewed-star-%d", seed), star, starSkew, append(common, WithStrategy(SkewedStar()))...)
		add(fmt.Sprintf("skewed-triangle-%d", seed), tri, triSkew, append(common, WithStrategy(SkewedTriangle()))...)
		add(fmt.Sprintf("skewed-generic-triangle-%d", seed), tri, triSkew, append(common, WithStrategy(SkewedGeneric()))...)
		add(fmt.Sprintf("skewed-generic-star-%d", seed), star, starSkew, append(common, WithStrategy(SkewedGeneric()))...)
	}

	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			check := func(mode string, l *fragmentLedger, wantFP string, rep *Report, err error) int {
				if err != nil {
					t.Fatalf("%s: %v", mode, err)
				}
				if fp := rep.Fingerprint(); wantFP != "" && fp != wantFP {
					t.Errorf("%s: fingerprint diverged from the barrier run", mode)
				}
				for _, b := range l.broken {
					t.Errorf("%s: two servers, one fragment id, different fragments: %s", mode, b)
				}
				return l.shared
			}

			l := watchFragments(t)
			rep, err := sc.run()
			shared := check("barrier", l, "", rep, err)
			barrier := l
			wantFP := rep.Fingerprint()
			if len(l.first) > 0 && shared == 0 {
				t.Errorf("%d fragment ids presented, none by two servers: the scenario shares nothing", len(l.first))
			}

			for _, chunk := range []int{1, 7} {
				l = watchFragments(t)
				rep, err = sc.run(WithStreaming(true), WithStreamChunk(chunk))
				if got := check(fmt.Sprintf("pipelined chunk=%d", chunk), l, wantFP, rep, err); got != shared {
					t.Errorf("pipelined chunk=%d: %d shared presentations, barrier had %d", chunk, got, shared)
				}
			}

			const ranks = 2
			addrs, err := transport.FreeLoopbackAddrs(ranks)
			if err != nil {
				t.Fatal(err)
			}
			l = watchFragments(t)
			var wg sync.WaitGroup
			var reps [ranks]*Report
			var errs [ranks]error
			for r := 0; r < ranks; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					rt, err := DialRuntime(r, addrs)
					if err != nil {
						errs[r] = err
						return
					}
					defer rt.Close()
					reps[r], errs[r] = sc.run(WithRuntime(rt))
				}()
			}
			wg.Wait()
			got := 0
			for r := range reps {
				got = check(fmt.Sprintf("rank %d of %d", r, ranks), l, wantFP, reps[r], errs[r])
			}
			// Every rank evaluates its own servers with its own cache.
			if want := barrier.sharedWithin(ranks); got != want {
				t.Errorf("%d ranks: %d shared presentations, want %d", ranks, got, want)
			}
		})
	}
}
