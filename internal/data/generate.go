package data

import (
	"math/rand"
	"sort"

	"mpcquery/internal/query"
)

// SampleDistinct draws m distinct values uniformly from [0,n) using Floyd's
// algorithm (O(m) expected time and space, independent of n).
func SampleDistinct(rng *rand.Rand, m int, n int64) []int64 {
	if int64(m) > n {
		panic("data: cannot sample more distinct values than the domain size")
	}
	chosen := make(map[int64]bool, m)
	out := make([]int64, 0, m)
	for j := n - int64(m); j < n; j++ {
		t := rng.Int63n(j + 1)
		if chosen[t] {
			t = j
		}
		chosen[t] = true
		out = append(out, t)
	}
	return out
}

// RandomMatching generates an a-dimensional matching of [0,n) with m tuples:
// every column is injective, so every value has degree exactly 1 in every
// column — the paper's matching probability space (Section 3.2).
func RandomMatching(rng *rand.Rand, name string, arity, m int, n int64) *Relation {
	cols := make([][]int64, arity)
	for c := range cols {
		cols[c] = SampleDistinct(rng, m, n)
		rng.Shuffle(m, func(i, j int) { cols[c][i], cols[c][j] = cols[c][j], cols[c][i] })
	}
	r := NewRelation(name, arity)
	r.Grow(m)
	t := make([]int64, arity)
	for i := 0; i < m; i++ {
		for c := 0; c < arity; c++ {
			t[c] = cols[c][i]
		}
		r.AppendTuple(t)
	}
	return r
}

// MatchingDatabase generates one independent random matching per atom of q,
// each with m tuples over domain [0,n).
func MatchingDatabase(rng *rand.Rand, q *query.Query, m int, n int64) *Database {
	db := NewDatabase(n)
	for _, a := range q.Atoms {
		db.Add(RandomMatching(rng, a.Name, a.Arity(), m, n))
	}
	return db
}

// ChainMatchingDatabase generates matchings for L_k whose consecutive
// relations compose: S_j pairs column 1 of S_{j-1}'s image, so every chain
// join is non-empty (each S_j is a bijection on a common m-element universe).
// This yields exactly m output tuples for the full chain — convenient for
// multi-round experiments where the output must be checkable.
func ChainMatchingDatabase(rng *rand.Rand, k, m int, n int64) *Database {
	db := NewDatabase(n)
	// Layer i gets its own m distinct values; S_j maps layer j-1 to layer j
	// by a random bijection.
	layers := make([][]int64, k+1)
	for i := range layers {
		layers[i] = SampleDistinct(rng, m, n)
	}
	for j := 1; j <= k; j++ {
		perm := rng.Perm(m)
		r := NewRelation(chainAtomName(j), 2)
		r.Grow(m)
		for i := 0; i < m; i++ {
			r.Append(layers[j-1][i], layers[j][perm[i]])
		}
		db.Add(r)
	}
	return db
}

func chainAtomName(j int) string {
	return query.Chain(j).Atoms[j-1].Name // "Sj" — keeps naming in one place
}

// SkewedStarDatabase generates data for the star query T_k with planted
// heavy hitters on z: each relation S_j(z,x_j) gets, for every (value,count)
// in heavy, count tuples with z = value; the rest of the m tuples use
// matching (degree-1) z values. The x_j columns are always matchings.
// Heavy values are planted in ascending value order, so the generated
// database is a pure function of (rng state, arguments) even when the
// requested counts exceed m and the tail is truncated.
func SkewedStarDatabase(rng *rand.Rand, k, m int, n int64, heavy map[int64]int) *Database {
	db := NewDatabase(n)
	q := query.Star(k)
	heavyVals := make([]int64, 0, len(heavy))
	for val := range heavy {
		heavyVals = append(heavyVals, val)
	}
	sort.Slice(heavyVals, func(i, j int) bool { return heavyVals[i] < heavyVals[j] })
	for _, a := range q.Atoms {
		r := NewRelation(a.Name, 2)
		r.Grow(m)
		x := SampleDistinct(rng, m, n)
		i := 0
		for _, val := range heavyVals {
			for c := 0; c < heavy[val] && i < m; c++ {
				r.Append(val, x[i])
				i++
			}
		}
		zLight := SampleDistinct(rng, m-i, n)
		for j := 0; i < m; i, j = i+1, j+1 {
			r.Append(zLight[j], x[i])
		}
		db.Add(r)
	}
	return db
}

// SkewedTriangleDatabase generates data for C3 = S1(x1,x2), S2(x2,x3),
// S3(x3,x1) where the value heavyVal of variable x1 appears heavyCount times
// in both S1 (column 0) and S3 (column 1); all other columns are matchings.
// This is the Section 4.2.2 "one heavy variable" case.
func SkewedTriangleDatabase(rng *rand.Rand, m int, n int64, heavyVal int64, heavyCount int) *Database {
	db := NewDatabase(n)
	plant := func(name string, col int) *Relation {
		r := NewRelation(name, 2)
		r.Grow(m)
		other := SampleDistinct(rng, m, n)
		self := SampleDistinct(rng, m-heavyCount, n)
		for i := 0; i < m; i++ {
			var v int64
			if i < heavyCount {
				v = heavyVal
			} else {
				v = self[i-heavyCount]
			}
			if col == 0 {
				r.Append(v, other[i])
			} else {
				r.Append(other[i], v)
			}
		}
		return r
	}
	db.Add(plant("S1", 0))
	db.Add(RandomMatching(rng, "S2", 2, m, n))
	db.Add(plant("S3", 1))
	return db
}
