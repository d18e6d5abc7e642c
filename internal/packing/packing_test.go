package packing

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mpcquery/internal/query"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// TestTauStarTable2 checks τ* for the query families in Table 2:
// τ*(C_k) = k/2, τ*(T_k) = 1, τ*(L_k) = ⌈k/2⌉, τ*(B_{k,m}) = k/m.
func TestTauStarTable2(t *testing.T) {
	tests := []struct {
		q    *query.Query
		want float64
	}{
		{query.Cycle(3), 1.5},
		{query.Cycle(4), 2},
		{query.Cycle(5), 2.5},
		{query.Cycle(6), 3},
		{query.Star(2), 1},
		{query.Star(5), 1},
		{query.Chain(2), 1},
		{query.Chain(3), 2},
		{query.Chain(4), 2},
		{query.Chain(5), 3},
		{query.Binom(3, 2), 1.5}, // = C3
		{query.Binom(4, 2), 2},   // = K4: τ* = 4/2
		{query.Binom(4, 3), 4.0 / 3},
		{query.SpokedWheel(3), 3}, // τ*(SP_k) = k
	}
	for _, tt := range tests {
		got, u := TauStar(tt.q)
		if !approx(got, tt.want, 1e-6) {
			t.Errorf("τ*(%s)=%v want %v", tt.q.Name, got, tt.want)
		}
		if !IsPacking(tt.q, u, 1e-7) {
			t.Errorf("optimal u for %s is not a packing: %v", tt.q.Name, u)
		}
	}
}

// TestDuality checks max edge packing = min vertex cover (LP duality),
// on the Table 2 families and random queries.
func TestDuality(t *testing.T) {
	queries := []*query.Query{
		query.Cycle(3), query.Cycle(5), query.Star(4), query.Chain(6),
		query.K4(), query.SpokedWheel(2), query.Binom(5, 3),
	}
	for _, q := range queries {
		tp, _ := TauStar(q)
		vc, _ := VertexCover(q)
		if !approx(tp, vc, 1e-6) {
			t.Errorf("%s: packing %v != cover %v", q.Name, tp, vc)
		}
	}
}

// TestPackingVsCover checks the paper's Section 2.2 examples: for
// q = S1(x,y),S2(y,z): τ*=1, ρ*=2; for q = S1(x),S2(x,y),S3(y): τ*=2, ρ*=1.
func TestPackingVsCover(t *testing.T) {
	q1 := query.MustParse("S1(x,y), S2(y,z)")
	tau, _ := TauStar(q1)
	rho, _ := RhoStar(q1)
	if !approx(tau, 1, 1e-6) || !approx(rho, 2, 1e-6) {
		t.Errorf("L2: τ*=%v ρ*=%v want 1, 2", tau, rho)
	}
	q2 := query.MustParse("S1(x), S2(x,y), S3(y)")
	tau2, _ := TauStar(q2)
	rho2, _ := RhoStar(q2)
	if !approx(tau2, 2, 1e-6) || !approx(rho2, 1, 1e-6) {
		t.Errorf("unary-sandwich: τ*=%v ρ*=%v want 2, 1", tau2, rho2)
	}
}

// TestTriangleVertices checks Example 3.17: pk(C3) has exactly five
// vertices: (1/2,1/2,1/2), the three unit vectors, and zero.
func TestTriangleVertices(t *testing.T) {
	vs := Vertices(query.Triangle())
	if len(vs) != 5 {
		t.Fatalf("|pk(C3)|=%d want 5: %v", len(vs), vs)
	}
	want := [][]float64{
		{0.5, 0.5, 0.5},
		{1, 0, 0}, {0, 1, 0}, {0, 0, 1},
		{0, 0, 0},
	}
	for _, w := range want {
		found := false
		for _, v := range vs {
			if approx(v[0], w[0], 1e-7) && approx(v[1], w[1], 1e-7) && approx(v[2], w[2], 1e-7) {
				found = true
			}
		}
		if !found {
			t.Errorf("vertex %v missing from %v", w, vs)
		}
	}
}

func TestChainPackingExample(t *testing.T) {
	// Example 2.3: for L3, (1,0,1) is an optimal tight packing with τ*=2.
	q := query.Chain(3)
	if !IsPacking(q, []float64{1, 0, 1}, 1e-9) {
		t.Error("(1,0,1) should be a packing of L3")
	}
	if IsPacking(q, []float64{1, 0.5, 1}, 1e-9) {
		t.Error("(1,0.5,1) violates variable x1")
	}
	tau, _ := TauStar(q)
	if !approx(tau, 2, 1e-6) {
		t.Errorf("τ*(L3)=%v", tau)
	}
	vs := Vertices(q)
	found := false
	for _, v := range vs {
		if approx(v[0], 1, 1e-7) && approx(v[1], 0, 1e-7) && approx(v[2], 1, 1e-7) {
			found = true
		}
	}
	if !found {
		t.Errorf("(1,0,1) should be a vertex of pk(L3): %v", vs)
	}
}

// TestTriangleLoadTable checks the L(u,M,p) table of Example 3.17.
func TestTriangleLoadTable(t *testing.T) {
	M := []float64{1 << 20, 1 << 24, 1 << 24}
	p := 64.0
	if got := Load([]float64{0.5, 0.5, 0.5}, M, p); !approx(got, math.Cbrt(M[0]*M[1]*M[2])/math.Pow(p, 2.0/3), 1e-3) {
		t.Errorf("symmetric packing load=%v", got)
	}
	if got := Load([]float64{1, 0, 0}, M, p); !approx(got, M[0]/p, 1e-6) {
		t.Errorf("(1,0,0) load=%v want %v", got, M[0]/p)
	}
	if got := Load([]float64{0, 0, 0}, M, p); got != 0 {
		t.Errorf("zero packing load=%v want 0", got)
	}
}

// TestTriangleCrossover reproduces the crossover of Example 3.17: with
// M1 < M2 = M3 = M, for p ≤ M/M1 the best packing is a unit vector (linear
// speedup, load M/p); for p > M/M1 it is (1/2,1/2,1/2).
func TestTriangleCrossover(t *testing.T) {
	q := query.Triangle()
	M1, M := 1024.0, 1024.0*64
	stats := []float64{M1, M, M}
	pSmall := 16.0 // < M/M1 = 64
	load, u := LLower(q, stats, pSmall)
	if !approx(sum(u), 1, 1e-6) {
		t.Errorf("p=%v: expected unit-vector packing, got %v", pSmall, u)
	}
	if !approx(load, M/pSmall, 1e-6) {
		t.Errorf("p=%v: load=%v want %v", pSmall, load, M/pSmall)
	}
	pLarge := 4096.0 // > M/M1
	_, u2 := LLower(q, stats, pLarge)
	if !approx(sum(u2), 1.5, 1e-6) {
		t.Errorf("p=%v: expected symmetric packing, got %v", pLarge, u2)
	}
	// Speedup exponent degrades from 1 to 2/3 (Lemma 3.18(3)).
	if se := SpeedupExponent(q, stats, pSmall); !approx(se, 1, 1e-6) {
		t.Errorf("speedup exponent at small p = %v want 1", se)
	}
	if se := SpeedupExponent(q, stats, pLarge); !approx(se, 2.0/3, 1e-6) {
		t.Errorf("speedup exponent at large p = %v want 2/3", se)
	}
}

// TestShareExponentsEqualSizes checks the closed form of Section 3.1: with
// equal cardinalities, λ* = µ − 1/τ* and L_upper = M / p^{1/τ*}.
func TestShareExponentsEqualSizes(t *testing.T) {
	p := 64.0
	M := math.Pow(p, 3) // µ = 3
	for _, q := range []*query.Query{query.Triangle(), query.Chain(3), query.Star(3), query.Cycle(4), query.K4()} {
		stats := make([]float64, q.NumAtoms())
		for j := range stats {
			stats[j] = M
		}
		tau, _ := TauStar(q)
		sh := ShareExponents(q, stats, p)
		wantLambda := 3 - 1/tau
		if !approx(sh.Lambda, wantLambda, 1e-6) {
			t.Errorf("%s: λ=%v want %v", q.Name, sh.Lambda, wantLambda)
		}
		if !approx(sh.Load(), M/math.Pow(p, 1/tau), 1e-3) {
			t.Errorf("%s: L_upper=%v want %v", q.Name, sh.Load(), M/math.Pow(p, 1/tau))
		}
		// Share exponents must be e_i = v*_i / τ* for some optimal vertex
		// cover; check feasibility: Σe ≤ 1 and per-atom constraints hold.
		sumE := 0.0
		for _, e := range sh.Exponents {
			sumE += e
			if e < -1e-9 {
				t.Errorf("%s: negative exponent %v", q.Name, e)
			}
		}
		if sumE > 1+1e-6 {
			t.Errorf("%s: Σe=%v > 1", q.Name, sumE)
		}
	}
}

// TestLowerEqualsUpper checks Theorem 3.15 (L_lower = L_upper) on the Table 2
// families with assorted statistics.
func TestLowerEqualsUpper(t *testing.T) {
	p := 64.0
	queries := []*query.Query{
		query.Triangle(), query.Chain(4), query.Star(3), query.Cycle(5),
		query.K4(), query.SpokedWheel(2),
	}
	statsList := [][]float64{nil, nil} // filled per query below
	for _, q := range queries {
		l := q.NumAtoms()
		equal := make([]float64, l)
		skewed := make([]float64, l)
		for j := 0; j < l; j++ {
			equal[j] = 1 << 22
			skewed[j] = float64(int64(1) << (18 + 2*uint(j%4)))
		}
		statsList[0], statsList[1] = equal, skewed
		for _, M := range statsList {
			lower, _ := LLower(q, M, p)
			upper := ShareExponents(q, M, p).Load()
			if !approx(math.Log(lower), math.Log(upper), 1e-5) {
				t.Errorf("%s with M=%v: L_lower=%v != L_upper=%v", q.Name, M, lower, upper)
			}
		}
	}
}

// TestLowerEqualsUpperRandom is the property-test version of Theorem 3.15
// over random binary queries and random statistics (experiment E12).
func TestLowerEqualsUpperRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		q := randomConnectedQuery(r)
		p := math.Pow(2, float64(2+r.Intn(8)))
		M := make([]float64, q.NumAtoms())
		for j := range M {
			// Keep M_j ≥ p so that µ_j ≥ 1 as the paper assumes.
			M[j] = p * math.Pow(2, float64(r.Intn(16)))
		}
		lower, _ := LLower(q, M, p)
		upper := ShareExponents(q, M, p).Load()
		if math.Abs(math.Log(lower)-math.Log(upper)) > 1e-4 {
			t.Logf("%s p=%v M=%v: lower=%v upper=%v", q, p, M, lower, upper)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func randomConnectedQuery(r *rand.Rand) *query.Query {
	k := 2 + r.Intn(4)
	l := 1 + r.Intn(4)
	atoms := make([]query.Atom, 0, l)
	for j := 0; j < l; j++ {
		a := r.Intn(k)
		if j > 0 {
			a = r.Intn(minInt(k, j+1))
		}
		b := r.Intn(k)
		atoms = append(atoms, query.Atom{
			Name: "S" + string(rune('A'+j)),
			Vars: []string{vn(a), vn(b)},
		})
	}
	return query.New("rand", atoms...)
}

func vn(i int) string { return string(rune('a' + i)) }

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestSkewShareExponents checks LP (18) on the simple join and the triangle:
// the skew-oblivious optimum hashes all variables equally, giving load
// M/p^{1/3} for both (shares p^{1/3} per variable).
func TestSkewShareExponents(t *testing.T) {
	p := 64.0
	M := math.Pow(p, 3)
	join := query.SimpleJoin()
	stats := []float64{M, M}
	sh := SkewShareExponents(join, stats, p)
	if !approx(sh.Lambda, 3-1.0/3, 1e-6) {
		t.Errorf("join: λ=%v want %v", sh.Lambda, 3-1.0/3)
	}
	tri := query.Triangle()
	sh2 := SkewShareExponents(tri, []float64{M, M, M}, p)
	if !approx(sh2.Lambda, 3-1.0/3, 1e-6) {
		t.Errorf("triangle: λ=%v want %v", sh2.Lambda, 3-1.0/3)
	}
	// Sanity: the skew-oblivious load can never beat the skew-free load.
	free := ShareExponents(tri, []float64{M, M, M}, p)
	if sh2.Lambda+1e-9 < free.Lambda {
		t.Errorf("skew λ=%v < skew-free λ=%v", sh2.Lambda, free.Lambda)
	}
}

// TestStarSharesConcentrate checks that for star queries the share LP puts
// everything on the shared variable z (Table 2 row T_k: shares 1,0,...,0).
func TestStarSharesConcentrate(t *testing.T) {
	q := query.Star(4)
	M := make([]float64, 4)
	for j := range M {
		M[j] = 1 << 24
	}
	sh := ShareExponents(q, M, 64)
	zi := q.VarIndex("z")
	if !approx(sh.Exponents[zi], 1, 1e-6) {
		t.Errorf("e_z=%v want 1 (exponents %v)", sh.Exponents[zi], sh.Exponents)
	}
	for i, e := range sh.Exponents {
		if i != zi && !approx(e, 0, 1e-6) {
			t.Errorf("e_%s=%v want 0", q.Vars()[i], e)
		}
	}
}

func TestVerticesCountsSmall(t *testing.T) {
	// pk of a single binary atom S(x,y): vertices {0} and {1}.
	q := query.MustParse("S(x,y)")
	vs := Vertices(q)
	if len(vs) != 2 {
		t.Fatalf("|pk(S)|=%d want 2: %v", len(vs), vs)
	}
}

// TestLemma318SmallRelations checks Lemma 3.18 items (1) and (2): relations
// smaller than M/p get weight 0 in the load-maximizing packing (the HC
// broadcasts them instead of sharing on them).
func TestLemma318SmallRelations(t *testing.T) {
	q := query.Triangle()
	p := 64.0
	M := 1 << 24
	// M1 far below M/p.
	stats := []float64{float64(M) / (4 * p), float64(M), float64(M)}
	_, u := LLower(q, stats, p)
	if u[0] > 1e-9 {
		t.Errorf("tiny relation got packing weight %v (Lemma 3.18(2))", u[0])
	}
	// Item (1): any relation with M_j < L gets weight 0.
	l, _ := LLower(q, stats, p)
	for j, mj := range stats {
		if mj < l && u[j] > 1e-9 {
			t.Errorf("relation %d with M=%v < L=%v has weight %v", j, mj, l, u[j])
		}
	}
}

// TestLemma318SpeedupMonotone checks item (3): as p grows, the speedup
// exponent never increases, eventually reaching 1/τ*.
func TestLemma318SpeedupMonotone(t *testing.T) {
	q := query.Triangle()
	stats := []float64{1 << 14, 1 << 24, 1 << 24}
	prev := math.Inf(1)
	for _, p := range []float64{2, 8, 32, 128, 512, 4096, 1 << 20} {
		se := SpeedupExponent(q, stats, p)
		if se > prev+1e-9 {
			t.Errorf("speedup exponent increased at p=%v: %v -> %v", p, prev, se)
		}
		prev = se
	}
	tau, _ := TauStar(q)
	if math.Abs(prev-1/tau) > 1e-9 {
		t.Errorf("limit exponent %v want 1/τ* = %v", prev, 1/tau)
	}
}

// TestLoadMonotoneInP: L_lower decreases in p for fixed statistics.
func TestLoadMonotoneInP(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 30; trial++ {
		q := randomConnectedQuery(rng)
		M := make([]float64, q.NumAtoms())
		for j := range M {
			M[j] = math.Pow(2, float64(14+rng.Intn(10)))
		}
		prev := math.Inf(1)
		for _, p := range []float64{4, 16, 64, 256} {
			l, _ := LLower(q, M, p)
			if l > prev+1e-6 {
				t.Fatalf("%s: L_lower increased with p: %v -> %v", q, prev, l)
			}
			prev = l
		}
	}
}
