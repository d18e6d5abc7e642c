package bounds

import (
	"math"
	"math/rand"
	"testing"

	"mpcquery/internal/data"
	"mpcquery/internal/localjoin"
	"mpcquery/internal/query"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// TestSpaceExponentTable2 checks the last column of Table 2:
// C_k: 1−2/k, T_k: 0, L_k: 1−1/⌈k/2⌉, B_{k,m}: 1−m/k.
func TestSpaceExponentTable2(t *testing.T) {
	tests := []struct {
		q    *query.Query
		want float64
	}{
		{query.Cycle(3), 1 - 2.0/3},
		{query.Cycle(6), 1 - 2.0/6},
		{query.Star(2), 0},
		{query.Star(7), 0},
		{query.Chain(3), 0.5},
		{query.Chain(5), 1 - 1.0/3},
		{query.Binom(4, 2), 0.5},
		{query.Binom(4, 3), 0.25},
	}
	for _, tt := range tests {
		if got := SpaceExponentLB(tt.q); !approx(got, tt.want, 1e-6) {
			t.Errorf("%s: ε=%v want %v", tt.q.Name, got, tt.want)
		}
	}
}

func TestExpectedOutput(t *testing.T) {
	// Triangle with m1=m2=m3=m, n: E = n^{3-6}·m³ = m³/n³.
	q := query.Triangle()
	n, m := 1000.0, 500.0
	want := m * m * m / (n * n * n)
	if got := ExpectedOutput(q, []float64{m, m, m}, n); !approx(got, want, 1e-6) {
		t.Errorf("E[|C3|]=%v want %v", got, want)
	}
	// Chain L2: k=3, a=4 => n^{-1}·m².
	q2 := query.Chain(2)
	want2 := m * m / n
	if got := ExpectedOutput(q2, []float64{m, m}, n); !approx(got, want2, 1e-6) {
		t.Errorf("E[|L2|]=%v want %v", got, want2)
	}
}

// TestAnswerFraction checks that algorithms with load below L_lower report a
// vanishing fraction: for C3 with equal sizes, L = M/p gives fraction
// (4L·2/(3·L_lower·2))^{3/2} -> 0 as p grows, while L = L_lower gives Ω(1)·const.
func TestAnswerFraction(t *testing.T) {
	q := query.Triangle()
	M := 1 << 30
	stats := []float64{float64(M), float64(M), float64(M)}
	fLow := AnswerFractionUB(q, stats, 64, float64(M)/64)
	fHigh := AnswerFractionUB(q, stats, 64, float64(M)/math.Pow(64, 2.0/3))
	if fLow >= fHigh {
		t.Errorf("smaller load should bound a smaller fraction: %v vs %v", fLow, fHigh)
	}
	// The fraction at L = M/p must shrink as p grows (space exponent 0 < 1/3).
	f1 := AnswerFractionUB(q, stats, 64, float64(M)/64)
	f2 := AnswerFractionUB(q, stats, 4096, float64(M)/4096)
	if f2 >= f1 {
		t.Errorf("fraction should decrease with p: p=64 %v, p=4096 %v", f1, f2)
	}
}

// TestReplicationRate checks Example 3.20: for C3 with equal sizes the
// replication bound scales as sqrt(M/L).
func TestReplicationRate(t *testing.T) {
	q := query.Triangle()
	M := math.Pow(2, 30)
	r1 := ReplicationRateShape(q, M, M/4)
	if !approx(r1, 2, 1e-9) {
		t.Errorf("shape at L=M/4: %v want 2", r1)
	}
	r2 := ReplicationRateShape(q, M, M/16)
	if !approx(r2, 4, 1e-9) {
		t.Errorf("shape at L=M/16: %v want 4", r2)
	}
	// The constant-carrying bound must also grow as L decreases.
	lb1 := ReplicationRateLB(q, []float64{M, M, M}, M/4)
	lb2 := ReplicationRateLB(q, []float64{M, M, M}, M/16)
	if lb2 <= lb1 {
		t.Errorf("replication LB should grow as L shrinks: %v vs %v", lb1, lb2)
	}
}

// TestStarSkewLB checks the bound on a two-relation star (simple join).
// With a single heavy hitter h of frequency M in both relations, the bound
// must be sqrt(M·M/p) for I={1,2} — much larger than M/p.
func TestStarSkewLB(t *testing.T) {
	p := 64.0
	M := 1 << 20
	freq := []map[int64]float64{
		{7: float64(M)},
		{7: float64(M)},
	}
	got := StarSkewLB(freq, p)
	want := math.Sqrt(float64(M) * float64(M) / p)
	if !approx(got, want, 1e-6) {
		t.Errorf("single-heavy bound=%v want %v", got, want)
	}
	// Uniform frequencies: every value degree 1, m values. Bound becomes
	// max(M/p, sqrt(m/p)) = M/p for m=M.
	uniform := make(map[int64]float64, 1000)
	for i := int64(0); i < 1000; i++ {
		uniform[i] = 1
	}
	got2 := StarSkewLB([]map[int64]float64{uniform, uniform}, p)
	want2 := 1000 / p
	if !approx(got2, want2, 1e-6) {
		t.Errorf("uniform bound=%v want %v", got2, want2)
	}
}

func TestTriangleSkewUB(t *testing.T) {
	p := 64.0
	M := float64(1 << 20)
	empty := map[int64]float64{}
	// No heavy hitters: bound is the skew-free M/p^{2/3}.
	got := TriangleSkewUB(M, empty, empty, empty, empty, empty, empty, p)
	if !approx(got, M/math.Pow(p, 2.0/3), 1e-6) {
		t.Errorf("no-skew bound=%v", got)
	}
	// One x-value heavy in both R and T with full weight M:
	// sqrt(M²/p) dominates.
	h := map[int64]float64{1: M}
	got2 := TriangleSkewUB(M, h, h, empty, empty, empty, empty, p)
	if !approx(got2, math.Sqrt(M*M/p), 1e-6) {
		t.Errorf("heavy bound=%v want %v", got2, math.Sqrt(M*M/p))
	}
}

// TestSkewedLBStar checks that the general Theorem 4.4 machinery reproduces
// the star-specific bound (20) on the simple join.
func TestSkewedLBStar(t *testing.T) {
	q := query.Star(2) // S1(z,x1), S2(z,x2)
	p := 64.0
	M := float64(1 << 18)
	freq := []map[int64]float64{
		{3: M, 5: M / 2},
		{3: M, 5: M / 4},
	}
	general := SkewedLB(q, FreqStats{Var: "z", Bits: freq}, p)
	specific := StarSkewLB(freq, p)
	if !approx(general, specific, specific*1e-6) {
		t.Errorf("general LB %v != star LB %v", general, specific)
	}
}

func TestKEpsilon(t *testing.T) {
	tests := []struct {
		eps    float64
		ke, me int
	}{
		{0, 2, 2},
		{0.5, 4, 4},
		{2.0 / 3, 6, 6},
		{0.75, 8, 8},
	}
	for _, tt := range tests {
		if got := KEpsilon(tt.eps); got != tt.ke {
			t.Errorf("kε(%v)=%d want %d", tt.eps, got, tt.ke)
		}
		if got := MEpsilon(tt.eps); got != tt.me {
			t.Errorf("mε(%v)=%d want %d", tt.eps, got, tt.me)
		}
	}
}

func TestInGammaOne(t *testing.T) {
	if !InGammaOne(query.Chain(2), 0) {
		t.Error("L2 ∈ Γ¹₀")
	}
	if InGammaOne(query.Chain(3), 0) {
		t.Error("L3 ∉ Γ¹₀ (τ*=2)")
	}
	if !InGammaOne(query.Chain(4), 0.5) {
		t.Error("L4 ∈ Γ¹_{1/2}")
	}
	if !InGammaOne(query.Star(9), 0) {
		t.Error("T9 ∈ Γ¹₀ (τ*=1)")
	}
}

// TestChainRounds checks Table 3 and Example 5.2: L16 at ε=1/2 needs
// exactly 2 rounds; at ε=0 it needs ⌈log2 16⌉=4.
func TestChainRounds(t *testing.T) {
	if got := ChainRounds(16, 0.5); got != 2 {
		t.Errorf("L16 ε=1/2: rounds=%d want 2", got)
	}
	if got := ChainRounds(16, 0); got != 4 {
		t.Errorf("L16 ε=0: rounds=%d want 4", got)
	}
	if got := ChainRounds(5, 0); got != 3 {
		t.Errorf("L5 ε=0: rounds=%d want 3", got)
	}
}

// TestCycleRounds checks Example 5.19: at ε=0, C6 has LB 3 and UB 3;
// C5 has LB 2 and UB 3 (the paper leaves C5 open).
func TestCycleRounds(t *testing.T) {
	if got := CycleRoundsLB(6, 0); got != 3 {
		t.Errorf("C6 LB=%d want 3", got)
	}
	if got := RoundsUB(query.Cycle(6), 0); got != 3 {
		t.Errorf("C6 UB=%d want 3", got)
	}
	if got := CycleRoundsLB(5, 0); got != 2 {
		t.Errorf("C5 LB=%d want 2", got)
	}
	if got := RoundsUB(query.Cycle(5), 0); got != 3 {
		t.Errorf("C5 UB=%d want 3", got)
	}
}

// TestTreeLikeGap checks that for tree-like queries UB − LB ≤ 1 and that at
// ε < 1/2 the bounds match (Section 5.3 discussion).
func TestTreeLikeGap(t *testing.T) {
	for k := 3; k <= 12; k++ {
		q := query.Chain(k)
		lb := TreeLikeRoundsLB(q, 0)
		ub := RoundsUB(q, 0)
		if ub < lb {
			t.Errorf("L%d: UB %d < LB %d", k, ub, lb)
		}
		if ub-lb > 1 {
			t.Errorf("L%d: gap %d > 1", k, ub-lb)
		}
		if lb != ub { // ε=0 < 1/2: bounds must match for tree-like queries
			t.Errorf("L%d at ε=0: LB %d != UB %d", k, lb, ub)
		}
	}
}

func TestRoundsUBStar(t *testing.T) {
	// Stars have radius 1: computable in 1 round at any ε (Table 3: Tk -> 1).
	if got := RoundsUB(query.Star(5), 0); got != 1 {
		t.Errorf("T5 rounds=%d want 1", got)
	}
}

func TestCeilFloorLog(t *testing.T) {
	if CeilLog(2, 1) != 0 || CeilLog(2, 2) != 1 || CeilLog(2, 3) != 2 || CeilLog(4, 16) != 2 || CeilLog(4, 17) != 3 {
		t.Error("CeilLog broken")
	}
	if FloorLogRatio(2, 6, 3) != 1 || FloorLogRatio(2, 5, 3) != 0 || FloorLogRatio(2, 12, 3) != 2 {
		t.Error("FloorLogRatio broken")
	}
}

// TestAGMBound checks that the Friedgut-derived output bound dominates the
// actual join size on random instances (the Section 2.4 corollary).
func TestAGMBound(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	q := query.Triangle()
	for trial := 0; trial < 20; trial++ {
		rels := make(map[string]*data.Relation)
		sizes := make([]float64, 3)
		for j, a := range q.Atoms {
			rel := data.NewRelation(a.Name, 2)
			m := 1 + rng.Intn(40)
			for i := 0; i < m; i++ {
				rel.Append(int64(rng.Intn(6)), int64(rng.Intn(6)))
			}
			rels[a.Name] = rel.Canonical() // set semantics for the bound
			sizes[j] = float64(rels[a.Name].NumTuples())
		}
		out := localjoin.Evaluate(q, rels).Canonical()
		bound := AGMBound(sizes, []float64{0.5, 0.5, 0.5})
		if float64(out.NumTuples()) > bound+1e-9 {
			t.Fatalf("AGM violated: |out|=%d bound=%v sizes=%v", out.NumTuples(), bound, sizes)
		}
	}
}
