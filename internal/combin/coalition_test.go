package combin

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCoalitionBasics(t *testing.T) {
	c := NewCoalition(0, 2, 5)
	if got := c.Size(); got != 3 {
		t.Fatalf("Size = %d, want 3", got)
	}
	for _, i := range []int{0, 2, 5} {
		if !c.Has(i) {
			t.Errorf("Has(%d) = false, want true", i)
		}
	}
	for _, i := range []int{1, 3, 4, 6} {
		if c.Has(i) {
			t.Errorf("Has(%d) = true, want false", i)
		}
	}
	if got := c.String(); got != "{0,2,5}" {
		t.Errorf("String = %q, want {0,2,5}", got)
	}
	if Empty.String() != "{}" {
		t.Errorf("Empty.String() = %q", Empty.String())
	}
}

func TestWithWithout(t *testing.T) {
	c := Empty.With(3)
	if !c.Has(3) || c.Size() != 1 {
		t.Fatalf("With(3) produced %v", c)
	}
	if c.Without(3) != Empty {
		t.Fatalf("Without(3) should restore Empty")
	}
	// Idempotence.
	if c.With(3) != c {
		t.Errorf("With is not idempotent")
	}
	if Empty.Without(3) != Empty {
		t.Errorf("Without on absent member should be identity")
	}
}

func TestComplement(t *testing.T) {
	n := 5
	c := NewCoalition(1, 3)
	comp := FullCoalition(n).Minus(c)
	want := NewCoalition(0, 2, 4)
	if comp != want {
		t.Fatalf("N \\ S = %v, want %v", comp, want)
	}
	if c.Intersect(comp) != Empty {
		t.Errorf("S ∩ S̄ should be empty")
	}
}

func TestComplementProperty(t *testing.T) {
	f := func(raw uint16, nRaw uint8) bool {
		n := int(nRaw%12) + 1
		full := FullCoalition(n)
		c := FromMask(uint64(raw)).Intersect(full)
		return full.Minus(full.Minus(c)) == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMembersRoundTrip(t *testing.T) {
	f := func(raw uint32) bool {
		c := FromMask(uint64(raw))
		return NewCoalition(c.Members()...) == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAllSubsetsCount(t *testing.T) {
	for n := 0; n <= 10; n++ {
		count := 0
		AllSubsets(n, func(Coalition) { count++ })
		if count != 1<<uint(n) {
			t.Errorf("AllSubsets(%d) visited %d, want %d", n, count, 1<<uint(n))
		}
	}
}

func TestSubsetsOfSize(t *testing.T) {
	for n := 1; n <= 8; n++ {
		total := 0
		for k := 0; k <= n; k++ {
			count := 0
			seen := map[Coalition]bool{}
			SubsetsOfSize(n, k, func(s Coalition) {
				count++
				if s.Size() != k {
					t.Fatalf("SubsetsOfSize(%d,%d) yielded size %d", n, k, s.Size())
				}
				if seen[s] {
					t.Fatalf("SubsetsOfSize(%d,%d) yielded duplicate %v", n, k, s)
				}
				seen[s] = true
			})
			if want := int(BinomialInt(n, k)); count != want {
				t.Errorf("SubsetsOfSize(%d,%d) yielded %d, want %d", n, k, count, want)
			}
			total += count
		}
		if total != 1<<uint(n) {
			t.Errorf("strata of n=%d don't partition the power set: %d", n, total)
		}
	}
}

func TestSubsetsOfSizeNotContaining(t *testing.T) {
	n, k, excl := 6, 3, 2
	count := 0
	SubsetsOfSizeNotContaining(n, k, excl, func(s Coalition) {
		count++
		if s.Has(excl) {
			t.Fatalf("subset %v contains excluded player %d", s, excl)
		}
		if s.Size() != k {
			t.Fatalf("subset %v has size %d, want %d", s, s.Size(), k)
		}
		if !s.Minus(FullCoalition(n)).IsEmpty() {
			t.Fatalf("subset %v out of range for n=%d", s, n)
		}
	})
	if want := int(BinomialInt(n-1, k)); count != want {
		t.Errorf("count = %d, want %d", count, want)
	}
}

func TestInsertGapProperty(t *testing.T) {
	f := func(raw uint16, gapRaw uint8) bool {
		gap := int(gapRaw % 10)
		s := FromMask(uint64(raw)).Intersect(FullCoalition(10))
		out := insertGap(s, gap)
		if out.Has(gap) {
			return false
		}
		return out.Size() == s.Size()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBinomial(t *testing.T) {
	cases := []struct {
		n, k int
		want float64
	}{
		{0, 0, 1}, {5, 0, 1}, {5, 5, 1}, {5, 2, 10}, {10, 5, 252},
		{9, 4, 126}, {3, 5, 0}, {4, -1, 0}, {63, 31, 9.16312070471295e17},
	}
	for _, c := range cases {
		got := Binomial(c.n, c.k)
		if rel := (got - c.want) / maxf(c.want, 1); rel > 1e-9 || rel < -1e-9 {
			t.Errorf("Binomial(%d,%d) = %v, want %v", c.n, c.k, got, c.want)
		}
	}
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func TestBinomialIntPascal(t *testing.T) {
	for n := 1; n <= 30; n++ {
		for k := 1; k < n; k++ {
			if BinomialInt(n, k) != BinomialInt(n-1, k-1)+BinomialInt(n-1, k) {
				t.Fatalf("Pascal identity fails at C(%d,%d)", n, k)
			}
		}
	}
}

func TestCumulativeBinomial(t *testing.T) {
	if got := CumulativeBinomial(4, 1); got != 5 {
		t.Errorf("CumulativeBinomial(4,1) = %d, want 5", got)
	}
	if got := CumulativeBinomial(10, 10); got != 1024 {
		t.Errorf("CumulativeBinomial(10,10) = %d, want 1024", got)
	}
	if got := CumulativeBinomial(10, 2); got != 1+10+45 {
		t.Errorf("CumulativeBinomial(10,2) = %d, want 56", got)
	}
}

func TestMaxFullStratum(t *testing.T) {
	// The paper's Example 3: n=4, γ=10 → k* = 1 (1+4=5 ≤ 10 < 5+6=11).
	if got := MaxFullStratum(4, 10); got != 1 {
		t.Errorf("MaxFullStratum(4,10) = %d, want 1", got)
	}
	// Table III: n=10, γ=32 → 1+10=11 ≤ 32 < 11+45=56 → k*=1.
	if got := MaxFullStratum(10, 32); got != 1 {
		t.Errorf("MaxFullStratum(10,32) = %d, want 1", got)
	}
	// n=3, γ=5 → 1+3=4 ≤ 5 < 4+3=7 → k*=1.
	if got := MaxFullStratum(3, 5); got != 1 {
		t.Errorf("MaxFullStratum(3,5) = %d, want 1", got)
	}
	// Budget covers everything.
	if got := MaxFullStratum(4, 16); got != 4 {
		t.Errorf("MaxFullStratum(4,16) = %d, want 4", got)
	}
	// Budget 0: nothing fits.
	if got := MaxFullStratum(4, 0); got != -1 {
		t.Errorf("MaxFullStratum(4,0) = %d, want -1", got)
	}
}

func TestMaxFullStratumProperty(t *testing.T) {
	f := func(nRaw, gRaw uint8) bool {
		n := int(nRaw%20) + 1
		gamma := uint64(gRaw)
		k := MaxFullStratum(n, gamma)
		if k >= 0 && CumulativeBinomial(n, k) > gamma {
			return false
		}
		if k+1 <= n && CumulativeBinomial(n, k+1) <= gamma {
			return false // not maximal
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFactorial(t *testing.T) {
	want := []float64{1, 1, 2, 6, 24, 120, 720}
	for n, w := range want {
		if got := Factorial(n); got != w {
			t.Errorf("Factorial(%d) = %v, want %v", n, got, w)
		}
	}
}

func TestRandomSubsetOfSize(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(12)
		k := rng.Intn(n + 1)
		s := RandomSubsetOfSize(n, k, rng)
		if s.Size() != k {
			t.Fatalf("size = %d, want %d", s.Size(), k)
		}
		if !s.Minus(FullCoalition(n)).IsEmpty() {
			t.Fatalf("subset %v escapes range n=%d", s, n)
		}
	}
}

func TestRandomSubsetUniformity(t *testing.T) {
	// Over many draws of 2-subsets of 4 players, each of the 6 subsets
	// should appear roughly equally often.
	rng := rand.New(rand.NewSource(7))
	counts := map[Coalition]int{}
	const draws = 6000
	for i := 0; i < draws; i++ {
		counts[RandomSubsetOfSize(4, 2, rng)]++
	}
	if len(counts) != 6 {
		t.Fatalf("saw %d distinct subsets, want 6", len(counts))
	}
	for s, c := range counts {
		if c < draws/6-draws/12 || c > draws/6+draws/12 {
			t.Errorf("subset %v count %d deviates from uniform %d", s, c, draws/6)
		}
	}
}

func TestSampleStratumWithoutReplacement(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	got := SampleStratumWithoutReplacement(6, 3, 10, rng)
	if len(got) != 10 {
		t.Fatalf("len = %d, want 10", len(got))
	}
	seen := map[Coalition]bool{}
	for _, s := range got {
		if s.Size() != 3 {
			t.Errorf("sampled subset %v has wrong size", s)
		}
		if seen[s] {
			t.Errorf("duplicate subset %v", s)
		}
		seen[s] = true
	}
	// Requesting more than the stratum returns the whole stratum.
	all := SampleStratumWithoutReplacement(5, 2, 100, rng)
	if len(all) != 10 {
		t.Errorf("over-request returned %d, want 10", len(all))
	}
}

func TestBalancedStratumSample(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	// The paper's Example 3 shape: n=4, k=2, m=5. Coverage must differ by
	// at most 1 across clients (5*2/4 = 2.5 → counts 2 or 3).
	p := BalancedStratumSample(4, 2, 5, rng)
	if len(p) != 5 {
		t.Fatalf("len = %d, want 5", len(p))
	}
	cov := make([]int, 4)
	seen := map[Coalition]bool{}
	for _, s := range p {
		if s.Size() != 2 {
			t.Fatalf("sampled subset %v has wrong size", s)
		}
		if seen[s] {
			t.Fatalf("duplicate subset %v", s)
		}
		seen[s] = true
		for _, i := range s.Members() {
			cov[i]++
		}
	}
	minC, maxC := cov[0], cov[0]
	for _, c := range cov[1:] {
		if c < minC {
			minC = c
		}
		if c > maxC {
			maxC = c
		}
	}
	if maxC-minC > 1 {
		t.Errorf("coverage spread %v exceeds 1", cov)
	}
}

func TestBalancedStratumSampleExactCoverage(t *testing.T) {
	// m*k divisible by n: exact equality achievable and expected.
	rng := rand.New(rand.NewSource(5))
	p := BalancedStratumSample(6, 2, 9, rng) // 9*2/6 = 3 each
	cov := make([]int, 6)
	for _, s := range p {
		for _, i := range s.Members() {
			cov[i]++
		}
	}
	for i, c := range cov {
		if c < 2 || c > 4 {
			t.Errorf("client %d coverage %d far from balanced 3 (%v)", i, c, cov)
		}
	}
}

func TestForEachPermutation(t *testing.T) {
	for n := 0; n <= 6; n++ {
		count := 0
		seen := map[string]bool{}
		ForEachPermutation(n, func(p []int) {
			count++
			key := ""
			for _, x := range p {
				key += string(rune('a' + x))
			}
			if seen[key] {
				t.Fatalf("duplicate permutation %v", p)
			}
			seen[key] = true
		})
		if want := int(Factorial(n)); count != want {
			t.Errorf("n=%d: %d permutations, want %d", n, count, want)
		}
	}
}

func TestPanics(t *testing.T) {
	assertPanics(t, "FullCoalition(128)", func() { FullCoalition(128) })
	assertPanics(t, "Has(-1)", func() { Empty.Has(-1) })
	assertPanics(t, "With(127)", func() { Empty.With(127) })
	assertPanics(t, "AllSubsets(31)", func() { AllSubsets(31, func(Coalition) {}) })
	assertPanics(t, "SubsetsOfSize(100,15)", func() { SubsetsOfSize(100, 15, func(Coalition) {}) })
	assertPanics(t, "ForEachPermutation(13)", func() { ForEachPermutation(13, func([]int) {}) })
	assertPanics(t, "Index(high)", func() { NewCoalition(100).Index() })
}

// The 128-bit representation must behave identically across the word
// boundary: players 60..100 exercise both words.
func TestWideCoalitions(t *testing.T) {
	c := NewCoalition(2, 63, 64, 100)
	if c.Size() != 4 {
		t.Fatalf("Size = %d", c.Size())
	}
	for _, i := range []int{2, 63, 64, 100} {
		if !c.Has(i) {
			t.Errorf("Has(%d) = false", i)
		}
	}
	if c.Has(65) || c.Has(99) {
		t.Errorf("phantom members")
	}
	got := c.Members()
	want := []int{2, 63, 64, 100}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Members = %v", got)
		}
	}
	if c.Without(64).Has(64) {
		t.Errorf("Without(64) failed")
	}
	// Complement over 110 players.
	comp := FullCoalition(110).Minus(c)
	if comp.Size() != 110-4 {
		t.Errorf("complement size %d", comp.Size())
	}
	if c.Intersect(comp) != Empty {
		t.Errorf("S ∩ S̄ ≠ ∅ at width 110")
	}
	if c.String() != "{2,63,64,100}" {
		t.Errorf("String = %q", c.String())
	}
}

func TestWideRandomSubsets(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		s := RandomSubsetOfSize(100, 17, rng)
		if s.Size() != 17 {
			t.Fatalf("size = %d", s.Size())
		}
		if !s.Minus(FullCoalition(100)).IsEmpty() {
			t.Fatalf("subset escapes 100-player range")
		}
	}
	// Balanced sampling at 100 players (the Fig. 9 regime).
	p := BalancedStratumSample(100, 2, 50, rng)
	if len(p) != 50 {
		t.Fatalf("balanced sample len = %d", len(p))
	}
	cov := make([]int, 100)
	for _, s := range p {
		for _, i := range s.Members() {
			cov[i]++
		}
	}
	maxC := 0
	for _, c := range cov {
		if c > maxC {
			maxC = c
		}
	}
	if maxC > 2 {
		t.Errorf("coverage max %d for 50×2 over 100 players", maxC)
	}
}

func TestLessOrdering(t *testing.T) {
	a := NewCoalition(1)
	b := NewCoalition(2)
	w := NewCoalition(80)
	if !a.Less(b) || b.Less(a) {
		t.Errorf("low-word ordering broken")
	}
	if !a.Less(w) || w.Less(a) {
		t.Errorf("cross-word ordering broken")
	}
}

func TestFromMaskIndexRoundTrip(t *testing.T) {
	f := func(raw uint32) bool {
		return FromMask(uint64(raw)).Index() == uint64(raw)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func assertPanics(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", name)
		}
	}()
	fn()
}

func TestSubsetsOfSizeWidePath(t *testing.T) {
	// n > 63 exercises the recursive enumerator.
	count := 0
	seen := map[Coalition]bool{}
	SubsetsOfSize(70, 2, func(s Coalition) {
		count++
		if s.Size() != 2 {
			t.Fatalf("size %d", s.Size())
		}
		if seen[s] {
			t.Fatalf("duplicate %v", s)
		}
		seen[s] = true
		if !s.Minus(FullCoalition(70)).IsEmpty() {
			t.Fatalf("out of range: %v", s)
		}
	})
	if want := int(BinomialInt(70, 2)); count != want {
		t.Errorf("count = %d, want %d", count, want)
	}
	// k = 0 and k = 1 also work wide.
	ones := 0
	SubsetsOfSize(100, 1, func(s Coalition) { ones++ })
	if ones != 100 {
		t.Errorf("singletons = %d", ones)
	}
}

func TestInsertGapWide(t *testing.T) {
	// Wide coalitions and carries across the word boundary.
	s := NewCoalition(10, 62, 63, 70)
	out := insertGap(s, 5)
	want := NewCoalition(11, 63, 64, 71)
	if out != want {
		t.Fatalf("insertGap wide = %v, want %v", out, want)
	}
	// Gap above all members: unchanged.
	if insertGap(NewCoalition(1, 2), 50) != NewCoalition(1, 2) {
		t.Errorf("gap above members should not move them")
	}
	// Carry from bit 63 into the high word.
	c := NewCoalition(63)
	if got := insertGap(c, 0); got != NewCoalition(64) {
		t.Errorf("carry failed: %v", got)
	}
}

func TestSubsetsOfSizeNotContainingWide(t *testing.T) {
	n, k, excl := 70, 1, 65
	count := 0
	SubsetsOfSizeNotContaining(n, k, excl, func(s Coalition) {
		count++
		if s.Has(excl) {
			t.Fatalf("excluded member present in %v", s)
		}
		if !s.Minus(FullCoalition(n)).IsEmpty() {
			t.Fatalf("out of range: %v", s)
		}
	})
	if count != 69 {
		t.Errorf("count = %d, want 69", count)
	}
}

// TestPermIntoMatchesRandPerm guards the lockstep between PermInto and
// math/rand's Perm: same seed, same permutation, same RNG consumption. If
// this ever fails, every model's training order — and so every cached
// utility — would silently change.
func TestPermIntoMatchesRandPerm(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 64, 501} {
		a := rand.New(rand.NewSource(int64(n) + 3))
		b := rand.New(rand.NewSource(int64(n) + 3))
		var buf []int
		for rep := 0; rep < 3; rep++ {
			want := a.Perm(n)
			buf = PermInto(b, n, buf)
			if len(buf) != len(want) {
				t.Fatalf("n=%d: len %d, want %d", n, len(buf), len(want))
			}
			for i := range want {
				if buf[i] != want[i] {
					t.Fatalf("n=%d rep=%d: perm[%d] = %d, want %d", n, rep, i, buf[i], want[i])
				}
			}
		}
		// The two RNGs must stay in the same stream position.
		if a.Int63() != b.Int63() {
			t.Fatalf("n=%d: RNG streams diverged after Perm", n)
		}
	}
}
