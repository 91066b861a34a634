package dataset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMergeAndSubset(t *testing.T) {
	a := New("a", 2, 3, 2)
	a.X.Set(0, 0, 1)
	a.Y[0] = 1
	b := New("b", 3, 3, 2)
	b.X.Set(2, 2, 5)
	merged := Merge("ab", a, b)
	if merged.Len() != 5 {
		t.Fatalf("merged len = %d, want 5", merged.Len())
	}
	if merged.X.At(0, 0) != 1 || merged.Y[0] != 1 {
		t.Errorf("first rows not preserved")
	}
	if merged.X.At(4, 2) != 5 {
		t.Errorf("b's rows not preserved")
	}
}

func TestMergeWithEmpty(t *testing.T) {
	a := New("a", 2, 3, 2)
	e := a.Empty("rider")
	merged := Merge("m", e, a, e)
	if merged.Len() != 2 {
		t.Errorf("merge with empty len = %d, want 2", merged.Len())
	}
	if merged.Dim() != 3 {
		t.Errorf("merge with empty dim = %d, want 3", merged.Dim())
	}
}

func TestMergeAllEmpty(t *testing.T) {
	a := New("a", 0, 3, 2)
	merged := Merge("m", a, a)
	if merged.Len() != 0 || merged.Dim() != 3 {
		t.Errorf("all-empty merge gave len=%d dim=%d", merged.Len(), merged.Dim())
	}
}

func TestMergeDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("Merge with mismatched dims should panic")
		}
	}()
	Merge("bad", New("a", 1, 3, 2), New("b", 1, 4, 2))
}

func TestCloneIndependence(t *testing.T) {
	a := New("a", 2, 2, 2)
	a.X.Set(0, 0, 1)
	c := a.Clone()
	c.X.Set(0, 0, 9)
	c.Y[0] = 1
	if a.X.At(0, 0) != 1 || a.Y[0] != 0 {
		t.Errorf("Clone aliases original")
	}
}

func TestSplit(t *testing.T) {
	d := New("d", 100, 2, 2)
	rng := rand.New(rand.NewSource(1))
	train, test := d.Split(0.8, rng)
	if train.Len() != 80 || test.Len() != 20 {
		t.Errorf("split sizes %d/%d, want 80/20", train.Len(), test.Len())
	}
}

func TestSynthImagesShape(t *testing.T) {
	d := SynthImages(DefaultSynthImages(100, 1))
	if d.Len() != 100 {
		t.Errorf("len = %d", d.Len())
	}
	if d.Dim() != 100 {
		t.Errorf("dim = %d, want 100 (10x10)", d.Dim())
	}
	if d.ImageW != 10 || d.ImageH != 10 {
		t.Errorf("image shape %dx%d", d.ImageW, d.ImageH)
	}
	for _, y := range d.Y {
		if y < 0 || y >= 10 {
			t.Fatalf("label %d out of range", y)
		}
	}
}

func TestSynthImagesDeterminism(t *testing.T) {
	a := SynthImages(DefaultSynthImages(50, 42))
	b := SynthImages(DefaultSynthImages(50, 42))
	for i := range a.X.Data {
		if a.X.Data[i] != b.X.Data[i] {
			t.Fatalf("same seed produced different data")
		}
	}
	c := SynthImages(DefaultSynthImages(50, 43))
	same := true
	for i := range a.X.Data {
		if a.X.Data[i] != c.X.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Errorf("different seeds produced identical data")
	}
}

func TestFEMNISTLike(t *testing.T) {
	cfg := DefaultFEMNISTLike(5, 40, 7)
	clients, test := FEMNISTLike(cfg)
	if len(clients) != 5 {
		t.Fatalf("clients = %d", len(clients))
	}
	for _, c := range clients {
		if c.Len() != 40 {
			t.Errorf("client len = %d, want 40", c.Len())
		}
		if c.Dim() != 100 {
			t.Errorf("client dim = %d", c.Dim())
		}
	}
	if test.Len() != cfg.TestSamples {
		t.Errorf("test len = %d, want %d", test.Len(), cfg.TestSamples)
	}
	// Writers must differ (style shifts): mean pixel of writer 0 vs 1.
	m0 := meanPixel(clients[0])
	m1 := meanPixel(clients[1])
	if m0 == m1 {
		t.Errorf("writers are pixel-identical; style shift missing")
	}
}

func meanPixel(d *Dataset) float64 {
	var s float64
	for _, x := range d.X.Data {
		s += x
	}
	return s / float64(len(d.X.Data))
}

func TestAdultLike(t *testing.T) {
	d, occ := AdultLike(DefaultAdultLike(500, 3))
	if d.Len() != 500 || len(occ) != 500 {
		t.Fatalf("sizes %d/%d", d.Len(), len(occ))
	}
	if d.NumClasses != 2 {
		t.Errorf("classes = %d, want 2", d.NumClasses)
	}
	// Occupation one-hot set consistently.
	for i := 0; i < d.Len(); i++ {
		if d.X.At(i, adultNumericFeatures+occ[i]) != 1 {
			t.Fatalf("row %d one-hot mismatch", i)
		}
	}
	// Both classes present.
	counts := classCounts(d)
	if counts[0] == 0 || counts[1] == 0 {
		t.Errorf("degenerate class balance %v", counts)
	}
}

func TestPartitionByKey(t *testing.T) {
	d, occ := AdultLike(DefaultAdultLike(400, 5))
	parts := PartitionByKey(d, occ, 4)
	if len(parts) != 4 {
		t.Fatalf("parts = %d", len(parts))
	}
	total := 0
	for _, p := range parts {
		total += p.Len()
	}
	if total != d.Len() {
		t.Errorf("partition loses rows: %d of %d", total, d.Len())
	}
}

func TestPartitionEqualIID(t *testing.T) {
	d := SynthImages(DefaultSynthImages(100, 1))
	rng := rand.New(rand.NewSource(2))
	parts := PartitionEqualIID(d, 4, rng)
	if len(parts) != 4 {
		t.Fatalf("parts = %d", len(parts))
	}
	for _, p := range parts {
		if p.Len() != 25 {
			t.Errorf("IID part len = %d, want 25", p.Len())
		}
	}
	assertPartitionDisjointCover(t, d, parts)
}

func TestPartitionLabelSkew(t *testing.T) {
	d := SynthImages(DefaultSynthImages(400, 1))
	rng := rand.New(rand.NewSource(2))
	parts := PartitionLabelSkew(d, 4, 0.7, rng)
	total := 0
	for c, p := range parts {
		total += p.Len()
		// The client's "own" labels (≡ c mod numClasses stride) should
		// dominate: compute the share of the majority label.
		counts := classCounts(p)
		maxCount := 0
		for _, cc := range counts {
			if cc > maxCount {
				maxCount = cc
			}
		}
		if p.Len() > 0 && float64(maxCount)/float64(p.Len()) < 0.15 {
			t.Errorf("client %d shows no skew: %v", c, counts)
		}
	}
	if total > d.Len() {
		t.Errorf("skew partition oversubscribed: %d > %d", total, d.Len())
	}
}

func TestPartitionBySizeRatio(t *testing.T) {
	d := SynthImages(DefaultSynthImages(100, 1))
	rng := rand.New(rand.NewSource(2))
	parts := PartitionBySizeRatio(d, 4, rng)
	// Ratios 1:2:3:4 of 100 → 10,20,30,40.
	want := []int{10, 20, 30, 40}
	for i, p := range parts {
		if p.Len() != want[i] {
			t.Errorf("part %d len = %d, want %d", i, p.Len(), want[i])
		}
	}
	assertPartitionDisjointCover(t, d, parts)
}

func TestAddLabelNoise(t *testing.T) {
	d := SynthImages(DefaultSynthImages(1000, 1))
	orig := append([]int(nil), d.Y...)
	rng := rand.New(rand.NewSource(3))
	flipped := AddLabelNoise(d, 0.2, rng)
	if flipped < 100 || flipped > 300 {
		t.Errorf("flipped = %d, want ≈200", flipped)
	}
	changed := 0
	for i := range d.Y {
		if d.Y[i] != orig[i] {
			changed++
			if d.Y[i] < 0 || d.Y[i] >= d.NumClasses {
				t.Fatalf("noise produced out-of-range label %d", d.Y[i])
			}
		}
	}
	if changed != flipped {
		t.Errorf("changed %d != reported %d", changed, flipped)
	}
}

func TestAddLabelNoiseZero(t *testing.T) {
	d := SynthImages(DefaultSynthImages(100, 1))
	orig := append([]int(nil), d.Y...)
	if n := AddLabelNoise(d, 0, rand.New(rand.NewSource(1))); n != 0 {
		t.Errorf("zero-fraction noise flipped %d labels", n)
	}
	for i := range d.Y {
		if d.Y[i] != orig[i] {
			t.Fatalf("zero-fraction noise changed labels")
		}
	}
}

func TestAddFeatureNoise(t *testing.T) {
	d := SynthImages(DefaultSynthImages(50, 1))
	orig := append([]float64(nil), d.X.Data...)
	AddFeatureNoise(d, 0.1, rand.New(rand.NewSource(4)))
	diff := 0
	for i := range d.X.Data {
		if d.X.Data[i] != orig[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Errorf("feature noise changed nothing")
	}
	// Zero scale is a no-op.
	before := append([]float64(nil), d.X.Data...)
	AddFeatureNoise(d, 0, rand.New(rand.NewSource(5)))
	for i := range d.X.Data {
		if d.X.Data[i] != before[i] {
			t.Fatalf("zero-scale noise changed features")
		}
	}
}

// classCounts returns the number of samples per class label.
func classCounts(d *Dataset) []int {
	counts := make([]int, d.NumClasses)
	for _, y := range d.Y {
		counts[y]++
	}
	return counts
}

// Partition invariants hold for arbitrary sizes and client counts.
func TestPartitionProperty(t *testing.T) {
	f := func(seed int64, nRaw, szRaw uint8) bool {
		n := int(nRaw%6) + 1
		size := int(szRaw%100) + n // at least one sample per client
		cfg := DefaultSynthImages(size, seed)
		d := SynthImages(cfg)
		rng := rand.New(rand.NewSource(seed))
		parts := PartitionEqualIID(d, n, rng)
		total := 0
		for _, p := range parts {
			total += p.Len()
		}
		return total == d.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func assertPartitionDisjointCover(t *testing.T, d *Dataset, parts []*Dataset) {
	t.Helper()
	total := 0
	for _, p := range parts {
		total += p.Len()
	}
	if total != d.Len() {
		t.Errorf("partition covers %d of %d rows", total, d.Len())
	}
}
