package dataset

import (
	"fmt"
	"math/rand"

	"fedshap/internal/tensor"
)

// SynthImagesConfig parameterises the MNIST-stand-in generator.
type SynthImagesConfig struct {
	Samples    int // total samples to draw
	Classes    int // number of digit classes
	Width      int // image width in pixels
	Height     int // image height in pixels
	NoiseStd   float64
	Seed       int64
	Sharpness  float64 // prototype contrast; higher = easier task
	ProtoCells int     // active cells per class prototype (0 = auto)
}

// DefaultSynthImages returns the configuration used by the synthetic-MNIST
// experiments (Fig. 6): 10 classes of 10×10 images, mildly noisy.
func DefaultSynthImages(samples int, seed int64) SynthImagesConfig {
	return SynthImagesConfig{
		Samples:   samples,
		Classes:   10,
		Width:     10,
		Height:    10,
		NoiseStd:  0.35,
		Seed:      seed,
		Sharpness: 1.0,
	}
}

// SynthImages generates an MNIST-like dataset: each class has a fixed random
// prototype pattern (a sparse set of bright cells, loosely mimicking stroke
// structure) and samples are the prototype plus Gaussian pixel noise. The
// task has the properties valuation cares about — learnable class structure
// and diminishing returns in sample count — without needing the real corpus.
func SynthImages(cfg SynthImagesConfig) *Dataset {
	if cfg.Classes <= 0 || cfg.Width <= 0 || cfg.Height <= 0 {
		panic("dataset: SynthImages requires positive classes and shape")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	dim := cfg.Width * cfg.Height
	protos := classPrototypes(cfg, rng)

	d := New(fmt.Sprintf("synth-images(c=%d)", cfg.Classes), cfg.Samples, dim, cfg.Classes)
	d.ImageW, d.ImageH = cfg.Width, cfg.Height
	for i := 0; i < cfg.Samples; i++ {
		y := rng.Intn(cfg.Classes)
		row := d.X.Row(i)
		proto := protos[y]
		for j := 0; j < dim; j++ {
			row[j] = proto[j] + rng.NormFloat64()*cfg.NoiseStd
		}
		d.Y[i] = y
	}
	return d
}

// classPrototypes builds one sparse bright-cell pattern per class.
func classPrototypes(cfg SynthImagesConfig, rng *rand.Rand) []tensor.Vector {
	dim := cfg.Width * cfg.Height
	active := cfg.ProtoCells
	if active <= 0 {
		active = dim / 4
		if active < 3 {
			active = 3
		}
	}
	sharp := cfg.Sharpness
	if sharp <= 0 {
		sharp = 1.0
	}
	protos := make([]tensor.Vector, cfg.Classes)
	for c := range protos {
		p := tensor.NewVector(dim)
		for _, cell := range rng.Perm(dim)[:active] {
			p[cell] = sharp * (0.6 + 0.4*rng.Float64())
		}
		protos[c] = p
	}
	return protos
}

// FEMNISTLikeConfig parameterises the writer-partitioned federated image
// generator standing in for FEMNIST.
type FEMNISTLikeConfig struct {
	Writers          int     // number of writers == FL clients
	SamplesPerWriter int     // training samples held by each writer
	TestSamples      int     // size of the shared test set
	Classes          int     // digit classes
	Width, Height    int     // image shape
	StyleStd         float64 // per-writer style shift magnitude (non-IIDness)
	NoiseStd         float64 // per-sample pixel noise
	Seed             int64
}

// DefaultFEMNISTLike mirrors the paper's FEMNIST usage at laptop scale.
func DefaultFEMNISTLike(writers, perWriter int, seed int64) FEMNISTLikeConfig {
	return FEMNISTLikeConfig{
		Writers:          writers,
		SamplesPerWriter: perWriter,
		TestSamples:      writers * perWriter / 2,
		Classes:          10,
		Width:            10,
		Height:           10,
		StyleStd:         0.25,
		NoiseStd:         0.30,
		Seed:             seed,
	}
}

// FEMNISTLike generates a naturally non-IID federated image dataset: all
// writers share the same class prototypes, but each writer applies a
// persistent style transform (per-pixel additive shift plus contrast scale),
// reproducing the writer heterogeneity that makes FEMNIST the standard
// federated benchmark. It returns one training dataset per writer and a
// style-neutral shared test set.
func FEMNISTLike(cfg FEMNISTLikeConfig) (clients []*Dataset, test *Dataset) {
	if cfg.Writers <= 0 {
		panic("dataset: FEMNISTLike requires at least one writer")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	dim := cfg.Width * cfg.Height
	base := SynthImagesConfig{
		Classes: cfg.Classes, Width: cfg.Width, Height: cfg.Height,
		Sharpness: 1.0,
	}
	protos := classPrototypes(base, rng)

	clients = make([]*Dataset, cfg.Writers)
	for w := 0; w < cfg.Writers; w++ {
		styleShift := tensor.NewVector(dim)
		for j := range styleShift {
			styleShift[j] = rng.NormFloat64() * cfg.StyleStd
		}
		contrast := 1.0 + (rng.Float64()-0.5)*cfg.StyleStd

		d := New(fmt.Sprintf("femnist-like/writer-%d", w), cfg.SamplesPerWriter, dim, cfg.Classes)
		d.ImageW, d.ImageH = cfg.Width, cfg.Height
		for i := 0; i < cfg.SamplesPerWriter; i++ {
			y := rng.Intn(cfg.Classes)
			row := d.X.Row(i)
			proto := protos[y]
			for j := 0; j < dim; j++ {
				row[j] = contrast*proto[j] + styleShift[j] + rng.NormFloat64()*cfg.NoiseStd
			}
			d.Y[i] = y
		}
		clients[w] = d
	}

	test = New("femnist-like/test", cfg.TestSamples, dim, cfg.Classes)
	test.ImageW, test.ImageH = cfg.Width, cfg.Height
	for i := 0; i < cfg.TestSamples; i++ {
		y := rng.Intn(cfg.Classes)
		row := test.X.Row(i)
		proto := protos[y]
		for j := 0; j < dim; j++ {
			row[j] = proto[j] + rng.NormFloat64()*cfg.NoiseStd
		}
		test.Y[i] = y
	}
	return clients, test
}

// AdultLikeConfig parameterises the census-style tabular generator standing
// in for the UCI Adult dataset.
type AdultLikeConfig struct {
	Samples     int
	Occupations int // categorical partition key, as in the paper's split
	Seed        int64
	NoiseStd    float64
}

// DefaultAdultLike mirrors the paper's Adult usage.
func DefaultAdultLike(samples int, seed int64) AdultLikeConfig {
	return AdultLikeConfig{Samples: samples, Occupations: 10, Seed: seed, NoiseStd: 0.6}
}

// adultNumericFeatures is the number of continuous census-style features
// (age, education-years, hours-per-week, capital-gain, capital-loss, ...).
const adultNumericFeatures = 6

// AdultLike generates a binary-classification tabular dataset with mixed
// numeric and one-hot categorical features and a logistic ground truth, plus
// per-row occupation codes so it can be partitioned by occupation exactly as
// the paper partitions Adult. The returned occupation slice is parallel to
// the dataset rows.
func AdultLike(cfg AdultLikeConfig) (*Dataset, []int) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	dim := adultNumericFeatures + cfg.Occupations
	d := New("adult-like", cfg.Samples, dim, 2)
	occ := make([]int, cfg.Samples)

	// Ground-truth logistic weights over all features; occupations carry
	// real signal so occupation-partitioned clients differ in value.
	w := tensor.NewVector(dim)
	for j := range w {
		w[j] = rng.NormFloat64()
	}
	for i := 0; i < cfg.Samples; i++ {
		o := rng.Intn(cfg.Occupations)
		occ[i] = o
		row := d.X.Row(i)
		// Numeric features correlate mildly with occupation, mimicking
		// income/hours structure in the real Adult data.
		for j := 0; j < adultNumericFeatures; j++ {
			row[j] = rng.NormFloat64() + 0.3*float64(o)/float64(cfg.Occupations)
		}
		row[adultNumericFeatures+o] = 1.0
		z := w.Dot(row) + rng.NormFloat64()*cfg.NoiseStd
		if tensor.Sigmoid(z) > 0.5 {
			d.Y[i] = 1
		}
	}
	return d, occ
}

// PartitionByKey splits rows by an integer key (e.g. occupation) into at
// most n client datasets: keys are assigned round-robin to clients so every
// client receives whole key groups, as in the paper's by-occupation split.
func PartitionByKey(d *Dataset, keys []int, n int) []*Dataset {
	if len(keys) != d.Len() {
		panic("dataset: PartitionByKey key slice length mismatch")
	}
	groups := map[int][]int{}
	order := []int{}
	for i, k := range keys {
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], i)
	}
	idxPerClient := make([][]int, n)
	for gi, k := range order {
		c := gi % n
		idxPerClient[c] = append(idxPerClient[c], groups[k]...)
	}
	out := make([]*Dataset, n)
	for c := range out {
		out[c] = d.Subset(fmt.Sprintf("%s/client-%d", d.Name, c), idxPerClient[c])
	}
	return out
}
