package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestSeedSeparation(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.uint32() == b.uint32() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("adjacent seeds produced %d/1000 identical outputs", same)
	}
}

func TestStreamsIndependent(t *testing.T) {
	a := newStream(7, 0)
	b := newStream(7, 1)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.uint32() == b.uint32() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams produced %d/1000 identical outputs", same)
	}
}

func TestForkIndependent(t *testing.T) {
	parent := New(9)
	c1 := parent.Fork()
	c2 := parent.Fork()
	same := 0
	for i := 0; i < 1000; i++ {
		if c1.uint32() == c2.uint32() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("forked children produced %d/1000 identical outputs", same)
	}
}

func TestUint64nRange(t *testing.T) {
	r := New(3)
	f := func(n uint64) bool {
		if n == 0 {
			n = 1
		}
		v := r.uint64n(n)
		return v < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nUniformity(t *testing.T) {
	r := New(11)
	const n = 10
	const draws = 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.uint64n(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > want*0.05 {
			t.Errorf("bucket %d: got %d, want ~%.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	for i := 0; i < 100000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(6)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(8)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) rate = %v", p)
	}
	if r.Bool(0) {
		t.Fatal("Bool(0) returned true")
	}
	if !r.Bool(1) {
		t.Fatal("Bool(1) returned false")
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(13)
	const n = 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestPoissonMean(t *testing.T) {
	r := New(17)
	for _, lambda := range []float64{0.5, 4, 12, 50} {
		const n = 50000
		sum := 0
		for i := 0; i < n; i++ {
			sum += r.Poisson(lambda)
		}
		mean := float64(sum) / n
		if math.Abs(mean-lambda) > lambda*0.05+0.05 {
			t.Errorf("Poisson(%v) mean = %v", lambda, mean)
		}
	}
	if r.Poisson(0) != 0 {
		t.Error("Poisson(0) != 0")
	}
	if r.Poisson(-1) != 0 {
		t.Error("Poisson(-1) != 0")
	}
}

func TestLogNormalPositive(t *testing.T) {
	r := New(23)
	for i := 0; i < 10000; i++ {
		if r.LogNormal(1, 2) <= 0 {
			t.Fatal("lognormal variate <= 0")
		}
	}
}

func TestParetoMinimum(t *testing.T) {
	r := New(29)
	for i := 0; i < 10000; i++ {
		if v := r.Pareto(3, 1.5); v < 3 {
			t.Fatalf("Pareto below xm: %v", v)
		}
	}
}

func TestSmallZipfPopularity(t *testing.T) {
	r := New(43)
	counts := make(map[int]int)
	for i := 0; i < 50000; i++ {
		p := SmallZipfPopularity(r, 10, 1.0)
		if p < 1 || p > 10 {
			t.Fatalf("popularity out of range: %d", p)
		}
		counts[p]++
	}
	if counts[1] <= counts[10] {
		t.Fatal("popularity not skewed toward 1")
	}
	if SmallZipfPopularity(r, 1, 1.0) != 1 {
		t.Fatal("max=1 should return 1")
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}
