package rng

// Kolmogorov–Smirnov goodness-of-fit suite: every continuous sampler the
// simulator depends on (uniform, exponential, normal, gamma) is tested
// against its analytic CDF with fixed seeds. The generators are fully
// deterministic, so these are regression tests, not flaky statistical
// checks: for a given seed the KS statistic is a constant, and the
// threshold (the asymptotic 99.9%-level critical value 1.95/√n) leaves a
// wide margin that only a genuine distribution bug crosses.

import (
	"math"
	"sort"
	"testing"
)

const ksN = 20000

// ksStat returns the two-sided Kolmogorov–Smirnov statistic between the
// sample and the analytic CDF.
func ksStat(sample []float64, cdf func(float64) float64) float64 {
	sorted := append([]float64(nil), sample...)
	sort.Float64s(sorted)
	n := float64(len(sorted))
	d := 0.0
	for i, x := range sorted {
		f := cdf(x)
		if up := float64(i+1)/n - f; up > d {
			d = up
		}
		if down := f - float64(i)/n; down > d {
			d = down
		}
	}
	return d
}

// checkKS fails the test when the KS statistic exceeds the 99.9% critical
// value; it always logs the statistic so distribution drift is visible in
// verbose runs long before it crosses the line.
func checkKS(t *testing.T, name string, sample []float64, cdf func(float64) float64) {
	t.Helper()
	d := ksStat(sample, cdf)
	limit := 1.95 / math.Sqrt(float64(len(sample)))
	t.Logf("%s: KS statistic %.5f (limit %.5f, n=%d)", name, d, limit, len(sample))
	if d > limit {
		t.Errorf("%s: KS statistic %.5f exceeds %.5f — sample does not match the analytic CDF", name, d, limit)
	}
}

// lowerIncompleteGammaRegularized computes P(a, x) = γ(a, x)/Γ(a) via the
// series expansion for x < a+1 and the Lentz continued fraction otherwise —
// the standard split that converges quickly on both sides.
func lowerIncompleteGammaRegularized(a, x float64) float64 {
	if x <= 0 {
		return 0
	}
	lg, _ := math.Lgamma(a)
	if x < a+1 {
		// Series: P(a,x) = x^a e^-x / Γ(a) · Σ x^k / (a(a+1)...(a+k)).
		sum := 1.0 / a
		term := sum
		for k := 1; k < 500; k++ {
			term *= x / (a + float64(k))
			sum += term
			if math.Abs(term) < math.Abs(sum)*1e-15 {
				break
			}
		}
		return sum * math.Exp(-x+a*math.Log(x)-lg)
	}
	// Continued fraction for Q(a,x) (modified Lentz).
	const tiny = 1e-300
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for k := 1; k < 500; k++ {
		an := -float64(k) * (float64(k) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-15 {
			break
		}
	}
	q := math.Exp(-x+a*math.Log(x)-lg) * h
	return 1 - q
}

func normalCDF(mean, std, x float64) float64 {
	return 0.5 * math.Erfc(-(x-mean)/(std*math.Sqrt2))
}

func TestKSUniform(t *testing.T) {
	r := New(101)
	sample := make([]float64, ksN)
	for i := range sample {
		sample[i] = r.Uniform(3, 11)
	}
	checkKS(t, "Uniform(3,11)", sample, func(x float64) float64 {
		switch {
		case x < 3:
			return 0
		case x > 11:
			return 1
		default:
			return (x - 3) / 8
		}
	})
}

func TestKSFloat64s(t *testing.T) {
	r := New(102)
	sample := make([]float64, ksN)
	r.Float64s(sample)
	checkKS(t, "Float64s", sample, func(x float64) float64 {
		return math.Min(1, math.Max(0, x))
	})
}

func TestKSExponential(t *testing.T) {
	const rate = 0.7
	r := New(103)
	sample := make([]float64, ksN)
	for i := range sample {
		sample[i] = r.Exp(rate)
	}
	checkKS(t, "Exp(0.7)", sample, func(x float64) float64 {
		if x < 0 {
			return 0
		}
		return 1 - math.Exp(-rate*x)
	})
}

func TestKSNormal(t *testing.T) {
	const mean, std = 5.0, 2.5
	r := New(104)
	sample := make([]float64, ksN)
	for i := range sample {
		sample[i] = r.Norm(mean, std)
	}
	checkKS(t, "Norm(5,2.5)", sample, func(x float64) float64 {
		return normalCDF(mean, std, x)
	})
}

// TestKSGamma covers both Marsaglia–Tsang regimes: shape >= 1 directly and
// shape < 1 via the boosting transform.
func TestKSGamma(t *testing.T) {
	cases := []struct {
		shape, scale float64
		seed         uint64
	}{
		{0.5, 2.0, 105},
		{1.0, 1.0, 106},
		{2.5, 0.8, 107},
		{9.0, 3.0, 108},
	}
	for _, tc := range cases {
		r := New(tc.seed)
		sample := make([]float64, ksN)
		for i := range sample {
			sample[i] = r.Gamma(tc.shape, tc.scale)
		}
		shape := tc.shape
		scale := tc.scale
		checkKS(t, "Gamma", sample, func(x float64) float64 {
			if x <= 0 {
				return 0
			}
			return lowerIncompleteGammaRegularized(shape, x/scale)
		})
	}
}

// TestKSGammaMeanCOV pins the (mean, cov) parameterization: shape = 1/cov²,
// scale = mean·cov².
func TestKSGammaMeanCOV(t *testing.T) {
	const mean, cov = 10.0, 0.5
	r := New(109)
	sample := make([]float64, ksN)
	for i := range sample {
		sample[i] = r.GammaMeanCOV(mean, cov)
	}
	shape := 1 / (cov * cov)
	scale := mean * cov * cov
	checkKS(t, "GammaMeanCOV(10,0.5)", sample, func(x float64) float64 {
		if x <= 0 {
			return 0
		}
		return lowerIncompleteGammaRegularized(shape, x/scale)
	})
}

// TestKSLogNormal pins the inverse-CDF lognormal sampler against the
// analytic CDF Φ((ln x − mu)/sigma) across both a narrow and a heavy-tailed
// parameterization.
func TestKSLogNormal(t *testing.T) {
	cases := []struct {
		mu, sigma float64
		seed      uint64
	}{
		{0, 0.25, 112},
		{1.5, 1.0, 113},
	}
	for _, tc := range cases {
		r := New(tc.seed)
		sample := make([]float64, ksN)
		for i := range sample {
			sample[i] = r.LogNormal(tc.mu, tc.sigma)
		}
		mu, sigma := tc.mu, tc.sigma
		checkKS(t, "LogNormal", sample, func(x float64) float64 {
			if x <= 0 {
				return 0
			}
			return normalCDF(mu, sigma, math.Log(x))
		})
	}
}

// TestKSLogNormalMeanCOV pins the (mean, cov) parameterization by checking
// the sample against the CDF derived from sigma² = ln(1+cov²),
// mu = ln(mean) − sigma²/2, and the sample mean against the requested mean.
func TestKSLogNormalMeanCOV(t *testing.T) {
	const mean, cov = 1.0, 0.3
	r := New(114)
	sample := make([]float64, ksN)
	sum := 0.0
	for i := range sample {
		sample[i] = r.LogNormalMeanCOV(mean, cov)
		sum += sample[i]
	}
	sigma := math.Sqrt(math.Log(1 + cov*cov))
	mu := math.Log(mean) - sigma*sigma/2
	checkKS(t, "LogNormalMeanCOV(1,0.3)", sample, func(x float64) float64 {
		if x <= 0 {
			return 0
		}
		return normalCDF(mu, sigma, math.Log(x))
	})
	if got := sum / ksN; math.Abs(got-mean) > 4*cov/math.Sqrt(ksN) {
		t.Errorf("sample mean %.5f deviates from requested mean %g", got, mean)
	}
}

// TestKSBoundedPareto pins the truncated Pareto sampler against
// F(x) = (1 − (lo/x)^α) / (1 − (lo/hi)^α) for a heavy tail (α < 2, infinite
// variance untruncated) and a moderate one.
func TestKSBoundedPareto(t *testing.T) {
	cases := []struct {
		lo, hi, alpha float64
		seed          uint64
	}{
		{1, 100, 1.5, 115},
		{2, 20, 3.0, 116},
	}
	for _, tc := range cases {
		r := New(tc.seed)
		sample := make([]float64, ksN)
		for i := range sample {
			x := r.BoundedPareto(tc.lo, tc.hi, tc.alpha)
			if x < tc.lo || x > tc.hi {
				t.Fatalf("BoundedPareto(%g,%g,%g) = %g outside bounds", tc.lo, tc.hi, tc.alpha, x)
			}
			sample[i] = x
		}
		lo, hi, alpha := tc.lo, tc.hi, tc.alpha
		norm := 1 - math.Pow(lo/hi, alpha)
		checkKS(t, "BoundedPareto", sample, func(x float64) float64 {
			switch {
			case x < lo:
				return 0
			case x > hi:
				return 1
			default:
				return (1 - math.Pow(lo/x, alpha)) / norm
			}
		})
	}
}

// TestQuantileMirrorExact pins the antithetic-mirror contract the SoA sampler
// relies on: for every uniform draw u = k/2^53, the value 1−u is exactly
// representable, so Quantile(1−u) is the exact antithetic partner of
// Quantile(u) — bit-identical whether computed by the sampler or the mirror.
func TestQuantileMirrorExact(t *testing.T) {
	r := New(117)
	for i := 0; i < 1000; i++ {
		u := r.Float64()
		if 1-(1-u) != u {
			t.Fatalf("1-u not exactly representable for u=%x", math.Float64bits(u))
		}
		if a, b := LogNormalQuantile(0.5, 0.8, u), LogNormalQuantile(0.5, 0.8, u); a != b {
			t.Fatalf("LogNormalQuantile not deterministic at u=%g: %g != %g", u, a, b)
		}
		if a, b := BoundedParetoQuantile(1, 50, 1.5, u), BoundedParetoQuantile(1, 50, 1.5, u); a != b {
			t.Fatalf("BoundedParetoQuantile not deterministic at u=%g: %g != %g", u, a, b)
		}
	}
	// Edge cases: u = 0 must not yield 0 (lognormal) or escape [lo, hi]
	// (Pareto), and the mirror at u = 1 must stay finite.
	if v := LogNormalQuantile(0, 1, 0); v <= 0 || math.IsInf(v, 0) {
		t.Errorf("LogNormalQuantile(0,1,0) = %g, want finite positive", v)
	}
	if v := LogNormalQuantile(0, 1, 1-0x1p-53); math.IsInf(v, 0) || v <= 0 {
		t.Errorf("LogNormalQuantile at max u = %g, want finite positive", v)
	}
	if v := BoundedParetoQuantile(1, 50, 1.5, 0); v != 1 {
		t.Errorf("BoundedParetoQuantile at u=0 = %g, want lo", v)
	}
	if v := BoundedParetoQuantile(1, 50, 1.5, 1); math.Abs(v-50) > 1e-9 {
		t.Errorf("BoundedParetoQuantile at u=1 = %g, want hi", v)
	}
}

// TestLogNormalQuantileEndpoints pins the clamps at both ends of [0, 1]:
// Float64 returns 0 with probability 2^-53, and the antithetic mirror of
// that draw is exactly 1. The pair (0, 1) must map to the symmetric pair
// (2^-53, 1−2^-53), so both quantiles are finite and positive and sit
// mirror-symmetric about the median exp(mu).
func TestLogNormalQuantileEndpoints(t *testing.T) {
	const lo, hi = 0x1p-53, 1 - 0x1p-53
	if lo+hi != 1 {
		t.Fatalf("clamped endpoints %x and %x are not mirrors", math.Float64bits(lo), math.Float64bits(hi))
	}
	for _, p := range [][2]float64{{0, 1}, {0.5, 0.8}, {-1.2, 2.5}} {
		mu, sigma := p[0], p[1]
		q0, q1 := LogNormalQuantile(mu, sigma, 0), LogNormalQuantile(mu, sigma, 1)
		for _, v := range []float64{q0, q1} {
			if v <= 0 || math.IsInf(v, 0) || math.IsNaN(v) {
				t.Fatalf("mu=%g sigma=%g: endpoint quantile %g, want finite positive", mu, sigma, v)
			}
		}
		if want := LogNormalQuantile(mu, sigma, lo); q0 != want {
			t.Errorf("mu=%g sigma=%g: Q(0) = %g, want Q(2^-53) = %g", mu, sigma, q0, want)
		}
		if want := LogNormalQuantile(mu, sigma, hi); q1 != want {
			t.Errorf("mu=%g sigma=%g: Q(1) = %g, want Q(1-2^-53) = %g", mu, sigma, q1, want)
		}
		if q0 >= q1 {
			t.Errorf("mu=%g sigma=%g: Q(0) = %g not below Q(1) = %g", mu, sigma, q0, q1)
		}
		// Mirror symmetry: the normal scores at 2^-53 and 1−2^-53 are
		// negatives, so the log-quantiles are symmetric about mu.
		if d := (math.Log(q0) - mu) + (math.Log(q1) - mu); math.Abs(d) > 1e-12*(1+math.Abs(mu)) {
			t.Errorf("mu=%g sigma=%g: log Q(0) and log Q(1) not symmetric about mu (off by %g)", mu, sigma, d)
		}
	}
}

// TestIncompleteGammaReference sanity-checks the test's own CDF helper
// against closed forms: P(1,x) = 1-e^-x and P(1/2, x) = erf(√x).
func TestIncompleteGammaReference(t *testing.T) {
	for _, x := range []float64{0.1, 0.5, 1, 2, 5, 10} {
		if got, want := lowerIncompleteGammaRegularized(1, x), 1-math.Exp(-x); math.Abs(got-want) > 1e-12 {
			t.Errorf("P(1,%g) = %.15g, want %.15g", x, got, want)
		}
		if got, want := lowerIncompleteGammaRegularized(0.5, x), math.Erf(math.Sqrt(x)); math.Abs(got-want) > 1e-12 {
			t.Errorf("P(0.5,%g) = %.15g, want %.15g", x, got, want)
		}
	}
}

// TestSplitStreamIndependence checks Split: the parent's and child's
// uniform streams must each pass KS and be (empirically) uncorrelated —
// Pearson correlation within the bound 4.5/√n that a true independent pair
// stays under with overwhelming margin for a fixed seed.
func TestSplitStreamIndependence(t *testing.T) {
	parent := New(110)
	child := parent.Split()
	a := make([]float64, ksN)
	b := make([]float64, ksN)
	for i := range a {
		a[i] = parent.Float64()
		b[i] = child.Float64()
	}
	uniform := func(x float64) float64 { return math.Min(1, math.Max(0, x)) }
	checkKS(t, "Split parent", a, uniform)
	checkKS(t, "Split child", b, uniform)

	var ma, mb float64
	for i := range a {
		ma += a[i]
		mb += b[i]
	}
	ma /= ksN
	mb /= ksN
	var cov, va, vb float64
	for i := range a {
		cov += (a[i] - ma) * (b[i] - mb)
		va += (a[i] - ma) * (a[i] - ma)
		vb += (b[i] - mb) * (b[i] - mb)
	}
	corr := cov / math.Sqrt(va*vb)
	if limit := 4.5 / math.Sqrt(ksN); math.Abs(corr) > limit {
		t.Errorf("parent/child correlation %.5f exceeds %.5f — Split streams are not independent", corr, limit)
	}
	// Lagged self-check: the child must also not replay the parent stream
	// at an offset (a classic splitting bug).
	for lag := 1; lag <= 3; lag++ {
		match := 0
		for i := 0; i+lag < ksN; i++ {
			if a[i+lag] == b[i] {
				match++
			}
		}
		if match > 0 {
			t.Errorf("lag %d: child stream repeats %d parent draws exactly", lag, match)
		}
	}
}

// TestKSDeterministic pins that the suite is a regression test, not a
// statistical one: the KS statistic for a fixed seed never changes.
func TestKSDeterministic(t *testing.T) {
	stat := func() float64 {
		r := New(111)
		sample := make([]float64, 2000)
		for i := range sample {
			sample[i] = r.Gamma(2, 1)
		}
		return ksStat(sample, func(x float64) float64 {
			if x <= 0 {
				return 0
			}
			return lowerIncompleteGammaRegularized(2, x)
		})
	}
	if a, b := stat(), stat(); a != b {
		t.Fatalf("KS statistic not deterministic: %v != %v", a, b)
	}
}
