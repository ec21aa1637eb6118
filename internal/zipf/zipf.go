// Package zipf implements the Zipfian random number generator of Gray,
// Sundaresan, Englert, Baclawski and Weinberger, "Quickly Generating
// Billion-Record Synthetic Databases" (SIGMOD 1994) — the generator the paper
// cites as [10] for its synthetic update traces.
//
// A Generator over n items with parameter theta draws item ranks r in [0, n)
// with probability proportional to 1/(r+1)^theta. theta = 0 degenerates to
// the uniform distribution; theta must be < 1 (the paper uses 0…0.99).
package zipf

import (
	"fmt"
	"math"
	"math/rand"
)

// Generator draws Zipf-distributed ranks using Gray et al.'s constant-time
// inverse-transform approximation.
type Generator struct {
	n     int
	theta float64

	// Precomputed constants of the Gray et al. method.
	alpha  float64
	zetan  float64
	eta    float64
	thresh float64 // 1 + 0.5^theta
}

// New returns a Generator over n items with skew theta. It panics if n <= 0
// or theta is outside [0, 1).
func New(n int, theta float64) *Generator {
	if n <= 0 {
		panic(fmt.Sprintf("zipf: n must be positive, got %d", n))
	}
	if theta < 0 || theta >= 1 {
		panic(fmt.Sprintf("zipf: theta must be in [0,1), got %v", theta))
	}
	g := &Generator{n: n, theta: theta}
	if theta == 0 {
		return g
	}
	g.zetan = zeta(n, theta)
	g.alpha = 1 / (1 - theta)
	zeta2 := zeta(2, theta)
	g.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2/g.zetan)
	g.thresh = 1 + math.Pow(0.5, theta)
	return g
}

// zeta returns the generalized harmonic number H_{n,theta} = Σ 1/i^theta.
// For the sizes the paper uses (n ≤ 10^7) the direct sum is computed once
// per generator and is fast enough; larger n fall back to an integral
// approximation accurate to well under 0.1%.
func zeta(n int, theta float64) float64 {
	const direct = 20_000_000
	if n <= direct {
		sum := 0.0
		for i := 1; i <= n; i++ {
			sum += 1 / math.Pow(float64(i), theta)
		}
		return sum
	}
	// Euler–Maclaurin: Σ_{i=1..n} i^-θ ≈ Σ_{i=1..m} i^-θ +
	// (n^{1-θ} - m^{1-θ})/(1-θ) + (n^-θ - m^-θ)/2.
	const m = 1_000_000
	sum := zeta(m, theta)
	oneMinus := 1 - theta
	sum += (math.Pow(float64(n), oneMinus) - math.Pow(float64(m), oneMinus)) / oneMinus
	sum += (math.Pow(float64(n), -theta) - math.Pow(float64(m), -theta)) / 2
	return sum
}

// N returns the number of items.
func (g *Generator) N() int { return g.n }

// Next draws the next rank in [0, n) using rng. Rank 0 is the hottest item.
func (g *Generator) Next(rng *rand.Rand) int {
	if g.theta == 0 {
		return rng.Intn(g.n)
	}
	u := rng.Float64()
	uz := u * g.zetan
	if uz < 1 {
		return 0
	}
	if uz < g.thresh {
		return 1
	}
	r := int(float64(g.n) * math.Pow(g.eta*u-g.eta+1, g.alpha))
	if r >= g.n { // guard against floating-point overshoot
		r = g.n - 1
	}
	return r
}

// Probability returns the exact probability of rank r under the Zipf
// distribution (not the approximation used for sampling). It is O(n) on the
// first call per generator for theta > 0 and is intended for tests.
func (g *Generator) Probability(r int) float64 {
	if r < 0 || r >= g.n {
		return 0
	}
	if g.theta == 0 {
		return 1 / float64(g.n)
	}
	return 1 / (math.Pow(float64(r+1), g.theta) * g.zetan)
}
