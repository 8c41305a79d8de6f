// Package hot exercises hot-path allocation proofs: roots are declared
// with //mixedrelvet:hotpath, local sites and cross-package callees are
// flagged, and panic payloads plus allow-exempted amortized growth stay
// quiet.
package hot

import (
	"fmt"

	"pool"
)

type item struct{ a, b float64 }

type trap struct{ pos int }

type holder struct {
	it  item
	buf []float64
}

type state struct {
	buf []float64
	p   *pool.Pool
}

//mixedrelvet:hotpath per-sample inner loop of the test fixture
func Step(s *state, x float64) { // want fact:`Step: allocates\(append\)`
	s.buf = append(s.buf, x) // want `append allocates in hot path Step; hot paths must be allocation-free \(//mixedrelvet:allow hotalloc <reason> for amortized growth\)`
	mix(s, x)
}

func mix(s *state, x float64) { // want fact:`mix: allocates\(composite literal\)`
	it := item{a: x, b: x} // clean: a struct value literal is no allocation site
	pair := [2]item{it, {a: x}} // clean: nor is an array value literal
	s.buf[0] = it.a + it.b + pair[1].a
	p := &item{a: x} // want `composite literal allocates in mix, reachable from hot path Step; hot paths must be allocation-free \(//mixedrelvet:allow hotalloc <reason> for amortized growth\)`
	h := holder{it: it, buf: []float64{x}} // want `composite literal allocates in mix, reachable from hot path Step`
	m := map[int]float64{0: x} // want `composite literal allocates in mix, reachable from hot path Step`
	s.buf[1] = p.a + h.buf[0] + m[0]
}

//mixedrelvet:hotpath compare-serving loop
func Serve(s *state, pos int) float64 { // want fact:`Serve: allocates\(calls fmt\.Sprintf\)`
	if pos < 0 {
		panic(trap{pos: pos}) // exempt: a DUE abort has already left the hot loop
	}
	msg := fmt.Sprintf("pos=%d", pos) // want `call to fmt\.Sprintf allocates \(formats and boxes arguments\) in hot path Serve; hot paths must be allocation-free`
	_ = msg
	grow(s)
	return s.buf[pos]
}

func grow(s *state) { // want fact:`grow: allocates\(calls pool\.Fresh\)`
	s.buf = pool.Fresh(len(s.buf) * 2) // want `call to pool\.Fresh allocates \(make\) in grow, reachable from hot path Serve; hot paths must be allocation-free`
	s.buf = s.p.Get() // clean: Get's refill is allow-exempted amortized growth
}

//mixedrelvet:hotpath callback dispatch
func Handler(s *state) func(float64) { // want fact:`Handler: allocates\(function literal\)`
	return func(x float64) { // want `function literal allocates in hot path Handler; hot paths must be allocation-free \(//mixedrelvet:allow hotalloc <reason> for amortized growth\)`
		s.buf[0] = x
	}
}

// cold allocates freely: it carries a fact but is not reachable from any
// hot-path root, so nothing here is reported.
func cold(n int) []float64 { // want fact:`cold: allocates\(make\)`
	return make([]float64, n)
}

// Abort builds its panic payload with an allocating helper: the sample
// has already left the hot loop, so neither the call edge nor the
// function is flagged, and Abort carries no fact.
//
//mixedrelvet:hotpath abort reporting
func Abort(pos int) {
	panic(fmt.Sprintf("bad pos %d", pos))
}
