package traceir

import (
	"testing"

	"mixedrel/internal/fp"
)

// compile records run's operations and compiles them, failing the test
// on a nil program.
func compile(t *testing.T, f fp.Format, run func(m fp.Env, r *Recorder)) (*Program, fp.Env) {
	t.Helper()
	m := fp.NewMachine(f)
	rec := NewRecorder(m)
	run(m, rec)
	p := rec.Compile()
	if p == nil {
		t.Fatal("Compile returned nil")
	}
	return p, m
}

func TestServeScalarRejectsCorruptedOperands(t *testing.T) {
	p, m := compile(t, fp.Single, func(m fp.Env, r *Recorder) {
		r.Div(m.FromFloat64(3), m.FromFloat64(4))
	})
	a, b := m.FromFloat64(3), m.FromFloat64(4)
	var cur Cursor
	if res, ok := p.ServeScalar(&cur, 0, fp.OpDiv, a, b, 0); !ok || res != p.Results()[0] {
		t.Fatalf("clean operands not served: %v %#x", ok, res)
	}
	for _, bad := range []struct {
		name  string
		op    fp.Op
		x, y  fp.Bits
		posOK bool
	}{
		{"flipped-a", fp.OpDiv, a ^ 1, b, true},
		{"flipped-b", fp.OpDiv, a, b ^ (1 << 20), true},
		{"wrong-op", fp.OpMul, a, b, true},
	} {
		var c Cursor
		if _, ok := p.ServeScalar(&c, 0, bad.op, bad.x, bad.y, 0); ok {
			t.Errorf("%s: corrupted operation was served", bad.name)
		}
	}
	// Positions past the recorded stream (control-flow divergence) are
	// never served.
	var c Cursor
	if _, ok := p.ServeScalar(&c, p.Ops(), fp.OpDiv, a, b, 0); ok {
		t.Error("position beyond the stream was served")
	}
}

func TestChainPrefixPartial(t *testing.T) {
	const n = 6
	p, m := compile(t, fp.Single, func(m fp.Env, r *Recorder) {
		r.DotFMA(m.FromFloat64(1), seq(m, 2, n), seq(m, 10, n))
	})
	acc0 := m.FromFloat64(1)
	a, b := seq(m, 2, n), seq(m, 10, n)

	var cur Cursor
	if res, srv := p.ChainPrefix(&cur, 0, acc0, a, b); srv != n || res != p.Results()[n-1] {
		t.Fatalf("clean chain: served %d, res %#x", srv, res)
	}
	// Corrupting element i serves exactly the prefix [0, i) and hands
	// back the accumulator entering element i; recomputing the suffix
	// through softfloat must reproduce the corrupted-run semantics of a
	// full recompute.
	for i := 0; i < n; i++ {
		ca := append([]fp.Bits(nil), a...)
		ca[i] ^= 1 << 13
		var c Cursor
		res, srv := p.ChainPrefix(&c, 0, acc0, ca, b)
		if srv != i {
			t.Fatalf("corrupt a[%d]: served %d", i, srv)
		}
		if i > 0 && res != p.Results()[i-1] {
			t.Fatalf("corrupt a[%d]: prefix acc %#x, recorded %#x", i, res, p.Results()[i-1])
		}
		got := fp.DotFMA(m, res, ca[srv:], b[srv:])
		want := fp.DotFMA(m, acc0, ca, b)
		if got != want {
			t.Fatalf("corrupt a[%d]: prefix+suffix %#x, full recompute %#x", i, got, want)
		}
	}
	// A corrupted incoming accumulator serves nothing.
	var c Cursor
	if _, srv := p.ChainPrefix(&c, 0, acc0^4, a, b); srv != 0 {
		t.Fatalf("corrupt acc0 served %d elements", srv)
	}
	// Shape mismatches (wrong position, wrong length) are rejected.
	if _, srv := p.ChainPrefix(&c, 1, p.Results()[0], a[1:], b[1:]); srv != 0 {
		t.Error("mid-chain prefix request was served")
	}
}

func TestServeAxpy(t *testing.T) {
	const n = 6
	var rd []fp.Bits
	p, m := compile(t, fp.Single, func(m fp.Env, r *Recorder) {
		d := seq(m, 40, n)
		rd = append([]fp.Bits(nil), d...)
		r.AXPY(d, m.FromFloat64(3), seq(m, 1, n))
	})
	s := m.FromFloat64(3)
	x := seq(m, 1, n)

	var cur Cursor
	dst := append([]fp.Bits(nil), rd...)
	if lo, hi, ok := p.ServeAxpy(&cur, 0, s, x, dst); !ok || lo != hi {
		t.Fatalf("clean axpy: ok=%v dirty=[%d,%d)", ok, lo, hi)
	}
	for i, r := range p.Results() {
		if dst[i] != r {
			t.Fatalf("clean axpy dst[%d]=%#x, recorded %#x", i, dst[i], r)
		}
	}
	// A corrupted broadcast scalar dirties everything.
	dst = append([]fp.Bits(nil), rd...)
	var c2 Cursor
	if lo, hi, ok := p.ServeAxpy(&c2, 0, s^1, x, dst); !ok || lo != 0 || hi != n {
		t.Fatalf("corrupt s: ok=%v interval=[%d,%d), want [0,%d)", ok, lo, hi, n)
	}
	// A corrupted x element dirties exactly its interval.
	cx := append([]fp.Bits(nil), x...)
	cx[4] ^= 1 << 11
	dst = append([]fp.Bits(nil), rd...)
	var c3 Cursor
	lo, hi, ok := p.ServeAxpy(&c3, 0, s, cx, dst)
	if !ok || lo != 4 || hi != 5 {
		t.Fatalf("corrupt x[4]: ok=%v interval=[%d,%d), want [4,5)", ok, lo, hi)
	}
	fp.AXPY(m, dst[lo:hi], s, cx[lo:hi])
	want := append([]fp.Bits(nil), rd...)
	fp.AXPY(m, want, s, cx)
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("axpy dst[%d]=%#x, want %#x", i, dst[i], want[i])
		}
	}
}

func TestServeGemmConePartition(t *testing.T) {
	const rows, cols, k = 3, 4, 5
	var accs, a, bt []fp.Bits
	p, m := compile(t, fp.Single, func(m fp.Env, r *Recorder) {
		accs = seq(m, 50, rows)
		a = seq(m, 1, rows*k)
		bt = seq(m, 20, cols*k)
		out := make([]fp.Bits, rows*cols)
		r.GemmFMA(out, accs, a, bt, rows, cols, k)
	})
	ref := func(accs, a, bt []fp.Bits) []fp.Bits {
		out := make([]fp.Bits, rows*cols)
		fp.GemmFMA(m, out, accs, a, bt, rows, cols, k)
		return out
	}
	clean := ref(accs, a, bt)

	serve := func(t *testing.T, accs, a, bt []fp.Bits) []fp.Bits {
		t.Helper()
		out := make([]fp.Bits, rows*cols)
		var cur Cursor
		if _, ok := p.ServeGemm(&cur, 0, out, accs, a, bt, rows, cols, k, 0, rows*cols, m); !ok {
			t.Fatal("ServeGemm rejected a matching grid")
		}
		return out
	}

	t.Run("clean", func(t *testing.T) {
		out := serve(t, accs, a, bt)
		for i := range clean {
			if out[i] != clean[i] {
				t.Fatalf("out[%d]=%#x, want %#x", i, out[i], clean[i])
			}
		}
	})
	t.Run("dirty-a-row", func(t *testing.T) {
		ca := append([]fp.Bits(nil), a...)
		ca[1*k+2] ^= 1 << 6 // row 1
		out := serve(t, accs, ca, bt)
		want := ref(accs, ca, bt)
		for i := range want {
			if out[i] != want[i] {
				t.Fatalf("out[%d]=%#x, want %#x", i, out[i], want[i])
			}
		}
	})
	t.Run("dirty-bt-column", func(t *testing.T) {
		cbt := append([]fp.Bits(nil), bt...)
		cbt[2*k] ^= 1 << 15 // chain column 2
		out := serve(t, accs, a, cbt)
		want := ref(accs, a, cbt)
		for i := range want {
			if out[i] != want[i] {
				t.Fatalf("out[%d]=%#x, want %#x", i, out[i], want[i])
			}
		}
	})
	t.Run("dirty-acc", func(t *testing.T) {
		caccs := append([]fp.Bits(nil), accs...)
		caccs[2] ^= 1
		out := serve(t, caccs, a, bt)
		want := ref(caccs, a, bt)
		for i := range want {
			if out[i] != want[i] {
				t.Fatalf("out[%d]=%#x, want %#x", i, out[i], want[i])
			}
		}
	})
	t.Run("range-form", func(t *testing.T) {
		// Serving chains [first, limit) with pos at chain first's start
		// must agree with the full-grid serve element-for-element.
		const first, limit = 5, 9
		out := make([]fp.Bits, rows*cols)
		var cur Cursor
		if _, ok := p.ServeGemm(&cur, uint64(first*k), out, accs, a, bt, rows, cols, k, first, limit, m); !ok {
			t.Fatal("range serve rejected")
		}
		for i := first; i < limit; i++ {
			if out[i] != clean[i] {
				t.Fatalf("out[%d]=%#x, want %#x", i, out[i], clean[i])
			}
		}
	})
	t.Run("shape-mismatch", func(t *testing.T) {
		out := make([]fp.Bits, rows*cols)
		var cur Cursor
		if _, ok := p.ServeGemm(&cur, 0, out, accs, a, bt, cols, rows, k, 0, rows*cols, m); ok {
			t.Error("transposed shape was served")
		}
		if _, ok := p.ServeGemm(&cur, 1, out, accs, a, bt, rows, cols, k, 0, rows*cols, m); ok {
			t.Error("misaligned position was served")
		}
	})
}

func TestServeGemmNilAccs(t *testing.T) {
	const rows, cols, k = 2, 2, 3
	var a, bt []fp.Bits
	p, m := compile(t, fp.Single, func(m fp.Env, r *Recorder) {
		a = seq(m, 1, rows*k)
		bt = seq(m, 9, cols*k)
		out := make([]fp.Bits, rows*cols)
		r.GemmFMA(out, nil, a, bt, rows, cols, k)
	})
	out := make([]fp.Bits, rows*cols)
	var cur Cursor
	if _, ok := p.ServeGemm(&cur, 0, out, nil, a, bt, rows, cols, k, 0, rows*cols, m); !ok {
		t.Fatal("nil-accs grid rejected")
	}
	want := make([]fp.Bits, rows*cols)
	fp.GemmFMA(m, want, nil, a, bt, rows, cols, k)
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("out[%d]=%#x, want %#x", i, out[i], want[i])
		}
	}
}

func TestFinalizeRejectsMalformedStreams(t *testing.T) {
	m := fp.NewMachine(fp.Single)
	results := seq(m, 1, 4)
	wellFormed := func() *Program {
		return &Program{
			format: fp.Single,
			ops:    4,
			regions: []Region{
				{Kind: KRun, Start: 0, N: 2},
				{Kind: KAxpy, Op: fp.OpFMA, Start: 2, N: 2, Off: 0},
			},
			operands: seq(m, 1, 5),
			results:  results,
		}
	}
	if finalize(wellFormed()) == nil {
		t.Fatal("well-formed stream rejected")
	}
	cases := []struct {
		name string
		mut  func(p *Program)
	}{
		{"gap", func(p *Program) { p.regions[1].Start = 3 }},
		{"short-coverage", func(p *Program) { p.regions[1].N = 1 }},
		{"zero-n", func(p *Program) { p.regions[0].N = 0 }},
		{"operands-out-of-bounds", func(p *Program) { p.operands = p.operands[:4] }},
		{"results-length-mismatch", func(p *Program) { p.results = p.results[:3] }},
		{"gemm-shape-mismatch", func(p *Program) {
			p.regions[1] = Region{Kind: KGemm, Op: fp.OpFMA, Start: 2, N: 2, Rows: 1, Cols: 1, K: 1}
		}},
		{"gemm-tails-out-of-bounds", func(p *Program) {
			p.regions[1] = Region{Kind: KGemm, Op: fp.OpFMA, Start: 2, N: 2, Rows: 1, Cols: 1, K: 2}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := wellFormed()
			tc.mut(p)
			if finalize(p) != nil {
				t.Error("malformed stream accepted")
			}
		})
	}
}

func TestRecorderCaps(t *testing.T) {
	m := fp.NewMachine(fp.Single)
	a, b := m.FromFloat64(1), m.FromFloat64(2)

	t.Run("ir-overflow-keeps-results", func(t *testing.T) {
		r := NewRecorder(m)
		r.Add(a, b)
		// Push the op counter to the IR cap (white-box) so the next
		// operation overflows it: the IR drops, the result trace stays.
		saved := r.ops
		r.ops = maxCompiledOps
		r.Add(a, b)
		r.ops = saved + 2
		if !r.irDropped {
			t.Fatal("IR cap did not trip")
		}
		if r.Compile() != nil {
			t.Error("Compile returned a program past the IR cap")
		}
		if got := r.Results(); len(got) != 2 {
			t.Errorf("result trace lost on IR overflow: %d entries", len(got))
		}
	})
	t.Run("trace-overflow-drops-everything", func(t *testing.T) {
		r := NewRecorder(m)
		r.results = make([]fp.Bits, MaxOps) // white-box: pretend MaxOps ops ran
		r.ops = MaxOps
		r.Add(a, b)
		if !r.truncated {
			t.Fatal("result-trace cap did not trip")
		}
		if r.Results() != nil {
			t.Error("truncated trace still returned")
		}
		if r.Compile() != nil {
			t.Error("Compile returned a program for a truncated trace")
		}
	})
}
