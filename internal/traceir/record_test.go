package traceir

import (
	"fmt"
	"strings"
	"testing"

	"mixedrel/internal/fp"
	"mixedrel/internal/kernels"
)

// enc encodes small integers as trace operand values.
func enc(m fp.Env, vs ...float64) []fp.Bits {
	out := make([]fp.Bits, len(vs))
	for i, v := range vs {
		out[i] = m.FromFloat64(v)
	}
	return out
}

func seq(m fp.Env, base float64, n int) []fp.Bits {
	out := make([]fp.Bits, n)
	for i := range out {
		out[i] = m.FromFloat64(base + float64(i))
	}
	return out
}

// TestRecorderGoldenDumps pins the region stream the recorder emits, in
// the style of analysistest's `// want` comments: each case lists the
// recorded operations and the expected dump of the compiled program,
// which is the recorded stream unchanged. A run region never crosses a
// Div/Sqrt/Exp operation or a batch region, and runs carry no operands.
func TestRecorderGoldenDumps(t *testing.T) {
	cases := []struct {
		name string
		run  func(m fp.Env, r *Recorder)
		want string
	}{
		{
			name: "runs-split-at-served-scalars",
			run: func(m fp.Env, r *Recorder) {
				a := enc(m, 1, 2, 3, 4, 5, 6)
				r.Add(a[0], a[1])
				r.Add(a[1], a[2])
				r.Add(a[2], a[3])
				r.Div(a[3], a[4])
				r.Mul(a[4], a[5])
				r.Mul(a[5], a[0])
				r.Sub(a[0], a[1])
				r.FMA(a[0], a[1], a[2])
				r.Sqrt(a[0])
				r.Exp(a[1])
				r.Add(a[0], a[1])
			},
			want: `
run @0 n=3
scalar DIV @3 n=1
run @4 n=4
scalar SQRT @8 n=1
scalar EXP @9 n=1
run @10 n=1
`, // want: every cheap kind shares one run; a served kind ends it
		},
		{
			name: "runs-split-at-batches",
			run: func(m fp.Env, r *Recorder) {
				a := enc(m, 1, 2, 3)
				zero := m.FromFloat64(0)
				r.Add(a[0], a[1])
				r.DotFMA(zero, seq(m, 1, 3), seq(m, 4, 3))
				r.Mul(a[0], a[1])
				r.Mul(a[1], a[2])
				r.AXPY(seq(m, 1, 2), m.FromFloat64(3), seq(m, 7, 2))
				r.FMA(a[0], a[1], a[2])
				r.GemmFMA(make([]fp.Bits, 4), nil, seq(m, 1, 4), seq(m, 5, 4), 2, 2, 2)
				r.Sub(a[2], a[0])
			},
			want: `
run @0 n=1
chain FMA @1 n=3
run @4 n=2
axpy FMA @6 n=2
run @8 n=1
gemm FMA @9 n=8 rows=2 cols=2 k=2
run @17 n=1
`,
		},
		{
			name: "batches-never-merge",
			run: func(m fp.Env, r *Recorder) {
				zero := m.FromFloat64(0)
				r.DotFMA(zero, seq(m, 1, 3), seq(m, 4, 3))
				r.DotFMA(zero, seq(m, 2, 3), seq(m, 5, 3))
				r.AXPY(seq(m, 1, 2), m.FromFloat64(3), seq(m, 7, 2))
				r.AXPY(seq(m, 1, 2), m.FromFloat64(2), seq(m, 7, 2))
				out := make([]fp.Bits, 4)
				r.GemmFMA(out, nil, seq(m, 1, 4), seq(m, 5, 4), 2, 2, 2)
				r.GemmFMA(out, seq(m, 1, 2), seq(m, 1, 4), seq(m, 5, 4), 2, 2, 2)
			},
			want: `
chain FMA @0 n=3
chain FMA @3 n=3
axpy FMA @6 n=2
axpy FMA @8 n=2
gemm FMA @10 n=8 rows=2 cols=2 k=2
gemm FMA @18 n=8 rows=2 cols=2 k=2
`, // want: accumulator-carrying shapes stay one region per call
		},
		{
			name: "empty-batches-record-nothing",
			run: func(m fp.Env, r *Recorder) {
				a := enc(m, 1, 2)
				r.Add(a[0], a[1])
				r.DotFMA(a[0], nil, nil)
				r.AXPY(nil, a[0], nil)
				r.GemmFMA(nil, nil, nil, nil, 0, 0, 3)
				r.Add(a[1], a[0])
			},
			want: `
run @0 n=2
`, // want: a zero-length batch is no region, so the run goes on
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := fp.NewMachine(fp.Single)
			rec := NewRecorder(m)
			tc.run(m, rec)
			ops := rec.Ops()
			p := rec.Compile()
			if p == nil {
				t.Fatal("Compile returned nil for a well-formed stream")
			}
			if got, want := p.Dump(), strings.TrimPrefix(tc.want, "\n"); got != want {
				t.Errorf("dump:\n%s\nwant:\n%s", got, want)
			}
			if p.Ops() != ops || len(p.Results()) != int(ops) {
				t.Errorf("program ops %d results %d, recorded %d", p.Ops(), len(p.Results()), ops)
			}
			// The operand slab holds exactly the served regions' blocks.
			n := 0
			for i := range p.regions {
				n += operandLen(&p.regions[i])
			}
			if n != len(p.operands) {
				t.Errorf("operand slab holds %d values, regions address %d", len(p.operands), n)
			}
		})
	}
}

// servedSpy sits above a Recorder and logs the stream position and
// operands of every ScalarServed operation. Batches reach the recorder
// whole through the promoted methods, so the recorded regions are the
// ones a production recording stack produces.
type servedSpy struct {
	*Recorder
	log []spyOp
}

type spyOp struct {
	pos  uint64
	op   fp.Op
	a, b fp.Bits
}

func (s *servedSpy) Div(a, b fp.Bits) fp.Bits {
	s.log = append(s.log, spyOp{s.Ops(), fp.OpDiv, a, b})
	return s.Recorder.Div(a, b)
}

func (s *servedSpy) Sqrt(a fp.Bits) fp.Bits {
	s.log = append(s.log, spyOp{s.Ops(), fp.OpSqrt, a, 0})
	return s.Recorder.Sqrt(a)
}

func (s *servedSpy) Exp(a fp.Bits) fp.Bits {
	s.log = append(s.log, spyOp{s.Ops(), fp.OpExp, a, 0})
	return s.Recorder.Exp(a)
}

// TestServedPositionsServe records every kernel in three formats and
// asks ServeScalar, along one forward cursor as a replay does, for each
// Div, Sqrt and Exp at its stream position with the operands it was
// issued with: every one must serve its recorded result, and they must
// be exactly the program's KScalar regions.
func TestServedPositionsServe(t *testing.T) {
	cases := []kernels.Kernel{
		kernels.NewGEMM(6, 1),
		kernels.NewLavaMD(2, 4, 3),
		kernels.NewHotspot(16, 8, 5),
		kernels.NewLUD(8, 2),
		kernels.NewCG(6, 3, 4),
		kernels.NewMicro(kernels.MicroFMA, 2, 16, 6),
		kernels.NewMNIST(1, 2),
		kernels.NewYOLO(3),
	}
	served := 0
	for _, k := range cases {
		for _, f := range []fp.Format{fp.Half, fp.Single, fp.Double} {
			t.Run(fmt.Sprintf("%s/%v", k.Name(), f), func(t *testing.T) {
				spy := &servedSpy{Recorder: NewRecorder(fp.NewMachine(f))}
				k.Run(spy, k.Inputs(f))
				p := spy.Compile()
				if p == nil {
					t.Fatal("Compile returned nil")
				}
				scalars := 0
				for i := range p.regions {
					if p.regions[i].Kind == KScalar {
						scalars++
					}
				}
				if scalars != len(spy.log) {
					t.Fatalf("%d KScalar regions, %d Div/Sqrt/Exp operations issued", scalars, len(spy.log))
				}
				var cur Cursor
				for _, o := range spy.log {
					res, ok := p.ServeScalar(&cur, o.pos, o.op, o.a, o.b, 0)
					if !ok || res != p.results[o.pos] {
						t.Fatalf("%v at %d: served %#x, %v; recorded %#x", o.op, o.pos, res, ok, p.results[o.pos])
					}
				}
				served += len(spy.log)
			})
		}
	}
	if served == 0 {
		t.Fatal("no kernel issued a Div, Sqrt or Exp")
	}
}

// TestServeScalarRefusesRuns: a run position holds no operands, so
// ServeScalar refuses it for every kind — a cheap kind queried with the
// exact operands it was recorded with, and a served kind alike — and it
// refuses batch positions too. The recorded operands are chosen so that
// the slab at each run's and the chain's offset starts with the queried
// values, so only the region kind can tell the positions apart.
func TestServeScalarRefusesRuns(t *testing.T) {
	p, m := compile(t, fp.Single, func(m fp.Env, r *Recorder) {
		a, b := m.FromFloat64(3), m.FromFloat64(4)
		r.Div(a, b)
		r.Add(a, b)
		r.Mul(a, b)
		r.FMA(a, b, a)
		r.Div(a, b)
		r.DotFMA(a, []fp.Bits{b, a}, []fp.Bits{a, b})
		r.Sub(a, b)
	})
	a, b := m.FromFloat64(3), m.FromFloat64(4)
	for pos := uint64(0); pos < p.Ops(); pos++ {
		if pos == 0 || pos == 4 {
			var cur Cursor
			if res, ok := p.ServeScalar(&cur, pos, fp.OpDiv, a, b, 0); !ok || res != p.Results()[pos] {
				t.Fatalf("recorded Div at %d not served: %v %#x", pos, ok, res)
			}
			continue
		}
		for _, op := range []fp.Op{fp.OpAdd, fp.OpSub, fp.OpMul, fp.OpDiv, fp.OpFMA, fp.OpSqrt, fp.OpExp} {
			var cur Cursor
			if _, ok := p.ServeScalar(&cur, pos, op, a, b, a); ok {
				t.Errorf("%v served at run or batch position %d", op, pos)
			}
		}
	}
}

// TestResultTraceChunks records traces around the result chunks' sizes
// and requires each to come back whole, in order and exactly as long as
// the run, with the program sharing it.
func TestResultTraceChunks(t *testing.T) {
	m := fp.NewMachine(fp.Single)
	one := m.FromFloat64(1)
	for _, n := range []int{0, 1, minResultChunk - 1, minResultChunk, minResultChunk + 1, 3*maxResultChunk + 5} {
		r := NewRecorder(m)
		acc := m.FromFloat64(0)
		want := make([]fp.Bits, n)
		for i := range want {
			acc = r.Add(acc, one)
			want[i] = acc
		}
		got := r.Results()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%d operations: the result trace differs from the results", n)
		}
		if len(got) != cap(got) {
			t.Errorf("%d operations: the trace keeps %d values of slack", n, cap(got)-len(got))
		}
		p := r.Compile()
		if n > 0 && &p.Results()[0] != &got[0] {
			t.Errorf("%d operations: the program does not share the trace", n)
		}
	}
}
