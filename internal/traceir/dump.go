package traceir

import (
	"fmt"
	"strings"
)

// Dump renders the program's region stream in a compact
// one-line-per-region form, for the recorder-stream golden tests and
// debugging:
//
//	run @0 n=7
//	scalar DIV @7 n=1
//	chain FMA @8 n=12
//	gemm FMA @20 n=1728 rows=12 cols=12 k=12
//
// @ is the region's first dynamic stream position; n its operation
// count. Operand offsets are omitted — they are mechanical and would
// make the goldens churn on unrelated layout changes.
func (p *Program) Dump() string {
	var b strings.Builder
	for i := range p.regions {
		r := &p.regions[i]
		if r.Kind == KRun {
			fmt.Fprintf(&b, "%s @%d n=%d", r.Kind, r.Start, r.N)
		} else {
			fmt.Fprintf(&b, "%s %s @%d n=%d", r.Kind, r.Op, r.Start, r.N)
		}
		if r.Kind == KGemm {
			fmt.Fprintf(&b, " rows=%d cols=%d k=%d", r.Rows, r.Cols, r.K)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
