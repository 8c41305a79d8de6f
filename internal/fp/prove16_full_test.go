//go:build prove16

package fp

import "testing"

// TestProveFP16AllPairs checks scalar Add, Sub and Mul of binary16 and
// bfloat16 on all 2^32 operand pairs against the integer-only
// references: the exhaustive form of TestFP16PairSlice. It takes about
// ten CPU-minutes, so it runs only under the prove16 build tag:
//
//	make prove-fp16
func TestProveFP16AllPairs(t *testing.T) {
	for _, c := range pairChecks {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			c.run(t, 0, 1, 1<<32, false)
		})
	}
}
