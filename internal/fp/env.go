package fp

import "math"

// Op identifies a dynamic arithmetic operation kind. The architecture
// models assign per-Op hardware complexity and the injectors target
// specific dynamic operations.
type Op int

const (
	OpAdd Op = iota
	OpSub
	OpMul
	OpDiv
	OpFMA
	OpSqrt
	OpExp
	numOps
)

// NumOps is the number of distinct operation kinds.
const NumOps = int(numOps)

func (o Op) String() string {
	switch o {
	case OpAdd:
		return "ADD"
	case OpSub:
		return "SUB"
	case OpMul:
		return "MUL"
	case OpDiv:
		return "DIV"
	case OpFMA:
		return "FMA"
	case OpSqrt:
		return "SQRT"
	case OpExp:
		return "EXP"
	}
	return "OP?"
}

// Env performs IEEE-754 arithmetic in a fixed format on raw Bits values.
// Kernels are written against Env so that the same code runs the golden
// (fault-free) computation, the counting pass that sizes a campaign, and
// the faulty runs in which a wrapped Env perturbs chosen operations.
type Env interface {
	// Format returns the format all Bits values are encoded in.
	Format() Format
	// Add returns a+b rounded to the environment's format.
	Add(a, b Bits) Bits
	// Sub returns a-b rounded to the environment's format.
	Sub(a, b Bits) Bits
	// Mul returns a*b rounded to the environment's format.
	Mul(a, b Bits) Bits
	// Div returns a/b rounded to the environment's format.
	Div(a, b Bits) Bits
	// FMA returns a*b+c with a single rounding in binary64 arithmetic
	// and a final rounding to the environment's format.
	FMA(a, b, c Bits) Bits
	// Sqrt returns the square root of a.
	Sqrt(a Bits) Bits
	// Exp returns e**a, the transcendental exercised by LavaMD.
	Exp(a Bits) Bits
	// FromFloat64 rounds a float64 into the environment's format.
	FromFloat64(v float64) Bits
	// ToFloat64 decodes a value of the environment's format exactly.
	ToFloat64(b Bits) float64
}

// Machine is the reference (fault-free) Env for a format.
//
// For Half, operands are decoded to binary64 — exactly — and the binary64
// result is rounded once to binary16. For Add, Sub, Mul and FMA the
// binary64 intermediate is exact, so the final rounding is the correctly
// rounded binary16 result. Div, Sqrt and Exp may double-round in rare
// cases; the discrepancy is below 1 ulp and irrelevant to the reliability
// analyses. For Single, native float32 arithmetic is used where it is
// exact.
type Machine struct {
	f Format
}

// NewMachine returns the reference environment for format f.
func NewMachine(f Format) *Machine { return &Machine{f: f} }

// Format implements Env.
func (m *Machine) Format() Format { return m.f }

// round converts a binary64 result into the machine's format.
func (m *Machine) round(v float64) Bits { return m.f.FromFloat64(v) }

// Add implements Env.
func (m *Machine) Add(a, b Bits) Bits {
	switch m.f {
	case Single:
		return Bits(math.Float32bits(math.Float32frombits(uint32(a)) + math.Float32frombits(uint32(b))))
	case Double:
		return Bits(math.Float64bits(math.Float64frombits(uint64(a)) + math.Float64frombits(uint64(b))))
	}
	return m.round(m.f.ToFloat64(a) + m.f.ToFloat64(b))
}

// Sub implements Env.
func (m *Machine) Sub(a, b Bits) Bits {
	switch m.f {
	case Single:
		return Bits(math.Float32bits(math.Float32frombits(uint32(a)) - math.Float32frombits(uint32(b))))
	case Double:
		return Bits(math.Float64bits(math.Float64frombits(uint64(a)) - math.Float64frombits(uint64(b))))
	}
	return m.round(m.f.ToFloat64(a) - m.f.ToFloat64(b))
}

// Mul implements Env.
func (m *Machine) Mul(a, b Bits) Bits {
	switch m.f {
	case Single:
		return Bits(math.Float32bits(math.Float32frombits(uint32(a)) * math.Float32frombits(uint32(b))))
	case Double:
		return Bits(math.Float64bits(math.Float64frombits(uint64(a)) * math.Float64frombits(uint64(b))))
	}
	return m.round(m.f.ToFloat64(a) * m.f.ToFloat64(b))
}

// Div implements Env.
func (m *Machine) Div(a, b Bits) Bits {
	switch m.f {
	case Single:
		return Bits(math.Float32bits(math.Float32frombits(uint32(a)) / math.Float32frombits(uint32(b))))
	case Double:
		return Bits(math.Float64bits(math.Float64frombits(uint64(a)) / math.Float64frombits(uint64(b))))
	}
	return m.round(m.f.ToFloat64(a) / m.f.ToFloat64(b))
}

// FMA implements Env.
func (m *Machine) FMA(a, b, c Bits) Bits {
	switch m.f {
	case Single:
		return Bits(math.Float32bits(float32(math.FMA(
			float64(math.Float32frombits(uint32(a))),
			float64(math.Float32frombits(uint32(b))),
			float64(math.Float32frombits(uint32(c)))))))
	case Double:
		return Bits(math.Float64bits(math.FMA(
			math.Float64frombits(uint64(a)),
			math.Float64frombits(uint64(b)),
			math.Float64frombits(uint64(c)))))
	}
	return m.round(math.FMA(m.f.ToFloat64(a), m.f.ToFloat64(b), m.f.ToFloat64(c)))
}

// Sqrt implements Env.
func (m *Machine) Sqrt(a Bits) Bits {
	if m.f == Single {
		return Bits(math.Float32bits(float32(math.Sqrt(float64(math.Float32frombits(uint32(a)))))))
	}
	return m.round(math.Sqrt(m.f.ToFloat64(a)))
}

// Exp implements Env.
func (m *Machine) Exp(a Bits) Bits {
	return m.round(math.Exp(m.f.ToFloat64(a)))
}

// FromFloat64 implements Env.
func (m *Machine) FromFloat64(v float64) Bits { return m.f.FromFloat64(v) }

// ToFloat64 implements Env.
func (m *Machine) ToFloat64(b Bits) float64 { return m.f.ToFloat64(b) }

// OpCounts records how many dynamic operations of each kind a kernel
// executed, plus the number of values loaded from and stored to the
// kernel's data arrays. The architecture models turn these into resource
// exposure and timing.
type OpCounts struct {
	ByOp   [NumOps]uint64
	Loads  uint64
	Stores uint64
	// IntSites counts the integer sequencing decisions of software
	// routines (see ExpDecomp.IntSites).
	IntSites uint64
}

// Total returns the total number of arithmetic operations.
func (c OpCounts) Total() uint64 {
	var t uint64
	for _, n := range c.ByOp {
		t += n
	}
	return t
}

// Add accumulates other into c.
func (c *OpCounts) Add(other OpCounts) {
	for i := range c.ByOp {
		c.ByOp[i] += other.ByOp[i]
	}
	c.Loads += other.Loads
	c.Stores += other.Stores
	c.IntSites += other.IntSites
}

// Tiler is implemented by environments that can stand in for whole
// output tiles of a kernel (see kernels.OutputKernel). A kernel calls
// Tile(t, in, out) at the start of tile t. in names the tile's
// live-ins, every value the tile reads, and is nil when there is none.
// out names every value the tile writes that is read
// after it and is not in the kernel's output buffer, and is nil when
// there is none; the last tile must name none. A true return means the
// environment accounts for the tile's operations, out and the tile's
// outputs in the kernel's output buffer already hold their values, and
// the returned Bits is the result of the tile's last operation; the
// kernel then skips the tile's body.
type Tiler interface {
	Tile(t int, in, out []Bits) (Bits, bool)
}

// SkipTile reports whether the kernel may skip output tile t, with
// live-ins in and named outputs out, under env,
// and if so the result of the tile's last operation: env's Tile(t, in,
// out), or false for an env that does not implement Tiler. It is small
// enough to inline into a kernel's tile loop.
func SkipTile(env Env, t int, in, out []Bits) (res Bits, skip bool) {
	if tl, ok := env.(Tiler); ok {
		res, skip = tl.Tile(t, in, out)
	}
	return res, skip
}

// TileRecorder receives the Tile calls of a counting run (see
// Counting.Tiles): the tile, its live-ins, its named outputs, and the
// counts at the call, which the recorder must not keep. out holds the
// tile's values only once the tile has run, at the next call.
type TileRecorder interface {
	RecordTile(t int, in, out []Bits, at *OpCounts)
}

// Counting wraps an Env and tallies every dynamic operation. It is used
// to profile kernels (for the architecture timing/exposure models) and to
// size fault-injection campaigns.
type Counting struct {
	Inner  Env
	Counts OpCounts
	// Tiles, when non-nil, is handed every Tile call in call order.
	Tiles TileRecorder
}

// NewCounting returns a counting wrapper around inner.
func NewCounting(inner Env) *Counting { return &Counting{Inner: inner} }

// Format implements Env.
func (c *Counting) Format() Format { return c.Inner.Format() }

// Add implements Env.
func (c *Counting) Add(a, b Bits) Bits {
	c.Counts.ByOp[OpAdd]++
	return c.Inner.Add(a, b)
}

// Sub implements Env.
func (c *Counting) Sub(a, b Bits) Bits {
	c.Counts.ByOp[OpSub]++
	return c.Inner.Sub(a, b)
}

// Mul implements Env.
func (c *Counting) Mul(a, b Bits) Bits {
	c.Counts.ByOp[OpMul]++
	return c.Inner.Mul(a, b)
}

// Div implements Env.
func (c *Counting) Div(a, b Bits) Bits {
	c.Counts.ByOp[OpDiv]++
	return c.Inner.Div(a, b)
}

// FMA implements Env.
func (c *Counting) FMA(a, b, x Bits) Bits {
	c.Counts.ByOp[OpFMA]++
	return c.Inner.FMA(a, b, x)
}

// Sqrt implements Env.
func (c *Counting) Sqrt(a Bits) Bits {
	c.Counts.ByOp[OpSqrt]++
	return c.Inner.Sqrt(a)
}

// Exp implements Env.
func (c *Counting) Exp(a Bits) Bits {
	c.Counts.ByOp[OpExp]++
	return c.Inner.Exp(a)
}

// IntDecision implements IntDecider: it tallies integer sequencing
// sites and passes the value through.
func (c *Counting) IntDecision(k int) int {
	c.Counts.IntSites++
	return k
}

// Tile implements Tiler: it hands the call to the Tiles recorder, if
// any, and never skips.
func (c *Counting) Tile(t int, in, out []Bits) (Bits, bool) {
	if c.Tiles != nil {
		c.Tiles.RecordTile(t, in, out, &c.Counts)
	}
	return 0, false
}

// FromFloat64 implements Env.
func (c *Counting) FromFloat64(v float64) Bits { return c.Inner.FromFloat64(v) }

// ToFloat64 implements Env.
func (c *Counting) ToFloat64(b Bits) float64 { return c.Inner.ToFloat64(b) }
