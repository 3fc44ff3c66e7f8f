package circuit

// IntArena hands out small []int blocks carved from larger backing arrays,
// so hot loops that materialise one qubit slice per emitted gate (the
// remappers' launch paths) cost one allocation per few thousand gates
// instead of one per gate. Returned slices have capacity == length, so an
// append by the holder can never alias a neighbouring block. Blocks live as
// long as any slice taken from them; Reset and Rewind are the only ways a
// block is written twice.
type IntArena struct {
	buf []int
	// spill counts the elements taken from blocks left behind since the
	// last Reset or Rewind.
	spill int
}

// Block sizes double from arenaMin to arenaBlock, so a small circuit does
// not pay for a full block.
const (
	arenaMin   = 32
	arenaBlock = 4096
)

// blockSize returns the capacity of the block that follows one of capacity
// prev, for a request of n elements.
func blockSize(prev, n int) int {
	size := min(max(2*prev, arenaMin), arenaBlock)
	return max(size, n)
}

// Take returns a zeroed slice of length n from the arena.
func (a *IntArena) Take(n int) []int {
	if len(a.buf)+n > cap(a.buf) {
		a.spill += len(a.buf)
		a.buf = make([]int, 0, blockSize(cap(a.buf), n))
	}
	off := len(a.buf)
	a.buf = a.buf[:off+n]
	s := a.buf[off : off+n : off+n]
	clear(s)
	return s
}

// Reset rewinds the arena onto the start of its current block, so later
// Takes overwrite it. The caller must hold no slice taken from that block:
// the streaming remapper resets once per flush, after moving its unflushed
// gates' slices out (remapper.settle).
func (a *IntArena) Reset() {
	a.buf, a.spill = a.buf[:0], 0
}

// Rewind is Reset for an arena reused from circuit to circuit: when the
// takes since the last rewind spilled past the current block, the next
// block holds them all with a quarter to spare, so an arena serving
// circuits of similar sizes settles on one block and stops allocating.
// The caller must hold no slice taken from the arena.
func (a *IntArena) Rewind() {
	a.buf, a.spill = rewind(a.buf, a.spill), 0
}

// rewind returns buf emptied, or a new empty block when the spill plus
// buf's own takes outgrew it.
func rewind[T any](buf []T, spill int) []T {
	if need := spill + len(buf); need > cap(buf) {
		return make([]T, 0, need+need/4)
	}
	return buf[:0]
}

// Footprint returns the bytes the arena holds until its next Reset or
// Rewind, or from that Rewind on, whichever is more: its block and what
// was taken from earlier ones, or the block the Rewind makes.
func (a *IntArena) Footprint() int { return 8 * held(a.buf, a.spill) }

// held is the element count Footprint reports for an arena over buf that
// spilled spill elements.
func held[T any](buf []T, spill int) int {
	return max(cap(buf)+spill, (spill+len(buf))*5/4)
}

// FloatArena is IntArena over float64 blocks: batch storage for per-gate
// parameter slices when a whole circuit is built at once (the parser,
// Decompose), where one allocation per gate would dominate.
type FloatArena struct {
	buf   []float64
	spill int
}

// Take returns a slice of length n from the arena, for the caller to fill.
func (a *FloatArena) Take(n int) []float64 {
	if len(a.buf)+n > cap(a.buf) {
		a.spill += len(a.buf)
		a.buf = make([]float64, 0, blockSize(cap(a.buf), n))
	}
	off := len(a.buf)
	a.buf = a.buf[:off+n]
	return a.buf[off : off+n : off+n]
}

// Rewind is IntArena.Rewind.
func (a *FloatArena) Rewind() {
	a.buf, a.spill = rewind(a.buf, a.spill), 0
}

// Footprint is IntArena.Footprint.
func (a *FloatArena) Footprint() int { return 8 * held(a.buf, a.spill) }

// Reuse returns s resized to n zeroed elements, keeping its backing array
// when it is large enough: per-epoch index structures of the streaming
// engine are rebuilt into the memory of the previous epoch's.
func Reuse[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}
