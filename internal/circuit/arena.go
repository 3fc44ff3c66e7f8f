package circuit

// IntArena hands out small []int blocks carved from larger backing arrays,
// so hot loops that materialise one qubit slice per emitted gate (the
// remappers' launch paths) cost one allocation per few thousand gates
// instead of one per gate. Returned slices have capacity == length, so an
// append by the holder can never alias a neighbouring block. Blocks live as
// long as any slice taken from them; Reset is the only way a block is
// written twice.
type IntArena struct {
	buf []int
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
	a.buf = a.buf[:0]
}

// FloatArena is IntArena over float64 blocks: batch storage for per-gate
// parameter slices when a whole circuit is copied at once (Schedule.Circuit),
// where one allocation per gate would dominate the copy.
type FloatArena struct {
	buf []float64
}

// Take returns a zeroed slice of length n from the arena.
func (a *FloatArena) Take(n int) []float64 {
	if len(a.buf)+n > cap(a.buf) {
		a.buf = make([]float64, 0, blockSize(cap(a.buf), n))
	}
	off := len(a.buf)
	a.buf = a.buf[:off+n]
	return a.buf[off : off+n : off+n]
}

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
