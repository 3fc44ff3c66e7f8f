package arch

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

func TestTrivialLayout(t *testing.T) {
	l := NewTrivialLayout(3, 5)
	if l.NumLogical() != 3 || l.NumPhysical() != 5 {
		t.Fatalf("sizes %d/%d", l.NumLogical(), l.NumPhysical())
	}
	for q := 0; q < 3; q++ {
		if l.Phys(q) != q || l.Log(q) != q {
			t.Errorf("trivial layout broken at %d", q)
		}
	}
	if l.Log(3) != -1 || l.Log(4) != -1 {
		t.Error("spare physical qubits should map to -1")
	}
	if err := l.Validate(); err != nil {
		t.Error(err)
	}
}

func TestTrivialLayoutPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("logical > physical should panic")
		}
	}()
	NewTrivialLayout(5, 3)
}

func TestNewLayout(t *testing.T) {
	l, err := NewLayout([]int{2, 0, 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if l.Phys(0) != 2 || l.Phys(1) != 0 || l.Phys(2) != 3 {
		t.Error("assignment not honoured")
	}
	if l.Log(2) != 0 || l.Log(1) != -1 {
		t.Error("inverse broken")
	}
	if err := l.Validate(); err != nil {
		t.Error(err)
	}
}

func TestNewLayoutErrors(t *testing.T) {
	if _, err := NewLayout([]int{0, 0}, 3); err == nil {
		t.Error("non-injective assignment accepted")
	}
	if _, err := NewLayout([]int{0, 5}, 3); err == nil {
		t.Error("out-of-range assignment accepted")
	}
	if _, err := NewLayout([]int{0, 1, 2, 3}, 3); err == nil {
		t.Error("too many logical qubits accepted")
	}
}

func TestSwapPhysical(t *testing.T) {
	l := NewTrivialLayout(2, 4)
	// Swap two occupied qubits.
	l.SwapPhysical(0, 1)
	if l.Phys(0) != 1 || l.Phys(1) != 0 {
		t.Error("occupied swap broken")
	}
	// Swap occupied with free.
	l.SwapPhysical(1, 3) // logical 0 moves to physical 3
	if l.Phys(0) != 3 || l.Log(1) != -1 || l.Log(3) != 0 {
		t.Error("occupied/free swap broken")
	}
	// Swap two free qubits: no-op on logical side.
	l.SwapPhysical(1, 2)
	if err := l.Validate(); err != nil {
		t.Error(err)
	}
}

// Property: any sequence of SwapPhysical calls keeps the layout a valid
// partial bijection, and applying the same swap twice restores it.
func TestSwapPhysicalProperties(t *testing.T) {
	f := func(seed int64) bool {
		s := uint64(seed)*0x9E3779B97F4A7C15 + 1
		next := func(mod int) int {
			s ^= s << 13
			s ^= s >> 7
			s ^= s << 17
			return int(s % uint64(mod))
		}
		l := NewTrivialLayout(4, 7)
		for i := 0; i < 30; i++ {
			a := next(7)
			b := next(7)
			if a == b {
				continue
			}
			l.SwapPhysical(a, b)
			if l.Validate() != nil {
				return false
			}
		}
		before := l.Clone()
		l.SwapPhysical(2, 5)
		l.SwapPhysical(2, 5)
		return l.Equal(before)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestLayoutCloneIndependence(t *testing.T) {
	l := NewTrivialLayout(2, 3)
	c := l.Clone()
	c.SwapPhysical(0, 1)
	if l.Phys(0) != 0 {
		t.Error("Clone shares storage")
	}
	if l.Equal(c) {
		t.Error("Equal should detect divergence")
	}
}

func TestLayoutAssignmentCopy(t *testing.T) {
	l := NewTrivialLayout(2, 3)
	a := l.Assignment()
	a[0] = 99
	if l.Phys(0) != 0 {
		t.Error("Assignment must return a copy")
	}
}

// TestRandomLayoutIsSeededPerm: RandomLayout maps logical i to entry i of
// rand.New(rand.NewSource(seed)).Perm(physical), on the call that fills
// the memo and on the calls it serves; a caller mutating its layout does
// not reach the next caller; and the memo stays bounded.
func TestRandomLayoutIsSeededPerm(t *testing.T) {
	for _, seed := range []int64{0, 1, 7, -3} {
		for _, n := range []int{5, 20, 54} {
			want := rand.New(rand.NewSource(seed)).Perm(n)[:n/2]
			for call := 0; call < 2; call++ {
				l, err := RandomLayout(seed, n/2, n)
				if err != nil {
					t.Fatal(err)
				}
				if got := l.Assignment(); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d, %d qubits, call %d: %v, want %v", seed, n, call, got, want)
				}
				l.SwapPhysical(want[0], want[1])
			}
		}
	}
	if _, err := RandomLayout(1, 6, 5); err == nil {
		t.Error("6 logical qubits on 5 physical accepted")
	}
	for seed := int64(0); seed < 3*int64(len(permMemo.ring)); seed++ {
		if _, err := RandomLayout(seed, 2, 4); err != nil {
			t.Fatal(err)
		}
	}
	permMemo.Lock()
	size := len(permMemo.perms)
	permMemo.Unlock()
	if size > len(permMemo.ring) {
		t.Errorf("memo holds %d permutations, bound is %d", size, len(permMemo.ring))
	}
}

// TestRandomLayoutConcurrent: codard's workers and the batch driver place
// circuits from several goroutines at once, through one memo. Each
// goroutine sweeps more seeds than the memo holds, so lookups, fills and
// evictions interleave; every layout must still be its seed's.
func TestRandomLayoutConcurrent(t *testing.T) {
	const seeds, n = 100, 20
	want := make([][]int, seeds)
	for s := range want {
		want[s] = rand.New(rand.NewSource(int64(s))).Perm(n)[:n/2]
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < 3*seeds; k++ {
				s := (k*7 + w*13) % seeds
				l, err := RandomLayout(int64(s), n/2, n)
				if err != nil {
					t.Error(err)
					return
				}
				if got := l.Assignment(); !reflect.DeepEqual(got, want[s]) {
					t.Errorf("seed %d: %v, want %v", s, got, want[s])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
