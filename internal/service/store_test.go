package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// newOneShardStore builds a single-shard store, which preserves the exact
// global LRU semantics of the pre-sharding cache — the tests below assert
// them unchanged.
func newOneShardStore(capacity int) *Store {
	return NewStore(StoreConfig{Capacity: capacity, Shards: 1})
}

func TestStoreEvictsLeastRecentlyUsed(t *testing.T) {
	c := newOneShardStore(2)
	c.Put("a", []byte("A"))
	c.Put("b", []byte("B"))
	// Touch "a" so "b" becomes the eviction victim.
	if v, ok := c.Get("a"); !ok || !bytes.Equal(v, []byte("A")) {
		t.Fatalf("get a = %q, %v", v, ok)
	}
	c.Put("c", []byte("C"))
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted (least recently used)")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a should have survived (recently used)")
	}
	if _, ok := c.Get("c"); !ok {
		t.Fatal("c should be present")
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	if c.Evictions() != 1 {
		t.Fatalf("evictions = %d, want 1", c.Evictions())
	}
}

func TestStoreUpdateDoesNotGrow(t *testing.T) {
	c := newOneShardStore(2)
	c.Put("a", []byte("A1"))
	c.Put("a", []byte("A2"))
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1 after re-put", c.Len())
	}
	if v, _ := c.Get("a"); !bytes.Equal(v, []byte("A2")) {
		t.Fatalf("get a = %q, want A2", v)
	}
}

func TestStoreCounters(t *testing.T) {
	c := newOneShardStore(4)
	c.Put("a", []byte("A"))
	c.Get("a")
	c.Get("a")
	c.Get("missing")
	hits, misses := c.Counters()
	if hits != 2 || misses != 1 {
		t.Fatalf("counters = %d/%d, want 2/1", hits, misses)
	}
}

func TestStoreDisabled(t *testing.T) {
	c := NewStore(StoreConfig{Capacity: 0})
	c.Put("a", []byte("A"))
	if _, ok := c.Get("a"); ok {
		t.Fatal("disabled store must never hit")
	}
	if c.Len() != 0 {
		t.Fatalf("len = %d, want 0", c.Len())
	}
}

func TestStoreEvictionUnderChurn(t *testing.T) {
	const capacity = 16
	c := newOneShardStore(capacity)
	for i := 0; i < 10*capacity; i++ {
		c.Put(fmt.Sprintf("k%d", i), []byte{byte(i)})
		if c.Len() > capacity {
			t.Fatalf("store grew to %d entries, capacity %d", c.Len(), capacity)
		}
	}
	// Exactly the newest `capacity` keys survive.
	for i := 10*capacity - capacity; i < 10*capacity; i++ {
		if _, ok := c.Get(fmt.Sprintf("k%d", i)); !ok {
			t.Fatalf("recent key k%d missing", i)
		}
	}
	if _, ok := c.Get("k0"); ok {
		t.Fatal("oldest key survived beyond capacity")
	}
}

// hexKey renders a sha256-style key for i, matching the production key
// format so shard selection exercises the hex-prefix path.
func hexKey(i int) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("key-%d", i)))
	return hex.EncodeToString(sum[:])
}

func TestStoreShardGeometry(t *testing.T) {
	cases := []struct {
		capacity, shards, wantShards int
	}{
		{512, 0, 16},  // defaults
		{512, 16, 16}, // explicit
		{512, 9, 16},  // rounds up to a power of two
		{512, 4096, 256},
		{2, 16, 2},  // shards never exceed capacity
		{1, 16, 1},  // degenerate single shard
		{0, 16, 16}, // disabled cache keeps the asked-for shards
	}
	for _, tc := range cases {
		st := NewStore(StoreConfig{Capacity: tc.capacity, Shards: tc.shards})
		if st.Shards() != tc.wantShards {
			t.Errorf("Capacity %d Shards %d: got %d shards, want %d",
				tc.capacity, tc.shards, st.Shards(), tc.wantShards)
		}
	}
}

func TestStoreShardDistribution(t *testing.T) {
	st := NewStore(StoreConfig{Capacity: 4096, Shards: 16})
	const n = 2048
	for i := 0; i < n; i++ {
		st.Put(hexKey(i), []byte("v"))
	}
	if st.Len() != n {
		t.Fatalf("Len = %d, want %d", st.Len(), n)
	}
	shards := st.ShardStats()
	if len(shards) != 16 {
		t.Fatalf("shards = %d, want 16", len(shards))
	}
	// sha256 prefixes are uniform: with 2048 keys over 16 shards (mean
	// 128), any shard below half or above double the mean means the
	// selector is broken, not unlucky.
	for i, sh := range shards {
		if sh.Entries < 64 || sh.Entries > 256 {
			t.Errorf("shard %d holds %d entries (mean 128): selector skew", i, sh.Entries)
		}
	}
}

func TestStorePerShardEviction(t *testing.T) {
	// 4 shards × 4 slots. Filling one shard past its slice of the
	// capacity must evict within that shard, leaving the others alone.
	st := NewStore(StoreConfig{Capacity: 16, Shards: 4})
	var aKeys []string // keys landing in one chosen shard
	target := ""
	for i := 0; len(aKeys) < 6; i++ {
		k := hexKey(i)
		sh := fmt.Sprintf("%p", st.shardFor(k))
		if target == "" {
			target = sh
		}
		if sh == target {
			aKeys = append(aKeys, k)
		}
	}
	for _, k := range aKeys {
		st.Put(k, []byte("v"))
	}
	// 6 inserts into a 4-slot shard: exactly 2 evictions, all local.
	if ev := st.Evictions(); ev != 2 {
		t.Fatalf("evictions = %d, want 2", ev)
	}
	for _, k := range aKeys[:2] {
		if _, ok := st.Get(k); ok {
			t.Errorf("oldest key in the full shard survived")
		}
	}
	for _, k := range aKeys[2:] {
		if _, ok := st.Get(k); !ok {
			t.Errorf("recent key evicted from its shard")
		}
	}
}

// pinned sums the pinned entries over the store's shards.
func pinned(st *Store) int {
	n := 0
	for _, sh := range st.ShardStats() {
		n += sh.Pinned
	}
	return n
}

func TestStoreHotKeyPinning(t *testing.T) {
	st := NewStore(StoreConfig{Capacity: 8, Shards: 1, PinThreshold: 3})
	st.Put("hot", []byte("H"))
	for i := 0; i < 3; i++ {
		st.Get("hot")
	}
	if n := pinned(st); n != 1 {
		t.Fatalf("pinned = %d, want 1 after crossing the threshold", n)
	}
	// Churn far past capacity: the pinned key must survive where plain
	// LRU would have evicted it long ago.
	for i := 0; i < 100; i++ {
		st.Put(fmt.Sprintf("cold-%d", i), []byte("c"))
	}
	if v, ok := st.Get("hot"); !ok || !bytes.Equal(v, []byte("H")) {
		t.Fatal("pinned hot key was evicted by cold churn")
	}
	if st.Len() > 8 {
		t.Fatalf("store grew to %d entries, capacity 8", st.Len())
	}
}

func TestStorePinCapBoundsPinning(t *testing.T) {
	// capacity 8, 1 shard → maxPinned = 2. Hammering 5 keys pins only 2.
	st := NewStore(StoreConfig{Capacity: 8, Shards: 1, PinThreshold: 2})
	for i := 0; i < 5; i++ {
		k := fmt.Sprintf("k%d", i)
		st.Put(k, []byte("v"))
		for j := 0; j < 4; j++ {
			st.Get(k)
		}
	}
	if n := pinned(st); n != 2 {
		t.Fatalf("pinned = %d, want 2 (the per-shard cap)", n)
	}
}

func TestStoreSeedDoesNotCount(t *testing.T) {
	st := NewStore(StoreConfig{Capacity: 8, Shards: 1})
	st.Seed("warm", []byte("W"))
	hits, misses := st.Counters()
	if hits != 0 || misses != 0 {
		t.Fatalf("counters moved on Seed: %d/%d", hits, misses)
	}
	if v, ok := st.Get("warm"); !ok || !bytes.Equal(v, []byte("W")) {
		t.Fatal("seeded entry not readable")
	}
}
