package service

import (
	"container/list"
	"sync"

	"codar/internal/persist"
)

// Store is the sharded result store behind /v1/map: rendered response
// bodies keyed by the sha256 circuit hash, split across 2^k shards so
// concurrent hits on different circuits never contend on one lock. Each
// shard owns its own LRU, its own counters and its own singleflight table;
// the shard is picked from the key's leading hex byte, which is uniform
// because the key is a cryptographic hash.
//
// Storing the marshalled bytes rather than the decoded result preserves the
// PR 3 contract: a hit is written to the wire verbatim, so clients can
// never observe re-marshalling drift.
//
// Three behaviours layer on top of the per-shard LRU:
//
//   - Hot-key pinning: an entry hit pinThreshold times is removed from the
//     LRU list entirely (up to a per-shard cap), so a scan of cold keys
//     cannot evict the circuits the fleet maps all day.
//   - Singleflight: GetOrJoin gives concurrent identical cold requests one
//     leader and N-1 followers sharing the leader's bytes (flight.go).
//   - Persistence: with SetPersist, successful Puts stream to an
//     append-only log replayed into Seed at next boot (internal/persist).
//
// A capacity <= 0 disables caching entirely (every Get is a miss, Put is a
// no-op) while still counting misses, so /v1/stats stays meaningful when
// the operator runs uncached benchmarks.
type Store struct {
	shards   []*shard
	mask     int
	capacity int // total across shards (as configured)
	log      *persist.Log
}

// Store geometry defaults. Shard count is rounded to a power of two and
// never exceeds the entry capacity, so tiny test caches (capacity 2) don't
// shatter into 16 one-slot shards.
const (
	defaultShards    = 16
	maxShards        = 256
	defaultPinThresh = 8
)

type shard struct {
	mu        sync.Mutex
	capacity  int
	ll        *list.List // front = most recently used; pinned entries absent
	items     map[string]*storeEntry
	pinned    int
	maxPinned int
	pinThresh uint64

	hits      uint64
	misses    uint64
	evictions uint64

	flights map[string]*flight
}

type storeEntry struct {
	key   string
	value []byte
	hits  uint64
	el    *list.Element // nil once pinned
}

// StoreConfig sizes a Store. Zero values select defaults.
type StoreConfig struct {
	// Capacity is the total entry budget across all shards; <= 0 disables
	// caching.
	Capacity int
	// Shards is the desired shard count; it is rounded up to a power of
	// two, clamped to [1, 256], and halved until it does not exceed
	// Capacity. 0 selects 16.
	Shards int
	// PinThreshold is the hit count that pins an entry past eviction;
	// <= 0 selects 8. Pins are capped at a quarter of each shard.
	PinThreshold int
}

// NewStore builds the sharded store.
func NewStore(cfg StoreConfig) *Store {
	n := cfg.Shards
	if n <= 0 {
		n = defaultShards
	}
	if n > maxShards {
		n = maxShards
	}
	// Round up to a power of two so the shard pick is a mask.
	pow := 1
	for pow < n {
		pow <<= 1
	}
	n = pow
	if cfg.Capacity > 0 {
		for n > 1 && n > cfg.Capacity {
			n >>= 1
		}
	}
	pinThresh := cfg.PinThreshold
	if pinThresh <= 0 {
		pinThresh = defaultPinThresh
	}
	perShard := 0
	if cfg.Capacity > 0 {
		perShard = (cfg.Capacity + n - 1) / n
	}
	st := &Store{
		shards:   make([]*shard, n),
		mask:     n - 1,
		capacity: cfg.Capacity,
	}
	for i := range st.shards {
		maxPinned := perShard / 4
		if maxPinned < 1 {
			maxPinned = 1
		}
		st.shards[i] = &shard{
			capacity:  perShard,
			ll:        list.New(),
			items:     make(map[string]*storeEntry),
			maxPinned: maxPinned,
			pinThresh: uint64(pinThresh),
			flights:   make(map[string]*flight),
		}
	}
	return st
}

// SetPersist attaches a warm-start log: subsequent Puts append to it. Call
// before serving; the store does not lock around the pointer.
func (st *Store) SetPersist(l *persist.Log) { st.log = l }

// Persist returns the attached warm-start log (nil when persistence is off).
func (st *Store) Persist() *persist.Log { return st.log }

// shardFor picks the shard from the key's leading hex byte. Cache keys are
// sha256 hex digests, so the leading byte is uniform; anything that isn't
// hex falls back to an FNV-1a fold of the whole key.
func (st *Store) shardFor(key string) *shard {
	if st.mask == 0 {
		return st.shards[0]
	}
	if len(key) >= 2 {
		hi, ok1 := hexNibble(key[0])
		lo, ok2 := hexNibble(key[1])
		if ok1 && ok2 {
			return st.shards[int(hi<<4|lo)&st.mask]
		}
	}
	var h uint32 = 2166136261
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return st.shards[int(h)&st.mask]
}

func hexNibble(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	case c >= 'A' && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}

// Get returns the cached bytes for key, refreshes its recency, and
// promotes it to pinned once it crosses the shard's hit threshold. The
// returned slice is shared: callers must treat it as read-only.
func (st *Store) Get(key string) ([]byte, bool) {
	sh := st.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.get(key)
}

// get is the shard-locked body of Get.
func (sh *shard) get(key string) ([]byte, bool) {
	e, ok := sh.items[key]
	if !ok {
		sh.misses++
		return nil, false
	}
	sh.hits++
	e.hits++
	if e.el != nil {
		if e.hits >= sh.pinThresh && sh.pinned < sh.maxPinned {
			// Hot key: leave the LRU list for good — eviction scans can
			// no longer touch it.
			sh.ll.Remove(e.el)
			e.el = nil
			sh.pinned++
		} else {
			sh.ll.MoveToFront(e.el)
		}
	}
	return e.value, true
}

// Put stores value under key, evicting the least recently used unpinned
// entry when the shard is full. The store takes ownership of value.
func (st *Store) Put(key string, value []byte) {
	if st.capacity <= 0 {
		return
	}
	sh := st.shardFor(key)
	sh.mu.Lock()
	sh.put(key, value)
	sh.mu.Unlock()
	if st.log != nil {
		st.log.Append(key, value)
	}
}

// put is the shard-locked body of Put.
func (sh *shard) put(key string, value []byte) {
	if e, ok := sh.items[key]; ok {
		e.value = value
		if e.el != nil {
			sh.ll.MoveToFront(e.el)
		}
		return
	}
	e := &storeEntry{key: key, value: value}
	e.el = sh.ll.PushFront(e)
	sh.items[key] = e
	for len(sh.items) > sh.capacity && sh.ll.Len() > 0 {
		oldest := sh.ll.Back()
		victim := oldest.Value.(*storeEntry)
		sh.ll.Remove(oldest)
		delete(sh.items, victim.key)
		sh.evictions++
	}
}

// Seed inserts a warm-start entry without touching the hit/miss counters
// and without echoing it back into the persistence log. Used only at boot,
// replaying internal/persist records in their original order (so the
// newest survive any evictions).
func (st *Store) Seed(key string, value []byte) {
	if st.capacity <= 0 {
		return
	}
	sh := st.shardFor(key)
	sh.mu.Lock()
	sh.put(key, value)
	sh.mu.Unlock()
}

// Len returns the number of cached entries across all shards.
func (st *Store) Len() int {
	n := 0
	for _, sh := range st.shards {
		sh.mu.Lock()
		n += len(sh.items)
		sh.mu.Unlock()
	}
	return n
}

// Capacity returns the configured total entry budget.
func (st *Store) Capacity() int { return st.capacity }

// Shards returns the shard count.
func (st *Store) Shards() int { return len(st.shards) }

// Counters returns the cumulative hit and miss counts across all shards.
func (st *Store) Counters() (hits, misses uint64) {
	for _, sh := range st.shards {
		sh.mu.Lock()
		hits += sh.hits
		misses += sh.misses
		sh.mu.Unlock()
	}
	return hits, misses
}

// ShardCounters is one shard's point-in-time view, as exported by
// /v1/stats and /metrics.
type ShardCounters struct {
	Entries   int
	Pinned    int
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// ShardStats snapshots every shard.
func (st *Store) ShardStats() []ShardCounters {
	out := make([]ShardCounters, len(st.shards))
	for i, sh := range st.shards {
		sh.mu.Lock()
		out[i] = ShardCounters{
			Entries:   len(sh.items),
			Pinned:    sh.pinned,
			Hits:      sh.hits,
			Misses:    sh.misses,
			Evictions: sh.evictions,
		}
		sh.mu.Unlock()
	}
	return out
}

// Evictions returns the total evictions across shards.
func (st *Store) Evictions() uint64 {
	var n uint64
	for _, sh := range st.shards {
		sh.mu.Lock()
		n += sh.evictions
		sh.mu.Unlock()
	}
	return n
}
