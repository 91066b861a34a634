package utility

import (
	"math"
	"sync"
	"sync/atomic"

	"fedshap/internal/combin"
)

// numShards is the shard count of the in-memory coalition cache. A power of
// two well above typical GOMAXPROCS keeps write contention negligible.
const numShards = 64

// firstTableEntries is the capacity of a shard's first table. Small jobs
// (a few dozen coalitions over 64 shards) never outgrow it.
const firstTableEntries = 8

// shardedCache is a concurrent coalition→utility map striped across
// numShards segments. Coalition evaluations are issued from bounded worker
// pools (Prefetch, the valuation service) and every sampler's reduce pass
// reads the cache once per request, so a lookup must cost neither a lock
// nor a shared-counter write.
//
// Each shard is an append-only open-addressing table. Readers take no lock:
// they load the shard's current table and probe it. Writers serialise on
// the shard mutex and publish in a fixed order — the entry's key and value
// are written first, then its slot is stored atomically — so a reader that
// observes a slot observes a complete entry behind it. Nothing is ever
// overwritten or removed: a full table is replaced by a larger copy, and
// readers still holding the old one see a consistent, merely older, view.
//
// The low six bits of a coalition's hash pick the shard, so every key in a
// shard agrees on them; the position inside the shard therefore comes from
// the hash's high half (were it taken from the low bits, 63 of every 64
// home slots would stay empty and the rest would pile up).
type shardedCache struct {
	shards [numShards]cacheShard
}

type cacheShard struct {
	mu    sync.Mutex // writers, and readers of a table's entry count
	table atomic.Pointer[cacheTable]
}

type cacheEntry struct {
	key combin.Coalition
	val float64
}

// cacheTable is one immutable-capacity generation of a shard.
type cacheTable struct {
	// slots[i] is 0 when empty, else the low half of the key's hash as a
	// tag (high 32 bits) over the entry's index plus one (low 32 bits).
	slots   []atomic.Uint64
	entries []cacheEntry // len is the capacity; [0, n) are written
	n       int          // guarded by the shard mutex
	// fresh counts the entries inserted by an evaluation, not warmed. It
	// is written under the shard mutex and read without it.
	fresh atomic.Int64
}

const cacheTagMask uint64 = 0xffffffff00000000

func newCacheTable(capacity int) *cacheTable {
	return &cacheTable{
		slots:   make([]atomic.Uint64, capacity+capacity/2+1), // load ≤ 2/3
		entries: make([]cacheEntry, capacity),
	}
}

func (t *cacheTable) home(h uint64) int {
	return int((h >> 32) * uint64(len(t.slots)) >> 32)
}

// find probes for s (whose hash is h). It returns the entry's index, or -1
// and the empty slot the probe ended on.
func (t *cacheTable) find(s combin.Coalition, h uint64) (index, slot int) {
	tag := h << 32
	for i := t.home(h); ; {
		e := t.slots[i].Load()
		if e == 0 {
			return -1, i
		}
		if e&cacheTagMask == tag {
			if j := int(uint32(e)) - 1; t.entries[j].key == s {
				return j, i
			}
		}
		if i++; i == len(t.slots) {
			i = 0
		}
	}
}

// insert appends s→v, known absent, at the empty slot its probe ended on,
// and returns the entry's index. The caller holds the shard mutex and has
// checked the table is not full.
func (t *cacheTable) insert(s combin.Coalition, h uint64, v float64, slot int) int {
	t.entries[t.n] = cacheEntry{key: s, val: v}
	t.n++
	t.slots[slot].Store(h<<32 | uint64(t.n)) // publishes the entry
	return t.n - 1
}

// grown returns a table with room for capacity entries holding a copy of
// t's, at the same indices, and t's fresh count. It is private to the
// caller until stored in the shard.
func (t *cacheTable) grown(capacity int) *cacheTable {
	nt := newCacheTable(capacity)
	for _, ent := range t.entries[:t.n] {
		h := ent.key.Hash()
		_, slot := nt.find(ent.key, h)
		nt.insert(ent.key, h, ent.val, slot)
	}
	nt.fresh.Store(t.fresh.Load())
	return nt
}

func newShardedCache() *shardedCache { return &shardedCache{} }

// shardOf returns the shard of a coalition whose hash is h.
func shardOf(h uint64) int { return int(h & (numShards - 1)) }

// entryID names the entry at index in shard sh for the cache's lifetime:
// tables are append-only and grown keeps every entry at its index, so the
// id of a cached coalition never changes. Ids in use are below numShards
// times the largest shard's entry count (counts).
func entryID(index, sh int) int { return index*numShards + sh }

// get returns the cached utility of s, if present. It takes no lock.
func (c *shardedCache) get(s combin.Coalition) (float64, bool) {
	v, _, ok := c.lookup(s, s.Hash())
	return v, ok
}

// lookup is get for a coalition whose hash h the caller already has; it
// also returns the entry's id.
func (c *shardedCache) lookup(s combin.Coalition, h uint64) (v float64, id int, ok bool) {
	sh := shardOf(h)
	t := c.shards[sh].table.Load()
	if t == nil {
		return 0, 0, false
	}
	if i, _ := t.find(s, h); i >= 0 {
		return t.entries[i].val, entryID(i, sh), true
	}
	return 0, 0, false
}

// put inserts s→v (h is s's hash) unless already present and returns the
// entry's id, reporting whether the insert happened. The first writer
// wins; utilities are deterministic per coalition, so a lost race returns
// an equal value. A fresh insert is counted in its shard, under the mutex
// the insert holds: the per-shard counts are the oracle's budget meter.
func (c *shardedCache) put(s combin.Coalition, h uint64, v float64, fresh bool) (id int, added bool) {
	sh := shardOf(h)
	shard := &c.shards[sh]
	shard.mu.Lock()
	defer shard.mu.Unlock()
	t := shard.table.Load()
	if t == nil {
		t = newCacheTable(firstTableEntries)
		shard.table.Store(t)
	}
	i, slot := t.find(s, h)
	if i >= 0 {
		return entryID(i, sh), false
	}
	if t.n == len(t.entries) {
		t = t.grown(2 * len(t.entries))
		_, slot = t.find(s, h)
		shard.table.Store(t)
	}
	if fresh {
		t.fresh.Add(1)
	}
	return entryID(t.insert(s, h, v, slot), sh), true
}

// reserve makes room for extra more entries spread evenly over the shards,
// so a large batch fills each shard's table once instead of outgrowing it
// five or six times. A batch the first tables can hold reserves nothing:
// small jobs must not pay numShards allocations for a few dozen entries.
func (c *shardedCache) reserve(extra int) {
	per := extra / numShards
	if per <= firstTableEntries {
		return
	}
	// A shard's share of a hashed batch is Poisson(per): three standard
	// deviations of headroom leave about one shard in a thousand to grow.
	per += 3*int(math.Sqrt(float64(per))) + 1
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		switch t := sh.table.Load(); {
		case t == nil:
			sh.table.Store(newCacheTable(per))
		case t.n+per > len(t.entries):
			sh.table.Store(t.grown(t.n + per))
		}
		sh.mu.Unlock()
	}
}

// counts returns the total entry count and the largest shard's. Entry
// ids in use are below numShards·longest.
func (c *shardedCache) counts() (total, longest int) {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		if t := sh.table.Load(); t != nil {
			total += t.n
			longest = max(longest, t.n)
		}
		sh.mu.Unlock()
	}
	return total, longest
}

// fresh sums the shards' fresh-insert counts. It takes no lock.
func (c *shardedCache) fresh() int {
	n := 0
	for i := range c.shards {
		if t := c.shards[i].table.Load(); t != nil {
			n += int(t.fresh.Load())
		}
	}
	return n
}

// snapshot copies every entry into a plain map.
func (c *shardedCache) snapshot() map[combin.Coalition]float64 {
	total, _ := c.counts()
	out := make(map[combin.Coalition]float64, total)
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		if t := sh.table.Load(); t != nil {
			for _, ent := range t.entries[:t.n] {
				out[ent.key] = ent.val
			}
		}
		sh.mu.Unlock()
	}
	return out
}
