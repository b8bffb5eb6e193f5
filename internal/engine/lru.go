package engine

import (
	"container/list"
	"sync"
)

// planCache is a sharded LRU of compiled plans. Sharding bounds lock
// contention under concurrent serving: the shard is picked from the
// first byte of the key (keys are hex SHA-256, so the byte is uniform),
// and each shard holds its own lock, recency list and capacity slice.
// The cache never blocks a compile — callers look up, compile on miss,
// then add.
type planCache struct {
	shards   []*cacheShard
	capacity int // as requested; 0 when disabled
}

// cacheShard is one lock's worth of LRU: map for O(1) lookup, intrusive
// list for recency order, front = most recently used.
type cacheShard struct {
	mu    sync.Mutex
	cap   int
	items map[Key]*list.Element
	order *list.List // of *cacheEntry
}

type cacheEntry struct {
	key  Key
	plan *Plan
}

// cacheShards is the fixed shard count. 16 shards keep the per-shard
// critical sections uncontended well past the worker counts the par
// pool runs (GOMAXPROCS), while staying negligible for tiny caches —
// a capacity below the shard count degenerates to one entry per shard.
const cacheShards = 16

// newPlanCache returns an LRU holding at most capacity plans in total.
// Capacity is split evenly across shards (rounding up, so the true
// bound is within shards-1 of the request); capacity <= 0 disables
// caching and every lookup misses.
func newPlanCache(capacity int) *planCache {
	if capacity <= 0 {
		return &planCache{}
	}
	perShard := (capacity + cacheShards - 1) / cacheShards
	c := &planCache{shards: make([]*cacheShard, cacheShards), capacity: capacity}
	for i := range c.shards {
		c.shards[i] = &cacheShard{
			cap:   perShard,
			items: make(map[Key]*list.Element),
			order: list.New(),
		}
	}
	return c
}

// shard maps a key to its shard. Keys are lowercase hex, so the first
// byte alone carries 4 uniform bits — enough for 16 shards.
func (c *planCache) shard(k Key) *cacheShard {
	if len(c.shards) == 0 || len(k) == 0 {
		return nil
	}
	return c.shards[int(hexNibble(k[0]))%len(c.shards)]
}

func hexNibble(b byte) byte {
	if b >= 'a' {
		return b - 'a' + 10
	}
	return b - '0'
}

// get returns the cached plan for k and promotes it to most recently
// used; ok is false on a miss or a disabled cache.
func (c *planCache) get(k Key) (*Plan, bool) {
	s := c.shard(k)
	if s == nil {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[k]
	if !ok {
		return nil, false
	}
	s.order.MoveToFront(el)
	return el.Value.(*cacheEntry).plan, true
}

// add inserts the plan under k, evicting from the shard's cold end when
// the shard is full. It reports how many entries were evicted (0 or 1;
// also 0 when the key was already present — the concurrent-compile
// race — in which case the existing entry is kept and promoted).
func (c *planCache) add(k Key, p *Plan) (evicted int) {
	s := c.shard(k)
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[k]; ok {
		s.order.MoveToFront(el)
		return 0
	}
	s.items[k] = s.order.PushFront(&cacheEntry{key: k, plan: p})
	for s.order.Len() > s.cap {
		oldest := s.order.Back()
		s.order.Remove(oldest)
		delete(s.items, oldest.Value.(*cacheEntry).key)
		evicted++
	}
	return evicted
}

// len returns the total number of cached plans across shards.
func (c *planCache) len() int {
	total := 0
	for _, s := range c.shards {
		s.mu.Lock()
		total += s.order.Len()
		s.mu.Unlock()
	}
	return total
}
