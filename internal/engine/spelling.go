package engine

import (
	"encoding/binary"
	"sort"
	"sync"
)

// Spelling index: the warm-path front of the plan cache. A request
// that arrives as concrete syntax (Request.Query/Views) must normally
// be parsed and canonicalized before its plan Key is known, and on a
// warm plan that parse-and-hash is most of what the engine does. The
// index remembers, for each raw spelling already seen, the Key it
// canonicalized to, so a repeated spelling goes straight to the plan
// LRU. It stores keys, never plans: a spelling whose plan was evicted
// still resolves to its key, misses the LRU and recompiles (parsing in
// the compile closure) exactly as a fresh spelling would.

// spellingsPerPlan sizes the index from the plan-cache capacity: room
// for every cached plan to be reached through a few respellings.
const spellingsPerPlan = 4

// spellingIndex is a bounded map from raw spelling to plan key with
// two generations: lookups hit cur, or hit prev and are copied into
// cur; when cur holds half entries it becomes prev and the old prev is
// dropped. Each generation holds at most half entries, so the index
// never exceeds 2*half, and a spelling in use survives every rotation.
// half == 0 disables the index (every lookup misses).
type spellingIndex struct {
	mu        sync.Mutex
	half      int
	cur, prev map[string]Key
}

func newSpellingIndex(bound int) *spellingIndex {
	return &spellingIndex{half: bound / 2, cur: map[string]Key{}}
}

// get returns the key a spelling canonicalized to, if still indexed.
func (x *spellingIndex) get(spelling []byte) (Key, bool) {
	if x.half == 0 {
		return "", false
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	if k, ok := x.cur[string(spelling)]; ok {
		return k, true
	}
	if k, ok := x.prev[string(spelling)]; ok {
		s := string(spelling)
		delete(x.prev, s)
		x.put(s, k)
		return k, true
	}
	return "", false
}

// add indexes a spelling under the key its parse canonicalized to.
func (x *spellingIndex) add(spelling []byte, k Key) {
	if x.half == 0 {
		return
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	x.put(string(spelling), k)
}

func (x *spellingIndex) put(spelling string, k Key) {
	if len(x.cur) >= x.half {
		x.prev, x.cur = x.cur, map[string]Key{}
	}
	x.cur[spelling] = k
}

// len returns how many spellings the index holds.
func (x *spellingIndex) len() int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return len(x.cur) + len(x.prev)
}

// appendSpelling appends the raw spelling of a request to dst: the
// partial flag, then the query, then each view name and expression in
// name order, every string length-prefixed so that no two distinct
// requests share a spelling.
func appendSpelling(dst []byte, query string, views map[string]string, partial bool) []byte {
	if partial {
		dst = append(dst, 'p')
	} else {
		dst = append(dst, 'm')
	}
	dst = appendField(dst, query)
	names := make([]string, 0, len(views))
	for name := range views {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		dst = appendField(dst, name)
		dst = appendField(dst, views[name])
	}
	return dst
}

func appendField(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}
