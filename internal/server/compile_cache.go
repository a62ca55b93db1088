package server

import (
	"hash/maphash"
	"sync"

	"dscweaver/internal/decentral"
	"dscweaver/internal/obs"
	"dscweaver/internal/weave"
)

// The compiled-process cache: one weave.Compiled per repeated source,
// shared by /v1/weave, /v1/simulate, /v1/enact and /v1/enact/join, so
// a source the daemon has seen twice is parsed, merged, desugared,
// translated and minimized once. Its bounds are constants, not options:
// the cache only saves CPU on repeated sources and never changes an
// answer.
const (
	// compileCacheEntries caps how many sources stay compiled.
	compileCacheEntries = 128
	// compileCacheBytes caps the summed size estimates of the entries.
	compileCacheBytes = 32 << 20
	// compileSeenRing is how many first sightings admission remembers.
	compileSeenRing = 256
)

// compileKey identifies a source: its front end and its text. The text
// is the entry's own clone, so the key pins no request body either.
type compileKey struct {
	lang, source string
}

// compiledEntry is one cached source. The weave prefix is read-only;
// the placement is computed once, by the first enactment that needs it.
type compiledEntry struct {
	prefix *weave.Compiled
	size   int64

	placeOnce sync.Once
	plan      *decentral.Plan
	savings   int
	placeErr  error
}

// placement returns the entry's pinned, co-located plan of the minimal
// set and its static message savings, computing both on first use. Per
// request, enactments fold the plan to their own node cap.
func (e *compiledEntry) placement(res *weave.Result) (*decentral.Plan, int, error) {
	e.placeOnce.Do(func() { e.plan, e.savings, e.placeErr = placeMinimal(res) })
	return e.plan, e.savings, e.placeErr
}

// compileCache maps repeated sources to their compiled prefix. A source
// is admitted on its second sighting only: seen holds hashes of recent
// first sightings, so a stream of unique sources compiles each as it
// always did and never fills the cache. Eviction is first in, first
// out, by entry count and by a byte budget over size estimates.
type compileCache struct {
	mu      sync.Mutex
	entries map[compileKey]*compiledEntry
	order   []compileKey // insertion order, oldest first
	bytes   int64

	seed maphash.Seed
	seen [compileSeenRing]uint64
	next int

	hit, miss, admit, evict *obs.Counter // compile_cache_total{result=...}
}

func newCompileCache(reg *obs.Registry) *compileCache {
	result := func(r string) *obs.Counter { return reg.Counter("compile_cache_total", "result", r) }
	return &compileCache{
		entries: map[compileKey]*compiledEntry{},
		seed:    maphash.MakeSeed(),
		hit:     result("hit"),
		miss:    result("miss"),
		admit:   result("admit"),
		evict:   result("evict"),
	}
}

// get returns the entry for a source, counting the hit or the miss.
func (c *compileCache) get(lang, source string) *compiledEntry {
	c.mu.Lock()
	e := c.entries[compileKey{lang, source}]
	c.mu.Unlock()
	if e != nil {
		c.hit.Inc()
	} else {
		c.miss.Inc()
	}
	return e
}

// sighted reports whether a missed source was seen recently, so that
// this sighting admits it; a first sighting is remembered instead.
func (c *compileCache) sighted(lang, source string) bool {
	var h maphash.Hash
	h.SetSeed(c.seed)
	h.WriteString(lang)
	h.WriteByte(0)
	h.WriteString(source)
	sum := h.Sum64()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range c.seen {
		if s == sum {
			return true
		}
	}
	c.seen[c.next] = sum
	c.next = (c.next + 1) % compileSeenRing
	return false
}

// put stores the prefix of res, a run compiled from source, and returns
// the entry that serves the source: the one stored, or one a concurrent
// request stored first. source must be the caller's own clone. A
// prefix larger than the whole byte budget is not stored (nil).
func (c *compileCache) put(lang, source string, res *weave.Result) *compiledEntry {
	size := compiledSize(source, res)
	if size > compileCacheBytes {
		return nil
	}
	e := &compiledEntry{prefix: weave.Compile(res), size: size}
	key := compileKey{lang, source}
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev := c.entries[key]; prev != nil {
		return prev
	}
	c.entries[key] = e
	c.order = append(c.order, key)
	c.bytes += e.size
	c.admit.Inc()
	for len(c.order) > compileCacheEntries || c.bytes > compileCacheBytes {
		old := c.order[0]
		c.order = c.order[1:]
		c.bytes -= c.entries[old].size
		delete(c.entries, old)
		c.evict.Inc()
	}
	return e
}

// compiledSize estimates the heap an entry holds: the source text the
// parsed names point into, plus a per-item cost for the activities,
// the merged, translated and minimal constraints and the guards.
func compiledSize(source string, res *weave.Result) int64 {
	items := len(res.Parsed.Proc.Activities()) + res.Merged.Len() + res.Translated.Len() +
		res.Minimize.Minimal.Len() + len(res.Guards)
	return int64(len(source)) + int64(items)*compiledItemBytes
}

// compiledItemBytes is the heap one activity, constraint or guard of a
// compiled entry costs. With it the estimate came within 15% of the
// measured heap of purchasing (76 KB) and of 8×4 (111 KB) and 16×16
// (2.1 MB) layered processes with one decision (go1.24, amd64).
const compiledItemBytes = 512
