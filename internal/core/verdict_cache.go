package core

import (
	"crypto/sha256"
	"sort"
	"sync"

	"dscweaver/internal/cond"
)

// DefaultVerdictCacheEntries is the VerdictCache capacity used when a
// non-positive one is requested.
const DefaultVerdictCacheEntries = 256

// VerdictCache is a cross-run, content-addressed cache of minimization
// outcomes. The key is a canonical hash of everything a run's verdicts
// depend on — the desugared constraint set in insertion order, the
// guard context, the branch domains and the comparison mode — and the
// value is the deterministic removal sequence as indices into the
// constraint list. Two requests that weave the same process therefore
// share one Definition 6 run: the second replays the recorded removals
// and skips every equivalence check. Safe for concurrent use; a
// long-lived server shares one instance across requests.
//
// Keying on content rather than identity means the cache survives
// re-parsing: any route to the same constraint set — the same DSCL
// source, a structurally identical JSON request — lands on the same
// entry. The engine knob NoCache is deliberately excluded from the
// key: it never changes the removal sequence, only how fast it is
// computed, so both configurations share entries. StrictAnnotations changes the equivalence relation and is
// part of the key.
type VerdictCache struct {
	mu      sync.Mutex
	cap     int
	entries map[[32]byte][]int
	order   [][32]byte // insertion order, evicted oldest-first
}

// NewVerdictCache returns a verdict cache holding up to capacity
// constraint-set entries (DefaultVerdictCacheEntries when capacity is
// not positive). Entries are small — a hash and a handful of ints — so
// capacity bounds bookkeeping, not memory pressure.
func NewVerdictCache(capacity int) *VerdictCache {
	if capacity <= 0 {
		capacity = DefaultVerdictCacheEntries
	}
	return &VerdictCache{cap: capacity, entries: map[[32]byte][]int{}}
}

// lookup returns the recorded removal sequence for key, if any. Hit and
// miss accounting is done by MinimizeOpt, which alone can tell a usable
// hit from an entry that fails replay validation.
func (vc *VerdictCache) lookup(key [32]byte) ([]int, bool) {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	removed, ok := vc.entries[key]
	return removed, ok
}

// store records the removal sequence for key, evicting oldest-first
// beyond capacity. Storing an existing key refreshes its value without
// changing its eviction position.
func (vc *VerdictCache) store(key [32]byte, removed []int) {
	cp := make([]int, len(removed))
	copy(cp, removed)
	vc.mu.Lock()
	defer vc.mu.Unlock()
	if _, ok := vc.entries[key]; ok {
		vc.entries[key] = cp
		return
	}
	vc.entries[key] = cp
	vc.order = append(vc.order, key)
	for len(vc.order) > vc.cap {
		delete(vc.entries, vc.order[0])
		vc.order = vc.order[1:]
	}
}

// verdictCacheKey derives the canonical content hash of one
// minimization problem. Nodes are encoded field-by-field (activity,
// service, port, each NUL-terminated) rather than via Node.String(),
// whose "Service.port" rendering could collide with an activity id
// containing a dot; conditions and guards use cond.Expr.AppendKey, the
// canonical DNF encoding. The guard map and domain map are serialized
// in sorted order so the hash is independent of map iteration. A
// version prefix keeps entries from ever being replayed across an
// encoding change.
func verdictCacheKey(sc *ConstraintSet, guards map[Node]cond.Expr, doms cond.Domains, strict bool) [32]byte {
	h := sha256.New()
	buf := make([]byte, 0, 256)
	buf = append(buf, "dscweaver/minimize/v1\x00"...)
	if strict {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	h.Write(buf)
	for _, c := range sc.constraints {
		buf = buf[:0]
		buf = append(buf, byte(c.Rel))
		buf = appendPointKey(buf, c.From)
		buf = appendPointKey(buf, c.To)
		buf = c.Cond.AppendKey(buf)
		buf = append(buf, '\n')
		h.Write(buf)
	}
	h.Write([]byte{0xfe})
	nodes := make([]Node, 0, len(guards))
	for n := range guards {
		nodes = append(nodes, n)
	}
	SortNodes(nodes)
	for _, n := range nodes {
		buf = buf[:0]
		buf = appendNodeKey(buf, n)
		buf = guards[n].AppendKey(buf)
		buf = append(buf, '\n')
		h.Write(buf)
	}
	h.Write([]byte{0xfd})
	decisions := make([]string, 0, len(doms))
	for d := range doms {
		decisions = append(decisions, d)
	}
	sort.Strings(decisions)
	for _, d := range decisions {
		buf = buf[:0]
		buf = append(buf, d...)
		buf = append(buf, 0)
		for _, val := range doms[d] {
			buf = append(buf, val...)
			buf = append(buf, 0)
		}
		buf = append(buf, '\n')
		h.Write(buf)
	}
	var key [32]byte
	h.Sum(key[:0])
	return key
}

func appendNodeKey(buf []byte, n Node) []byte {
	buf = append(buf, n.Activity...)
	buf = append(buf, 0)
	buf = append(buf, n.Service...)
	buf = append(buf, 0)
	buf = append(buf, n.Port...)
	buf = append(buf, 0)
	return buf
}

func appendPointKey(buf []byte, p Point) []byte {
	buf = appendNodeKey(buf, p.Node)
	buf = append(buf, byte(p.State))
	return buf
}
