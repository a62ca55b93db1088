package server

import (
	"context"
	"fmt"
	"os"
	"strings"
	"testing"
	"unsafe"

	"dscweaver/internal/obs"
	"dscweaver/internal/weave"
)

func newCacheServer(t *testing.T) *Server {
	t.Helper()
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Shutdown() })
	return s
}

func readPurchasing(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile("../dscl/testdata/purchasing.dscl")
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// tinySource is a small process, distinct per i.
func tinySource(i int) string {
	return fmt.Sprintf(`process P%d {
	activity a opaque writes(x)
	activity b opaque reads(x)
	dependencies { data a -> b var(x) }
}`, i)
}

func weaveOnce(t *testing.T, s *Server, source string) *compiledEntry {
	t.Helper()
	_, e := weaveResult(t, s, source)
	return e
}

func weaveResult(t *testing.T, s *Server, source string) (*weave.Result, *compiledEntry) {
	t.Helper()
	res, e, err := s.runWeave(context.Background(), &WeaveRequest{Source: source}, obs.NopSink{}, false)
	if err != nil {
		t.Fatal(err)
	}
	return res, e
}

// TestCompileCacheAdmitsOnSecondSighting: a source seen once is
// compiled and not stored, however many other sources pass by; its
// second sighting stores it and the third is served from the entry. The
// front end is part of the key, with "" and "dscl" one front end.
func TestCompileCacheAdmitsOnSecondSighting(t *testing.T) {
	s := newCacheServer(t)
	for i := 0; i < 2*compileSeenRing; i++ {
		if e := weaveOnce(t, s, tinySource(i)); e != nil {
			t.Fatalf("source %d was admitted on its first sighting", i)
		}
	}
	if n := len(s.compiled.entries); n != 0 {
		t.Fatalf("%d entries after only unique sources, want 0", n)
	}
	src := readPurchasing(t)
	if e := weaveOnce(t, s, src); e != nil {
		t.Fatal("purchasing was admitted on its first sighting")
	}
	admitted := weaveOnce(t, s, src)
	if admitted == nil {
		t.Fatal("purchasing was not admitted on its second sighting")
	}
	if _, e, err := s.runWeave(context.Background(), &WeaveRequest{Source: src, Lang: "dscl"}, obs.NopSink{}, false); err != nil || e != admitted {
		t.Fatalf("third sighting (lang dscl) served entry %p, err %v; want the admitted %p", e, err, admitted)
	}
	if _, e, _ := s.runWeave(context.Background(), &WeaveRequest{Source: src, Lang: "seqlang"}, obs.NopSink{}, false); e != nil {
		t.Fatal("a seqlang request was served the dscl entry")
	}
	for result, want := range map[string]int64{"hit": 1, "miss": 2*compileSeenRing + 3, "admit": 1, "evict": 0} {
		if got := s.reg.Counter("compile_cache_total", "result", result).Value(); got != want {
			t.Errorf("compile_cache_total{result=%q} = %d, want %d", result, got, want)
		}
	}
}

// TestCompileCacheEntryOwnsItsStrings: an entry is compiled from its
// own copy of the source, so none of its strings points into the
// request's source text, and keeping the entry pins no request.
func TestCompileCacheEntryOwnsItsStrings(t *testing.T) {
	s := newCacheServer(t)
	req := readPurchasing(t)
	weaveOnce(t, s, req)
	// The admitting request's result shares the entry's process and
	// constraint sets.
	res, e := weaveResult(t, s, req)
	if e == nil {
		t.Fatal("purchasing was not admitted on its second sighting")
	}
	lo := uintptr(unsafe.Pointer(unsafe.StringData(req)))
	hi := lo + uintptr(len(req))
	check := func(what, str string) {
		if p := uintptr(unsafe.Pointer(unsafe.StringData(str))); len(str) > 0 && p >= lo && p < hi {
			t.Errorf("%s %q points into the request's source", what, str)
		}
	}
	s.compiled.mu.Lock()
	for key := range s.compiled.entries {
		check("key source", key.source)
	}
	s.compiled.mu.Unlock()
	proc := res.Parsed.Proc
	check("process name", proc.Name)
	for _, a := range proc.Activities() {
		check("activity id", string(a.ID))
		check("activity service", a.Service)
		for _, v := range append(append([]string(nil), a.Reads...), a.Writes...) {
			check("variable", v)
		}
	}
	for _, set := range []struct {
		name string
		n    int
		at   func(int) string
	}{
		{"translated", res.Translated.Len(), func(i int) string { return string(res.Translated.At(i).From.Node.Activity) }},
		{"minimal", res.Minimize.Minimal.Len(), func(i int) string { return string(res.Minimize.Minimal.At(i).To.Node.Activity) }},
	} {
		for i := 0; i < set.n; i++ {
			check(set.name+" endpoint", set.at(i))
		}
	}
	for n := range res.Guards {
		check("guard node", string(n.Activity))
	}
}

// TestCompileCacheEvictsOldestBeyondEntryCap: past compileCacheEntries
// sources, each admission evicts the oldest entry.
func TestCompileCacheEvictsOldestBeyondEntryCap(t *testing.T) {
	s := newCacheServer(t)
	const extra = 3
	for i := 0; i < compileCacheEntries+extra; i++ {
		weaveOnce(t, s, tinySource(i))
		if weaveOnce(t, s, tinySource(i)) == nil {
			t.Fatalf("source %d was not admitted on its second sighting", i)
		}
	}
	if n := len(s.compiled.entries); n != compileCacheEntries {
		t.Errorf("%d entries, want the cap %d", n, compileCacheEntries)
	}
	if got := s.reg.Counter("compile_cache_total", "result", "evict").Value(); got != extra {
		t.Errorf("compile_cache_total{result=\"evict\"} = %d, want %d", got, extra)
	}
	for i := 0; i < compileCacheEntries+extra; i++ {
		_, held := s.compiled.entries[compileKey{"dscl", tinySource(i)}]
		if held != (i >= extra) {
			t.Errorf("source %d held=%v after eviction, want %v", i, held, i >= extra)
		}
	}
}

// TestCompileCacheByteBudget: the summed size estimates stay within
// compileCacheBytes, the oldest entries going first, and a prefix
// larger than the whole budget is not stored.
func TestCompileCacheByteBudget(t *testing.T) {
	s := newCacheServer(t)
	res, _ := weaveResult(t, s, readPurchasing(t))
	const quarter = compileCacheBytes / 4
	for i := 0; i < 6; i++ {
		src := fmt.Sprintf("%d%s", i, strings.Repeat(" ", quarter))
		if e := s.compiled.put("dscl", src, res); e == nil || e.size <= quarter {
			t.Fatalf("entry %d: %+v, want one stored above a quarter of the budget", i, e)
		}
		if s.compiled.bytes > compileCacheBytes {
			t.Fatalf("entry %d: %d bytes held, budget %d", i, s.compiled.bytes, compileCacheBytes)
		}
	}
	if n, evicted := len(s.compiled.entries), s.reg.Counter("compile_cache_total", "result", "evict").Value(); n != 3 || evicted != 3 {
		t.Errorf("%d entries held and %d evicted, want 3 and 3", n, evicted)
	}
	if _, held := s.compiled.entries[compileKey{"dscl", "5" + strings.Repeat(" ", quarter)}]; !held {
		t.Error("the newest entry was evicted")
	}
	if e := s.compiled.put("dscl", strings.Repeat(" ", compileCacheBytes), res); e != nil {
		t.Error("a prefix larger than the byte budget was stored")
	}
}
