// runStore eviction under concurrency: the bounded ring must stay
// capacity-bounded and internally consistent while New, Get and List
// race (run with -race), and a Get on an evicted id must miss cleanly
// rather than resurrect the run.
package server

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"dscweaver/internal/store"
)

func TestRunStoreEvictionBounded(t *testing.T) {
	const capacity = 8
	rs := newRunStore(capacity, nil)
	var early []string
	for i := 0; i < 3*capacity; i++ {
		r := rs.New("weave")
		if i < capacity {
			early = append(early, r.summary.ID)
		}
	}
	if got := len(rs.List()); got != capacity {
		t.Fatalf("store holds %d runs, want the %d cap", got, capacity)
	}
	for _, id := range early {
		if _, ok := rs.Get(id); ok {
			t.Errorf("evicted run %s still retrievable", id)
		}
	}
	// Internal consistency: the ring and the index agree.
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if len(rs.order) != len(rs.byID) {
		t.Errorf("order has %d ids, index has %d", len(rs.order), len(rs.byID))
	}
	for _, id := range rs.order {
		if _, ok := rs.byID[id]; !ok {
			t.Errorf("ordered id %s missing from index", id)
		}
	}
}

func TestRunStoreConcurrentNewGetList(t *testing.T) {
	const (
		capacity = 16
		writers  = 8
		perG     = 200
	)
	rs := newRunStore(capacity, nil)
	ids := make(chan string, writers*perG)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				r := rs.New("weave")
				r.setProcess("p")
				r.finish(nil)
				ids <- r.summary.ID
			}
		}()
	}
	// Readers hammer Get (live and evicted ids alike) and List while
	// the writers churn the ring.
	var readers sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				rs.Get(fmt.Sprintf("weave-%06d", i%(writers*perG)+1))
				if sums := rs.List(); len(sums) > capacity {
					t.Errorf("List returned %d runs, want <= %d", len(sums), capacity)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	close(ids)

	if got := len(rs.List()); got != capacity {
		t.Fatalf("store holds %d runs after churn, want %d", got, capacity)
	}
	// Exactly the newest `capacity` ids survive; everything older is
	// evicted and Gets on it miss.
	seen := map[string]bool{}
	for _, s := range rs.List() {
		seen[s.ID] = true
	}
	live, evicted := 0, 0
	for id := range ids {
		if _, ok := rs.Get(id); ok {
			if !seen[id] {
				t.Errorf("Get(%s) hit but List omits it", id)
			}
			live++
		} else {
			if seen[id] {
				t.Errorf("List shows %s but Get misses", id)
			}
			evicted++
		}
	}
	if live != capacity || evicted != writers*perG-capacity {
		t.Errorf("live=%d evicted=%d, want %d/%d", live, evicted, capacity, writers*perG-capacity)
	}
}

// metaSummary is only reached on a ring miss, so an unfinished stored
// run has no live writer: after a crash/restart it must surface as
// "interrupted", never as "running" forever.
func TestMetaSummaryUnfinishedIsInterrupted(t *testing.T) {
	m := store.RunMeta{ID: "weave-000001", Kind: "weave", Began: time.Unix(1700000000, 0), Events: 3}
	if got := metaSummary(m).Status; got != "interrupted" {
		t.Fatalf("unfinished stored run status = %q, want interrupted", got)
	}
	m.Done, m.OK = true, true
	if got := metaSummary(m).Status; got != "ok" {
		t.Fatalf("finished ok run status = %q, want ok", got)
	}
	m.OK, m.Err = false, "boom"
	if s := metaSummary(m); s.Status != "error" || s.Error != "boom" {
		t.Fatalf("finished failed run = %+v, want error/boom", s)
	}
}

// TestSetProcessDoesNotPinRequest: a run outlives its request in the
// registry and the store, so the process name it keeps must not share
// memory with the request body it was parsed from.
func TestSetProcessDoesNotPinRequest(t *testing.T) {
	body := strings.Repeat("x", 1<<20)
	name := body[1000:1016]
	rs := newRunStore(4, nil)
	r := rs.New("weave")
	r.setProcess(name)
	got := r.Summary().Process
	if got != name {
		t.Fatalf("Process = %q, want %q", got, name)
	}
	lo := uintptr(unsafe.Pointer(unsafe.StringData(body)))
	p := uintptr(unsafe.Pointer(unsafe.StringData(got)))
	if p >= lo && p < lo+uintptr(len(body)) {
		t.Fatalf("stored process name aliases the %d-byte request body", len(body))
	}
}
