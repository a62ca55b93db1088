package store

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"dscweaver/internal/obs"
)

// checkEncoding fails t unless encodeEvent writes exactly json.Marshal's
// bytes for e, or fails where json.Marshal fails, and unless the direct
// path declining leaves dst as it was.
func checkEncoding(t testing.TB, e obs.Event) {
	t.Helper()
	prefix := []byte("head:")
	want, werr := json.Marshal(e)
	got, gerr := encodeEvent(append([]byte(nil), prefix...), e)
	switch {
	case werr != nil:
		if gerr == nil {
			t.Fatalf("json.Marshal refuses %#v (%v), encodeEvent wrote %s", e, werr, got)
		}
	case gerr != nil:
		t.Fatalf("encodeEvent refuses %#v: %v", e, gerr)
	case !bytes.Equal(got, append(prefix, want...)):
		t.Fatalf("encodeEvent(%#v)\n got %s\nwant %s%s", e, got, prefix, want)
	}
	if out, ok := appendEvent(prefix, &e); !ok && !bytes.Equal(out, prefix) {
		t.Fatalf("appendEvent declined %#v but wrote %s", e, out)
	}
}

// TestEventFieldsCovered: appendEvent names every obs.Event field. A
// field added to the struct changes json.Marshal's bytes; this fails
// until appendEvent, the fallback rule and the generators below learn it.
func TestEventFieldsCovered(t *testing.T) {
	var tags []string
	rt := reflect.TypeOf(obs.Event{})
	for i := 0; i < rt.NumField(); i++ {
		tags = append(tags, rt.Field(i).Tag.Get("json"))
	}
	want := []string{"mono_ns", "wall,omitempty", "layer", "kind", "activity,omitempty",
		"service,omitempty", "port,omitempty", "seq,omitempty", "attempt,omitempty",
		"branch,omitempty", "err,omitempty", "detail,omitempty", "value,omitempty",
		"dur_ns,omitempty", "decision,omitempty"}
	if !reflect.DeepEqual(tags, want) {
		t.Fatalf("obs.Event json tags are %q, appendEvent encodes %q", tags, want)
	}
}

// eventStrings mixes the plain names the engine emits (the first
// plainStrings entries) with every kind of byte json.Marshal escapes or
// replaces: HTML's <, > and &, quotes, backslashes, control characters
// (\b and \f included), non-ASCII, U+2028/U+2029 and invalid UTF-8.
const plainStrings = 13

var eventStrings = []string{
	"", "", "", "a_1_0", "rec_Svc2", "engine", obs.EvActivityFinish, "node:h1", "note", "T", "F",
	"receive rec_SvcK: context deadline exceeded", "~ ok ^ `",
	"p <x> & y", `say "hi"`, `back\slash`, "\u2028 \u2029",
	"tab\there", "line\nbreak", "\r", "\b\f", "\x00\x01\x1f", "\x7f", "ü", "日本", "  ",
	"bad \xff utf8", "\xc3", "truncated \xe6\x97", "emoji 😀",
}

// eventWalls mixes the zero wall (always written), stamped clocks in
// UTC and in zones with minute and second offsets, and clocks
// json.Marshal refuses (a five-digit or negative year, a 24-hour zone).
func eventWall(r *rand.Rand) time.Time {
	switch r.Intn(10) {
	case 0, 1:
		return time.Time{}
	case 2:
		return time.Unix(r.Int63n(1<<35), r.Int63n(1e9)).In(time.FixedZone("", r.Intn(2*14*3600)-14*3600))
	case 3:
		return time.Date(10000+r.Intn(5), 1, 1, 0, 0, 0, 0, time.UTC)
	case 4:
		return time.Date(-r.Intn(3)-1, 1, 1, 0, 0, 0, 0, time.UTC)
	case 5:
		return time.Unix(0, 0).In(time.FixedZone("", 24*3600+r.Intn(3600)))
	case 6:
		return time.Unix(r.Int63n(1<<35), 0).UTC()
	default:
		return obs.Stamp(obs.Event{}).Wall
	}
}

func eventValue(r *rand.Rand) float64 {
	switch r.Intn(12) {
	case 0:
		return float64(r.Intn(100))
	case 1:
		return r.NormFloat64() * 1e-7
	case 2:
		return r.NormFloat64() * 1e22
	case 3:
		return math.Copysign(0, -1)
	case 4:
		return math.NaN()
	default:
		return 0
	}
}

// randomEvent draws half its events' strings from the plain names
// alone, so the direct path is exercised as much as the fallback.
func randomEvent(r *rand.Rand) obs.Event {
	pool := eventStrings
	if r.Intn(2) == 0 {
		pool = eventStrings[:plainStrings]
	}
	str := func() string { return pool[r.Intn(len(pool))] }
	num := func() int64 {
		switch r.Intn(4) {
		case 0:
			return 0
		case 1:
			return r.Int63()
		case 2:
			return -r.Int63()
		}
		return r.Int63n(100)
	}
	e := obs.Event{
		Mono: time.Duration(num()), Wall: eventWall(r),
		Layer: str(), Kind: str(), Activity: str(), Service: str(), Port: str(),
		Seq: int(num()), Attempt: int(num()), Branch: str(), Err: str(), Detail: str(),
		Value: eventValue(r), DurNS: num(),
	}
	if r.Intn(20) == 0 {
		e.Decision = &obs.Decision{Candidates: r.Intn(40), Checks: r.Intn(9), Pairs: r.Intn(9)}
		for i := r.Intn(3); i > 0; i-- {
			e.Decision.Removed = append(e.Decision.Removed, str())
		}
	}
	return e
}

// TestEventEncodingMatchesMarshal checks encodeEvent against
// json.Marshal byte for byte on 100,000 random events, and counts how
// many took the direct path so a generator that only exercises the
// fallback cannot pass.
func TestEventEncodingMatchesMarshal(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	const n = 100_000
	direct := 0
	for i := 0; i < n; i++ {
		e := randomEvent(r)
		checkEncoding(t, e)
		if _, ok := appendEvent(nil, &e); ok {
			direct++
		}
	}
	// Plain engine events: the shape the direct path exists for.
	for i := 0; i < n/10; i++ {
		e := obs.Stamp(obs.Event{Layer: obs.LayerEngine, Kind: obs.EvActivityFinish,
			Activity: "a_3_1", Seq: i, DurNS: int64(i) * 997})
		checkEncoding(t, e)
		if _, ok := appendEvent(nil, &e); !ok {
			t.Fatalf("plain engine event %#v fell back to json.Marshal", e)
		}
	}
	if direct < n/5 {
		t.Fatalf("only %d of %d random events took the direct path", direct, n)
	}
	t.Logf("%d of %d random events took the direct path", direct, n)
}

func FuzzEventEncoding(f *testing.F) {
	f.Add(int64(123), int64(1700000000), int64(5), 0, "engine", "activity_start", "a_1", "", "", 3, 0, "", "", "", 0.0, int64(0))
	f.Add(int64(-1), int64(0), int64(0), 3600+30, "bus", "invoke", "a<b>", "Svc&", "p\"", 0, 2, "T", "boom\n", "ü\xff", 1e-9, int64(7))
	f.Add(int64(0), int64(253402300800), int64(0), -86400, "", "", " ", "\b", "\\", -5, -1, "\x00", "", "", math.Inf(1), int64(-1))
	f.Fuzz(func(t *testing.T, mono, sec, nsec int64, offset int, layer, kind, activity, service, port string,
		seq, attempt int, branch, errText, detail string, value float64, durNS int64) {
		var wall time.Time
		if sec != 0 || nsec != 0 {
			wall = time.Unix(sec, nsec).In(time.FixedZone("", offset))
		}
		checkEncoding(t, obs.Event{
			Mono: time.Duration(mono), Wall: wall, Layer: layer, Kind: kind,
			Activity: activity, Service: service, Port: port, Seq: seq, Attempt: attempt,
			Branch: branch, Err: errText, Detail: detail, Value: value, DurNS: durNS,
		})
	})
}

// BenchmarkAppenderEmit appends one stamped engine event per op: the
// line buffer is its one allocation.
func BenchmarkAppenderEmit(b *testing.B) {
	s, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	app := s.Begin("enact-000001", 1, "enact", time.Now())
	e := obs.Stamp(obs.Event{Layer: obs.LayerEngine, Kind: obs.EvActivityFinish,
		Activity: "a_3_1", Seq: 17, DurNS: 48213})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		app.Emit(e)
	}
}
