package store

import (
	"encoding/json"
	"strconv"
	"time"

	"dscweaver/internal/obs"
)

// eventSize bounds the bytes appendEvent writes for e: its strings,
// plus 256 for every field name, quote and separator, 20 digits per
// integer and 35 bytes of RFC 3339 wall clock.
func eventSize(e *obs.Event) int {
	return 256 + len(e.Layer) + len(e.Kind) + len(e.Activity) + len(e.Service) +
		len(e.Port) + len(e.Branch) + len(e.Err) + len(e.Detail)
}

// encodeEvent appends e's JSON object to dst, byte for byte what
// json.Marshal(e) gives. The engine's, bus's and transport's events
// take appendEvent's direct path; the rest fall back to json.Marshal.
func encodeEvent(dst []byte, e obs.Event) ([]byte, error) {
	if out, ok := appendEvent(dst, &e); ok {
		return out, nil
	}
	raw, err := json.Marshal(e)
	if err != nil {
		return dst, err
	}
	return append(dst, raw...), nil
}

// appendEvent is encodeEvent's direct path. It declines (false, dst
// untouched) an event with a Decision or a non-zero Value, a string
// that json.Marshal would escape, or a wall clock json.Marshal
// refuses.
func appendEvent(dst []byte, e *obs.Event) ([]byte, bool) {
	if e.Decision != nil || e.Value != 0 || !plainWall(e.Wall) {
		return dst, false
	}
	for _, s := range [...]string{e.Layer, e.Kind, e.Activity, e.Service, e.Port, e.Branch, e.Err, e.Detail} {
		if !plainString(s) {
			return dst, false
		}
	}
	dst = append(dst, `{"mono_ns":`...)
	dst = strconv.AppendInt(dst, int64(e.Mono), 10)
	dst = append(dst, `,"wall":"`...)
	dst = e.Wall.AppendFormat(dst, time.RFC3339Nano)
	dst = append(dst, `","layer":"`...)
	dst = append(dst, e.Layer...)
	dst = append(dst, `","kind":"`...)
	dst = append(dst, e.Kind...)
	dst = append(dst, '"')
	dst = appendStringField(dst, `,"activity":"`, e.Activity)
	dst = appendStringField(dst, `,"service":"`, e.Service)
	dst = appendStringField(dst, `,"port":"`, e.Port)
	dst = appendIntField(dst, `,"seq":`, int64(e.Seq))
	dst = appendIntField(dst, `,"attempt":`, int64(e.Attempt))
	dst = appendStringField(dst, `,"branch":"`, e.Branch)
	dst = appendStringField(dst, `,"err":"`, e.Err)
	dst = appendStringField(dst, `,"detail":"`, e.Detail)
	dst = appendIntField(dst, `,"dur_ns":`, e.DurNS)
	return append(dst, '}'), true
}

// appendStringField appends an omitempty string field; head ends in
// the value's opening quote.
func appendStringField(dst []byte, head, s string) []byte {
	if s == "" {
		return dst
	}
	return append(append(append(dst, head...), s...), '"')
}

// appendIntField appends an omitempty integer field.
func appendIntField(dst []byte, head string, v int64) []byte {
	if v == 0 {
		return dst
	}
	return strconv.AppendInt(append(dst, head...), v, 10)
}

// plainString reports whether json.Marshal writes s between its quotes
// unchanged: printable ASCII with no quote, backslash or HTML-escaped
// <, > or &.
func plainString(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20 || c > 0x7e, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return false
		}
	}
	return true
}

// plainWall reports whether time.Time.MarshalJSON accepts t: a
// four-digit year and a zone offset under 24 hours. It then writes
// exactly AppendFormat's RFC 3339 form.
func plainWall(t time.Time) bool {
	if y := t.Year(); y < 0 || y > 9999 {
		return false
	}
	_, off := t.Zone()
	return -24*60*60 < off && off < 24*60*60
}
