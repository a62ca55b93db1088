package server

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"dscweaver/internal/obs"
)

// fuzzServer is shared across fuzz iterations: building a registry per
// input would dominate the run.
var (
	fuzzOnce sync.Once
	fuzzSrv  *Server
)

func fuzzServerInstance(t interface{ Fatal(...any) }) *Server {
	fuzzOnce.Do(func() {
		s, err := New(Config{})
		if err != nil {
			t.Fatal(err)
		}
		fuzzSrv = s
	})
	return fuzzSrv
}

// weaveBody wraps a process source into a /v1/weave request body.
func weaveBody(t *testing.F, source, lang string) string {
	data, err := json.Marshal(WeaveRequest{Source: source, Lang: lang})
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// FuzzWeaveRequestDecoder fuzzes the strict request decoder and, for
// inputs that decode, the full weave pipeline behind it: no panic, no
// hang, errors only through the error return. The seed corpus feeds
// the DSCL fuzz corpus through the JSON envelope so parser crashes
// found at the HTTP boundary reproduce in the dscl fuzzer and vice
// versa.
func FuzzWeaveRequestDecoder(f *testing.F) {
	if src, err := os.ReadFile(filepath.Join("..", "dscl", "testdata", "purchasing.dscl")); err == nil {
		f.Add(weaveBody(f, string(src), ""))
	}
	f.Add(weaveBody(f, "process P { activity a opaque }", "dscl"))
	f.Add(weaveBody(f, "process P { sequence { assign a writes(x) assign b reads(x) } }", "seqlang"))
	f.Add(weaveBody(f, `process P { service S { ports 1, 2; async } activity a invoke S.1 }`, ""))
	f.Add(weaveBody(f, `process "unterminated`, ""))
	f.Add(`{"source": "process P { }", "validate": false, "bpel": true, "structured": true}`)
	f.Add(`{"source": "process P { }", "parallelism": 4}`)
	f.Add(`{"source": "x", "typo": 1}`)
	f.Add(`{"source": "x"} trailing`)
	f.Add(`{"source": ""}`)
	f.Add(`not json at all`)
	f.Add(`{"source": "x", "parallelism": -1}`)
	f.Add(`{"source": "x", "parallelism": 99999}`)

	f.Fuzz(func(t *testing.T, body string) {
		q, err := decodeRequest[WeaveRequest](strings.NewReader(body))
		if err != nil {
			return
		}
		if q.Source == "" {
			t.Fatalf("validate() let an empty source through: %q", body)
		}
		// Decoded requests feed the pipeline; cap the source so fuzz
		// throughput stays on the decoder and parser, not the minimizer.
		if len(q.Source) > 4096 {
			return
		}
		s := fuzzServerInstance(t)
		// The full pipeline runs behind the handler (validate + BPEL
		// stages included); a weird but parseable process may
		// legitimately error — only panics and hangs are failures.
		out, _, err := s.runWeave(context.Background(), q, obs.NopSink{}, true)
		if err != nil {
			return
		}
		_ = buildWeaveResponse(out, "fuzz-000000")
	})
}
