package server_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"

	"dscweaver/internal/core"
	"dscweaver/internal/dscl"
	"dscweaver/internal/obs"
	"dscweaver/internal/server"
	"dscweaver/internal/workload"
)

func newEnactServer(t *testing.T) (*httptest.Server, *server.Server) {
	t.Helper()
	s, err := server.New(server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts, s
}

func checkEnactResponse(t *testing.T, er *server.EnactResponse, raw string) {
	t.Helper()
	if er.Error != "" {
		t.Fatalf("enactment error: %s", er.Error)
	}
	if !er.Valid {
		t.Fatalf("merged trace did not validate: %s", raw)
	}
	if er.EdgeMessages != er.PredictedCrossEdges {
		t.Errorf("sent %d edge messages, plan predicts %d", er.EdgeMessages, er.PredictedCrossEdges)
	}
	if er.MessageSavings <= 0 {
		t.Errorf("MessageSavings = %d, want > 0 for purchasing", er.MessageSavings)
	}
	skipped := false
	for _, id := range er.Skipped {
		if id == "set_oi" {
			skipped = true
		}
	}
	if !skipped {
		t.Errorf("set_oi not skipped on the T branch: executed=%v skipped=%v", er.Executed, er.Skipped)
	}
}

// TestEnactInProcess runs the purchasing process decentralized inside
// one server: one engine per partition over the in-process fabric.
// The merged trace must pass global Def. 5 validation and the live
// message count must equal the plan's prediction.
func TestEnactInProcess(t *testing.T) {
	ts, _ := newEnactServer(t)
	req := server.EnactRequest{
		SimulateRequest: server.SimulateRequest{
			WeaveRequest: server.WeaveRequest{Source: purchasingSource(t)},
			Branches:     map[string]string{"if_au": "T"},
		},
	}
	var er server.EnactResponse
	code, raw := postJSON(t, ts.URL+"/v1/enact", req, &er)
	if code != http.StatusOK {
		t.Fatalf("enact: %d %s", code, raw)
	}
	checkEnactResponse(t, &er, raw)
	if len(er.Hosts) < 3 {
		t.Errorf("placement not multi-host: %v", er.Hosts)
	}
	if len(er.Partition) == 0 || er.Trace == nil {
		t.Errorf("response missing partition or trace: %s", raw)
	}
}

// TestEnactNodesFold caps the partition at two hosts; the extra
// service hosts fold into the coordinator and the message economics
// still hold.
func TestEnactNodesFold(t *testing.T) {
	ts, _ := newEnactServer(t)
	req := server.EnactRequest{
		SimulateRequest: server.SimulateRequest{
			WeaveRequest: server.WeaveRequest{Source: purchasingSource(t)},
			Branches:     map[string]string{"if_au": "T"},
		},
		Nodes: 2,
	}
	var er server.EnactResponse
	code, raw := postJSON(t, ts.URL+"/v1/enact", req, &er)
	if code != http.StatusOK {
		t.Fatalf("enact: %d %s", code, raw)
	}
	checkEnactResponse(t, &er, raw)
	if len(er.Hosts) != 2 {
		t.Errorf("folded placement has hosts %v, want 2", er.Hosts)
	}
}

// TestEnactTwoProcesses is the full multi-process path: a coordinator
// and one peer dscweaverd, partitions split round-robin, notes carried
// over POST /v1/transport/invoke, peer joined via POST /v1/enact/join.
// The coordinator's merged trace must be Def.-5-valid and
// observationally identical to the in-process run.
func TestEnactTwoProcesses(t *testing.T) {
	coord, _ := newEnactServer(t)
	peer, peerSrv := newEnactServer(t)

	req := server.EnactRequest{
		SimulateRequest: server.SimulateRequest{
			WeaveRequest: server.WeaveRequest{Source: purchasingSource(t)},
			Branches:     map[string]string{"if_au": "T"},
		},
		Peers:   []string{peer.URL},
		SelfURL: coord.URL,
	}
	var er server.EnactResponse
	code, raw := postJSON(t, coord.URL+"/v1/enact", req, &er)
	if code != http.StatusOK {
		t.Fatalf("enact: %d %s", code, raw)
	}
	checkEnactResponse(t, &er, raw)

	// Same observable outcome as the in-process run.
	var local server.EnactResponse
	single := req
	single.Peers, single.SelfURL = nil, ""
	code, raw = postJSON(t, coord.URL+"/v1/enact", single, &local)
	if code != http.StatusOK {
		t.Fatalf("in-process enact: %d %s", code, raw)
	}
	sort.Strings(er.Executed)
	sort.Strings(local.Executed)
	if len(er.Executed) != len(local.Executed) {
		t.Fatalf("executed sets differ: %v vs %v", er.Executed, local.Executed)
	}
	for i := range er.Executed {
		if er.Executed[i] != local.Executed[i] {
			t.Fatalf("executed sets differ: %v vs %v", er.Executed, local.Executed)
		}
	}

	// The peer really participated: it tracked an enact_join run.
	joined := false
	for _, rs := range listRuns(t, peer.URL) {
		if rs.Kind == "enact_join" && rs.Status == "ok" {
			joined = true
		}
	}
	if !joined {
		t.Error("peer has no successful enact_join run")
	}
	_ = peerSrv
}

func listRuns(t *testing.T, base string) []server.RunSummary {
	t.Helper()
	code, raw := getBody(t, base+"/v1/runs")
	if code != http.StatusOK {
		t.Fatalf("runs: %d %s", code, raw)
	}
	var out []server.RunSummary
	if err := json.Unmarshal([]byte(raw), &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestEnactFabricToken guards the shared-secret surface: two processes
// agreeing on a fabric token enact normally; a coordinator holding the
// wrong secret is refused at the peer's join endpoint with a fast
// in-band error — no retry storm, no partial run left behind.
func TestEnactFabricToken(t *testing.T) {
	newTokenServer := func(token string) *httptest.Server {
		s, err := server.New(server.Config{FabricToken: token})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(func() {
			ts.Close()
			s.Shutdown()
		})
		return ts
	}
	coord := newTokenServer("s3cret")
	peer := newTokenServer("s3cret")

	req := server.EnactRequest{
		SimulateRequest: server.SimulateRequest{
			WeaveRequest: server.WeaveRequest{Source: purchasingSource(t)},
			Branches:     map[string]string{"if_au": "T"},
		},
		Peers:   []string{peer.URL},
		SelfURL: coord.URL,
	}
	var er server.EnactResponse
	code, raw := postJSON(t, coord.URL+"/v1/enact", req, &er)
	if code != http.StatusOK {
		t.Fatalf("enact with matching tokens: %d %s", code, raw)
	}
	checkEnactResponse(t, &er, raw)

	strayPeer := newTokenServer("different")
	req.Peers = []string{strayPeer.URL}
	var bad server.EnactResponse
	code, raw = postJSON(t, coord.URL+"/v1/enact", req, &bad)
	if code != http.StatusOK {
		t.Fatalf("enact transport: %d %s", code, raw)
	}
	if bad.Error == "" {
		t.Fatalf("token mismatch enacted cleanly: %s", raw)
	}
	if !strings.Contains(bad.Error, "bearer token") {
		t.Errorf("mismatch error does not name the token refusal: %s", bad.Error)
	}
}

// TestEnactRejectsBadMembership: membership a coordinator cannot enact
// fails at decode with a 400 that names the problem — not a late
// in-band error after a weave and a fabric retry budget.
func TestEnactRejectsBadMembership(t *testing.T) {
	coord, _ := newEnactServer(t)
	peer, _ := newEnactServer(t)
	cases := []struct {
		name  string
		self  string
		peers []string
		want  string
	}{
		{"scheme-less-self-url", strings.TrimPrefix(coord.URL, "http://"), []string{peer.URL}, "self_url"},
		{"repeated-peer", coord.URL, []string{peer.URL, peer.URL}, "listed twice"},
		{"self-url-as-peer", coord.URL, []string{coord.URL}, "is self_url"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := server.EnactRequest{
				SimulateRequest: server.SimulateRequest{
					WeaveRequest: server.WeaveRequest{Source: purchasingSource(t)},
				},
				Peers:   tc.peers,
				SelfURL: tc.self,
			}
			code, raw := postJSON(t, coord.URL+"/v1/enact", req, nil)
			if code != http.StatusBadRequest {
				t.Fatalf("enact: %d %s, want 400", code, raw)
			}
			if !strings.Contains(raw, tc.want) {
				t.Errorf("error = %s, want it to name %q", raw, tc.want)
			}
		})
	}
}

// counterSum sums every sample of one counter family in reg.
func counterSum(t *testing.T, reg *obs.Registry, name string) float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.HasPrefix(line, name+"{") && !strings.HasPrefix(line, name+" ") {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("metric line %q: %v", line, err)
		}
		total += v
	}
	return total
}

// TestEnactTwoProcessesNoWarmupRetries: fault-free two-process
// enactment sends exactly one frame per note. Frames that outrun the
// peer's registration of their run or receiver park until it happens,
// so across many enactments of layered 8x4 processes with 3 services
// neither server retries a frame or refuses one — and the parked
// counter shows the race was really run into.
func TestEnactTwoProcessesNoWarmupRetries(t *testing.T) {
	const enacts = 50
	coord, coordSrv := newEnactServer(t)
	peer, peerSrv := newEnactServer(t)

	var sources []string
	for seed := int64(1); seed <= 8; seed++ {
		w := workload.Layered(8, 4, 0.3, seed).WithShortcuts(4).WithServices(3)
		sources = append(sources, dscl.PrintDocument(&dscl.Document{Proc: w.Proc, Deps: w.Deps, Extra: core.NewConstraintSet(w.Proc)}))
	}
	for i := 0; i < enacts; i++ {
		req := server.EnactRequest{
			SimulateRequest: server.SimulateRequest{WeaveRequest: server.WeaveRequest{Source: sources[i%len(sources)]}},
			Peers:           []string{peer.URL},
			SelfURL:         coord.URL,
		}
		var er server.EnactResponse
		code, raw := postJSON(t, coord.URL+"/v1/enact", req, &er)
		if code != http.StatusOK {
			t.Fatalf("enact %d: %d %s", i, code, raw)
		}
		if er.Error != "" || !er.Valid {
			t.Fatalf("enact %d: valid=%v error=%q", i, er.Valid, er.Error)
		}
		if er.EdgeMessages != er.PredictedCrossEdges {
			t.Errorf("enact %d: sent %d edge messages, plan predicts %d", i, er.EdgeMessages, er.PredictedCrossEdges)
		}
	}

	parkedTotal := 0.0
	for _, srv := range []struct {
		name string
		reg  *obs.Registry
	}{{"coordinator", coordSrv.Registry()}, {"peer", peerSrv.Registry()}} {
		for _, fam := range []string{"transport_retries_total", "transport_invoke_refused_total"} {
			if v := counterSum(t, srv.reg, fam); v != 0 {
				t.Errorf("%s: %s = %v over %d fault-free enactments, want 0", srv.name, fam, v, enacts)
			}
		}
		parkedTotal += counterSum(t, srv.reg, "transport_invoke_parked_total")
	}
	if parkedTotal == 0 {
		t.Errorf("no frame parked over %d enactments: the registration race was never run into", enacts)
	}
	t.Logf("%d enactments, %v frames parked", enacts, parkedTotal)
}
