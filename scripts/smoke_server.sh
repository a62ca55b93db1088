#!/usr/bin/env bash
# End-to-end smoke test for dscweaverd: build the daemon, start it on a
# free port with a run store, weave the purchasing example over HTTP,
# assert the minimal set is sound and smaller than the input, scrape
# /metrics for the pipeline's families, then shut the server down
# gracefully (SIGTERM) and check it drained. A second daemon on the
# same store directory must still list both runs as finished and
# replay the weave's events: the run history survives the process.
#
#   scripts/smoke_server.sh [port]
set -euo pipefail
cd "$(dirname "$0")/.."

port="${1:-8427}"
base="http://127.0.0.1:${port}"
tmp="$(mktemp -d)"
pid=""
trap 'if [ -n "$pid" ]; then kill "$pid" 2>/dev/null || true; fi; rm -rf "$tmp"' EXIT

go build -o "$tmp/dscweaverd" ./cmd/dscweaverd

start() {
    "$tmp/dscweaverd" -addr "127.0.0.1:${port}" -store-dir "$tmp/store" &
    pid=$!
    for _ in $(seq 1 50); do
        if curl -fsS "$base/healthz" >/dev/null 2>&1; then break; fi
        sleep 0.1
    done
    curl -fsS "$base/healthz" | grep -q '"ok"' || { echo "healthz never came up"; exit 1; }
}

drain() {
    kill -TERM "$pid"
    for _ in $(seq 1 100); do
        kill -0 "$pid" 2>/dev/null || break
        sleep 0.1
    done
    if kill -0 "$pid" 2>/dev/null; then echo "server did not drain"; exit 1; fi
    wait "$pid" || { echo "server exited nonzero after drain"; exit 1; }
    pid=""
}

start

# Weave the paper's running example through the JSON envelope.
python3 - "$base" "$tmp/weave_id" <<'PY'
import json, sys, urllib.request

base = sys.argv[1]
body = json.dumps({
    "source": open("internal/dscl/testdata/purchasing.dscl").read(),
    "bpel": True,
}).encode()
req = urllib.request.Request(base + "/v1/weave", data=body,
                             headers={"Content-Type": "application/json"})
resp = json.load(urllib.request.urlopen(req, timeout=30))
open(sys.argv[2], "w").write(resp["run_id"])
assert resp["process"] == "Purchasing", resp
assert resp["sound"] is True, f"minimal set not sound: {resp}"
assert resp["minimal_constraints"] < resp["translated_constraints"], resp
assert "<process" in resp["bpel"], resp
print(f"weave ok: {resp['translated_constraints']} -> "
      f"{resp['minimal_constraints']} constraints, sound={resp['sound']}")

body = json.dumps({
    "source": open("internal/dscl/testdata/purchasing.dscl").read(),
    "branches": {"if_au": "T"},
}).encode()
req = urllib.request.Request(base + "/v1/simulate", data=body,
                             headers={"Content-Type": "application/json"})
resp = json.load(urllib.request.urlopen(req, timeout=30))
assert resp["valid"] is True, f"simulation invalid: {resp}"
assert "replyClient_oi" in resp["executed"], resp
print(f"simulate ok: {len(resp['executed'])} activities, "
      f"max_parallel={resp['max_parallel']}")
PY

metrics="$(curl -fsS "$base/metrics")"
for fam in minimize_runs_total schedule_runs_total bus_invocations_total server_requests_total; do
    grep -q "$fam" <<<"$metrics" || { echo "metrics missing $fam"; exit 1; }
done
echo "metrics ok"

drain
echo "drain ok"

# Restart on the same store: the drained runs are history now.
start
weave_id="$(cat "$tmp/weave_id")"
python3 - "$base" "$weave_id" <<'PY'
import json, sys, urllib.request

base, weave_id = sys.argv[1], sys.argv[2]
runs = json.load(urllib.request.urlopen(base + "/v1/runs", timeout=30))
status = {r["kind"]: r["status"] for r in runs}
assert status == {"weave": "ok", "simulate": "ok"}, f"restarted daemon lists {runs}"
events = urllib.request.urlopen(f"{base}/v1/runs/{weave_id}/events", timeout=30).read().decode()
lines = [l for l in events.split("\n") if l]
assert lines, f"run {weave_id} replays no events after restart"
for l in lines:
    json.loads(l)
print(f"restart ok: {len(runs)} runs listed, {weave_id} replays {len(lines)} events")
PY
drain
echo "dscweaverd smoke passed"
