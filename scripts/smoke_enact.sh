#!/usr/bin/env bash
# Two-process decentralized enactment smoke test: boot a coordinator
# and a peer dscweaverd, run the purchasing example decentralized
# across them ten times (one engine per partition, notes over
# POST /v1/transport/invoke), and assert every merged trace passes the
# global Definition 5 validation with the live cross-node message
# count matching the plan's prediction. With no fault injected, both
# daemons' /metrics must then show no retried frame
# (transport_retries_total) and no refused one
# (transport_invoke_refused_total): a frame that outruns the peer's
# registration of its run parks until the run registers.
#
# Phase 2 repeats the run through a chaos coordinator whose outgoing
# fabric is wrapped in a seeded network-fault plan (1.5s partition
# that heals inside the retry budget, plus two lost responses): the
# enactment must still complete with exact edge accounting, proving
# the recovery envelope without root or iptables.
#
#   scripts/smoke_enact.sh [coord_port] [peer_port] [chaos_port]
set -euo pipefail
cd "$(dirname "$0")/.."

coord_port="${1:-8431}"
peer_port="${2:-8432}"
chaos_port="${3:-8433}"
coord="http://127.0.0.1:${coord_port}"
peer="http://127.0.0.1:${peer_port}"
chaos="http://127.0.0.1:${chaos_port}"
tmp="$(mktemp -d)"
trap 'kill "$coord_pid" "$peer_pid" "$chaos_pid" 2>/dev/null || true; rm -rf "$tmp"' EXIT

go build -o "$tmp/dscweaverd" ./cmd/dscweaverd
"$tmp/dscweaverd" -addr "127.0.0.1:${coord_port}" &
coord_pid=$!
"$tmp/dscweaverd" -addr "127.0.0.1:${peer_port}" &
peer_pid=$!
"$tmp/dscweaverd" -addr "127.0.0.1:${chaos_port}" \
    -chaos-net '*>*:partition=1500ms;lose=2' -chaos-net-seed 7 &
chaos_pid=$!

for base in "$coord" "$peer" "$chaos"; do
    for _ in $(seq 1 50); do
        if curl -fsS "$base/healthz" >/dev/null 2>&1; then break; fi
        sleep 0.1
    done
    curl -fsS "$base/healthz" | grep -q '"ok"' || { echo "healthz never came up at $base"; exit 1; }
done

python3 - "$coord" "$peer" <<'PY'
import json, sys, urllib.request

coord, peer = sys.argv[1], sys.argv[2]
enacts = 10

def counter_sum(base, name):
    text = urllib.request.urlopen(base + "/metrics", timeout=10).read().decode()
    total = 0.0
    for line in text.splitlines():
        if line.startswith(name + "{") or line.startswith(name + " "):
            total += float(line.rsplit(None, 1)[-1])
    return total

body = json.dumps({
    "source": open("internal/dscl/testdata/purchasing.dscl").read(),
    "branches": {"if_au": "T"},
    "peers": [peer],
    "self_url": coord,
}).encode()
for _ in range(enacts):
    req = urllib.request.Request(coord + "/v1/enact", data=body,
                                 headers={"Content-Type": "application/json"})
    resp = json.load(urllib.request.urlopen(req, timeout=60))

    assert not resp.get("error"), f"enactment error: {resp['error']}"
    assert resp["valid"] is True, f"merged trace failed Def. 5 validation: {resp}"
    assert resp["edge_messages"] == resp["predicted_cross_edges"], (
        f"live edge messages {resp['edge_messages']} != "
        f"predicted {resp['predicted_cross_edges']}")
    assert resp["message_savings"] > 0, resp
    assert "set_oi" in resp.get("skipped", []), f"T branch did not skip set_oi: {resp}"
    assert len(resp["hosts"]) >= 3, f"placement not multi-host: {resp['hosts']}"

runs = json.load(urllib.request.urlopen(peer + "/v1/runs", timeout=10))
joined = [r for r in runs if r["kind"] == "enact_join" and r["status"] == "ok"]
assert len(joined) == enacts, f"peer tracked {len(joined)} successful enact_join runs, want {enacts}: {runs}"

parked = 0.0
for base in (coord, peer):
    for fam in ("transport_retries_total", "transport_invoke_refused_total"):
        v = counter_sum(base, fam)
        assert v == 0, f"{base}: {fam} = {v:g} after {enacts} fault-free enactments, want 0"
    parked += counter_sum(base, "transport_invoke_parked_total")

print(f"enact ok x{enacts}: {len(resp['executed'])} executed across {len(resp['hosts'])} hosts, "
      f"{resp['edge_messages']} edge msgs (= plan), "
      f"{resp['message_savings']} msgs saved vs centralized, valid={resp['valid']}; "
      f"0 retried and 0 refused frames, {parked:g} parked")
PY

# Phase 2: the same decentralized run through the chaos coordinator.
# Its outgoing note frames hit a 1.5s partition (healing well inside
# the retry budget) and lose two responses after delivery, forcing
# retransmits the peer must absorb exactly once.
python3 - "$chaos" "$peer" <<'PY'
import json, sys, urllib.request

chaos, peer = sys.argv[1], sys.argv[2]

def counter_sum(base, name):
    text = urllib.request.urlopen(base + "/metrics", timeout=10).read().decode()
    total = 0.0
    for line in text.splitlines():
        if line.startswith(name):
            total += float(line.rsplit(None, 1)[-1])
    return total

retransmits_before = counter_sum(peer, "transport_retransmit_total")

body = json.dumps({
    "source": open("internal/dscl/testdata/purchasing.dscl").read(),
    "branches": {"if_au": "T"},
    "peers": [peer],
    "self_url": chaos,
}).encode()
req = urllib.request.Request(chaos + "/v1/enact", data=body,
                             headers={"Content-Type": "application/json"})
resp = json.load(urllib.request.urlopen(req, timeout=60))

assert not resp.get("error"), f"chaos enactment error: {resp['error']}"
assert resp["valid"] is True, f"chaos merged trace failed Def. 5 validation: {resp}"
assert resp["edge_messages"] == resp["predicted_cross_edges"], (
    f"chaos run edge messages {resp['edge_messages']} != "
    f"predicted {resp['predicted_cross_edges']}")

retries = counter_sum(chaos, "transport_retries_total")
assert retries > 0, "partition healed but the coordinator never retried a frame"
retransmits = counter_sum(peer, "transport_retransmit_total") - retransmits_before
assert retransmits >= 1, "lost responses forced no retransmit at the peer"

print(f"chaos enact ok: survived a 1.5s partition + 2 lost responses, "
      f"{resp['edge_messages']} edge msgs (= plan), "
      f"{int(retries)} frame retries, {int(retransmits)} retransmits absorbed")
PY

for pid in "$coord_pid" "$peer_pid" "$chaos_pid"; do
    kill -TERM "$pid"
    for _ in $(seq 1 100); do
        kill -0 "$pid" 2>/dev/null || break
        sleep 0.1
    done
    if kill -0 "$pid" 2>/dev/null; then echo "a node did not drain"; exit 1; fi
done
echo "two-process enact smoke passed (clean + chaos phases)"
