#!/usr/bin/env bash
# Runs the minimizer benchmark sweep and writes BENCH_minimize.json:
# one record per BenchmarkMinimize row with the workload size, engine
# configuration (closure cache, verdict cache), ns/op,
# annotated-closure pair comparisons, closure-cache hits and the
# cross-run verdict-cache hit rate. Also runs the scheduler
# observability-overhead and no-fault retry-overhead benchmarks and
# writes BENCH_schedule.json with each one's off/on mean ns/op and
# median per-pair overhead percentage. Finally runs the dscweaverd
# weave-throughput benchmark and its compile-cache hit and miss rows
# and writes BENCH_server.json with their req/sec, bytes/op and
# allocs/op, the weave pipeline stage
# benchmark into BENCH_weave.json with the per-stage ns/op breakdown,
# and the soundness-kernel comparison into BENCH_soundness.json with
# one record per kernel/net pair. Each weave record also carries
# bytes/op and allocs/op. Each minimize, schedule, server, weave and
# soundness record is stamped with the host that produced it: nproc, the
# benchmark's GOMAXPROCS, the Go version and the commit (suffixed
# -dirty when the tree has local changes).
# dscweaverd's end-to-end load figures come from perfbench instead
# (bash perfbench/run.sh --workload serve-mixed ...).
#
#   scripts/bench.sh [minimize-output.json] [schedule-output.json] \
#                    [server-output.json] [weave-output.json] \
#                    [soundness-output.json]
#
# BENCHTIME (default 1x) is passed to -benchtime; set DSCW_BENCH_LARGE=1
# to include the n=4096 stretch rows (the n=1024 rows always run).
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_minimize.json}"
sched_out="${2:-BENCH_schedule.json}"
server_out="${3:-BENCH_server.json}"
weave_out="${4:-BENCH_weave.json}"
soundness_out="${5:-BENCH_soundness.json}"
benchtime="${BENCHTIME:-1x}"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

commit="$(git rev-parse HEAD)"
git diff --quiet HEAD -- || commit="$commit-dirty"
# Host stamp awk options; a record's GOMAXPROCS comes from its name,
# which go test suffixes with -GOMAXPROCS unless it is 1.
stamp=(-v nproc="$(nproc)" -v gover="$(go env GOVERSION)" -v commit="$commit")

go test -run '^$' -bench '^BenchmarkMinimize$' -benchtime "$benchtime" -timeout 0 . | tee "$raw"

awk "${stamp[@]}" '
/^BenchmarkMinimize\// {
    name = $1
    gomaxprocs = 1
    if (match(name, /-[0-9]+$/)) gomaxprocs = substr(name, RSTART + 1)
    sub(/-[0-9]+$/, "", name)
    n = 0; cache = "true"; vcache = "false"
    split(name, parts, "/")
    for (i in parts) {
        if (parts[i] ~ /^activities=/) { split(parts[i], kv, "="); n = kv[2] }
        if (parts[i] == "nocache")     { cache = "false" }
        if (parts[i] == "vcache")      { vcache = "true" }
    }
    ns = 0; pairs = 0; hits = 0; vrate = 0
    for (i = 3; i < NF; i += 2) {
        if ($(i+1) == "ns/op")         ns = $i
        if ($(i+1) == "pairs/op")      pairs = $i
        if ($(i+1) == "cachehits/op")  hits = $i
        if ($(i+1) == "vcachehits/op") vrate = $i
    }
    if (ns == 0) next
    rec = sprintf("  {\"name\": \"%s\", \"activities\": %d, \"cache\": %s, \"verdict_cache\": %s, \"ns_per_op\": %.0f, \"pair_comparisons\": %.0f, \"cache_hits\": %.0f, \"verdict_cache_hit_rate\": %.2f, \"nproc\": %d, \"gomaxprocs\": %d, \"go_version\": \"%s\", \"commit\": \"%s\"}",
                  name, n, cache, vcache, ns, pairs, hits, vrate, nproc, gomaxprocs, gover, commit)
    recs[++count] = rec
}
END {
    print "["
    for (i = 1; i <= count; i++) printf("%s%s\n", recs[i], i < count ? "," : "")
    print "]"
}
' "$raw" > "$out"

echo "wrote $out ($(grep -c '"name"' "$out") records)"

sched_raw="$(mktemp)"
trap 'rm -f "$raw" "$sched_raw"' EXIT

# Each overhead iteration times one off and one on engine run of about
# 0.5 ms each, and the overhead is the median of the per-pair ratios.
# At 5000 pairs three runs in a row of each benchmark agreed within 2
# percentage points on 2 cores.
go test -run '^$' -bench '^Benchmark(SchedulerObsOverhead|RetryOverhead)$' -benchtime 5000x -timeout 0 . | tee "$sched_raw"

awk "${stamp[@]}" '
/^Benchmark(SchedulerObsOverhead|RetryOverhead)[- \t]/ {
    name = $1
    gomaxprocs = 1
    if (match(name, /-[0-9]+$/)) gomaxprocs = substr(name, RSTART + 1)
    sub(/-[0-9]+$/, "", name)
    off = 0; on = 0; pct = ""
    for (i = 3; i < NF; i += 2) {
        if ($(i+1) == "off-ns/op")  off = $i
        if ($(i+1) == "on-ns/op")   on = $i
        if ($(i+1) == "overhead-%") pct = $i
    }
    if (name == "BenchmarkSchedulerObsOverhead") { obs_off = off; obs_on = on; obs_pct = pct }
    if (name == "BenchmarkRetryOverhead")        { retry_off = off; retry_on = on; retry_pct = pct }
}
END {
    if (obs_off == 0 || obs_on == 0 || obs_pct == "") { print "missing obs benchmark rows" > "/dev/stderr"; exit 1 }
    if (retry_off == 0 || retry_on == 0 || retry_pct == "") { print "missing retry benchmark rows" > "/dev/stderr"; exit 1 }
    printf("{\n  \"benchmark\": \"BenchmarkSchedulerObsOverhead\",\n")
    printf("  \"obs_off_ns_per_op\": %.0f,\n  \"obs_on_ns_per_op\": %.0f,\n", obs_off, obs_on)
    printf("  \"overhead_pct\": %.2f,\n  \"budget_pct\": 5,\n", obs_pct)
    printf("  \"retry_benchmark\": \"BenchmarkRetryOverhead\",\n")
    printf("  \"retry_off_ns_per_op\": %.0f,\n  \"retry_on_ns_per_op\": %.0f,\n", retry_off, retry_on)
    printf("  \"retry_overhead_pct\": %.2f,\n  \"retry_budget_pct\": 5,\n", retry_pct)
    printf("  \"nproc\": %d,\n  \"gomaxprocs\": %d,\n  \"go_version\": \"%s\",\n  \"commit\": \"%s\"\n}\n", nproc, gomaxprocs, gover, commit)
}
' "$sched_raw" > "$sched_out"

echo "wrote $sched_out (obs overhead $(grep -o '"overhead_pct": [0-9.-]*' "$sched_out" | cut -d' ' -f2)%, retry overhead $(grep -o '"retry_overhead_pct": [0-9.-]*' "$sched_out" | cut -d' ' -f2)%)"

server_raw="$(mktemp)"
trap 'rm -f "$raw" "$sched_raw" "$server_raw"' EXIT
server_benchtime="${SERVER_BENCHTIME:-10x}"

go test -run '^$' -bench '^BenchmarkServerWeave(Cache)?$' -benchtime "$server_benchtime" -benchmem -timeout 0 . | tee "$server_raw"

awk "${stamp[@]}" '
/^BenchmarkServerWeave(Cache\/(hit|miss))?(-[0-9]+)?[ \t]/ {
    name = $1
    gomaxprocs = 1
    if (match(name, /-[0-9]+$/)) gomaxprocs = substr(name, RSTART + 1)
    sub(/-[0-9]+$/, "", name)
    ns = 0; bytes = 0; allocs = 0
    for (i = 3; i < NF; i += 2) {
        if ($(i+1) == "ns/op") ns = $i
        if ($(i+1) == "B/op") bytes = $i
        if ($(i+1) == "allocs/op") allocs = $i
    }
    if (ns == 0) next
    recs[++count] = sprintf("  {\"name\": \"%s\", \"ns_per_op\": %.0f, \"req_per_sec\": %.1f, \"bytes_per_op\": %d, \"allocs_per_op\": %d, \"nproc\": %d, \"gomaxprocs\": %d, \"go_version\": \"%s\", \"commit\": \"%s\"}",
                            name, ns, 1e9 / ns, bytes, allocs, nproc, gomaxprocs, gover, commit)
}
END {
    if (count == 0) { print "missing server benchmark rows" > "/dev/stderr"; exit 1 }
    print "["
    for (i = 1; i <= count; i++) printf("%s%s\n", recs[i], i < count ? "," : "")
    print "]"
}
' "$server_raw" > "$server_out"

echo "wrote $server_out ($(grep -c '"name"' "$server_out") records)"

weave_raw="$(mktemp)"
trap 'rm -f "$raw" "$sched_raw" "$server_raw" "$weave_raw"' EXIT

# Each stage row is the mean of 20 weaves: a single weave's stage times
# spread by up to 2x between runs (the heavy validate stage read 12.6,
# 6.9 and 7.0 ms at 1x). The three rows together take under a second.
go test -run '^$' -bench 'BenchmarkWeavePipelineStages' -benchtime 20x -benchmem -timeout 0 . | tee "$weave_raw"

awk "${stamp[@]}" '
/^BenchmarkWeavePipelineStages\// {
    name = $1
    gomaxprocs = 1
    if (match(name, /-[0-9]+$/)) gomaxprocs = substr(name, RSTART + 1)
    sub(/-[0-9]+$/, "", name)
    ns = 0; bytes = 0; allocs = 0; nstages = 0
    delete stage; delete stagens
    for (i = 3; i < NF; i += 2) {
        if ($(i+1) == "ns/op") { ns = $i; continue }
        if ($(i+1) == "B/op") { bytes = $i; continue }
        if ($(i+1) == "allocs/op") { allocs = $i; continue }
        if ($(i+1) ~ /-ns\/op$/) {
            st = $(i+1)
            sub(/-ns\/op$/, "", st)
            stage[++nstages] = st
            stagens[st] = $i
        }
    }
    if (ns == 0) next
    rec = sprintf("  {\"name\": \"%s\", \"ns_per_op\": %.0f, \"bytes_per_op\": %.0f, \"allocs_per_op\": %.0f, \"stages\": {", name, ns, bytes, allocs)
    for (i = 1; i <= nstages; i++)
        rec = rec sprintf("%s\"%s\": %.0f", i > 1 ? ", " : "", stage[i], stagens[stage[i]])
    rec = rec sprintf("}, \"nproc\": %d, \"gomaxprocs\": %d, \"go_version\": \"%s\", \"commit\": \"%s\"}", nproc, gomaxprocs, gover, commit)
    recs[++count] = rec
}
END {
    if (count == 0) { print "missing weave benchmark rows" > "/dev/stderr"; exit 1 }
    print "["
    for (i = 1; i <= count; i++) printf("%s%s\n", recs[i], i < count ? "," : "")
    print "]"
}
' "$weave_raw" > "$weave_out"

echo "wrote $weave_out ($(grep -c '"name"' "$weave_out") records)"

soundness_raw="$(mktemp)"
trap 'rm -f "$raw" "$sched_raw" "$server_raw" "$weave_raw" "$soundness_raw"' EXIT
soundness_benchtime="${SOUNDNESS_BENCHTIME:-10x}"

go test -run '^$' -bench 'BenchmarkSoundness' -benchtime "$soundness_benchtime" -timeout 0 . | tee "$soundness_raw"

awk "${stamp[@]}" '
/^BenchmarkSoundness\// {
    name = $1
    gomaxprocs = 1
    if (match(name, /-[0-9]+$/)) gomaxprocs = substr(name, RSTART + 1)
    sub(/-[0-9]+$/, "", name)
    split(name, parts, "/")
    net = parts[2]; kernel = parts[3]
    ns = 0; bytes = 0; allocs = 0
    for (i = 3; i < NF; i += 2) {
        if ($(i+1) == "ns/op")     ns = $i
        if ($(i+1) == "B/op")      bytes = $i
        if ($(i+1) == "allocs/op") allocs = $i
    }
    if (ns == 0) next
    recs[++count] = sprintf("  {\"name\": \"%s\", \"net\": \"%s\", \"kernel\": \"%s\", \"ns_per_op\": %.0f, \"bytes_per_op\": %.0f, \"allocs_per_op\": %.0f, \"nproc\": %d, \"gomaxprocs\": %d, \"go_version\": \"%s\", \"commit\": \"%s\"}",
                            name, net, kernel, ns, bytes, allocs, nproc, gomaxprocs, gover, commit)
}
END {
    if (count == 0) { print "missing soundness benchmark rows" > "/dev/stderr"; exit 1 }
    print "["
    for (i = 1; i <= count; i++) printf("%s%s\n", recs[i], i < count ? "," : "")
    print "]"
}
' "$soundness_raw" > "$soundness_out"

echo "wrote $soundness_out ($(grep -c '"name"' "$soundness_out") records)"
