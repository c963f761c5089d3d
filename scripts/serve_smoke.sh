#!/usr/bin/env bash
# Smoke test for the `ptk serve` daemon, exactly as CI runs it:
# start the daemon on a generated dataset, run real queries, sweep
# malformed inputs (bad thresholds, k = 0, garbage SQL, a truncated
# request, a WHERE nested past the depth limit, a Content-Length past the
# request cap), scrape /metrics, and shut down cleanly — asserting the
# process stays up with structured errors throughout.
#
# Usage: scripts/serve_smoke.sh [path-to-ptk-binary]
set -euo pipefail

PTK="${1:-./target/release/ptk}"
WORK="$(mktemp -d)"
READY="$WORK/ready"
CSV="$WORK/data.csv"
SERVER_LOG="$WORK/server.log"
SERVER_PID=""

cleanup() {
  if [[ -n "$SERVER_PID" ]] && kill -0 "$SERVER_PID" 2>/dev/null; then
    kill "$SERVER_PID" 2>/dev/null || true
  fi
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
  echo "FAIL: $*" >&2
  echo "--- server log ---" >&2
  cat "$SERVER_LOG" >&2 || true
  exit 1
}

echo "== generate dataset"
"$PTK" generate synthetic --tuples 400 --rules 50 --seed 7 > "$CSV"

echo "== start daemon"
"$PTK" serve "$CSV" --addr 127.0.0.1:0 --threads 2 --ready-file "$READY" \
  > "$SERVER_LOG" 2>&1 &
SERVER_PID=$!

for _ in $(seq 1 100); do
  [[ -s "$READY" ]] && break
  kill -0 "$SERVER_PID" 2>/dev/null || fail "daemon died before becoming ready"
  sleep 0.1
done
[[ -s "$READY" ]] || fail "daemon never wrote the ready file"
ADDR="$(cat "$READY")"
echo "   daemon at $ADDR (pid $SERVER_PID)"

post_sql() {
  curl -sS -o "$WORK/body" -w '%{http_code}' --data-binary "$1" "http://$ADDR/sql"
}

assert_up() {
  kill -0 "$SERVER_PID" 2>/dev/null || fail "daemon is no longer running ($1)"
}

echo "== good queries"
STMT='SELECT TOP 10 FROM t ORDER BY score DESC WITH PROBABILITY >= 0.3'
code="$(post_sql "$STMT")"
[[ "$code" == 200 ]] || fail "good query returned $code: $(cat "$WORK/body")"
grep -q "pass Pr" "$WORK/body" || fail "unexpected answer body: $(cat "$WORK/body")"
cp "$WORK/body" "$WORK/first"

# Served bytes must equal one-shot CLI output for the same statement.
"$PTK" sql "$CSV" "$STMT" > "$WORK/oneshot"
cmp "$WORK/first" "$WORK/oneshot" || fail "served body differs from one-shot ptk sql output"

# Identical repeat: the daemon must flag a cache hit and serve the
# identical bytes.
hit_header="$(curl -sS -D - -o "$WORK/body" --data-binary "$STMT" "http://$ADDR/sql" \
  | tr -d '\r' | grep -i '^x-ptk-cache:')"
[[ "$hit_header" == *hit* ]] || fail "expected a cache hit, got: $hit_header"
cmp "$WORK/body" "$WORK/first" || fail "cache hit served different bytes"

# A batch statement and a stats surface.
code="$(post_sql "$STMT; SELECT TOP 5 FROM t ORDER BY score DESC WITH PROBABILITY >= 0.5")"
[[ "$code" == 200 ]] || fail "batch returned $code: $(cat "$WORK/body")"
code="$(curl -sS -o "$WORK/body" -w '%{http_code}' --data-binary "$STMT" "http://$ADDR/sql?stats=json")"
[[ "$code" == 200 ]] || fail "stats surface returned $code"
grep -q '"engine.scanned"' "$WORK/body" || fail "stats body missing counters: $(cat "$WORK/body")"
assert_up "good queries"

echo "== U-TopK at any k"
# The most probable vector is a closed form over the ranks read, so a k
# past the table's size answers in bounded memory, served bytes equal the
# one-shot output, and the daemon answers the next request.
for k in 20 1000000000; do
  UT="SELECT TOP $k FROM t ORDER BY score DESC RANK BY U_TOPK"
  code="$(post_sql "$UT")"
  [[ "$code" == 200 ]] || fail "U-TopK TOP $k returned $code: $(cat "$WORK/body")"
  "$PTK" sql "$CSV" "$UT" > "$WORK/oneshot"
  cmp "$WORK/body" "$WORK/oneshot" || fail "served U-TopK TOP $k differs from one-shot ptk sql"
  assert_up "U-TopK TOP $k"
  code="$(post_sql "$STMT")"
  [[ "$code" == 200 ]] || fail "the request after U-TopK TOP $k returned $code"
  cmp "$WORK/body" "$WORK/first" || fail "the request after U-TopK TOP $k answered differently"
done

echo "== cacheability"
# The X-Ptk-Cache disposition of one request; $2 is an optional query string.
cache_of() {
  curl -sS -D - -o "$WORK/body" --data-binary "$1" "http://$ADDR/sql${2:-}" \
    | tr -d '\r' | grep -i '^x-ptk-cache:' | cut -d' ' -f2 || true
}
# EXPLAIN ANALYZE prints the run's timings, so it is never cached.
ANALYZE="EXPLAIN ANALYZE $STMT"
for attempt in 1 2; do
  state="$(cache_of "$ANALYZE")"
  [[ "$state" == uncacheable ]] || fail "EXPLAIN ANALYZE attempt $attempt was '$state'"
done
# A ?stats= request leaves nothing in the cache for the plain request.
FRESH='SELECT TOP 7 FROM t ORDER BY score DESC WITH PROBABILITY >= 0.25'
state="$(cache_of "$FRESH" '?stats=json')"
[[ "$state" == uncacheable ]] || fail "?stats=json request was '$state'"
state="$(cache_of "$FRESH")"
[[ "$state" == miss ]] || fail "plain request after ?stats=json was '$state', not a miss"
assert_up "cacheability"

echo "== malformed sweep"
for bad in \
  'SELECT TOP 10 FROM t ORDER BY score DESC WITH PROBABILITY >= 0' \
  'SELECT TOP 10 FROM t ORDER BY score DESC WITH PROBABILITY >= 1.5' \
  'SELECT TOP 10 FROM t ORDER BY score DESC WITH PROBABILITY >= NaN' \
  'SELECT TOP 0 FROM t ORDER BY score DESC WITH PROBABILITY >= 0.5' \
  'complete garbage' \
  ''; do
  code="$(post_sql "$bad")"
  [[ "$code" == 400 ]] || fail "malformed '$bad' returned $code"
  grep -q '"error":{"code":"query"' "$WORK/body" \
    || fail "no structured error for '$bad': $(cat "$WORK/body")"
  assert_up "malformed '$bad'"
done

# Truncated request: promise 50 body bytes, send 5, hang up.
printf 'POST /sql HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort' \
  | timeout 10 curl -sS -o /dev/null telnet://"$ADDR" 2>/dev/null || true
assert_up "truncated request"

# A WHERE nested past the parser's depth limit is a query error, not a
# stack overflow that aborts the daemon: 4,000 parentheses, and a
# 5,300-term AND chain just under the 64 KiB request cap.
open="$(printf '(%.0s' $(seq 4000))"
close="$(printf ')%.0s' $(seq 4000))"
chain="$(printf 'score=1 AND %.0s' $(seq 5299))score=1"
for where in "${open}score = 1${close}" "$chain"; do
  code="$(post_sql "SELECT TOP 5 FROM t WHERE $where ORDER BY score DESC")"
  [[ "$code" == 400 ]] || fail "deep WHERE (${#where} bytes) returned $code"
  grep -q '"error":{"code":"query"' "$WORK/body" \
    || fail "no structured error for a deep WHERE: $(cat "$WORK/body")"
  grep -q 'nested deeper than 128 levels' "$WORK/body" \
    || fail "deep WHERE error does not name the limit: $(cat "$WORK/body")"
  assert_up "deep WHERE (${#where} bytes)"
done

# A Content-Length that would wrap the cap check is refused at once.
response="$(printf 'POST /sql HTTP/1.1\r\nContent-Length: 18446744073709551615\r\n\r\nSELECT' \
  | timeout 10 curl -sS telnet://"$ADDR" 2>/dev/null || true)"
[[ "$response" == "HTTP/1.1 413 "* ]] || fail "lying Content-Length answered: ${response:0:80}"
assert_up "lying Content-Length"

# Wrong method and unknown path keep structured shapes.
code="$(curl -sS -o "$WORK/body" -w '%{http_code}' "http://$ADDR/sql")"
[[ "$code" == 405 ]] || fail "GET /sql returned $code"
code="$(curl -sS -o "$WORK/body" -w '%{http_code}' "http://$ADDR/nope")"
[[ "$code" == 404 ]] || fail "GET /nope returned $code"
assert_up "routing errors"

echo "== debug endpoints"
curl -sS "http://$ADDR/debug/queries" > "$WORK/flights"
head -c1 "$WORK/flights" | grep -q '\[' || fail "/debug/queries is not a JSON array"
grep -q '"outcome":"ok"' "$WORK/flights" || fail "no ok flight record: $(cat "$WORK/flights")"
grep -q '"outcome":"query_error"' "$WORK/flights" \
  || fail "malformed sweep left no query_error records"
grep -q '"cache":"hit"' "$WORK/flights" || fail "cache hit left no flight record"
grep -q '"plan":"' "$WORK/flights" || fail "flight records carry no plan"
grep -q 'nanos' "$WORK/flights" && fail "/debug/queries leaked wall-clock timings"
curl -sS "http://$ADDR/debug/pool" > "$WORK/pool"
grep -q '"threads":2' "$WORK/pool" || fail "/debug/pool missing threads: $(cat "$WORK/pool")"
grep -q '"flight_capacity"' "$WORK/pool" || fail "/debug/pool missing flight_capacity"
curl -sS "http://$ADDR/debug/config" > "$WORK/config"
grep -q '"slow_ms":null' "$WORK/config" || fail "/debug/config missing slow_ms: $(cat "$WORK/config")"
assert_up "debug endpoints"

echo "== metrics scrape"
curl -sS "http://$ADDR/metrics" > "$WORK/metrics"
for metric in ptk_serve_requests ptk_serve_query_errors ptk_serve_cache_hits \
  ptk_serve_latency_ms_p50 ptk_serve_latency_ms_p95 ptk_serve_latency_ms_p99 \
  ptk_serve_latency_ms_max; do
  grep -q "^$metric " "$WORK/metrics" || fail "/metrics missing $metric"
done
grep -q '^# HELP ptk_serve_latency_ms ' "$WORK/metrics" \
  || fail "/metrics missing the latency HELP line"
grep -q '^ptk_serve_panics' "$WORK/metrics" && fail "daemon recorded panics"

echo "== slow-query log"
# A second daemon with a 1 ms threshold over a larger dataset, unpruned,
# so the full-scan DP reliably crosses the threshold and the slow log
# must fire — carrying the flight record (with its plan) for the query.
CSV_BIG="$WORK/big.csv"
READY2="$WORK/ready2"
SLOW_LOG="$WORK/slow.log"
"$PTK" generate synthetic --tuples 30000 --rules 3000 --seed 9 > "$CSV_BIG"
"$PTK" serve "$CSV_BIG" --addr 127.0.0.1:0 --threads 1 --no-prune --slow-ms 1 \
  --ready-file "$READY2" > "$SLOW_LOG" 2>&1 &
SLOW_PID=$!
for _ in $(seq 1 100); do
  [[ -s "$READY2" ]] && break
  kill -0 "$SLOW_PID" 2>/dev/null || { cat "$SLOW_LOG" >&2; fail "slow daemon died before ready"; }
  sleep 0.1
done
[[ -s "$READY2" ]] || fail "slow daemon never wrote the ready file"
ADDR2="$(cat "$READY2")"
code="$(curl -sS -o "$WORK/body" -w '%{http_code}' \
  --data-binary 'SELECT TOP 50 FROM t ORDER BY score DESC WITH PROBABILITY >= 0.3' \
  "http://$ADDR2/sql")"
[[ "$code" == 200 ]] || fail "slow daemon query returned $code: $(cat "$WORK/body")"
curl -sS "http://$ADDR2/debug/config" | grep -q '"slow_ms":1' \
  || fail "slow daemon /debug/config does not show slow_ms 1"
curl -sS -o /dev/null -X POST "http://$ADDR2/shutdown"
for _ in $(seq 1 100); do
  kill -0 "$SLOW_PID" 2>/dev/null || break
  sleep 0.1
done
grep -q "slow query" "$SLOW_LOG" || { cat "$SLOW_LOG" >&2; fail "slow-query log never fired"; }
grep -q '"plan":"' "$SLOW_LOG" || fail "slow-query log entry carries no plan"
grep -q '"total_nanos":' "$SLOW_LOG" || fail "slow-query log entry carries no timings"

echo "== clean shutdown"
code="$(curl -sS -o "$WORK/body" -w '%{http_code}' -X POST "http://$ADDR/shutdown")"
[[ "$code" == 200 ]] || fail "shutdown returned $code"
for _ in $(seq 1 100); do
  kill -0 "$SERVER_PID" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$SERVER_PID" 2>/dev/null; then
  fail "daemon did not exit after /shutdown"
fi
wait "$SERVER_PID" || fail "daemon exited non-zero"
SERVER_PID=""
grep -q "shutdown complete" "$SERVER_LOG" || fail "missing shutdown message in log"
grep -qiE "panic" "$SERVER_LOG" && fail "panic in server log"

echo "serve smoke: OK"
