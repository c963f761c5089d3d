#!/usr/bin/env bash
# The two selection paths print the same bytes, exactly as CI runs it.
#
# A comparison of the ranked column with a number selects a ranked range
# of the table's shared view; the same cut spelled with NOT
# (`score >= x` as `NOT score < x`, `score = x` as `NOT score != x`)
# runs the predicate once per tuple. For all five operators in both
# directions (a DESC `<=` is a suffix of the ranking, an ASC one a
# prefix), each spelling runs as a PT-k statement, under the four other
# RANK BY semantics, and as a two-statement batch, and `ptk sql` must
# print the same bytes for both.
#
# Usage: scripts/spelling_parity.sh [path-to-ptk-binary]
set -euo pipefail

PTK="${1:-./target/release/ptk}"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
CSV="$WORK/data.csv"

"$PTK" generate synthetic --tuples 2000 --rules 200 --seed 13 > "$CSV"

sql() {
  "$PTK" sql "$CSV" "$1"
}

# Guard: the two spellings really take the two paths.
sql 'EXPLAIN SELECT TOP 10 FROM t WHERE score >= 1500 ORDER BY score DESC' \
  | grep -q 'Selection::new (ranked range of the shared view)'
sql 'EXPLAIN SELECT TOP 10 FROM t WHERE NOT score < 1500 ORDER BY score DESC' \
  | grep -q 'Selection::new (predicate over the shared ranked view)'

checked=0
for dir in DESC ASC; do
  for pair in '>= 1500|NOT score < 1500' '> 1500|NOT score <= 1500' \
    '<= 500|NOT score > 500' '< 500|NOT score >= 500' '= 1000|NOT score != 1000'; do
    range="score ${pair%%|*}"
    spelled="${pair#*|}"
    for tail in 'WITH PROBABILITY >= 0.3' 'RANK BY U_TOPK' 'RANK BY U_KRANKS' \
      'RANK BY GLOBAL_TOPK' 'RANK BY EXPECTED_RANK'; do
      sql "SELECT TOP 10 FROM t WHERE $range ORDER BY score $dir $tail" > "$WORK/range"
      sql "SELECT TOP 10 FROM t WHERE $spelled ORDER BY score $dir $tail" > "$WORK/pass"
      cmp "$WORK/range" "$WORK/pass" || { echo "FAIL: $range vs $spelled, $dir $tail" >&2; exit 1; }
      checked=$((checked + 1))
    done
    batch() {
      echo "SELECT TOP 5 FROM t WHERE $1 ORDER BY score $dir WITH PROBABILITY >= 0.2; \
SELECT TOP 20 FROM t WHERE $1 ORDER BY score $dir WITH PROBABILITY >= 0.4"
    }
    sql "$(batch "$range")" > "$WORK/range"
    sql "$(batch "$spelled")" > "$WORK/pass"
    cmp "$WORK/range" "$WORK/pass" || { echo "FAIL: batch $range vs $spelled, $dir" >&2; exit 1; }
    checked=$((checked + 1))
  done
done
echo "spelling parity: OK ($checked statement pairs)"
