#!/usr/bin/env bash
# Hostile CSV input through `ptk query` and `ptk sql`, exactly as CI runs it.
#
# Each file of the corpus but the first (a valid table) carries one fault
# the loader must report as a clean error: broken quoting, a wrong field
# count, a missing `prob` column, an empty or header-only file, bad or
# out-of-range probabilities, an overfull rule, invalid UTF-8, NUL bytes,
# a 1 MB line, and a syntax error after a bad probability (the syntax
# error wins). Three more files probe the edges of the table's flat row
# store through `inspect` and `sql`: no data column at all, quoted text
# beside empty (null) cells under a WHERE on an unranked column, and a
# short row after valid multi-column rows. Four more go through `query`
# and `sql` after those, each at an edge of the loader's line scanner or
# its trimming: a line of only no-break spaces (U+00A0) between rows,
# which is blank; a probability and a rule label padded with them; a `"`
# after a line's second comma; and line breaks that are a bare `\r` each,
# so the text is one line. Every run's stdout, stderr and
# exit code must match the golden transcript next to this script byte
# for byte, and no run may panic (exit 101).
#
# Usage: scripts/csv_smoke.sh [path-to-ptk-binary] [transcript-out]
# With a second argument the transcript is written there instead of
# compared, to capture a new golden.
set -euo pipefail

PTK="$(realpath "${1:-./target/release/ptk}")"
GOLDEN="$(cd "$(dirname "$0")" && pwd)/csv_smoke.golden"
OUT="${2:+$(realpath -m "$2")}"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
# Errors name the file as given: relative names read the same everywhere.
cd "$WORK"

printf 'prob,rule,score\n0.5,a,3\n0.4,a,2\n0.9,,1\n' > valid.csv
printf 'prob,score\n0.5,"1\n' > unterminated_quote.csv
printf 'prob,score\n0.5,"1"x\n' > text_after_quote.csv
printf 'prob,score\n0.5\n' > arity.csv
printf 'p,score\n0.5,1\n' > missing_prob.csv
printf '' > empty.csv
printf 'prob,score\n' > header_only.csv
printf 'prob,score\nx,1\n' > prob_x.csv
printf 'prob,score\n0,1\n' > prob_zero.csv
printf 'prob,score\n1.5,1\n' > prob_above_one.csv
printf 'prob,score\nNaN,1\n' > prob_nan.csv
printf 'prob,rule,score\n0.7,a,1\n0.7,a,2\n' > overfull_rule.csv
printf 'prob,score\n0.5,\xff\n' > invalid_utf8.csv
printf 'prob,score\n0.5\0,1\n' > nul_bytes.csv
{
  printf 'prob,score\n0.5,'
  head -c 1000000 /dev/zero | tr '\0' a
  printf ',1\n'
} > long_line.csv
printf 'prob,score\nx,1\n0.5,1,2\n' > syntax_after_bad_prob.csv
printf 'prob,rule\n0.5,a\n0.4,a\n0.9,\n' > no_data_column.csv
printf 'prob,rule,score,name,note\n0.5,a,3,"Smith, J.",\n0.4,a,2,"say ""hi""",x\n0.9,,1,,"two, words"\n0.7,,5,plain,\n' > quoted_and_null.csv
printf 'prob,rule,score,name\n0.5,a,3,x\n0.4,a,2,y\n0.9,,1\n' > short_row.csv
printf 'prob,rule,score\n0.5,a,3\n\xc2\xa0\xc2\xa0\xc2\xa0\n0.4,a,2\n0.9,,1\n' > nbsp_line.csv
printf 'prob,rule,score\n\xc2\xa00.5\xc2\xa0,\xc2\xa0a,3\n0.4,a\xc2\xa0,2\n0.9,,1\n' > nbsp_padded.csv
printf 'prob,rule,score\n0.5,a,"3"\n0.4,a,2\n0.9,,"1,5"\n' > quote_after_second_comma.csv
printf 'prob,rule,score\r0.5,a,3\r0.4,a,2\r0.9,,1\r' > cr_line_breaks.csv

CASES=(valid unterminated_quote text_after_quote arity missing_prob empty
  header_only prob_x prob_zero prob_above_one prob_nan overfull_rule
  invalid_utf8 nul_bytes long_line syntax_after_bad_prob)
SCANNER_CASES=(nbsp_line nbsp_padded quote_after_second_comma cr_line_breaks)
STMT='SELECT TOP 2 FROM t ORDER BY score WITH PROBABILITY >= 0.3'

WHERE_STMT="SELECT TOP 2 FROM t WHERE name != 'plain' ORDER BY score WITH PROBABILITY >= 0.3"

panics=0
runs=0
# run NAME LABEL ARGV...: runs `ptk ARGV...` and appends its exit code,
# stdout and stderr to the transcript under "== NAME LABEL".
run() {
  local name=$1 label=$2 code=0
  shift 2
  "$PTK" "$@" > stdout 2> stderr || code=$?
  runs=$((runs + 1))
  if [[ $code -eq 101 ]]; then
    echo "PANIC: $name $label" >&2
    panics=$((panics + 1))
  fi
  {
    echo "== $name $label: exit $code"
    echo "-- stdout"
    cat stdout
    echo "-- stderr"
    cat stderr
  } >> transcript
}

for name in "${CASES[@]}"; do
  run "$name" query query "$name.csv" --k 2 --p 0.3 --rank-by score
  run "$name" sql sql "$name.csv" "$STMT"
done
run no_data_column inspect inspect no_data_column.csv
run quoted_and_null inspect inspect quoted_and_null.csv
run quoted_and_null sql-where sql quoted_and_null.csv "$WHERE_STMT"
run short_row inspect inspect short_row.csv
run short_row query query short_row.csv --k 2 --p 0.3 --rank-by score
run short_row sql sql short_row.csv "$STMT"
for name in "${SCANNER_CASES[@]}"; do
  run "$name" query query "$name.csv" --k 2 --p 0.3 --rank-by score
  run "$name" sql sql "$name.csv" "$STMT"
done
[[ $panics -eq 0 ]] || { echo "FAIL: $panics runs panicked" >&2; exit 1; }

if [[ -n "$OUT" ]]; then
  cp transcript "$OUT"
  echo "csv smoke: transcript written to $OUT"
  exit 0
fi
if ! cmp -s transcript "$GOLDEN"; then
  echo "FAIL: output differs from $GOLDEN" >&2
  diff -a "$GOLDEN" transcript | head -40 >&2 || true
  exit 1
fi
echo "csv smoke: OK ($runs runs over $((${#CASES[@]} + 3 + ${#SCANNER_CASES[@]})) files)"
