#!/usr/bin/env bash
# Paired A/B comparison of two revisions on the repository benchmark:
#
#   scripts/perf_ab.sh [--pairs N] [--seconds S] [--seed K]
#                      [--workloads a,b,...] [--dir DIR]
#                      [--ledger FILE] BASE HEAD
#
# Each revision is exported with `git archive` into its own directory
# and its perfbench built offline into its own target dir, all under a
# scratch dir (a fresh mktemp dir removed on exit, or DIR, kept and
# reused: a revision already built there is not rebuilt). Then, per
# workload, it runs N BASE/HEAD pairs of untraced perfbench runs,
# alternating which side goes first, and prints the machine line and
# one table per workload. Defaults: N = 10, S = BENCHMARK.json's
# run_seconds, seed 1, every workload BENCHMARK.json declares.
#
# For every end-to-end metric in BENCHMARK.json the table gives both
# sides' medians, the median of the paired log-ratios ln(HEAD/BASE), a
# distribution-free 95 % confidence interval for it (order statistics
# r(k)..r(N+1-k) with the largest k whose two-sided sign-test tail
# 2·P(Bin(N, 1/2) < k) stays at or below 0.05; none below N = 6), how
# many pairs HEAD was better in, and `sep`, the distance between the
# medians over BASE's interquartile range. The verdict reads against the
# metric's bound b:
#
#   regression    the median log-ratio is worse than ln(1 + b)
#   gain          the whole interval lies on the better side of zero
#                 and the medians lie more than BASE's interquartile
#                 range apart (sep > 1)
#   within bound  anything else
#
# After each table row comes one machine-readable line, `json {...}`,
# with the row's fields: workload, metric, base, head (the medians),
# ln_ratio (the median log-ratio), ci_low, ci_high, wins, n, sep and
# verdict; a value the row shows as n/a (or sep's inf) is null.
#
# The last line is `failed F`: the failed operations summed over every
# run, plus one for each run that exits with an error or ends without a
# correct JSON line. The script exits 1 if F > 0; the verdicts never set
# the exit status.
#
# With --ledger FILE (the performance ledger, BENCH_trajectory.json at
# the repository root; like DIR, a relative FILE is taken from the
# repository root), a run with F = 0 also appends one entry to FILE,
# a JSON array (created if missing) of entries, each row on a line:
#
#   {"date": "YYYY-MM-DD", "anchor": BASE, "head": HEAD, "pairs": N,
#    "seconds": S, "seed": K, "rows": [the json lines' objects]}
#
# BASE is the ledger's anchor: every entry's ratios are taken against
# it within one invocation, so entries compare across hosts and days
# where raw seconds do not. Revisions are short hashes. A HEAD outside the
# checkout's history (an uncommitted change measured through `git
# commit-tree`) is recorded as its parent followed by `+`: the change
# as committed on top of that parent. `scripts/check.sh perf-ab-smoke`
# validates the file.
#
# Layout noise: fig3_quadrangle and fig6_nsfnet move 4-6 % with code
# layout alone. Two builds whose hot functions (`kernel::run_pooled`,
# `TieredSelector::select`, `PrimaryAssignment::choose`, `is_primary`)
# have identical `nm -S` sizes and whose traced per-layer times agree
# have shown `wall_s` at +6.5 % and +4.3 % on those two workloads. A
# verdict there under about 7 % cannot tell a code change from a shift
# in link order: read such rows against that band, not against zero.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
  echo "usage: scripts/perf_ab.sh [--pairs N] [--seconds S] [--seed K]" \
       "[--workloads a,b,...] [--dir DIR] [--ledger FILE] BASE HEAD" >&2
  exit 2
}

pairs=10 seconds="" seed=1 workloads="" dir="" ledger=""
while [ "$#" -gt 0 ]; do
  case "$1" in
    --pairs)     pairs="${2:?--pairs needs a value}"; shift 2 ;;
    --seconds)   seconds="${2:?--seconds needs a value}"; shift 2 ;;
    --seed)      seed="${2:?--seed needs a value}"; shift 2 ;;
    --workloads) workloads="${2:?--workloads needs a value}"; shift 2 ;;
    --dir)       dir="${2:?--dir needs a value}"; shift 2 ;;
    --ledger)    ledger="${2:?--ledger needs a value}"; shift 2 ;;
    -*)          usage ;;
    *)           break ;;
  esac
done
[ "$#" -eq 2 ] || usage
[[ "$pairs" =~ ^[1-9][0-9]*$ ]] || { echo "--pairs must be a positive integer" >&2; exit 2; }

# BENCHMARK.json declares one object per line; read the run length,
# the workloads and the end-to-end metrics (the objects with a bound).
bench=BENCHMARK.json
[ -n "$seconds" ] || seconds=$(grep -o '"run_seconds": *[0-9.]*' "$bench" | grep -o '[0-9.]*$')
if [ -z "$workloads" ]; then
  workloads=$(grep -o '{"name": *"[a-z0-9_]*", *"why"' "$bench" \
    | sed 's/{"name": *"\([a-z0-9_]*\)".*/\1/' | paste -sd, -)
fi
metrics=$(grep -o '{"name": *"[a-z0-9_]*", *"unit": *"[^"]*", *"better": *"[a-z]*", *"bound": *[0-9.]*}' "$bench" \
  | sed 's/.*"name": *"\([^"]*\)".*"better": *"\([a-z]*\)".*"bound": *\([0-9.]*\)}/\1 \2 \3/')

if [ -n "$dir" ]; then
  mkdir -p "$dir"
else
  dir="$(mktemp -d)"
  trap 'rm -rf "$dir"' EXIT
fi

# build <rev>: prints the path of the rev's perfbench binary.
build() {
  local commit src target
  commit=$(git rev-parse --verify "$1^{commit}")
  src="$dir/src-$commit" target="$dir/target-$commit"
  if [ ! -x "$target/release/perfbench" ]; then
    rm -rf "$src"
    mkdir -p "$src"
    git archive --format=tar "$commit" | tar -x -C "$src"
    echo "building $1 ($commit)" >&2
    CARGO_TARGET_DIR="$target" cargo build --release --offline -q \
      --manifest-path "$src/perfbench/Cargo.toml" >&2
  fi
  echo "$target/release/perfbench"
}
base_bin=$(build "$1")
head_bin=$(build "$2")
echo "base $1 = $(git rev-parse --short "$1")  head $2 = $(git rev-parse --short "$2")"
echo "pairs $pairs  seconds $seconds  seed $seed"

failed=0 machine_shown=0
runs="$dir/runs"
mkdir -p "$runs"

# run <bin> <workload> <out>: one untraced run; keeps its last line.
run() {
  local out="$3.log"
  if ! "$1" --workload "$2" --seed "$seed" --seconds "$seconds" --trace 0 > "$out"; then
    echo "run $out exited with an error" >&2
    failed=$(( failed + 1 ))
    return
  fi
  if [ "$machine_shown" -eq 0 ]; then
    grep '^machine ' "$out" || true
    machine_shown=1
  fi
  tail -n 1 "$out" > "$3"
  if ! grep -q '"correct": *true' "$3"; then
    echo "run $out reported no correct JSON line" >&2
    failed=$(( failed + 1 ))
    return
  fi
  failed=$(( failed + $(grep -o '"failed": *[0-9]*' "$3" | grep -o '[0-9]*$') ))
}

# value <json file> <metric>
value() {
  grep -o "\"$2\": *{\"value\": *[-0-9.eE+]*" "$1" | grep -o '[-0-9.eE+]*$' || true
}

IFS=, read -r -a wl <<< "$workloads"
tables="$dir/tables.txt"
: > "$tables"
for w in "${wl[@]}"; do
  for i in $(seq 1 "$pairs"); do
    if [ $(( i % 2 )) -eq 1 ]; then
      run "$base_bin" "$w" "$runs/$w.base.$i"
      run "$head_bin" "$w" "$runs/$w.head.$i"
    else
      run "$head_bin" "$w" "$runs/$w.head.$i"
      run "$base_bin" "$w" "$runs/$w.base.$i"
    fi
  done
  echo
  echo "workload $w"
  printf '%-16s %14s %14s %9s %21s %7s %6s  %s\n' \
    metric base head "ln(h/b)" "95% CI" better sep verdict
  while read -r m better bound; do
    for i in $(seq 1 "$pairs"); do
      echo "$(value "$runs/$w.base.$i" "$m") $(value "$runs/$w.head.$i" "$m")"
    done | awk -v w="$w" -v m="$m" -v better="$better" -v bound="$bound" '
      function sort(a, n,   i, j, t) {
        for (i = 2; i <= n; i++) {
          t = a[i]
          for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]
          a[j + 1] = t
        }
      }
      function quantile(a, n, p,   h, lo) {  # a sorted; linear interpolation
        h = (n - 1) * p + 1; lo = int(h)
        return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
      }
      function num(x) { return sprintf("%.6g", x) }
      function json(base, head, med, lo, hi, sep, verdict) {
        printf "json {\"workload\": \"%s\", \"metric\": \"%s\", \"base\": %s, \"head\": %s, \"ln_ratio\": %s, \"ci_low\": %s, \"ci_high\": %s, \"wins\": %d, \"n\": %d, \"sep\": %s, \"verdict\": \"%s\"}\n",
          w, m, base, head, med, lo, hi, wins, n, sep, verdict
      }
      NF == 2 && $1 > 0 && $2 > 0 {
        n++; b[n] = $1; h[n] = $2; r[n] = log($2 / $1)
        if ((better == "lower") ? $2 < $1 : $2 > $1) wins++
      }
      END {
        if (n == 0) {
          printf "%-16s %s\n", m, "n/a (no positive values)"
          json("null", "null", "null", "null", "null", "null", "n/a")
          exit
        }
        sort(b, n); sort(h, n); sort(r, n)
        # Largest k with 2*P(Bin(n, 1/2) <= k - 1) <= 0.05.
        k = 0; cdf = 0; term = 0.5 ^ n
        for (j = 0; j < n; j++) {
          cdf += term
          if (2 * cdf > 0.05) break
          k = j + 1
          term = term * (n - j) / (j + 1)
        }
        med = quantile(r, n, 0.5)
        worse = (better == "lower") ? 1 : -1
        iqr = quantile(b, n, 0.75) - quantile(b, n, 0.25)
        gap = quantile(h, n, 0.5) - quantile(b, n, 0.5)
        if (gap < 0) gap = -gap
        apart = gap > iqr
        if (n < 2) sep = "   n/a"
        else sep = iqr > 0 ? sprintf("%6.1f", gap / iqr) : (gap > 0 ? "   inf" : "   0.0")
        if (k > 0) {
          lo = r[k]; hi = r[n + 1 - k]
          ci = sprintf("[%+8.4f,%+8.4f]", lo, hi)
        } else {
          ci = "n/a (N < 6)"
        }
        if (worse * med > log(1 + bound)) verdict = "regression"
        else if (k > 0 && worse * (worse > 0 ? hi : lo) < 0 && apart) verdict = "gain"
        else verdict = "within bound"
        printf "%-16s %14.6g %14.6g %+9.4f %21s %3d/%-3d %s  %s\n",
          m, quantile(b, n, 0.5), quantile(h, n, 0.5), med, ci, wins, n, sep, verdict
        json(num(quantile(b, n, 0.5)), num(quantile(h, n, 0.5)), num(med),
          k > 0 ? num(lo) : "null", k > 0 ? num(hi) : "null",
          (n < 2 || (iqr <= 0 && gap > 0)) ? "null" : num(iqr > 0 ? gap / iqr : 0), verdict)
      }' | tee -a "$tables"
  done <<< "$metrics"
done
echo
echo "failed $failed"
[ "$failed" -eq 0 ]

# ledger_rev <rev>: the short hash, or `<parent>+` for a commit outside
# the checkout's history.
ledger_rev() {
  if git merge-base --is-ancestor "$1" HEAD 2>/dev/null; then
    git rev-parse --short "$1"
  else
    echo "$(git rev-parse --short "$1^")+"
  fi
}

if [ -n "$ledger" ]; then
  entry=$(
    printf '{"date": "%s", "anchor": "%s", "head": "%s", "pairs": %d, "seconds": %s, "seed": %s, "rows": [\n' \
      "$(date -u +%Y-%m-%d)" "$(ledger_rev "$1")" "$(ledger_rev "$2")" "$pairs" "$seconds" "$seed"
    grep '^json ' "$tables" | sed 's/^json /  /; $!s/$/,/'
    printf ']}'
  )
  if [ -s "$ledger" ]; then
    # Drop the closing `]`, put a comma after the last entry, append.
    { sed '$d' "$ledger" | sed '$s/$/,/'; printf '%s\n]\n' "$entry"; } > "$ledger.new"
  else
    printf '[\n%s\n]\n' "$entry" > "$ledger.new"
  fi
  mv "$ledger.new" "$ledger"
  echo "appended to $ledger"
fi
