#!/usr/bin/env bash
# Repo-wide checks, split into selectable stages so CI can run them as
# separate pipeline steps and developers can re-run just the one that
# failed:
#
#   scripts/check.sh [stage ...]
#
# Stages: fmt | clippy | doc | test | conformance | telemetry |
# telemetry-overhead | parity | metastability-smoke | largemesh-smoke |
# altrouted-smoke | perfbench-build | perf-ab-smoke | all (default).
# Unknown stages fail fast. Run from anywhere; operates on the workspace
# containing this script.
#
# Scratch files live in a throwaway mktemp dir unless CHECK_TMPDIR is
# set, in which case they go there and are kept — CI sets it so a failing
# stage's intermediate JSON/trace outputs can be uploaded as artifacts.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ -n "${CHECK_TMPDIR:-}" ]; then
  mkdir -p "$CHECK_TMPDIR"
  tmpdir="$CHECK_TMPDIR"
else
  tmpdir="$(mktemp -d)"
  trap 'rm -rf "$tmpdir"' EXIT
fi

stage_fmt() {
  cargo fmt --all --check
}

stage_clippy() {
  cargo clippy --workspace --all-targets -- -D warnings
}

stage_test() {
  cargo test --workspace -q
}

# Docs: rustdoc must build every crate with no warnings (broken or
# redundant intra-doc links, unescaped brackets read as links).
stage_doc() {
  RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline
}

# Conformance: differential oracles, golden-trace replay, and scenario
# fuzzing, in --release as well — the optimized build is what produces the
# paper's numbers, and this catches optimization-only numeric drift. Fixed
# seeds throughout; the whole stage runs in well under a minute.
stage_conformance() {
  cargo test --release -q -p altroute-conformance
  cargo run --release -q -p altroute-experiments --bin altroute_cli -- conformance
}

# Telemetry: a fixed-seed quadrangle-outage run must produce all three
# export formats (Prometheus text, CSV time series, JSON snapshot) and the
# report subcommand must render the JSON back. Deterministic; a few seconds.
stage_telemetry() {
  cat > "$tmpdir/outage.json" <<'EOF'
{
  "topology": { "builtin": "quadrangle" },
  "traffic": { "uniform": 85.0 },
  "policies": ["single-path", "controlled"],
  "max_hops": 3,
  "outages": [[0, 1, 40.0, 70.0]],
  "warmup": 10.0,
  "horizon": 100.0,
  "seeds": 4,
  "base_seed": 42
}
EOF
  cargo run --release -q -p altroute-experiments --bin altroute_cli -- \
    simulate "$tmpdir/outage.json" --telemetry "$tmpdir/out" --window 5
  for policy in single-path controlled; do
    grep -q '^altroute_calls_offered_total ' "$tmpdir/out/$policy.prom"
    grep -q '^altroute_holding_time_bucket{' "$tmpdir/out/$policy.prom"
    head -1 "$tmpdir/out/${policy}_blocking.csv" | \
      grep -q '^window_start,window_end,offered,blocked,blocking,alternate_fraction,teardowns$'
    head -1 "$tmpdir/out/${policy}_links.csv" | grep -q '^link,'
  done
  grep -q '"window_width": 5' "$tmpdir/out/telemetry.json"
  cargo run --release -q -p altroute-experiments --bin altroute_cli -- \
    telemetry "$tmpdir/out" > /dev/null
  # A --window splitting the run into more than TimeGrid::MAX_WINDOWS
  # windows (each series allocates a slot per window, per link for
  # occupancy) is a usage error raised before anything runs.
  local status
  for cmd in "metastability" "simulate $tmpdir/outage.json --telemetry $tmpdir/out"; do
    status=0
    # shellcheck disable=SC2086  # word-split the subcommand on purpose
    cargo run --release -q -p altroute-experiments --bin altroute_cli -- \
      $cmd --window 1e-9 2> "$tmpdir/window.err" || status=$?
    [ "$status" -eq 1 ]
    grep -q '^error: --window 0.000000001 splits \[0, [0-9.]*) into [0-9]* windows; at most 10000 are allowed$' \
      "$tmpdir/window.err"
  done
  # Likewise a --nodes past the CLI's cap: both mesh commands allocate
  # per-pair state for all n² pairs before anything runs.
  for cmd in metastability largemesh; do
    status=0
    cargo run --release -q -p altroute-experiments --bin altroute_cli -- \
      "$cmd" --nodes 1000000 2> "$tmpdir/nodes.err" || status=$?
    [ "$status" -eq 1 ]
    grep -qx 'error: --nodes 1000000 is too large; at most 1000 nodes are allowed' \
      "$tmpdir/nodes.err"
  done
  # Config files are outside input too: 200,000 nested arrays are a parse
  # error rather than a stack overflow, integers are checked rather than
  # cast (4294967301 would wrap to capacity 5), "nodes" has the same cap
  # as --nodes and "capacity" a cap of its own (4294967295 circuits asked
  # for a 32 GiB table), and topologies the builders would panic on (zero
  # capacity, a duplicate link, one node) are refused. So is every value
  # a run would panic on: no seeds, negative durations, a zero hop bound,
  # negative loads, and a base seed with no room for the seeds, and so is
  # a run that would not end (1e300 Erlangs offer 1.3e303 calls). The
  # simulate family shares one config loader, so each command must print
  # the same line.
  head -c 200000 /dev/zero | tr '\0' '[' > "$tmpdir/deep.json"
  local quad='{"builtin": "quadrangle"}' unit='{"uniform": 1.0}'
  config() { # <topology> <traffic> [members after "policies"]
    printf '{"topology": %s, "traffic": %s, "policies": ["controlled"], %s}\n' \
      "$1" "$2" "${3:-\"max_hops\": 3}"
  }
  config '{"full_mesh": {"nodes": 4, "capacity": 4294967301}}' "$unit" > "$tmpdir/capacity.json"
  config '{"full_mesh": {"nodes": 4, "capacity": 4294967295}}' "$unit" > "$tmpdir/capacity_cap.json"
  config '{"full_mesh": {"nodes": 1001, "capacity": 10}}' "$unit" > "$tmpdir/mesh_nodes.json"
  config '{"full_mesh": {"nodes": 1, "capacity": 10}}' "$unit" > "$tmpdir/one_node.json"
  config '{"full_mesh": {"nodes": 4, "capacity": 0}}' "$unit" > "$tmpdir/zero_capacity.json"
  config '{"links": {"nodes": 3, "duplex": [[0, 1, 5], [1, 0, 5]]}}' "$unit" > "$tmpdir/duplicate_link.json"
  config "$quad" "$unit" '"max_hops": 3, "seeds": 0' > "$tmpdir/seeds.json"
  config "$quad" "$unit" '"max_hops": 3, "warmup": -1' > "$tmpdir/warmup.json"
  config "$quad" "$unit" '"max_hops": 3, "horizon": -1' > "$tmpdir/horizon.json"
  config "$quad" "$unit" '"max_hops": 0' > "$tmpdir/max_hops.json"
  config "$quad" '{"uniform": -1.0}' > "$tmpdir/uniform.json"
  config "$quad" '{"matrix": [[0, 1, 1, 1], [1, 0, -1, 1], [1, 1, 0, 1], [1, 1, 1, 0]]}' \
    > "$tmpdir/matrix.json"
  config '{"builtin": "nsfnet"}' '{"nsfnet_nominal": {"scale": -1}}' > "$tmpdir/scale.json"
  config "$quad" "$unit" '"max_hops": 3, "seeds": 2, "base_seed": 18446744073709551615' \
    > "$tmpdir/base_seed.json"
  config "$quad" '{"uniform": 1e300}' > "$tmpdir/work.json"
  local config expected cmd
  for config in deep capacity capacity_cap mesh_nodes one_node zero_capacity duplicate_link \
                seeds warmup horizon max_hops uniform matrix scale base_seed work; do
    case "$config" in
      deep) expected="nesting deeper than 128 levels at byte 128" ;;
      capacity) expected='"capacity" 4294967301 is out of range' ;;
      capacity_cap) expected='"capacity" 4294967295 is too large; at most 10000 circuits are allowed' ;;
      mesh_nodes) expected='"nodes" 1001 is too large; at most 1000 nodes are allowed' ;;
      one_node) expected='"nodes" 1 is too small; a network needs at least 2 nodes' ;;
      zero_capacity) expected='"capacity" must be at least 1' ;;
      duplicate_link) expected='link (1, 0, 5) is a self-loop, a duplicate or has no capacity' ;;
      seeds) expected='"seeds" must be at least 1' ;;
      warmup) expected='"warmup" must be finite and >= 0, got -1.0' ;;
      horizon) expected='"horizon" must be finite and > 0, got -1.0' ;;
      max_hops) expected='"max_hops" must be at least 1' ;;
      uniform) expected='"uniform" traffic must be finite and >= 0, got -1.0' ;;
      matrix) expected='"matrix" entries must be finite and >= 0, got -1.0' ;;
      scale) expected='"scale" must be finite and >= 0, got -1.0' ;;
      base_seed) expected='"base_seed" 18446744073709551615 leaves no room for 2 seeds' ;;
      work) expected='the config offers 1.320e303 calls per replication; at most 1e9 are allowed' ;;
    esac
    # Decoding errors name the file; the three builder errors do not.
    case "$config" in
      zero_capacity|duplicate_link|work) ;;
      *) expected="parsing $tmpdir/$config.json: $expected" ;;
    esac
    for cmd in simulate adaptive multirate signaling; do
      status=0
      cargo run --release -q -p altroute-experiments --bin altroute_cli -- \
        "$cmd" "$tmpdir/$config.json" 2> "$tmpdir/config.err" || status=$?
      [ "$status" -eq 1 ]
      grep -qxF "error: $expected" "$tmpdir/config.err"
    done
  done
  # The daemon's config shares the capacity cap.
  printf '{"mesh": {"nodes": 4, "capacity": 4294967295}, "max_hops": 2}\n' \
    > "$tmpdir/daemon_capacity.json"
  status=0
  cargo run --release -q -p altrouted --bin altrouted -- \
    --config "$tmpdir/daemon_capacity.json" < /dev/null 2> "$tmpdir/daemon.err" || status=$?
  [ "$status" -eq 1 ]
  grep -qxF 'altrouted: error: mesh.capacity must be positive and at most 10000, got 4294967295' \
    "$tmpdir/daemon.err"
}

# Telemetry overhead: recording is a pure observer with a bounded cost.
# A plain run (no-op recorder path) and a full --telemetry run of the
# same seeds must render byte-identical results, and full recording must
# stay within the documented overhead budget (DESIGN.md: < 5x wall clock
# on this workload; the gate adds 2 s of absolute slack for CI noise).
# Also pins the uniform parse-time flag validation: every engine rejects
# a degenerate --window with the same message.
stage_telemetry_overhead() {
  cat > "$tmpdir/overhead.json" <<'EOF'
{
  "topology": { "builtin": "quadrangle" },
  "traffic": { "uniform": 85.0 },
  "policies": ["single-path", "controlled"],
  "max_hops": 3,
  "warmup": 10.0,
  "horizon": 100.0,
  "seeds": 6,
  "base_seed": 42
}
EOF
  overhead_cli() {
    cargo run --release -q -p altroute-experiments --bin altroute_cli -- "$@"
  }
  # Warm the build so the timed legs measure the runs, not the compiler.
  cargo build --release -q -p altroute-experiments --bin altroute_cli
  local t0 t1 t2 plain recorded
  t0=$(date +%s%N)
  overhead_cli simulate "$tmpdir/overhead.json" > "$tmpdir/overhead.plain"
  t1=$(date +%s%N)
  overhead_cli simulate "$tmpdir/overhead.json" \
    --telemetry "$tmpdir/overhead_out" --window 5 > "$tmpdir/overhead.recorded"
  t2=$(date +%s%N)
  cmp "$tmpdir/overhead.plain" "$tmpdir/overhead.recorded"
  plain=$(( t1 - t0 )); recorded=$(( t2 - t1 ))
  echo "telemetry overhead: plain $(( plain / 1000000 ))ms, recorded $(( recorded / 1000000 ))ms"
  [ "$recorded" -le $(( 5 * plain + 2000000000 )) ]
  for cmd in "simulate $tmpdir/overhead.json" "metastability" \
             "adaptive $tmpdir/overhead.json" "multirate $tmpdir/overhead.json" \
             "signaling $tmpdir/overhead.json"; do
    # shellcheck disable=SC2086  # word-split the subcommand on purpose
    if overhead_cli $cmd --window 0 2> "$tmpdir/overhead.err"; then
      echo "expected $cmd --window 0 to fail" >&2; exit 1
    fi
    grep -q '^error: --window must be positive, got 0$' "$tmpdir/overhead.err"
  done
}

# Kernel parity: the golden traces must replay byte-identically through
# the kernel-backed engine, solo and fanned out (the `golden` tests), and
# a fixed-seed run of every policy combination on every kernel-backed
# engine must succeed, be bit-stable across two invocations and match
# its committed transcript (`results/full/altroute_cli_<name>.txt`), and the
# committed results of all 19 result binaries, the table and JSON
# transcripts of `metastability` and `controlled`, the smoke-preset
# `largemesh --metrics-json` report (per-round eviction counts and
# blocking) and `altroute_cli --help` (the usage the argv grammar
# generates, so a change to its flag table shows as a diff) must
# reproduce byte for byte (~120 s of runs in release on 2 vCPUs).
stage_parity() {
  cat > "$tmpdir/parity.json" <<'EOF'
{
  "topology": { "builtin": "quadrangle" },
  "traffic": { "uniform": 90.0 },
  "policies": ["single-path", "uncontrolled", "controlled"],
  "max_hops": 3,
  "warmup": 5.0,
  "horizon": 40.0,
  "seeds": 4,
  "base_seed": 7
}
EOF
  cargo test --release -q -p altroute-conformance --test golden
  parity() { # <name> <cli args...>: run twice, require identical output
    local name="$1"; shift
    cargo run --release -q -p altroute-experiments --bin altroute_cli -- \
      "$@" > "$tmpdir/parity_$name.a"
    cargo run --release -q -p altroute-experiments --bin altroute_cli -- \
      "$@" > "$tmpdir/parity_$name.b"
    cmp "$tmpdir/parity_$name.a" "$tmpdir/parity_$name.b"
    grep -q '0\.' "$tmpdir/parity_$name.a" # a blocking probability rendered
    # ...and identical to the committed transcript, across commits.
    cmp "$tmpdir/parity_$name.a" "results/full/altroute_cli_$name.txt"
  }
  parity simulate  simulate  "$tmpdir/parity.json"
  parity ottk      simulate  "$tmpdir/parity.json" --policy ott-krishnan
  parity dar       simulate  "$tmpdir/parity.json" --policy dar
  parity adaptive  adaptive  "$tmpdir/parity.json"
  parity multirate multirate "$tmpdir/parity.json"
  parity signaling signaling "$tmpdir/parity.json"
  cargo run --release -q -p altroute-experiments --bin altroute_cli -- \
    --help > "$tmpdir/altroute_cli_help.txt"
  cmp "$tmpdir/altroute_cli_help.txt" "results/full/altroute_cli_help.txt"
  # The hysteresis tiers' table and JSON must reproduce their committed
  # transcripts byte for byte, not only be stable run to run.
  local tier
  for tier in metastability controlled; do
    cargo run --release -q -p altroute-experiments --bin altroute_cli -- \
      "$tier" > "$tmpdir/altroute_cli_$tier.txt"
    cargo run --release -q -p altroute-experiments --bin altroute_cli -- \
      "$tier" --metrics-json > "$tmpdir/altroute_cli_$tier.json"
    cmp "$tmpdir/altroute_cli_$tier.txt" "results/full/altroute_cli_$tier.txt"
    cmp "$tmpdir/altroute_cli_$tier.json" "results/full/altroute_cli_$tier.json"
  done
  # The largemesh report pins the store's eviction counts across commits;
  # largemesh-smoke only compares two runs of one build.
  cargo run --release -q -p altroute-experiments --bin altroute_cli -- \
    largemesh --metrics-json > "$tmpdir/altroute_cli_largemesh.json"
  cmp "$tmpdir/altroute_cli_largemesh.json" "results/full/altroute_cli_largemesh.json"
  # Every committed results/ table, with its transcript, must be what
  # the code produces (each binary writes results/ under its working
  # directory; the figure binaries name their CSV after the figures they
  # feed).
  local root="$PWD" bin csv
  for bin in fig1_chain fig2_protection_curves fig3_quadrangle:fig3_fig4_quadrangle \
             fig5_topology:fig5_topology_links fig6_nsfnet:fig6_fig7_nsfnet \
             table1_protection_levels adaptive_estimation bursty_arrivals \
             channel_borrowing failures h6_limited minloss_primaries mitra_gibbens \
             multirate od_skewness overflow_peakedness per_link_h protection_sweep \
             signaling_delay; do
    csv=${bin#*:}; bin=${bin%%:*}
    (cd "$tmpdir" && cargo run --release -q --manifest-path "$root/Cargo.toml" \
      -p altroute-experiments --bin "$bin" > "$bin.txt")
    cmp "$tmpdir/$bin.txt" "results/full/$bin.txt"
    cmp "$tmpdir/results/$csv.csv" "results/$csv.csv"
  done
}

# Metastability smoke: the four-arm hysteresis demonstration must run
# end to end on the CI-sized preset, be bit-stable across two
# invocations, and actually exhibit the hysteresis it documents — the
# unreserved arms in different modes, the reserved arms in the same one.
# Deterministic (fixed seeds); ~10 s in release.
stage_metastability_smoke() {
  cargo run --release -q -p altroute-experiments --bin altroute_cli -- \
    metastability --metrics-json > "$tmpdir/meta.a"
  cargo run --release -q -p altroute-experiments --bin altroute_cli -- \
    metastability --metrics-json --telemetry "$tmpdir/meta_out" > "$tmpdir/meta.b"
  cmp "$tmpdir/meta.a" "$tmpdir/meta.b"
  grep -q '"label": "metastability:smoke"' "$tmpdir/meta.a"
  # The unreserved saturated arm is stuck high; every other arm ends low.
  [ "$(grep -c '"final_mode": "high"' "$tmpdir/meta.a")" -eq 1 ]
  [ "$(grep -c '"final_mode": "low"' "$tmpdir/meta.a")" -eq 3 ]
  # Mode exports ride along with the standard telemetry families.
  grep -q '^altroute_mode_fraction_high 1$' "$tmpdir/meta_out/r0_saturated.prom"
  grep -q '^altroute_calls_offered_total ' "$tmpdir/meta_out/r0_saturated.prom"
  head -1 "$tmpdir/meta_out/eq15_saturated_modes.csv" | grep -q '^time,mode$'
  # The reserved saturated arm's forced flip trips the anomaly flight
  # recorder, and the dump replays through the trace decoder.
  grep -q '"flight_trigger": "mode switch to low' "$tmpdir/meta.a"
  cargo run --release -q -p altroute-experiments --bin altroute_cli -- \
    replay "$tmpdir/meta_out/eq15_saturated_flight.trace" > "$tmpdir/meta_replay"
  grep -q 'label "flight:eq15_saturated"' "$tmpdir/meta_replay"
  grep -q '^4096 records over t = ' "$tmpdir/meta_replay"
  # The dump itself is pinned byte for byte across commits.
  cmp "$tmpdir/meta_out/eq15_saturated_flight.trace" \
    results/full/altroute_cli_metastability_eq15_saturated_flight.trace
}

# Largemesh smoke: the ISP-scale rolling-SRLG tier must run end to end
# on the CI-sized preset (200-node power-law mesh), be bit-stable across
# two invocations, and demonstrate the incremental invalidation it
# exists to exercise: rolling correlated failures evict some cached
# pairs each round, and the worst round stays far below the full-rebuild
# obligation (every ordered pair). Deterministic (timings never enter
# the report); seconds-scale in release.
stage_largemesh_smoke() {
  cargo run --release -q -p altroute-experiments --bin altroute_cli -- \
    largemesh --metrics-json > "$tmpdir/largemesh.a"
  cargo run --release -q -p altroute-experiments --bin altroute_cli -- \
    largemesh --metrics-json > "$tmpdir/largemesh.b"
  cmp "$tmpdir/largemesh.a" "$tmpdir/largemesh.b"
  grep -q '"label": "largemesh:smoke"' "$tmpdir/largemesh.a"
  grep -q '"nodes": 200' "$tmpdir/largemesh.a"
  grep -q '"evicted_on_failure"' "$tmpdir/largemesh.a"
  local max_evicted total_pairs
  max_evicted=$(grep -o '"max_evicted": [0-9]*' "$tmpdir/largemesh.a" | grep -o '[0-9]*$')
  total_pairs=$(grep -o '"total_pairs": [0-9]*' "$tmpdir/largemesh.a" | grep -o '[0-9]*$')
  [ "$max_evicted" -gt 0 ]
  [ $(( max_evicted * 10 )) -lt "$total_pairs" ]
}

# Altrouted smoke: the resident control plane must close its loop end to
# end. Four legs, all fixed-seed deterministic:
#   1. `altroute_cli feed` re-records the drifting-load ramp feed
#      byte-identically to the checked-in fixture.
#   2. Two daemon replays of that feed emit byte-identical level-update
#      streams matching the golden fixtures/ramp.levels.
#   3. A live daemon (ephemeral port, --linger) ingests the feed over
#      stdin and its /status, /metrics, /healthz reflect the recomputed
#      levels after the feed ends.
#   4. The in-process closed-loop demo: from a saturated start, static
#      r=0 stays stuck in the high-blocking mode while the online
#      Eq.-15 controller escapes, with the switch detector-recorded.
stage_altrouted_smoke() {
  cargo build --release -q -p altroute-experiments --bin altroute_cli
  cargo build --release -q -p altrouted --bin altrouted
  local cli=target/release/altroute_cli daemon=target/release/altrouted
  local fixtures=crates/altrouted/tests/fixtures

  # Leg 1: feed recording, reproducible and pinned by the fixture.
  "$cli" feed --preset ramp > "$tmpdir/ramp.feed"  2> /dev/null
  "$cli" feed --preset ramp > "$tmpdir/ramp2.feed" 2> /dev/null
  cmp "$tmpdir/ramp.feed" "$tmpdir/ramp2.feed"
  cmp "$tmpdir/ramp.feed" "$fixtures/ramp.feed"

  # Leg 2: deterministic replay against the golden level sequence.
  "$daemon" --config "$fixtures/ramp-config.json" \
    < "$tmpdir/ramp.feed" > "$tmpdir/ramp.levels.a"
  "$daemon" --config "$fixtures/ramp-config.json" \
    < "$tmpdir/ramp.feed" > "$tmpdir/ramp.levels.b"
  cmp "$tmpdir/ramp.levels.a" "$tmpdir/ramp.levels.b"
  cmp "$tmpdir/ramp.levels.a" "$fixtures/ramp.levels"
  grep -q '^levels at=2 ' "$tmpdir/ramp.levels.a"
  grep -q '^done lines=1654 arrivals=1649 .* ended=true$' "$tmpdir/ramp.levels.a"

  # Leg 3: the resident service. Port 0 picks a free port (announced on
  # stderr); --linger keeps /status alive after the stdin feed ends.
  "$daemon" --config "$fixtures/ramp-config.json" --metrics 127.0.0.1:0 --linger \
    < "$tmpdir/ramp.feed" > "$tmpdir/live.levels" 2> "$tmpdir/live.err" &
  local pid=$! hostport="" i
  for i in $(seq 1 100); do
    if grep -q 'lingering' "$tmpdir/live.err" 2>/dev/null; then
      hostport=$(grep -o 'http://[0-9.:]*/' "$tmpdir/live.err" | head -1)
      hostport=${hostport#http://}; hostport=${hostport%/}
      break
    fi
    sleep 0.1
  done
  if [ -z "$hostport" ]; then
    echo "altrouted never finished the feed; stderr:" >&2
    cat "$tmpdir/live.err" >&2
    kill "$pid" 2>/dev/null || true
    exit 1
  fi
  scrape() { # <path> — raw HTTP/1.0 GET over bash's /dev/tcp
    exec 3<>"/dev/tcp/${hostport%:*}/${hostport##*:}"
    printf 'GET %s HTTP/1.0\r\n\r\n' "$1" >&3
    cat <&3
    exec 3<&- 3>&-
  }
  scrape /status  > "$tmpdir/live.status"
  scrape /metrics > "$tmpdir/live.metrics"
  scrape /healthz > "$tmpdir/live.healthz"
  kill "$pid" 2>/dev/null || true
  wait "$pid" 2>/dev/null || true
  cmp "$tmpdir/live.levels" "$fixtures/ramp.levels"
  grep -q '^ok$' "$tmpdir/live.healthz"
  grep -q '"controller":{' "$tmpdir/live.status"
  grep -q '"feed_done":true' "$tmpdir/live.status"
  grep -q '"updates":5' "$tmpdir/live.status"
  grep -q '^altroute_ctl_arrivals_total 1649$' "$tmpdir/live.metrics"
  grep -q '^altroute_ctl_updates_total 5$' "$tmpdir/live.metrics"
  grep -q '^altroute_ctl_level{link="0"} ' "$tmpdir/live.metrics"

  # Leg 4: the closed-loop drifting demo — online recomputation escapes
  # the saturated start that static r=0 mishandles, reproducibly.
  "$cli" controlled --metrics-json > "$tmpdir/controlled.a"
  "$cli" controlled --metrics-json > "$tmpdir/controlled.b"
  cmp "$tmpdir/controlled.a" "$tmpdir/controlled.b"
  grep -q '"label": "controlled:smoke"' "$tmpdir/controlled.a"
  grep -A6 '"arm": "static"' "$tmpdir/controlled.a" | grep -q '"final_mode": "high"'
  grep -A6 '"arm": "static"' "$tmpdir/controlled.a" | grep -q '"mode_switches": 0'
  grep -A6 '"arm": "online"' "$tmpdir/controlled.a" | grep -q '"final_mode": "low"'
  local switches updates max_level
  switches=$(grep -A6 '"arm": "online"' "$tmpdir/controlled.a" \
    | grep -o '"mode_switches": [0-9]*' | grep -o '[0-9]*$')
  [ "$switches" -ge 1 ]
  updates=$(grep -o '"update_count": [0-9]*' "$tmpdir/controlled.a" | grep -o '[0-9]*$')
  [ "$updates" -ge 1 ]
  max_level=$(grep -o '"final_max_level": [0-9]*' "$tmpdir/controlled.a" | grep -o '[0-9]*$')
  [ "$max_level" -gt 0 ]
}

# Perfbench build: the benchmark crate under perfbench/ is its own
# workspace, so nothing else compiles it; an API change in the crates it
# links would break the benchmark unnoticed. Build it and run every
# workload once for one second, untraced, requiring each run's last JSON
# line to report a correct, failure-free unit.
stage_perfbench_build() {
  cargo build --release --offline --manifest-path perfbench/Cargo.toml
  local w last
  for w in fig3_quadrangle fig6_nsfnet largemesh_churn feed_ingest; do
    cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
      --workload "$w" --seed 1 --seconds 1 --trace 0 > "$tmpdir/perfbench_$w.jsonl"
    last=$(tail -n 1 "$tmpdir/perfbench_$w.jsonl")
    echo "perfbench $w: $last"
    grep -q '"correct": *true' <<< "$last"
    grep -q '"failed": *0[,}]' <<< "$last"
  done
}

# check_ledger <file>: a performance ledger (scripts/perf_ab.sh
# --ledger) must be a non-empty JSON array of entries with a date, an
# anchor and a head revision, the run's pairs/seconds/seed and at least
# one row carrying every field of a `json` line; each revision it names
# (a `<parent>+` head names the parent) must be a commit here.
check_ledger() {
  command -v jq > /dev/null || { echo "perf-ab-smoke: jq is required" >&2; return 1; }
  if ! jq -e '
      def num_or_null: type == "number" or type == "null";
      type == "array" and length > 0 and all(.[];
        (.date | type == "string" and test("^[0-9]{4}-[0-9]{2}-[0-9]{2}$"))
        and (.anchor | type == "string" and test("^[0-9a-f]{7,40}$"))
        and (.head | type == "string" and test("^[0-9a-f]{7,40}[+]?$"))
        and ([.pairs, .seconds, .seed] | all(type == "number"))
        and (.rows | type == "array" and length > 0 and all(.[];
          ([.workload, .metric, .verdict] | all(type == "string"))
          and ([.wins, .n] | all(type == "number"))
          and ([.base, .head, .ln_ratio, .ci_low, .ci_high, .sep] | all(num_or_null))
          and (keys | length == 11))))' "$1" > /dev/null; then
    echo "perf-ab-smoke: $1 does not follow the ledger schema" >&2
    return 1
  fi
  local rev
  for rev in $(jq -r '.[] | .anchor, .head' "$1" | sed 's/+$//' | sort -u); do
    if ! git cat-file -e "$rev^{commit}" 2> /dev/null; then
      echo "perf-ab-smoke: $1 names $rev, which is no commit of this repository" >&2
      return 1
    fi
  done
}

# Perf A/B smoke: scripts/perf_ab.sh must build the committed HEAD,
# run every workload once against itself for one second and end with
# `failed 0`, with one complete `json` line per workload and end-to-end
# metric, and append them as one entry to a copy of the committed
# ledger; both ledgers must pass check_ledger. The verdicts of a 1 s
# self-comparison are noise and are not gated.
stage_perf_ab_smoke() {
  check_ledger BENCH_trajectory.json
  cp BENCH_trajectory.json "$tmpdir/ledger.json"
  scripts/perf_ab.sh --pairs 1 --seconds 1 --dir "$tmpdir/perf_ab" \
    --ledger "$tmpdir/ledger.json" HEAD HEAD > "$tmpdir/perf_ab.txt"
  cat "$tmpdir/perf_ab.txt"
  grep -q '^failed 0$' "$tmpdir/perf_ab.txt"
  # One `json` line per workload x end-to-end metric, each with every
  # field.
  local want field
  want=$(( $(grep -c '"why"' BENCHMARK.json) * $(grep -c '"bound"' BENCHMARK.json) ))
  grep '^json ' "$tmpdir/perf_ab.txt" > "$tmpdir/perf_ab.json"
  if [ "$(sed 's/"base".*//' "$tmpdir/perf_ab.json" | sort -u | wc -l)" -ne "$want" ] \
    || [ "$(wc -l < "$tmpdir/perf_ab.json")" -ne "$want" ]; then
    echo "perf-ab-smoke: want one json line per workload and metric ($want)" >&2
    return 1
  fi
  for field in workload metric base head ln_ratio ci_low ci_high wins n sep verdict; do
    if [ "$(grep -c "\"$field\": " "$tmpdir/perf_ab.json")" -ne "$want" ]; then
      echo "perf-ab-smoke: a json line lacks \"$field\"" >&2
      return 1
    fi
  done
  # The run appended exactly one entry, holding those lines.
  check_ledger "$tmpdir/ledger.json"
  if [ "$(jq length "$tmpdir/ledger.json")" -ne $(( $(jq length BENCH_trajectory.json) + 1 )) ] \
    || [ "$(jq '.[-1].rows | length' "$tmpdir/ledger.json")" -ne "$want" ]; then
    echo "perf-ab-smoke: --ledger did not append one entry of $want rows" >&2
    return 1
  fi
}

# Every selectable stage, in the order `all` runs them. The dispatch,
# the unknown-stage diagnostic, and `all` are all derived from this
# list, so adding a stage means adding its function and one entry here
# (stage `foo-bar` runs `stage_foo_bar`).
STAGES=(
  fmt clippy doc test conformance telemetry telemetry-overhead parity
  metastability-smoke largemesh-smoke altrouted-smoke perfbench-build
  perf-ab-smoke
)

run_stage() {
  local s
  for s in "${STAGES[@]}"; do
    if [ "$1" = "$s" ]; then
      "stage_${s//-/_}"
      return
    fi
  done
  case "$1" in
    all)
      local summary="" t0 t1
      for s in "${STAGES[@]}"; do
        echo "== check.sh: $s =="
        t0=$(date +%s)
        run_stage "$s"
        t1=$(date +%s)
        summary+=$(printf '%5ss  %s' "$(( t1 - t0 ))" "$s")$'\n'
      done
      echo "== check.sh: per-stage timing =="
      printf '%s' "$summary"
      ;;
    *)
      echo "unknown stage \`$1\`; valid: ${STAGES[*]} all" >&2
      exit 2
      ;;
  esac
}

if [ "$#" -eq 0 ]; then
  set -- all
fi
for stage in "$@"; do
  echo "== check.sh: $stage =="
  run_stage "$stage"
done
