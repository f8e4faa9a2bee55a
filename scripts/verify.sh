#!/usr/bin/env bash
# Repo verification: tier-1 build + full ctest, a repeat-under-load pass
# over the CLI-trace / obs / LUT-format tests (exit-time lifetime bugs
# surface only under parallel load), the obsdiff regression gate (two-run
# self-compare + perturbed-seed failure path), the metric-catalog lint
# (every registered metric name documented in DESIGN.md §6.2), the LUT
# storage gates (routing through a mapped table byte-identical to
# routing without one, kill-and-resume lutgen hash match, the
# bench_lut_load page-sharing bar, two concurrent daemons on one
# mapped table), the daemon smoke gate (patlabord serving two concurrent
# clients whose CSVs must be byte-identical to a direct patlabor_cli
# route, nonzero serve.* metrics, the stats wire frame, a SIGQUIT
# flight-recorder dump, then a graceful SIGTERM drain), the obsdiff-over-daemon gate (daemon event
# stream quality-identical to a direct engine run; a weaker-method
# perturbation must trip it), an ASan+UBSan pass over the tree kernels
# (edge substitution's preorder intervals, the incremental reattach), the
# exact RSMT's flat DP tables, the arena-backed DW solvers, the
# SolutionSet filter and the Lemma-1 prover's fraction-free integer
# simplex (UBSan watches it for signed overflow; test_exactlp checks it
# against the rational reference, test_properties runs that reference)
# and the one-pass net-file reader (test_eval_io checks it on mutated
# files against the kept line-by-line reference), then a ThreadSanitizer pass over
# the parallel execution layer (par/, including the shared-counter
# scheduler and the pool timeline/TimedMutex instrumentation),
# observability (obs/) and service (serve/) tests.
#
# Throughput, scaling and latency are measured by perfbench/ (see
# perfbench/README.md), not gated here.  bench_lut_load's artifacts land in
# $PATLABOR_BENCH_OUT when set, else in build/bench/bench/out.
#
#   scripts/verify.sh            # everything
#   scripts/verify.sh --quick    # tier-1 build + ctest + the daemon smoke,
#                                # obsdiff-over-daemon and LUT storage gates
#                                # (no sanitizer passes, no CLI-level
#                                # obsdiff gate)
#   scripts/verify.sh --no-tsan  # skip the TSan pass
#   scripts/verify.sh --no-asan  # skip the ASan pass
#
# Every mode ends by printing the tracked code size (scripts/loc.sh).
set -euo pipefail
cd "$(dirname "$0")/.."

run_tsan=1
run_asan=1
quick=0
for arg in "$@"; do
  [[ "$arg" == "--no-tsan" ]] && run_tsan=0
  [[ "$arg" == "--no-asan" ]] && run_asan=0
  [[ "$arg" == "--quick" ]] && quick=1
done

# Honor PATLABOR_BENCH_OUT; default to build/bench/bench/out (benches run
# with cwd build/bench and default to bench/out under it).
bench_out="${PATLABOR_BENCH_OUT:-$PWD/build/bench/bench/out}"

# Daemon smoke gate: patlabord must serve two concurrent clients with
# answers byte-identical to the direct engine, count them in the serve.*
# metrics (nonzero serve.requests), answer the stats frame with per-client
# attribution, dump its flight recorder on SIGQUIT (and keep serving),
# and drain cleanly on SIGTERM (exit 0, socket unlinked).
serve_smoke() {
  echo "== daemon smoke: 2 clients byte-identical to direct + introspection + drain =="
  local dir daemon ca cb rc flight
  dir="$(mktemp -d)"
  ./build/tools/patlabor_cli gen uniform 12 6 "$dir/nets.nets" 7 > /dev/null
  ./build/tools/patlabor_cli route "$dir/nets.nets" \
    --csv "$dir/direct.csv" > /dev/null
  ./build/tools/patlabord "$dir/patlabord.sock" > "$dir/daemon.log" 2>&1 &
  daemon=$!
  for _ in $(seq 50); do
    ./build/tools/patlabor_client "$dir/patlabord.sock" ping \
      2> /dev/null && break
    sleep 0.1
  done
  ./build/tools/patlabor_client "$dir/patlabord.sock" ping
  ./build/tools/patlabor_client "$dir/patlabord.sock" route "$dir/nets.nets" \
    --csv "$dir/a.csv" --tag a > /dev/null &
  ca=$!
  ./build/tools/patlabor_client "$dir/patlabord.sock" route "$dir/nets.nets" \
    --csv "$dir/b.csv" --tag b > /dev/null &
  cb=$!
  wait "$ca"
  wait "$cb"
  cmp "$dir/a.csv" "$dir/direct.csv"
  cmp "$dir/b.csv" "$dir/direct.csv"
  # The exposition must carry a *nonzero* request count, not just the name.
  ./build/tools/patlabor_client "$dir/patlabord.sock" metrics \
    > "$dir/metrics.prom"
  awk '$1 == "patlabor_serve_requests" { v = $2 }
       END { exit (v > 0) ? 0 : 1 }' "$dir/metrics.prom" || {
    echo "patlabord: metrics report no serve.requests"
    cat "$dir/metrics.prom"
    exit 1
  }
  # The stats wire frame attributes both clients' 12 requests each.
  ./build/tools/patlabor_client "$dir/patlabord.sock" stats > "$dir/stats.txt"
  grep -q ' requests=24 ' "$dir/stats.txt"
  grep -qE '^  client a +requests=12 ' "$dir/stats.txt"
  grep -qE '^  client b +requests=12 ' "$dir/stats.txt"
  # SIGQUIT dumps the flight recorder — all 24 requests completed — and the
  # daemon keeps serving.  (Re-signal while polling: the last trace can
  # complete a beat after the clients read their replies.)
  flight="$dir/patlabord.sock.flight.jsonl"
  for _ in $(seq 50); do
    kill -QUIT "$daemon"
    sleep 0.1
    [[ "$(grep -c '"in_flight":false' "$flight" 2> /dev/null || true)" \
       -eq 24 ]] && break
  done
  if [[ "$(grep -c '"in_flight":false' "$flight" 2> /dev/null || true)" \
       -ne 24 ]]; then
    echo "patlabord: flight dump missing completed requests"
    cat "$dir/daemon.log"
    exit 1
  fi
  # Every line parses as one complete request object; nothing was in flight.
  if [[ "$(grep -cv '^{"type":"request",.*}$' "$flight" || true)" -ne 0 ]]; then
    echo "patlabord: flight dump is not request-trace JSONL"
    cat "$flight"
    exit 1
  fi
  ./build/tools/patlabor_client "$dir/patlabord.sock" ping
  kill -TERM "$daemon"
  rc=0
  wait "$daemon" || rc=$?
  if [[ $rc -ne 0 ]]; then
    echo "patlabord: expected clean drain exit 0, got $rc"
    cat "$dir/daemon.log"
    exit 1
  fi
  if [[ -e "$dir/patlabord.sock" ]]; then
    echo "patlabord: socket not unlinked on shutdown"
    exit 1
  fi
  rm -rf "$dir"
}

# Obsdiff-over-daemon gate: the daemon's deterministic event stream must be
# quality-identical to a direct engine run of the same netlist (byte-equal
# modulo the per-client tag field), and a seeded quality perturbation —
# the same nets routed by the weaker weighted-sum baseline — must trip the
# hypervolume gate (exit 1).
serve_obsdiff() {
  echo "== obsdiff-over-daemon: daemon events vs direct engine + perturbation =="
  local dir daemon rc
  dir="$(mktemp -d)"
  ./build/tools/patlabor_cli gen uniform 12 6 "$dir/nets.nets" 7 > /dev/null
  ./build/tools/patlabor_cli route "$dir/nets.nets" \
    --events "$dir/direct.jsonl" --events-deterministic > /dev/null
  ./build/tools/patlabord "$dir/d.sock" \
    --events "$dir/daemon.jsonl" --events-deterministic \
    > "$dir/daemon.log" 2>&1 &
  daemon=$!
  for _ in $(seq 50); do
    ./build/tools/patlabor_client "$dir/d.sock" ping 2> /dev/null && break
    sleep 0.1
  done
  ./build/tools/patlabor_client "$dir/d.sock" route "$dir/nets.nets" \
    > /dev/null
  kill -TERM "$daemon"
  rc=0
  wait "$daemon" || rc=$?
  if [[ $rc -ne 0 ]]; then
    echo "patlabord: expected clean drain exit 0, got $rc"
    cat "$dir/daemon.log"
    exit 1
  fi
  # Quality-identical: every canonical hash joins, zero hv delta.
  ./build/tools/patlabor_obsdiff "$dir/direct.jsonl" "$dir/daemon.jsonl"
  # Stronger: the daemon's net records are byte-identical to the direct
  # run's once the client tag is stripped (manifests name different tools).
  grep '"type":"net"' "$dir/direct.jsonl" > "$dir/direct_nets.jsonl"
  grep '"type":"net"' "$dir/daemon.jsonl" \
    | sed 's/,"tag":"[^"]*"//' > "$dir/daemon_nets.jsonl"
  cmp "$dir/direct_nets.jsonl" "$dir/daemon_nets.jsonl"
  # Perturbation: same nets through a fresh daemon via the weighted-sum
  # baseline; hashes join, hypervolume shrinks, the gate must exit 1.
  ./build/tools/patlabord "$dir/d2.sock" \
    --events "$dir/perturbed.jsonl" --events-deterministic \
    > "$dir/daemon2.log" 2>&1 &
  daemon=$!
  for _ in $(seq 50); do
    ./build/tools/patlabor_client "$dir/d2.sock" ping 2> /dev/null && break
    sleep 0.1
  done
  ./build/tools/patlabor_client "$dir/d2.sock" route "$dir/nets.nets" \
    --method ysd > /dev/null
  kill -TERM "$daemon"
  wait "$daemon" || true
  rc=0
  ./build/tools/patlabor_obsdiff --quiet "$dir/direct.jsonl" \
    "$dir/perturbed.jsonl" || rc=$?
  if [[ $rc -ne 1 ]]; then
    echo "obsdiff: expected exit 1 on a quality-perturbed daemon run, got $rc"
    exit 1
  fi
  rm -rf "$dir"
}

# LUT storage gate (quick part): routing through a mapped table file must
# answer byte-identically to routing without one (the exact numeric DW
# answers these degree-5 nets), and `lut info` must agree with itself on
# the content hash.
lut_storage_gate() {
  echo "== lut storage: --lut routing == table-free routing + hash agreement =="
  local dir
  dir="$(mktemp -d)"
  ./build/tools/patlabor_cli lutgen 5 "$dir/t.bin" > /dev/null
  ./build/tools/patlabor_cli gen clustered 24 5 "$dir/nets.nets" 11 > /dev/null
  ./build/tools/patlabor_cli route "$dir/nets.nets" --lut "$dir/t.bin" \
    --csv "$dir/lut.csv" > /dev/null
  ./build/tools/patlabor_cli route "$dir/nets.nets" \
    --csv "$dir/dw.csv" > /dev/null
  cmp "$dir/lut.csv" "$dir/dw.csv"
  ./build/tools/patlabor_cli lut info "$dir/t.bin" > "$dir/info.txt"
  if grep -q 'MISMATCH' "$dir/info.txt"; then
    echo "lut info: stored/computed content hash disagree"
    cat "$dir/info.txt"
    exit 1
  fi
  rm -rf "$dir"
}

# LUT storage gate (full parts): a lutgen killed mid-degree (deterministic
# abort hook, exit 75) leaves a checkpoint that `lut info` shows part-way
# through degree 5 and `route --lut` refuses; resumed from it, lutgen must
# produce a content_hash-identical file; and two concurrent patlabord processes
# serving the same mapped degree-6 table (generated here, ~0.5 s on 4 cores)
# must both answer byte-identically to a direct engine route over it.
lut_resume_gate() {
  echo "== lut checkpoint: kill-and-resume lutgen hash-matches single-shot =="
  local dir rc hash_once hash_resumed merged total
  dir="$(mktemp -d)"
  ./build/tools/patlabor_cli lutgen 5 "$dir/once.bin" --jobs 2 > /dev/null
  rc=0
  PATLABOR_LUTGEN_ABORT_AFTER=10 ./build/tools/patlabor_cli lutgen 5 \
    "$dir/resumed.bin" --jobs 2 --checkpoint "$dir/r.ckpt" \
    --checkpoint-every 4 > /dev/null 2>&1 || rc=$?
  if [[ $rc -ne 75 ]]; then
    echo "lutgen: expected abort exit 75 (EX_TEMPFAIL), got $rc"
    exit 1
  fi
  [[ -f "$dir/r.ckpt" ]] || { echo "lutgen: no checkpoint left behind"; exit 1; }
  # The checkpoint is a table file: lut info reads its resume point ...
  read -r merged total < <(./build/tools/patlabor_cli lut info "$dir/r.ckpt" \
    | awk '/checkpoint +degree 5 in progress,/ { split($6, a, "/"); print a[1], a[2] }')
  if [[ -z "$merged" || "$merged" -ge "$total" ]]; then
    echo "lut info: no degree-5 in-progress line with merged < total"
    exit 1
  fi
  # ... and the router refuses it as a generation checkpoint.
  ./build/tools/patlabor_cli gen uniform 4 5 "$dir/n.nets" 3 > /dev/null
  rc=0
  ./build/tools/patlabor_cli route "$dir/n.nets" --lut "$dir/r.ckpt" \
    > /dev/null 2> "$dir/route.err" || rc=$?
  if [[ $rc -eq 0 ]] || ! grep -q "generation checkpoint" "$dir/route.err"; then
    echo "route --lut <checkpoint>: expected a 'generation checkpoint' error"
    exit 1
  fi
  ./build/tools/patlabor_cli lutgen 5 "$dir/resumed.bin" --jobs 2 \
    --checkpoint "$dir/r.ckpt" --resume > /dev/null
  if [[ -e "$dir/r.ckpt" ]]; then
    echo "lutgen: checkpoint not removed after the final save"
    exit 1
  fi
  hash_once="$(./build/tools/patlabor_cli lut info "$dir/once.bin" \
    | awk '/content hash/ { print $3 }')"
  hash_resumed="$(./build/tools/patlabor_cli lut info "$dir/resumed.bin" \
    | awk '/content hash/ { print $3 }')"
  if [[ -z "$hash_once" || "$hash_once" != "$hash_resumed" ]]; then
    echo "lutgen: resumed hash $hash_resumed != single-shot $hash_once"
    exit 1
  fi
  rm -rf "$dir"
}

lut_daemon_share_gate() {
  echo "== lut sharing: 2 daemons on one mapped table == direct engine =="
  local dir table d1 d2 rc
  dir="$(mktemp -d)"
  table="$dir/t.bin"
  ./build/tools/patlabor_cli lutgen 6 "$table" > /dev/null
  ./build/tools/patlabor_cli gen uniform 12 6 "$dir/nets.nets" 7 > /dev/null
  ./build/tools/patlabor_cli route "$dir/nets.nets" --lut "$table" \
    --csv "$dir/direct.csv" > /dev/null
  ./build/tools/patlabord "$dir/s1.sock" --lut "$table" \
    > "$dir/d1.log" 2>&1 &
  d1=$!
  ./build/tools/patlabord "$dir/s2.sock" --lut "$table" \
    > "$dir/d2.log" 2>&1 &
  d2=$!
  for _ in $(seq 50); do
    ./build/tools/patlabor_client "$dir/s1.sock" ping 2> /dev/null \
      && ./build/tools/patlabor_client "$dir/s2.sock" ping 2> /dev/null \
      && break
    sleep 0.1
  done
  ./build/tools/patlabor_client "$dir/s1.sock" route "$dir/nets.nets" \
    --csv "$dir/a.csv" > /dev/null
  ./build/tools/patlabor_client "$dir/s2.sock" route "$dir/nets.nets" \
    --csv "$dir/b.csv" > /dev/null
  cmp "$dir/a.csv" "$dir/direct.csv"
  cmp "$dir/b.csv" "$dir/direct.csv"
  kill -TERM "$d1" "$d2"
  rc=0
  wait "$d1" || rc=$?
  wait "$d2" || rc=$((rc + $?))
  if [[ $rc -ne 0 ]]; then
    echo "patlabord: expected clean drains, got $rc"
    cat "$dir/d1.log" "$dir/d2.log"
    exit 1
  fi
  rm -rf "$dir"
}

echo "== metric catalog lint: registered names documented in DESIGN.md =="
scripts/check_metric_catalog.sh

echo "== tier-1: build + ctest (frontier cache on and off) =="
cmake -B build -S .  # reuses the generator already in build/, if any
cmake --build build -j
(cd build && PATLABOR_CACHE=0 ctest --output-on-failure -j)
(cd build && PATLABOR_CACHE=1 ctest --output-on-failure -j)

if [[ $quick -eq 1 ]]; then
  serve_smoke
  serve_obsdiff
  lut_storage_gate
  echo "== code size: lines per directory (scripts/loc.sh) =="
  scripts/loc.sh
  echo "verify: OK (quick)"
  exit 0
fi

echo "== repeat under load: CLI-trace, obs and LUT-format tests x20 =="
(cd build && ctest -j4 --repeat until-fail:20 --output-on-failure \
  -R '^(test_cli_trace|Obs|LutFormat)')

serve_smoke
serve_obsdiff
lut_storage_gate
lut_resume_gate

echo "== lut storage bench: open cost + cross-process page sharing =="
(cd build/bench && PATLABOR_BENCH_OUT="$bench_out" ./bench_lut_load)

lut_daemon_share_gate

echo "== obsdiff gate: self-compare + perturbed seed =="
(
  cd build
  ./tools/patlabor_cli gen uniform 12 8 obsdiff_nets.nets 7 > /dev/null
  ./tools/patlabor_cli gen uniform 12 8 obsdiff_perturbed.nets 8 > /dev/null
  ./tools/patlabor_cli route obsdiff_nets.nets --jobs 1 \
    --events obsdiff_a.jsonl --events-deterministic > /dev/null
  ./tools/patlabor_cli route obsdiff_nets.nets --jobs 4 \
    --events obsdiff_b.jsonl --events-deterministic > /dev/null
  # Deterministic ordered flush: byte-identical files for any --jobs.
  cmp obsdiff_a.jsonl obsdiff_b.jsonl
  # Identical runs: zero deltas, gate passes.
  ./tools/patlabor_obsdiff obsdiff_a.jsonl obsdiff_b.jsonl
  # Perturbed seed: disjoint canonical hashes must trip the gate (exit 3).
  ./tools/patlabor_cli route obsdiff_perturbed.nets \
    --events obsdiff_c.jsonl > /dev/null
  rc=0
  ./tools/patlabor_obsdiff --quiet obsdiff_a.jsonl obsdiff_c.jsonl || rc=$?
  if [[ $rc -ne 3 ]]; then
    echo "obsdiff: expected exit 3 on a perturbed-seed run, got $rc"
    exit 1
  fi
  rm -f obsdiff_nets.nets obsdiff_perturbed.nets obsdiff_{a,b,c}.jsonl
)

if [[ $run_asan -eq 1 ]]; then
  echo "== ASan+UBSan: tree / refine / rsmt / dw / lut / pareto / exactlp / engine / events / serve / io tests =="
  cmake -B build-asan -S . -G Ninja -DPATLABOR_ASAN=ON
  cmake --build build-asan -j \
    --target test_tree test_refine test_rsmt test_dw test_lut \
    test_lut_format test_pareto test_exactlp test_properties test_core \
    test_engine test_events test_serve test_eval_io
  (
    cd build-asan
    export ASAN_OPTIONS="detect_leaks=1:halt_on_error=1"
    export UBSAN_OPTIONS="halt_on_error=1"
    ./tests/test_pareto
    ./tests/test_exactlp
    ./tests/test_properties
    ./tests/test_tree
    ./tests/test_refine
    ./tests/test_rsmt
    ./tests/test_dw
    ./tests/test_lut
    ./tests/test_lut_format
    ./tests/test_core
    ./tests/test_engine
    ./tests/test_events
    ./tests/test_serve
    ./tests/test_eval_io
  )
fi

if [[ $run_tsan -eq 1 ]]; then
  echo "== TSan: par + obs + engine + serve tests =="
  cmake -B build-tsan -S . -G Ninja -DPATLABOR_TSAN=ON
  cmake --build build-tsan -j \
    --target test_par test_obs test_metrics test_events test_engine \
    test_serve test_cli_trace patlabor_cli patlabor_obsdiff
  (
    cd build-tsan
    export TSAN_OPTIONS="halt_on_error=1"
    ./tests/test_par
    ./tests/test_obs
    ./tests/test_metrics
    ./tests/test_events
    ./tests/test_engine
    ./tests/test_serve
    ./tests/test_cli_trace ./tools/patlabor_cli ./tools/patlabor_obsdiff
  )
fi

echo "== code size: lines per directory (scripts/loc.sh) =="
scripts/loc.sh
echo "verify: OK"
