#!/usr/bin/env bash
# Tier-1 verification plus a sanitizer pass, suitable for CI.
#
#   1. Configure + build the default tree and run the full ctest
#      suite (the repo's tier-1 gate).
#   2. Build the test binary, the fault-recovery bench and the
#      quasar-lint analyzer with -fsanitize=address,undefined
#      (QUASAR_SANITIZE=address; ON is a back-compat alias) and run
#      all three (the analyzer runs its fixture self-test); any
#      sanitizer report fails the script. The library starts no
#      threads, so there is no TSan stage.
#   3. Run the churn-stream smoke (Release): a seeded open-loop
#      arrival/departure/fault stream through the dirty-set decision
#      path — a 1000-server leg, its dirty-rerun referee, and a
#      10000-server leg. Fails if the rerun's placement hash differs
#      from the first run's, if a leg's completed + departed + shed +
#      active does not equal its arrivals, if a dirty leg's successful
#      placements per drv.run wall second drop more than 25% below
#      the committed BENCH_churn.json row, or if its placement hash
#      diverges from the committed one (the stream is seeded and the
#      decision path deterministic, so the hash must reproduce on any
#      host; refresh the file with `bench/churn` — no --smoke — when a
#      change is intentional).
#   4. Run the trace-replay smoke (Release): both checked-in trace
#      fixtures (Google task-events, Azure vmtable) parsed, mapped,
#      and replayed twice. Fails on an unstable re-replay (placement
#      hash divergence), on a run that leaks arrivals out of the
#      outcome split, or if either parser's diagnostic counts drift
#      from the fixtures' known malformed-row counts (9 google /
#      7 azure — see tools/gen_trace_fixtures.py).
#   5. Run the overload-control smoke (Release): diurnal + flash-
#      crowd traffic at 200 servers, controller off vs on. Fails if
#      the controller's shedding/scaling decisions diverge across a
#      re-replay (placement AND decision hashes), if any leg's
#      completed + departed + shed + active does not equal its
#      arrivals, if controller-on does not beat controller-off on the
#      crowd-window QoS-violation rate, or if that rate regresses
#      more than 0.05 (absolute) above the committed
#      BENCH_overload.json (refresh with `bench/overload` — no
#      --smoke — when a shift is intentional).
#   6. Run the topology smoke (Release): the cache-thrashed-socket
#      scenario on 2-socket machines, socket-aware vs topology-blind
#      homing (DESIGN.md §13). Fails if the aware leg's placement
#      hash is not reproduced bit-identically by the replay leg, if
#      socket-aware does not beat topology-blind on the services'
#      QoS-violation rate, or if that rate regresses more than 0.05
#      (absolute) above the committed BENCH_topology.json (refresh
#      with `bench/topology --smoke` when a shift is intentional).
#   7. Run the Table 2 classification-accuracy gate (Release): the
#      four-way and exhaustive classifiers over the 443 Table 2
#      workloads. Fails if any error cell (avg / p90 / max per group
#      and classification) differs from the committed
#      BENCH_table2.json; decision times are not gated. The engine is
#      deterministic, so any change to its accuracy must refresh the
#      file (`bench/table2_classification_validation` from the repo
#      root) as a named change.
#      Stages 3-7 read their committed baselines with
#      bench/report.hh's reader: a missing row fails, never skips.
#   8. Static analysis + verification soak:
#      a. tools/quasar-lint (the structure-aware analyzer: token
#         rules plus mutation-journaling, decision-purity and
#         layering/include-cycle — see DESIGN.md §10) over src/
#         bench/ tests/ examples/ tools/: any finding that no per-line
#         `// quasar-lint: allow(<rule>)` comment excuses fails. The
#         fixture self-test runs first.
#      b. clang-tidy with the repo .clang-tidy over src/, reading
#         real flags/defines from build/compile_commands.json
#         (CMAKE_EXPORT_COMPILE_COMMANDS is on by default) — gated on
#         clang-tidy being installed (the reference image ships gcc
#         only; the stage is skipped with a notice when absent).
#      c. A -DQUASAR_VERIFY=ON -DQUASAR_WERROR=ON build running the
#         chaos (test_faults) and churn-equivalence suites plus the
#         verify counters tests and the per-mutator death-test suite
#         generated from src/verify/journaled_mutators.def: every
#         dirty-set decision and every failure-memo skip is
#         shadow-checked against full_rescan, every driver tick sweeps cluster invariants,
#         every listed mutator provably trips the index audit when
#         unjournaled, every PerfOracle memo hit is recomputed and
#         compared bitwise, and any warning is an error.
#   9. Fail if the run modified any tracked file: every stage writes
#      its outputs under build trees, so the checkout stays clean.
#
# Usage: ci/check.sh [jobs]   (defaults to nproc)
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

# Fingerprint of the tracked files' state, compared at the end (a
# checkout with local edits may run the script; it must not add any).
tracked_state() {
    { git diff HEAD --binary 2>/dev/null || true; } | cksum
}
TRACKED_BEFORE="$(tracked_state)"

echo "== tier-1: build + ctest =="
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

echo "== sanitizer: ASan+UBSan build of tests + fault bench + lint =="
cmake -B build-asan -S . -DQUASAR_SANITIZE=ON \
      -DCMAKE_BUILD_TYPE=Debug >/dev/null
cmake --build build-asan -j "$JOBS" \
      --target quasar_tests fault_recovery quasar_lint
./build-asan/tests/quasar_tests
./build-asan/bench/fault_recovery
./build-asan/tools/quasar_lint --self-test \
    --fixture=tools/quasar-lint/fixture

echo "== churn smoke: re-replay referee, placements/s + hash gates (1k + 10k) =="
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build-release -j "$JOBS" --target churn
./build-release/bench/churn --smoke --out=build-release/churn_smoke.json \
    --baseline=BENCH_churn.json

echo "== trace-replay smoke: fixture ingest + re-replay stability =="
cmake --build build-release -j "$JOBS" --target trace_replay
./build-release/bench/trace_replay --smoke \
    --out=build-release/trace_replay_smoke.json

echo "== overload smoke: controller replay + QoS gates =="
cmake --build build-release -j "$JOBS" --target overload
./build-release/bench/overload --smoke \
    --out=build-release/overload_smoke.json --baseline=BENCH_overload.json

echo "== topology smoke: socket-aware QoS + replay-hash gates =="
cmake --build build-release -j "$JOBS" --target topology
./build-release/bench/topology --smoke \
    --out=build-release/topology_smoke.json --baseline=BENCH_topology.json

echo "== table2: classification-accuracy gate =="
cmake --build build-release -j "$JOBS" \
      --target table2_classification_validation
./build-release/bench/table2_classification_validation \
    --out=build-release/table2.json --baseline=BENCH_table2.json

echo "== lint: structure-aware analyzer over the tree =="
cmake --build build -j "$JOBS" --target quasar_lint lint_analyzer_tests
./build/tools/quasar_lint --self-test --fixture=tools/quasar-lint/fixture
./build/tools/lint_analyzer_tests
./build/tools/quasar_lint src bench tests examples tools

echo "== clang-tidy: curated .clang-tidy over src/ =="
if command -v clang-tidy >/dev/null 2>&1; then
    if [ ! -f build/compile_commands.json ]; then
        echo "build/compile_commands.json missing despite" \
             "CMAKE_EXPORT_COMPILE_COMMANDS; failing" >&2
        exit 1
    fi
    find src -name '*.cc' -print0 |
        xargs -0 -P "$JOBS" -n 8 clang-tidy -p build --quiet
else
    echo "clang-tidy not installed; skipping (config kept in .clang-tidy)"
fi

echo "== verify soak: QUASAR_VERIFY+QUASAR_WERROR chaos + churn suites =="
cmake -B build-verify -S . -DQUASAR_VERIFY=ON -DQUASAR_WERROR=ON \
      -DCMAKE_BUILD_TYPE=Debug >/dev/null
cmake --build build-verify -j "$JOBS" --target quasar_tests
# Chaos suite: every fault/recovery path with per-tick invariant
# sweeps; churn equivalence: dirty-set and full_rescan bit-identical
# while the shadow oracle re-checks each dirty-set decision; the
# Verify suite asserts the oracle actually ran; the Trace* and
# HostingIndex suites replay the fixtures under the oracle so every
# replayed placement and the maintained hosting index are
# shadow-checked tick by tick; the Overload*/ScalingPolicy/
# AdmissionQueue suites run the shed/brownout/autoscale paths
# (including the 20-seed replay sweep) under the same sweeps; the
# Topology*/Socket* suites cover the NUMA descriptor, per-socket
# pressure conservation, socket selection, and the flat-topology
# replay-equivalence sweep; the FailureMemo/
# FirstNodeVerdict suites re-run every skipped retry through the
# full_rescan oracle; the PerfOracle* suites prime and mutate the
# rate memo under its bitwise recheck, and the FoldInReference/
# JacobiReference suites hold the linear algebra bit-exact against
# its straightforward references; the BucketSkip/WalkCounts suites
# run the walk's bucket drop (drop, resume, prio_any guard, fault-zone
# rewind) with every dirty decision shadow-checked and the extended
# order signature audited field for field; the ManagerLifecycle suite
# runs a churn stream with departures and overload sheds under the
# sweeps and checks that every finished workload leaves no manager
# state behind; the ReservationBaselines suite runs the baseline
# managers' pinned streams (and their crash storms) and the AutoScale
# suite its scaling loop and queue retries under the per-tick sweeps.
./build-verify/tests/quasar_tests \
    --gtest_filter='FaultRecovery.*:FaultInjector.*:Chaos.*:ServerHealth.*:AdmissionRetry.*:FailureMemo*.*:FirstNodeVerdict.*:DecisionPath.*:ChangeJournal.*:RankingOrder.*:Verify.*:MutatorDeathSync.*:Trace*.*:ChurnClosedLoop.*:HostingIndex.*:Overload*.*:ScalingPolicy.*:AdmissionQueue.*:Topology*.*:Socket*.*:PerfOracle*.*:FoldInReference.*:JacobiReference.*:BucketSkip.*:WalkCounts.*:ManagerLifecycle.*:ReservationBaselines.*:AutoScale.*'

echo "== clean tree: no tracked file modified =="
if [ "$(tracked_state)" != "$TRACKED_BEFORE" ]; then
    echo "ci/check.sh modified tracked files:" >&2
    git status --short --untracked-files=no >&2
    exit 1
fi

echo "== all checks passed =="
