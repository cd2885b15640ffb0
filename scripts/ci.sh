#!/usr/bin/env bash
# CI pipeline, split into named stages so jobs (and humans) can run them
# independently:
#
#   scripts/ci.sh                # all stages: lint tier1 perf scenarios
#   scripts/ci.sh perf           # just the perf stage
#   scripts/ci.sh lint tier1     # any subset, in the given order
#
# Stages
# ------
# lint       byte-compiles every Python tree (and runs pyflakes when the
#            host has it) -- catches syntax/undefined-name rot cheaply --
#            then runs `repro lint`, the AST determinism & safety linter
#            (src/repro/analysis/; docs/static-analysis.md): bench
#            registration (B001) plus the D/A/S rule families over
#            src+tests+benchmarks, failing on any non-baselined finding
#            and writing lint_report.json for the CI artifact.
# tier1      the full unit + figure-regeneration suite (the repo's
#            correctness gate; see ROADMAP.md).
# perf       `repro bench` compares the current simulator/network hot
#            paths against the preserved seed implementation, refreshes
#            BENCH_perf.json, gates it against the best recorded point in
#            benchmarks/perf/history/ (>20% speedup drop fails -- see
#            `repro trajectory`), then archives this run as a new point.
#            REPRO_BENCH_ONLY=name,name narrows the suite for triage
#            (gated but never recorded); REPRO_BENCH_REPEAT=N raises the
#            best-of count.  A gate failure re-runs the suite under
#            --profile so CI can upload BENCH_perf.pstats.
# scenarios  a conformance-matrix slice through the CLI path (run with
#            --jobs $(nproc); the merged JSON is byte-identical to a
#            sequential run), diffed against the committed
#            SCENARIO_smoke.json golden.
# matrix     the FULL (protocol x scenario) conformance matrix -- every
#            known scenario against every protocol, --jobs $(nproc) --
#            diffed against the committed SCENARIO_matrix.json golden.
#            Too slow for every push; run nightly
#            (.github/workflows/nightly.yml) and on demand.
#
# The GitHub Actions workflows (.github/workflows/ci.yml, nightly.yml)
# run the stages as separate jobs and upload BENCH_perf.json,
# SCENARIO_smoke.json and SCENARIO_matrix.json as artifacts.  When
# GITHUB_STEP_SUMMARY is set, a per-stage wall-clock table is appended to
# it after the last stage.
#
# Perf/scenario serialization: the perf stage gates *same-host speedup
# ratios*, so it must never share the host with a --jobs matrix run --
# worker processes competing for cores skew the ratio and trip the
# trajectory gate spuriously (a trip under a loaded host is host
# contention, not a regression; see docs/parallelism.md).  Within one
# ci.sh invocation the stages already run strictly in order; the flock
# below additionally serializes perf against any *concurrent* ci.sh
# running the scenario stage on the same host.

set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

CI_LOCK="${REPRO_CI_LOCK:-${TMPDIR:-/tmp}/repro-ci-host.lock}"

# Take the host-wide CI lock for the duration of the calling subshell
# (no-op when util-linux flock is unavailable).
acquire_host_lock() {
    if command -v flock >/dev/null 2>&1; then
        exec 9>>"$CI_LOCK"
        flock 9
    fi
}

stage_lint() {
    echo "== lint: byte-compile + optional pyflakes =="
    python -m compileall -q src tests benchmarks examples
    if python -c "import pyflakes" 2>/dev/null; then
        python -m pyflakes src tests benchmarks examples
    else
        echo "pyflakes not installed; byte-compile only"
    fi
    # Every bench_* function must be registered in the gated suite --
    # an unregistered benchmark silently escapes the trajectory gate.
    # (Rule B001 of the repro linter; this used to be an inline check.)
    echo "== lint: bench registration (repro lint --only B001) =="
    python -m repro lint --only B001
    # The full determinism & safety linter: module-level RNG draws,
    # wall-clock reads, hash-ordered set iteration, unregistered wire
    # messages, simulator hygiene (docs/static-analysis.md).  Fails on
    # any finding that is neither suppressed inline nor in the committed
    # baseline (benchmarks/lint_baseline.json), and on stale baseline
    # entries.  The JSON report is uploaded as a CI artifact.
    echo "== lint: determinism & safety linter (repro lint) =="
    python -m repro lint src tests benchmarks --json lint_report.json
}

stage_tier1() {
    echo "== tier1: unit + figure-regeneration tests =="
    python -m pytest -x -q
}

# Subshell body: the host lock (fd 9) releases when the stage exits.
# The benchmarks themselves stay serial -- farming the suite's current
# and seed sides to concurrent workers would skew the gated ratios.
stage_perf() (
    acquire_host_lock
    echo "== perf: micro-benchmarks + trajectory gate =="
    # REPRO_BENCH_ONLY ("name,name,...") narrows the suite for triage --
    # the resulting partial payload is gated on the benchmarks present
    # but is never recorded.  REPRO_BENCH_REPEAT raises the best-of
    # count on noisy hosts.
    #
    # The gated benchmarks run at the `repro bench` default sizes: the
    # speedup-vs-seed ratio grows with workload size (the seed's GC and
    # allocation costs scale superlinearly), so points recorded at
    # different sizes are not comparable and would trip the gate on size
    # alone.  Only the ungated closed-loop/cohort cells are shrunk.
    bench_args=(--clients 8 --duration 1 \
        --repeat "${REPRO_BENCH_REPEAT:-2}")
    if [ -n "${REPRO_BENCH_ONLY:-}" ]; then
        for name in ${REPRO_BENCH_ONLY//,/ }; do
            bench_args+=(--only "$name")
        done
    fi
    python -m repro bench "${bench_args[@]}"

    if [ -z "${REPRO_BENCH_ONLY:-}" ]; then
        python - <<'EOF'
import json

with open("BENCH_perf.json") as fh:
    payload = json.load(fh)
benches = payload["benchmarks"]
assert benches["event_churn"]["results_match"]
assert benches["heap_churn_1m"]["results_match"]
assert benches["message_storm"]["results_match"]
assert benches["broadcast_storm"]["results_match"]
assert benches["authenticated_broadcast"]["results_match"]
assert benches["xpaxos_closed_loop"]["deterministic"]
# Leader pipelining must beat a depth-1 pipeline under saturating
# open-loop load, and the open-loop driver must agree with the closed
# loop at matched offered load.
assert benches["pipelined_throughput"]["results_match"]
assert benches["pipelined_throughput"]["speedup"] > 1.0
assert benches["cohort_driver"]["agreement"]
assert benches["cohort_driver"]["deterministic"]
print("perf smoke ok: " + ", ".join(
    f"{name} {bench['speedup']:.2f}x"
    for name, bench in benches.items() if "speedup" in bench))
EOF
    fi

    # Trajectory gate: any benchmark's speedup-vs-seed falling >20% below
    # the best archived point fails the stage; a passing full run is
    # archived as the next point on the trajectory.  On a gate failure,
    # re-run the tripping subset under --profile so the CI artifact
    # carries a pstats file pointing at where the time went.
    if ! python -m repro trajectory check BENCH_perf.json; then
        echo "trajectory gate failed; capturing profile artifact" >&2
        python -m repro bench "${bench_args[@]}" \
            --profile BENCH_perf.pstats --output BENCH_perf_profiled.json \
            || true
        exit 1
    fi
    if [ -z "${REPRO_BENCH_ONLY:-}" ]; then
        python -m repro trajectory record BENCH_perf.json
    else
        echo "REPRO_BENCH_ONLY set: partial payload not recorded"
    fi
)

stage_scenarios() (
    acquire_host_lock
    echo "== scenarios: conformance matrix slice =="
    # crash-primary is the failover cell (in scope for all five since the
    # baseline view-change work); crash-primary-t2 exercises the
    # general-path view change on the larger cluster.  The cells fan out
    # over one worker per core; the merged JSON is byte-identical to a
    # --jobs 1 run, so the golden diff below is unaffected.
    python -m repro scenarios --protocol all \
        --jobs "${REPRO_SMOKE_JOBS:-$(nproc)}" \
        --scenario fault-free \
        --scenario fault-free-openloop \
        --scenario crash-primary \
        --scenario crash-primary-t2 \
        --scenario crash-follower \
        --scenario client-primary-partition \
        --scenario byzantine-primary-data-loss \
        --json SCENARIO_smoke.json

    python - <<'EOF'
import json

with open("SCENARIO_smoke.json") as fh:
    payload = json.load(fh)
cells = payload["cells"]
bad = [c for c in cells
       if c["status"] not in ("pass", "expected-violation", "skipped")]
assert not bad, bad
in_scope = [c for c in cells if c["status"] != "skipped"]
assert len(in_scope) >= 20, f"only {len(in_scope)} in-scope cells"
for failover_row in ("crash-primary", "crash-primary-t2"):
    row = [c for c in cells if c["scenario"] == failover_row]
    assert len(row) == 5 and all(c["status"] == "pass" for c in row), row
# The open-loop row drives every protocol with cohort arrivals; all five
# must absorb the offered rate.
open_row = [c for c in cells if c["scenario"] == "fault-free-openloop"]
assert len(open_row) == 5 and all(c["status"] == "pass"
                                  for c in open_row), open_row
print(f"scenario smoke ok: {len(in_scope)} cells pass")
EOF

    # The smoke artifact is a committed golden: any cell-grade or
    # commit-count drift against the checked-in SCENARIO_smoke.json fails
    # the build loudly (refresh the golden deliberately when behaviour
    # changes on purpose).
    if ! git diff --exit-code -- SCENARIO_smoke.json; then
        echo "SCENARIO_smoke.json drifted from the committed golden" >&2
        exit 1
    fi
)

stage_matrix() (
    acquire_host_lock
    echo "== matrix: full (protocol x scenario) conformance matrix =="
    # Every known scenario against every protocol (out-of-scope cells
    # report as skipped).  The cells fan out over one worker per core;
    # the merged JSON is byte-identical to --jobs 1, so the golden diff
    # below is exact.
    python -m repro scenarios --protocol all \
        --jobs "${REPRO_SMOKE_JOBS:-$(nproc)}" \
        --json SCENARIO_matrix.json

    python - <<'EOF'
import json

with open("SCENARIO_matrix.json") as fh:
    payload = json.load(fh)
cells = payload["cells"]
bad = [c for c in cells
       if c["status"] not in ("pass", "expected-violation", "skipped")]
assert not bad, bad
in_scope = [c for c in cells if c["status"] != "skipped"]
assert len(in_scope) >= 60, f"only {len(in_scope)} in-scope cells"
# The anarchy cells are the paper's central caveat: they must stay
# expected-violation (consistency CAN break past the anarchy boundary),
# never silently flip to pass.
anarchy = [c for c in cells if c["scenario"].startswith("anarchy-")
           and c["status"] != "skipped"]
assert anarchy and all(c["status"] == "expected-violation"
                       for c in anarchy), anarchy
print(f"full matrix ok: {len(in_scope)} in-scope cells")
EOF

    # Committed golden: any drift in any cell of the full matrix fails
    # the nightly loudly (refresh deliberately when behaviour changes on
    # purpose).
    if ! git diff --exit-code -- SCENARIO_matrix.json; then
        echo "SCENARIO_matrix.json drifted from the committed golden" >&2
        exit 1
    fi
)

STAGES=("$@")
if [ ${#STAGES[@]} -eq 0 ]; then
    STAGES=(lint tier1 perf scenarios)
fi
STAGE_TIMES=()
for stage in "${STAGES[@]}"; do
    stage_start=$SECONDS
    case "$stage" in
        lint|tier1|perf|scenarios|matrix) "stage_$stage" ;;
        *)
            echo "unknown stage '$stage' (known: lint tier1 perf" \
                 "scenarios matrix)" >&2
            exit 2
            ;;
    esac
    STAGE_TIMES+=("$stage $((SECONDS - stage_start))")
done

# Per-stage wall clock, into the Actions job summary when available (and
# onto stdout always, so local runs see it too).
print_stage_times() {
    echo "| stage | wall clock |"
    echo "| --- | --- |"
    local entry
    for entry in "${STAGE_TIMES[@]}"; do
        echo "| ${entry%% *} | ${entry#* }s |"
    done
}
echo "== stage wall-clock =="
print_stage_times
if [ -n "${GITHUB_STEP_SUMMARY:-}" ]; then
    {
        echo "### ci.sh stage wall-clock"
        echo
        print_stage_times
    } >> "$GITHUB_STEP_SUMMARY"
fi
