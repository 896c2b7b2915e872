#!/usr/bin/env bash
# Repository health check: style lint, type check, static analysis, tests.
#
# ruff and mypy are optional dev tools (config lives in pyproject.toml);
# when they are not installed the corresponding step is skipped with a
# notice instead of failing, so the script works in the minimal container
# as well as a full dev environment.

set -u

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$REPO_ROOT"
export PYTHONPATH="$REPO_ROOT/src${PYTHONPATH:+:$PYTHONPATH}"

failures=0

run_step() {
    local name="$1"
    shift
    echo "==> $name"
    if "$@"; then
        echo "    ok"
    else
        echo "    FAILED: $name"
        failures=$((failures + 1))
    fi
}

have_tool() {
    command -v "$1" >/dev/null 2>&1 || python -c "import $1" >/dev/null 2>&1
}

if have_tool ruff; then
    if command -v ruff >/dev/null 2>&1; then
        run_step "ruff check" ruff check src/repro
    else
        run_step "ruff check" python -m ruff check src/repro
    fi
else
    echo "==> ruff check"
    echo "    skipped: ruff not installed"
fi

if have_tool mypy; then
    if command -v mypy >/dev/null 2>&1; then
        run_step "mypy" mypy
    else
        run_step "mypy" python -m mypy
    fi
else
    echo "==> mypy"
    echo "    skipped: mypy not installed"
fi

run_step "repro-bus check (SA rules)" python -m repro check
run_step "repro-bus lint --all" python -m repro lint --all
run_step "repro-bus prove --fast" python -m repro prove --fast

# The batch engine must render byte-identically to the sequential path.
engine_smoke() {
    local workdir
    workdir="$(mktemp -d)" || return 1
    python -m repro table 2 --length 400 > "$workdir/seq.txt" \
        && python -m repro tables 2 --length 400 --jobs 2 \
            --cache "$workdir/cache" > "$workdir/engine.txt" 2>/dev/null \
        && diff "$workdir/seq.txt" "$workdir/engine.txt"
    local status=$?
    rm -rf "$workdir"
    return $status
}
run_step "engine smoke (tables 2 --jobs 2)" engine_smoke

# Codec cells without a kernel run encode_stream inside pool workers:
# Table 7's sel-dependent dual codes must render byte-identically.
fallback_smoke() {
    local workdir
    workdir="$(mktemp -d)" || return 1
    python -m repro table 7 --length 800 > "$workdir/seq.txt" \
        && python -m repro tables 7 --length 800 --jobs 2 --no-kernels \
            --no-cache > "$workdir/fallback.txt" 2>/dev/null \
        && diff "$workdir/seq.txt" "$workdir/fallback.txt"
    local status=$?
    rm -rf "$workdir"
    return $status
}
run_step "fallback smoke (tables 7 --no-kernels --jobs 2)" fallback_smoke

# A profiled table run charges each span once: its stage times may not
# add up to more than the run's total wall time.
profile_smoke() {
    local workdir
    workdir="$(mktemp -d)" || return 1
    python -m repro profile table --fast --json > "$workdir/profile.json" \
        && python - "$workdir/profile.json" <<'EOF'
import json
import sys

with open(sys.argv[1]) as fh:
    doc = json.load(fh)
assert doc["schema_errors"] == [], doc["schema_errors"]
staged = sum(stage["wall_s"] for stage in doc["stages"])
assert staged <= 1.01 * doc["total_s"], (staged, doc["total_s"])
EOF
    local status=$?
    rm -rf "$workdir"
    return $status
}
run_step "profile smoke (stage sum <= 1.01 x total)" profile_smoke

# The evaluation service must serve byte-identical rows, coalesce
# duplicate jobs with zero new encode work, and shut down cleanly.
run_step "service smoke (repro-bus serve)" python scripts/service_smoke.py

# perfbench's layer tracer wraps program entry points by name: a traced
# tables-cold pass must still run and end with "correct": true.
perfbench_smoke() {
    local workdir
    workdir="$(mktemp -d)" || return 1
    python3 perfbench/run.py --workload tables-cold --seed 1 --seconds 1 \
            --trace 1 > "$workdir/perfbench.txt" \
        && python - "$workdir/perfbench.txt" <<'EOF'
import json
import sys

with open(sys.argv[1]) as fh:
    last = fh.read().splitlines()[-1]
assert json.loads(last)["correct"] is True, last
EOF
    local status=$?
    rm -rf "$workdir"
    return $status
}
run_step "perfbench entry-point guard (tables-cold --trace 1)" perfbench_smoke

# The same guard for the gate-simulation entry points: a traced power-gzip
# pass must render Tables 8-9 correctly and count all 19,560 cycles.
perfbench_power_smoke() {
    local workdir
    workdir="$(mktemp -d)" || return 1
    python3 perfbench/run.py --workload power-gzip --seed 1 --seconds 1 \
            --trace 1 > "$workdir/perfbench.txt" \
        && python - "$workdir/perfbench.txt" <<'EOF'
import json
import sys

with open(sys.argv[1]) as fh:
    last = json.loads(fh.read().splitlines()[-1])
assert last["correct"] is True, last
cycles = last["metrics"]["rtl.simulated_cycles"]["value"]
assert cycles == 19560, cycles
EOF
    local status=$?
    rm -rf "$workdir"
    return $status
}
run_step "perfbench entry-point guard (power-gzip --trace 1)" perfbench_power_smoke

# The columnar kernels must stay bit-identical to encode_stream and keep
# clearing the cold-encode speedup floor.
if python -c "import pytest_benchmark" >/dev/null 2>&1; then
    run_step "kernel speedup (bench_kernels)" \
        python -m pytest -q --benchmark-disable benchmarks/bench_kernels.py
else
    echo "==> kernel speedup (bench_kernels)"
    echo "    skipped: pytest-benchmark not installed"
fi

# Benchmark history regression gate: compare the latest history record
# per benchmark against its previous run under benchmarks/budgets.toml.
run_step "bench report --strict" python -m repro bench report --strict

run_step "pytest (tier 1)" python -m pytest -x -q tests

echo
if [ "$failures" -ne 0 ]; then
    echo "check.sh: $failures step(s) failed"
    exit 1
fi
echo "check.sh: all steps passed"
