"""The repository benchmark: one command, four workloads.

Run from the repository root::

    python3 perfbench/run.py --workload tables-cold --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` reports per-layer metrics: on the batch workloads it runs
half the time untraced and half with every layer's entry points wrapped,
and reports the tracing overhead too; on ``service-mix`` it reads the
server's own metrics around the measured window.  ``--seconds`` and every reported time are reference seconds
(see ``common.Clock``).  Every metric is printed by name with its unit, and the last
line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See
``perfbench/README.md`` for the workloads and metric definitions.

The exit code is 0 only when the run completed; outputs that differ from
the committed golden text still exit 0 but report ``"correct": false``.
Without the package sources next to it (``src/repro``) the benchmark
exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

from common import LAYER_UNITS, ROOT, SRC, Context, Report

WORKLOADS = ("tables-cold", "tables-warm", "power-gzip", "service-mix")
END_TO_END = ("setup_s", "wall_s", "job_p50_ms", "peak_rss_mb")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_workload(ctx: Context, name: str) -> Report:
    if name == "service-mix":
        from service_mix import service_mix

        return service_mix(ctx)
    import batch

    return {
        "tables-cold": batch.tables_cold,
        "tables-warm": batch.tables_warm,
        "power-gzip": batch.power_gzip,
    }[name](ctx)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: package sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    scratch = ROOT / ".perfbench-work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        ctx = Context(args.seed, args.seconds, bool(args.trace), workdir)
        report = run_workload(ctx, args.workload)
    except (ImportError, FileNotFoundError) as error:
        print(f"perfbench: cannot run {args.workload}: {error}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    expected = tuple(LAYER_UNITS) if args.trace else END_TO_END
    if set(report.metrics) != set(expected):
        missing = sorted(set(expected) ^ set(report.metrics))
        print(f"perfbench: metric set mismatch: {missing}", file=sys.stderr)
        return 1
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name in expected:
        value, unit = report.metrics[name]
        print(f"  {name} = {value:.6g} {unit}")
    failed_frac = report.failed / report.attempted if report.attempted else 1.0
    print(f"  failed_frac = {failed_frac:.6g} ({report.failed}/{report.attempted})")
    for note in report.notes:
        print(f"  {note}")
    result = {
        "correct": report.failed == 0 and report.attempted > 0,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {
            name: {"value": report.metrics[name][0], "unit": report.metrics[name][1]}
            for name in expected
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
