"""One round of a workload, in a process of its own.

Times the set-up (importing laserfleet and loading the scenario), then runs
the study through ``laserfleet.cli.main`` exactly as the command line
``laserfleet --scenario <file> --out <dir> --threads 1 <study>`` does, and
writes what it measured to a JSON report. With ``--setup-only`` it stops
after the set-up.

    python3 perfbench/study_round.py --root . --study deflection-map \\
        --scenario scenarios/apophis_nominal.json --out <dir> --report <file>
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def cpu_seconds() -> float:
    """User plus system time of this process and of the children it reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--study", required=True)
    parser.add_argument("--scenario", type=Path, required=True)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--report", type=Path, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    src = (args.root / "src").resolve()

    t0 = time.perf_counter()
    sys.path.insert(0, str(src))
    import laserfleet.cli
    from laserfleet.scenario import load_scenario
    t_import = time.perf_counter()
    load_scenario(args.scenario)
    t_setup = time.perf_counter()
    lf = sys.modules["laserfleet"]
    if not Path(lf.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"imported laserfleet from {lf.__file__}, not from {src}")

    report = {"setup_s": t_setup - t0, "load_s": t_setup - t_import}
    if not args.setup_only:
        import tracing

        ops = tracing.Operations()
        tracer = tracing.install(lf, ops, traced=bool(args.trace))
        cpu0, wall0 = cpu_seconds(), time.perf_counter()
        code = laserfleet.cli.main(["--scenario", str(args.scenario), "--out", str(args.out),
                                    "--threads", "1", args.study])
        wall = time.perf_counter() - wall0
        cpu = cpu_seconds() - cpu0
        if code != 0:
            raise SystemExit(f"laserfleet {args.study} exited with code {code}")
        report.update(
            wall_s=wall, cpu_s=cpu,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            attempted=ops.attempted, failed=ops.failed)
        if args.trace:
            report["layers"] = tracing.layer_metrics(tracer, ops, wall)
    args.report.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
