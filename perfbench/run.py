#!/usr/bin/env python3
"""Benchmark of the laserfleet design studies.

    python3 perfbench/run.py --workload deflection-map --seed 1 --seconds 15 --trace 0

Runs whole rounds of one workload, each round a study in its own process
(``study_round.py``), until ``--seconds`` have passed; there is always at
least one. It then checks the study's output and prints one JSON line:
``correct``, ``attempted`` and ``failed`` design points, and the metrics,
the end-to-end ones with ``--trace 0`` and the per-layer ones with
``--trace 1``. The full record, with its provenance, goes to
``perfbench/out/<workload>/``. Run it from the root of the repository.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
OUT = BENCH / "out"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_SAMPLES = 2          # set-up-only processes beside each round's own


def run_child(args: list[str], report: Path) -> dict:
    report.unlink(missing_ok=True)
    proc = subprocess.run([sys.executable, str(BENCH / "study_round.py"), "--root", str(ROOT),
                           "--report", str(report), *args],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: study round failed with code {proc.returncode}")
    return json.loads(report.read_text())


def src_digest() -> tuple[str, int]:
    """sha256 over the package sources, and their line count."""
    digest, lines = hashlib.sha256(), 0
    for path in sorted((ROOT / "src" / "laserfleet").rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return digest.hexdigest(), lines


def commit() -> str | None:
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
                              capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None             # a checkout without git history


class Ledger:
    """Figures earlier runs of the same code and scenario left in ``out``."""

    def __init__(self, path: Path, key: str):
        self.path = path
        self.data = json.loads(path.read_text()) if path.is_file() else {}
        self.entry = self.data.setdefault(key, {"csv_sha256": None, "wall_s": []})

    def save(self):
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.data, indent=2) + "\n")
        os.replace(tmp, self.path)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "laserfleet" / "__init__.py").is_file():
        print(f"perfbench: no laserfleet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import checks
    import tracing
    from laserfleet.scenario import load_scenario
    from workloads import WORKLOADS, file_sha256, scenario_path

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    work = OUT / w.name
    scenario = scenario_path(w, ROOT, OUT)
    scenario_sha = file_sha256(scenario)
    code_sha, src_lines = src_digest()
    ledger = Ledger(work / "ledger.json", f"{scenario_sha}:{code_sha}")
    study_args = ["--study", w.study, "--scenario", str(scenario)]

    def study(k: int, trace: int) -> dict:
        out = work / f"round{k}"
        rec = run_child([*study_args, "--out", str(out), "--trace", str(trace)],
                        work / f"round{k}.json")
        csv_path = out / f"{w.table}.csv"
        rec["csv_sha256"] = file_sha256(csv_path)
        rec["results_bytes"] = csv_path.stat().st_size \
            + csv_path.with_suffix(".meta.json").stat().st_size
        rec["csv"] = str(csv_path)
        return rec

    # The traced run compares itself with the untraced wall time of this
    # code; without one on record it measures one first.
    baseline = list(ledger.entry["wall_s"])
    if args.trace and not baseline:
        baseline.append(study(0, 0)["wall_s"])
        ledger.entry["wall_s"] += baseline

    rounds = []
    started = time.perf_counter()
    while not rounds or time.perf_counter() - started < args.seconds:
        rounds.append(study(len(rounds) + 1, args.trace))
    setups = [r["setup_s"] for r in rounds]
    for k in range(SETUP_SAMPLES):
        setups.append(run_child([*study_args, "--setup-only"],
                                work / f"setup{k}.json")["setup_s"])

    # Checks: the output of the last round, and the same bytes everywhere
    rows, meta = checks.read_table(Path(rounds[-1]["csv"]))
    parsed = load_scenario(scenario)
    faults = checks.CHECKS[w.name](rows, meta, parsed, args.seed)
    shas = {r["csv_sha256"] for r in rounds}
    if ledger.entry["csv_sha256"] is None:
        ledger.entry["csv_sha256"] = rounds[0]["csv_sha256"]
    shas.add(ledger.entry["csv_sha256"])
    if len(shas) > 1:
        faults.append(f"the same scenario and seed wrote {len(shas)} different CSVs")
    if w.grid:      # one operation per cell; every round wrote the same CSV
        attempted, failed = (len(rounds) * n for n in checks.operations(rows))
    else:           # one operation per optimizer evaluation
        attempted = sum(r["attempted"] for r in rounds)
        failed = sum(r["failed"] for r in rounds)

    wall = statistics.median(r["wall_s"] for r in rounds)
    if args.trace:
        first = rounds[0]["layers"]
        for r in rounds[1:]:
            moved = [k for k in tracing.DETERMINISTIC if r["layers"][k] != first[k]]
            if moved:
                faults.append(f"traced counts differ between rounds: {moved}")
        values = {k: statistics.median(r["layers"][k] for r in rounds) for k in first}
        values.update({
            "scenario.load_s": statistics.median(r["load_s"] for r in rounds),
            "moo.front_hv": (checks.front_hypervolume(rows, parsed)
                             if w.name == "formation-design" else 0.0),
            "results.bytes": rounds[-1]["results_bytes"],
            "src.lines": src_lines,
            "trace.overhead_s": wall - statistics.median(baseline)})
    else:
        values = {"setup_s": statistics.median(setups), "wall_s": wall,
                  "cpu_s": statistics.median(r["cpu_s"] for r in rounds),
                  "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds)}
        ledger.entry["wall_s"] += [r["wall_s"] for r in rounds]
    ledger.save()

    for fault in faults:
        print(f"perfbench: {w.name}: {fault}", file=sys.stderr)
    declared = BENCHMARK["per_layer" if args.trace else "end_to_end"]
    result = {"correct": not faults, "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                          for m in declared}}
    record = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "provenance": {
            "commit": commit(), "src_sha256": code_sha, "python": sys.version,
            "implementation": platform.python_implementation(),
            "numpy": numpy.__version__, "cpu_count": os.cpu_count(),
            "platform": platform.platform(), "scenario": str(scenario.relative_to(ROOT)),
            "scenario_sha256": scenario_sha, "scenario_seed": meta.get("seed"),
            "workload_seed": args.seed},
        "rounds": rounds, "setup_samples_s": setups, "faults": faults, "result": result}
    (work / f"BENCH_{w.name}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0 if not faults else 1


if __name__ == "__main__":
    sys.exit(main())
