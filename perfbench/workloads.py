"""The benchmark's workloads: which study runs on which scenario.

Each workload is one ``laserfleet --scenario <file> <study>`` call. Two of
them run a shipped scenario unchanged; ``shaped-design`` runs a scenario
that the benchmark derives from a shipped one and writes under
``perfbench/out``, with the same bytes every time.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

# The shaped study's initial population of 32 and one generation. Each
# evaluation costs about 0.1 s, so the shipped budget of 5,000 (about
# 10 min) is too long to repeat.
SHAPED_BUDGET = 96


@dataclass(frozen=True)
class Workload:
    name: str
    study: str                 # laserfleet subcommand
    table: str                 # result table name (CSV stem)
    source: str                # shipped scenario, relative to the repo root
    grid: bool                 # grid cells, else optimizer evaluations
    overrides: tuple = ()      # ((json path...), value) pairs applied to it


WORKLOADS = {w.name: w for w in (
    Workload("deflection-map", "deflection-map", "deflection_map",
             "scenarios/apophis_nominal.json", True),
    Workload("formation-design", "formation-design", "formation_design",
             "scenarios/apophis_nominal.json", False),
    Workload("shaped-design", "shaped-design", "shaped_design",
             "scenarios/apophis_nominal.json", False,
             ((("optimizer", "budget"), SHAPED_BUDGET),)),
)}


def scenario_path(w: Workload, root: Path, out: Path) -> Path:
    """The scenario file the study reads; derived files go under ``out``."""
    src = root / w.source
    if not w.overrides:
        return src
    doc = json.loads(src.read_text())
    for keys, value in w.overrides:
        node = doc
        for k in keys[:-1]:
            node = node.setdefault(k, {})
        node[keys[-1]] = value
    path = out / w.name / "scenario.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(doc, indent=2) + "\n"
    if not path.is_file() or path.read_text() != text:
        path.write_text(text)
    return path


def file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()
