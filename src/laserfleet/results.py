"""Plot-ready result tables: CSV payload plus a JSON metadata sidecar.

Floats are written with shortest round-trip repr, so re-running the same
scenario with the same seed reproduces the files byte for byte. No
timestamps anywhere.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__


@dataclass
class ResultTable:
    """Named, unit-annotated columns with row-major records."""

    name: str
    columns: list[tuple[str, str]]          # (name, unit); "" for dimensionless
    rows: list[tuple] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def add_row(self, *values):
        if len(values) != len(self.columns):
            raise ValueError(f"{self.name}: expected {len(self.columns)} values, "
                             f"got {len(values)}")
        self.rows.append(tuple(values))

    def header(self) -> list[str]:
        return [f"{name} [{unit}]" if unit else name for name, unit in self.columns]

    def write(self, out_dir: str | Path) -> Path:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        csv_path = out_dir / f"{self.name}.csv"
        with open(csv_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.header())
            for row in self.rows:
                writer.writerow([_format(v) for v in row])

        meta = {"table": self.name, "code_version": __version__,
                "columns": [{"name": n, "unit": u} for n, u in self.columns],
                "n_rows": len(self.rows)}
        meta.update(self.metadata)
        meta_path = out_dir / f"{self.name}.meta.json"
        with open(meta_path, "w") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return csv_path


def _format(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))  # a numpy scalar's repr carries its type name
    if value is None:
        return ""
    return str(value)
