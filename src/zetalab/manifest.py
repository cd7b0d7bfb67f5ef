"""Run manifests and CSV output with a fixed numeric format.

Every CLI run appends one JSON record to the manifest log: the command
line, the precision-config snapshot, any substitution constants and
cache keys consumed, wall-clock, and a sha256 digest of every file it
wrote.  The log is append-only; CSV payloads are deterministic, the
manifest's timestamps are not meant to be.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence

from .config import PrecisionConfig

CSV_ENCODING = "utf-8"


def _cell(v: Any) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return f"{v:.15g}"
    return str(v)


def csv_cells(rows: Iterable[Sequence[Any]]) -> List[List[str]]:
    """The one CSV cell format: floats (np.float64 included) at 15
    significant digits, None as an empty cell, bools in lower case,
    anything else through str."""
    return [[_cell(v) for v in row] for row in rows]


def write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """UTF-8, LF, header row, cells from `csv_cells`; returns sha256."""
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    payload = ("\n".join(lines) + "\n").encode(CSV_ENCODING)
    p = Path(path)
    if p.parent != Path(""):
        p.parent.mkdir(parents=True, exist_ok=True)
    with open(p, "wb") as f:
        f.write(payload)
    return hashlib.sha256(payload).hexdigest()


class RunManifest:
    """Accumulates one run's provenance, then appends it to the log."""

    def __init__(self, argv: Sequence[str], config: PrecisionConfig):
        self.record: Dict = {
            "argv": list(argv),
            "config": dataclasses.asdict(config),
            "constants": {},
            "cbar_keys": [],
            "outputs": {},
        }
        self._t0 = time.monotonic()

    def add_constant(self, name: str, value: float) -> None:
        self.record["constants"][name] = value

    def add_cbar_key(self, key: str) -> None:
        self.record["cbar_keys"].append(key)

    def add_output(self, path: str, digest: str) -> None:
        self.record["outputs"][path] = digest

    def write(self, manifest_path: Optional[str]) -> Dict:
        self.record["wall_s"] = round(time.monotonic() - self._t0, 3)
        self.record["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
        if manifest_path:
            p = Path(manifest_path)
            if p.parent != Path(""):
                p.parent.mkdir(parents=True, exist_ok=True)
            with open(p, "a", encoding="utf-8") as f:
                f.write(json.dumps(self.record, sort_keys=True) + "\n")
        return self.record
