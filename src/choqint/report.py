"""Deterministic report rendering for the command line front end.

Both writers format every float with %.9g and keep key order fixed, so the
same run configuration always produces byte-identical output (suitable for
golden-file testing).  Wall-clock timing is deliberately kept out of the
serialized forms and reported on stderr instead.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

import numpy as np


def format_float(x: float) -> str:
    return f"{x:.9g}"


def _json_scalar(value: Any) -> str:
    if value is None:
        return "null"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if value != value or value in (float("inf"), float("-inf")):
            return "null"
        return format_float(value)
    if isinstance(value, str):
        return json.dumps(value, ensure_ascii=False)
    raise TypeError(f"unsupported scalar {type(value).__name__}")


def to_json(value: Any, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = ",\n".join(
            f'{pad}  "{k}": {to_json(v, indent + 1)}' for k, v in value.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        scalarish = all(not isinstance(v, (dict, list, tuple)) for v in value)
        if scalarish:
            return "[" + ", ".join(_json_scalar(v) for v in value) + "]"
        items = ",\n".join(f"{pad}  {to_json(v, indent + 1)}" for v in value)
        return "[\n" + items + "\n" + pad + "]"
    return _json_scalar(value)


@dataclass
class RunReport:
    """Everything one CLI run produces, minus anything non-deterministic."""

    command: str
    inputs: dict
    columns: list[str]
    rows: list[list]
    certificate: dict | None = None
    residual: float | None = None
    verdict: str | None = None
    properties: dict | None = None

    def to_csv_text(self) -> str:
        lines = [",".join(self.columns)]
        for row in self.rows:
            cells = []
            for cell in row:
                if isinstance(cell, bool):
                    cells.append("1" if cell else "0")
                elif isinstance(cell, float):
                    cells.append(format_float(cell))
                else:
                    cells.append(str(cell))
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def to_json_text(self) -> str:
        payload: dict[str, Any] = {
            "command": self.command,
            "inputs": self.inputs,
            "columns": self.columns,
            "results": [
                {k: v for k, v in zip(self.columns, row)} for row in self.rows
            ],
        }
        if self.certificate is not None:
            payload["certificate"] = self.certificate
        if self.residual is not None:
            payload["residual"] = self.residual
        if self.verdict is not None:
            payload["verdict"] = self.verdict
        if self.properties is not None:
            payload["properties"] = self.properties
        return to_json(payload) + "\n"
