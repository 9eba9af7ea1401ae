"""CSV, SVG and JSON emission.

All numeric text output uses 17-significant-digit decimal formatting so that
identical runs produce byte-identical files (golden-file friendly).  The JSON
run report has the stable schema {spec, checks[], artifacts[], timing}; the
timing field is deliberately null in emitted reports so that determinism
holds, wall-clock timing goes to the human-readable console output instead.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .evolution import EvolutionResult
from .maps import CircleGrid

__all__ = [
    "fmt",
    "RunReport",
    "REPORT_SCHEMA",
    "export_trajectory",
    "render_boundary_svg",
]


def fmt(x: float) -> str:
    """Fixed 17-significant-digit decimal rendering of one real number."""
    return format(float(x), ".17g")


REPORT_SCHEMA = {
    "type": "object",
    "required": ["spec", "checks", "artifacts", "timing"],
    "additionalProperties": False,
    "properties": {
        "spec": {"type": "object"},
        "checks": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "status", "residual"],
                "additionalProperties": True,
                "properties": {
                    "name": {"type": "string"},
                    "status": {"enum": ["pass", "fail"]},
                    "residual": {"type": ["number", "null"]},
                },
            },
        },
        "artifacts": {"type": "array", "items": {"type": "string"}},
        "timing": {"type": ["number", "null"]},
    },
}


@dataclass
class RunReport:
    """Echo of the request plus one entry per executed check."""

    spec: dict
    checks: list = field(default_factory=list)
    artifacts: list = field(default_factory=list)
    timing: float | None = None

    def add(self, name: str, passed: bool, residual: float | None, **extra):
        entry = {
            "name": name,
            "status": "pass" if passed else "fail",
            "residual": None if residual is None else float(residual),
        }
        entry.update(extra)
        self.checks.append(entry)

    def check(self, name: str, residual: float, bound: float, **extra):
        """Add a check that passes when ``residual < bound``."""
        self.add(name, residual < bound, residual, **extra)

    @property
    def all_passed(self) -> bool:
        return all(c["status"] == "pass" for c in self.checks)

    def to_json(self) -> str:
        report = {"spec": self.spec, "checks": self.checks,
                  "artifacts": self.artifacts, "timing": self.timing}
        return json.dumps(report, indent=2, sort_keys=True)


# ----------------------------------------------------------------------
# CSV trajectory
# ----------------------------------------------------------------------

def export_trajectory(result: EvolutionResult, path) -> None:
    """Write evolution snapshots as CSV.

    Columns: t, Re/Im of every map coefficient, Re/Im of M_0..M_K, the
    string residual and the max branch-point drift.  One row per snapshot.
    """
    states = [s for s in result.states if s.diagnostics is not None]
    if not states:
        raise ValueError("empty trajectory: nothing to export")
    ncoef = max(len(s.map.coeffs) for s in states)
    K = len(states[0].diagnostics.moments) - 1
    header = ["t"]
    for j in range(ncoef):
        header += [f"re_a{j}", f"im_a{j}"]
    for k in range(K + 1):
        header += [f"re_M{k}", f"im_M{k}"]
    header += ["string_residual", "branch_drift"]
    lines = [",".join(header)]
    for s in states:
        d = s.diagnostics
        row = np.concatenate([
            [s.t], np.pad(s.map.coeffs, (0, ncoef - len(s.map.coeffs))).view(float),
            np.asarray(d.moments, dtype=complex).view(float),
            [d.string_residual, d.max_branch_drift],
        ])
        # one %-format of the row renders each cell as fmt does
        lines.append(",".join(["%.17g"] * len(row)) % tuple(row.tolist()))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# ----------------------------------------------------------------------
# SVG boundary snapshots
# ----------------------------------------------------------------------

def render_boundary_svg(source, path) -> None:
    """Static SVG 1.1 with one polyline per boundary curve f(bd D).

    ``source`` is a map (one layer, ``curve0``) or an
    :class:`EvolutionResult` (whose snapshots become time-labeled layers).
    """
    if isinstance(source, EvolutionResult):
        maps = [s.map for s in source.states]
        labels = [f"t={fmt(s.t)}" for s in source.states]
    else:
        maps, labels = [source], ["curve0"]
    grid = CircleGrid(512)
    curves = [m.boundary_values(grid) for m in maps]
    allpts = np.concatenate(curves)
    lo = min(allpts.real.min(), allpts.imag.min())
    hi = max(allpts.real.max(), allpts.imag.max())
    pad = 0.05 * max(hi - lo, 1e-12)
    lo, hi = lo - pad, hi + pad
    size = 640
    scale = size / (hi - lo)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size}" height="{size}" viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    for i, (curve, label) in enumerate(zip(curves, labels)):
        closed = np.concatenate([curve, curve[:1]])
        pts = _points((closed.real - lo) * scale, (hi - closed.imag) * scale)
        shade = 30 + (200 * i) // max(len(curves), 1)
        parts.append(f'<g id="layer{i}"><title>{label}</title>')
        parts.append(
            f'<polyline points="{pts}" fill="none" '
            f'stroke="rgb({shade},{shade // 2},{255 - shade})" stroke-width="1.2"/>'
        )
        parts.append("</g>")
    parts.append("</svg>")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")


def _points(x: np.ndarray, y: np.ndarray) -> str:
    """``x0,y0 x1,y1 ...`` at 6 decimals, by one %-format of x and y interleaved."""
    xy = np.empty(2 * len(x))
    xy[0::2], xy[1::2] = x, y
    return " ".join(["%.6f,%.6f"] * len(x)) % tuple(xy.tolist())
