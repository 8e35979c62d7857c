"""Post-run statistics and plot-data exports.

Everything here is a pure view over a fitted surrogate and a run state:
variable importance with star codes, progress curves, contour grids over
parameter pairs, and parallel-coordinate rows. Rendering is left to
external tooling; these functions only produce rows and CSV text.
"""
from __future__ import annotations

import csv
import io

import numpy as np

from .searchspace import SearchSpace
from .surrogate import KrigingModel
from .tuner import RunState

STAR_THRESHOLDS = ((95.0, "***"), (50.0, "**"), (1.0, "*"), (0.1, "."))


def star_code(importance: float) -> str:
    for threshold, stars in STAR_THRESHOLDS:
        if importance >= threshold:
            return stars
    return ""


def importance(model: KrigingModel, space: SearchSpace) -> list[dict]:
    """Per-parameter activity of the fitted surrogate on a 0..100 scale.

    The most active dimension scores 100; fixed parameters score 0. The
    model must have been fitted on the space's active columns in order.
    """
    active = space.active
    if model.dim != len(active):
        raise ValueError(
            f"model has {model.dim} dims but space has {len(active)} active parameters"
        )
    theta = np.asarray(model.theta_log10, dtype=float)
    scores = 100.0 * 10.0 ** (theta - theta.max()) if theta.size else np.array([])
    by_name = {p.name: float(s) for p, s in zip(active, scores)}
    report = []
    for p in space.params:
        value = by_name.get(p.name, 0.0)
        report.append({"name": p.name, "importance": value, "stars": star_code(value)})
    return report


def select_important_pairs(report: list[dict], threshold: float = 0.025) -> list[tuple[str, str]]:
    """All unordered pairs of parameters whose importance beats the threshold.

    ``threshold`` uses the 0..1 convention, so 0.025 keeps parameters with
    importance above 2.5 on the 0..100 scale.
    """
    cut = threshold * 100.0
    names = [e["name"] for e in report if e["importance"] > cut]
    return [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]


def export_progress(state: RunState) -> list[dict]:
    """Rows (iter, y, best-so-far, phase); the best column is non-increasing."""
    if len(state) == 0:
        raise ValueError("empty run state")
    rows = []
    best = np.inf
    for i in range(len(state)):
        best = min(best, state.y[i])
        rows.append({
            "iter": i + 1, "y": state.y[i], "best": best, "phase": state.phases[i],
        })
    return rows


def export_contour(model: KrigingModel, space: SearchSpace,
                   pair: tuple[str, str], grid: int = 30,
                   fixed_at: dict | None = None) -> list[dict]:
    """Surrogate means over two active parameters' internal ranges.

    All other dimensions sit at ``fixed_at`` (a natural-unit configuration,
    default: the space's defaults). Lattice axes snap to their grid, which
    yields the step-shaped landscapes integer and factor parameters induce.
    One ``model.predict`` call scores the ``grid**2`` points, the first
    axis outer, each mean with the bits of predicting its point alone.
    """
    if grid < 2:
        raise ValueError("grid must be >= 2")
    name_a, name_b = pair
    active = space.active
    active_names = [p.name for p in active]
    for name in (name_a, name_b):
        if name not in active_names:
            raise ValueError(f"parameter {name!r} is fixed or unknown")
    ia, ib = active_names.index(name_a), active_names.index(name_b)
    spec_a, spec_b = active[ia], active[ib]

    def axis(spec):
        vals = np.linspace(spec.lower, spec.upper, grid)
        if spec.is_lattice:
            vals = np.round(vals)
        return vals

    base_full = space.to_internal(fixed_at) if fixed_at else space.default_internal()
    grid_a, grid_b = np.repeat(axis(spec_a), grid), np.tile(axis(spec_b), grid)
    V = np.tile(base_full[space.active_mask], (grid * grid, 1))
    V[:, ia], V[:, ib] = grid_a, grid_b
    # each mean keeps the bits of a direct call at its point
    means = model.predict(V)
    return [{name_a: va, name_b: vb, "mean": mean}
            for va, vb, mean in zip(grid_a.tolist(), grid_b.tolist(), means.tolist())]


def export_parallel(state: RunState, space: SearchSpace) -> list[dict]:
    """Each evaluated vector normalized per dimension to [0, 1], plus its loss.

    Fixed dimensions have no extent and map to 0.
    """
    if len(state) == 0:
        raise ValueError("empty run state")
    lo, hi = space.internal_bounds()
    span = hi - lo
    rows = []
    for vec, y in zip(state.X, state.y):
        row = {}
        for j, p in enumerate(space.params):
            row[p.name] = float((vec[j] - lo[j]) / span[j]) if span[j] > 0 else 0.0
        row["y"] = float(y)
        rows.append(row)
    return rows


def rows_to_csv(rows: list[dict], columns: list[str] | None = None) -> str:
    """Deterministic CSV text for exported rows (floats via repr)."""
    if not rows:
        return ""
    columns = columns or list(rows[0].keys())
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else str(v)
                         for v in (row[c] for c in columns)])
    return buf.getvalue()
