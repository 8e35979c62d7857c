"""Mixed-type hyperparameter search spaces defined by JSON hyper-dicts.

A space is an ordered list of parameter specs parsed from a JSON document
keyed by model name. Numeric parameters carry bounds on the internal scale
(the scale the tuner searches on); factors carry an ordered level list and
are encoded internally as the level index. A parameter is fixed, and thereby
removed from the tuned dimensions, when its lower and upper bound coincide
(for factors: when a single level remains).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

PARAM_KINDS = ("int", "float", "boolean", "factor")

# JSON spelling -> internal tag
_TRANSFORM_FROM_JSON = {"None": "none", "transform_power_2_int": "power_2_int"}
_TRANSFORM_TO_JSON = {v: k for k, v in _TRANSFORM_FROM_JSON.items()}

# slack tolerated when snapping float fuzz back onto bounds or lattices
_SNAP_TOL = 1e-9


@dataclass(frozen=True)
class ParamSpec:
    """One hyperparameter: kind, bounds on the internal scale, transform.

    ``default`` lives on the internal scale for numeric kinds (a value of 5
    with the power-of-two transform means 2**5 in natural units) and is a
    level string for factors.
    """

    name: str
    kind: str
    default: int | float | str
    transform: str = "none"
    lower: float = 0.0
    upper: float = 0.0
    levels: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in PARAM_KINDS:
            raise ValueError(f"parameter {self.name!r}: unknown type {self.kind!r}")
        if self.transform not in _TRANSFORM_TO_JSON:
            raise ValueError(
                f"parameter {self.name!r}: unknown transform {self.transform!r}"
            )
        if self.lower > self.upper:
            raise ValueError(
                f"parameter {self.name!r}: lower {self.lower} > upper {self.upper}"
            )
        if self.kind == "factor":
            if not self.levels:
                raise ValueError(f"parameter {self.name!r}: factor with empty levels")
            if len(set(self.levels)) != len(self.levels):
                raise ValueError(f"parameter {self.name!r}: duplicate levels")
            if self.lower != 0 or self.upper != len(self.levels) - 1:
                raise ValueError(
                    f"parameter {self.name!r}: factor bounds must be [0, n_levels-1]"
                )
            if self.default not in self.levels:
                raise ValueError(
                    f"parameter {self.name!r}: default {self.default!r} not a level"
                )
            if self.transform != "none":
                raise ValueError(f"parameter {self.name!r}: factors take no transform")
        else:
            if self.levels:
                raise ValueError(f"parameter {self.name!r}: levels on non-factor")
            if not isinstance(self.default, (int, float)) or isinstance(self.default, bool):
                raise ValueError(f"parameter {self.name!r}: numeric default required")
        if self.kind == "boolean" and not {self.lower, self.upper} <= {0.0, 1.0}:
            raise ValueError(f"parameter {self.name!r}: boolean bounds must be 0/1")
        if self.transform == "power_2_int" and self.kind != "int":
            raise ValueError(
                f"parameter {self.name!r}: power_2_int applies to int parameters only"
            )

    @property
    def is_fixed(self) -> bool:
        return self.lower == self.upper

    @property
    def is_lattice(self) -> bool:
        """True for kinds whose internal values live on an integer grid."""
        return self.kind in ("int", "boolean", "factor")

    def default_internal(self) -> float:
        """Internal-scale default, clamped into the current bounds."""
        if self.kind == "factor":
            raw = float(self.levels.index(self.default))
        else:
            raw = float(self.default)
        return min(max(raw, self.lower), self.upper)

    def encode(self, value) -> float:
        """Natural-unit value -> internal coordinate."""
        if self.kind == "factor":
            if value not in self.levels:
                raise ValueError(f"parameter {self.name!r}: {value!r} not a level")
            return float(self.levels.index(value))
        if self.transform == "power_2_int":
            raw = math.log2(value)
            return float(round(raw)) if abs(raw - round(raw)) < 1e-9 else raw
        return float(value)

    def decode(self, raw: float):
        """Internal coordinate -> natural-unit value.

        Lattice kinds are rounded to the nearest grid point first; values
        beyond the bounds (past float fuzz) are rejected.
        """
        if self.is_lattice:
            raw = float(round(raw))
        if raw < self.lower - _SNAP_TOL * (1.0 + abs(self.lower)) or raw > (
            self.upper + _SNAP_TOL * (1.0 + abs(self.upper))
        ):
            raise ValueError(
                f"parameter {self.name!r}: internal value {raw} outside "
                f"[{self.lower}, {self.upper}]"
            )
        raw = min(max(raw, self.lower), self.upper)
        if self.kind == "factor":
            return self.levels[int(raw)]
        if self.transform == "power_2_int":
            return 2 ** int(raw)
        if self.kind in ("int", "boolean"):
            return int(raw)
        return raw


@dataclass(frozen=True)
class SearchSpace:
    """Ordered collection of parameter specs with derived active/fixed masks."""

    params: tuple[ParamSpec, ...]

    def __post_init__(self):
        names = [p.name for p in self.params]
        if len(set(names)) != len(names):
            raise ValueError("duplicate parameter names")

    # -- basic views ------------------------------------------------------

    @property
    def names(self) -> list[str]:
        return [p.name for p in self.params]

    @property
    def dim(self) -> int:
        return len(self.params)

    @property
    def active_mask(self) -> np.ndarray:
        return np.array([not p.is_fixed for p in self.params], dtype=bool)

    @property
    def active(self) -> list[ParamSpec]:
        return [p for p in self.params if not p.is_fixed]

    @property
    def n_active(self) -> int:
        return sum(1 for p in self.params if not p.is_fixed)

    def spec(self, name: str) -> ParamSpec:
        for p in self.params:
            if p.name == name:
                return p
        raise ValueError(f"unknown parameter {name!r}")

    # -- modification (returns new spaces) --------------------------------

    def modify_bounds(self, name: str, bounds) -> "SearchSpace":
        """Replace a numeric parameter's bounds; equal bounds fix it.

        The stored default is kept as declared; it is clamped into the
        active bounds only when a concrete configuration is materialized.
        """
        spec = self.spec(name)
        if spec.kind == "factor":
            raise ValueError(f"parameter {name!r} is a factor; modify its levels")
        lo, hi = float(bounds[0]), float(bounds[1])
        if lo > hi:
            raise ValueError(f"parameter {name!r}: inverted bounds [{lo}, {hi}]")
        new = replace(spec, lower=lo, upper=hi)
        return self._swap(name, new)

    def modify_levels(self, name: str, levels) -> "SearchSpace":
        """Replace a factor's level list with a subset of the current levels.

        A single remaining level fixes the parameter. The default is reset
        to the first remaining level when it is no longer present.
        """
        spec = self.spec(name)
        if spec.kind != "factor":
            raise ValueError(f"parameter {name!r} is not a factor")
        if not levels:
            raise ValueError(f"parameter {name!r}: empty level list")
        unknown = [lv for lv in levels if lv not in spec.levels]
        if unknown:
            raise ValueError(f"parameter {name!r}: unknown levels {unknown}")
        new_levels = tuple(levels)
        default = spec.default if spec.default in new_levels else new_levels[0]
        new = replace(
            spec, levels=new_levels, lower=0.0, upper=float(len(new_levels) - 1),
            default=default,
        )
        return self._swap(name, new)

    def _swap(self, name: str, new: ParamSpec) -> "SearchSpace":
        return SearchSpace(tuple(new if p.name == name else p for p in self.params))

    # -- internal-vector mapping ------------------------------------------

    def internal_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        lo = np.array([p.lower for p in self.params], dtype=float)
        hi = np.array([p.upper for p in self.params], dtype=float)
        return lo, hi

    def default_internal(self) -> np.ndarray:
        return np.array([p.default_internal() for p in self.params], dtype=float)

    def default_config(self) -> dict:
        return self.from_internal(self.default_internal())

    def to_internal(self, config: dict) -> np.ndarray:
        """Natural-unit configuration -> full internal vector (spec order).

        Fixed parameters are carried at their fixed internal value whatever
        the configuration says, so fixed coordinates are identical across
        all vectors produced from one space.
        """
        vec = np.empty(self.dim, dtype=float)
        for i, p in enumerate(self.params):
            if p.is_fixed:
                vec[i] = p.lower
                continue
            if p.name not in config:
                raise ValueError(f"configuration misses parameter {p.name!r}")
            vec[i] = p.encode(config[p.name])
        return vec

    def from_internal(self, vec) -> dict:
        """Full internal vector -> natural-unit configuration (spec order)."""
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (self.dim,):
            raise ValueError(f"expected vector of length {self.dim}, got {vec.shape}")
        config = {}
        for p, raw in zip(self.params, vec):
            config[p.name] = p.decode(p.lower if p.is_fixed else float(raw))
        return config

    def clip_internal(self, vec: np.ndarray) -> np.ndarray:
        """Clamp to bounds, snap lattice kinds to their grid, pin fixed dims."""
        lo, hi = self.internal_bounds()
        out = np.clip(np.asarray(vec, dtype=float), lo, hi)
        for i, p in enumerate(self.params):
            if p.is_fixed:
                out[i] = p.lower
            elif p.is_lattice:
                out[i] = float(round(out[i]))
        return out

    def embed_unit(self, unit: np.ndarray) -> np.ndarray:
        """Unit-cube coordinates over the active dims -> full internal vectors.

        Lattice dims are scaled so every grid point owns an equal share of
        [0, 1), then snapped.
        """
        unit = np.atleast_2d(np.asarray(unit, dtype=float))
        if unit.shape[1] != self.n_active:
            raise ValueError(
                f"expected {self.n_active} unit columns, got {unit.shape[1]}"
            )
        rows = np.tile(self.default_internal(), (unit.shape[0], 1))
        j = 0
        for i, p in enumerate(self.params):
            if p.is_fixed:
                rows[:, i] = p.lower
                continue
            u = unit[:, j]
            if p.is_lattice:
                k = p.upper - p.lower + 1.0
                rows[:, i] = p.lower + np.clip(np.floor(u * k), 0, k - 1)
            else:
                rows[:, i] = p.lower + u * (p.upper - p.lower)
            j += 1
        return rows


# -- JSON hyper-dict parsing / serialization ------------------------------

_NUMERIC_FIELDS = ("default", "lower", "upper")


def parse_hyper_dict(text: str, model_name: str) -> SearchSpace:
    """Parse a JSON hyper-dict document into the search space for one model.

    The document is an object keyed by model name; each entry maps a
    parameter name to an object with "type", "default", "transform",
    "lower" and "upper" (factors add "levels"). Other keys, such as
    spotPython's "core_model_parameter_type" and "class_name", are accepted
    and ignored. Document order is kept.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ValueError(f"hyper-dict is not valid JSON: {err}") from err
    if not isinstance(doc, dict) or model_name not in doc:
        raise ValueError(f"hyper-dict has no entry for model {model_name!r}")
    block = doc[model_name]
    if not isinstance(block, dict):
        raise ValueError(f"model {model_name!r}: expected an object of parameters")
    params = []
    for name, entry in block.items():
        params.append(_parse_entry(name, entry))
    return SearchSpace(tuple(params))


def _parse_entry(name: str, entry) -> ParamSpec:
    if not isinstance(entry, dict):
        raise ValueError(f"parameter {name!r}: expected an object")
    try:
        kind = entry["type"]
        default = entry["default"]
        transform_json = entry.get("transform", "None")
        lower = entry["lower"]
        upper = entry["upper"]
    except KeyError as err:
        raise ValueError(f"parameter {name!r}: missing field {err.args[0]!r}") from err
    if transform_json not in _TRANSFORM_FROM_JSON:
        raise ValueError(f"parameter {name!r}: unknown transform {transform_json!r}")
    # a declared default may sit outside narrowed bounds (it is clamped when
    # a configuration is materialized), so no bounds check on it here
    return ParamSpec(
        name=name,
        kind=kind,
        default=default,
        transform=_TRANSFORM_FROM_JSON[transform_json],
        lower=float(lower),
        upper=float(upper),
        levels=tuple(entry.get("levels", ())),
    )


def serialize_hyper_dict(space: SearchSpace, model_name: str) -> str:
    """Canonical JSON form: parameters in spec order, fields alphabetical."""
    block = {}
    for p in space.params:
        entry: dict = {
            "default": _canon_number(p, p.default),
            "lower": _canon_number(p, p.lower),
            "transform": _TRANSFORM_TO_JSON[p.transform],
            "type": p.kind,
            "upper": _canon_number(p, p.upper),
        }
        if p.kind == "factor":
            entry["levels"] = list(p.levels)
        block[p.name] = dict(sorted(entry.items()))
    return json.dumps({model_name: block}, indent=2)


def _canon_number(p: ParamSpec, value):
    if isinstance(value, str):
        return value
    if p.is_lattice:
        return int(round(value))
    return float(value)


# -- design / results tables ----------------------------------------------

def gen_design_table(space: SearchSpace, state=None, importance=None) -> list[dict]:
    """One row per parameter: name, type, default, lower, upper, transform.

    With tuning results, the rows additionally carry the tuned internal
    value of the best point plus its importance and star code.
    """
    tuned = None
    if state is not None and len(state.y) > 0:
        tuned = np.asarray(state.X[state.best_index], dtype=float)
    by_name = {}
    if importance is not None:
        by_name = {e["name"]: e for e in importance}
    rows = []
    for i, p in enumerate(space.params):
        row = {
            "name": p.name,
            "type": p.kind,
            "default": p.default,
            "lower": _canon_number(p, p.lower),
            "upper": _canon_number(p, p.upper),
        }
        if tuned is not None:
            row["tuned"] = _canon_number(p, float(tuned[i]))
        row["transform"] = _TRANSFORM_TO_JSON[p.transform]
        if tuned is not None:
            entry = by_name.get(p.name)
            row["importance"] = round(entry["importance"], 2) if entry else 0.0
            row["stars"] = entry["stars"] if entry else ""
        rows.append(row)
    return rows


def render_table(rows: list[dict]) -> str:
    """Aligned plain-text rendering of table rows."""
    if not rows:
        return "(empty search space)"
    cols = list(rows[0].keys())
    cells = [[_cell(r[c]) for c in cols] for r in rows]
    widths = [max(len(cols[i]), max(len(row[i]) for row in cells)) for i in range(len(cols))]
    lines = [" | ".join(c.ljust(w) for c, w in zip(cols, widths))]
    lines.append("-+-".join("-" * w for w in widths))
    for row in cells:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _cell(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)
