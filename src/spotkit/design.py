"""Space-filling initial designs on the unit cube over the active dimensions."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
# numpy loads numpy.random lazily; importing it with spotkit keeps that cost
# in a command's start-up instead of its first iteration
import numpy.random  # noqa: F401


@dataclass(frozen=True)
class DesignControl:
    init_size: int = 10
    repeats: int = 1
    seed: int = 0

    def __post_init__(self):
        require_counts(self, "init_size", "repeats")


def require_counts(control, *names: str) -> None:
    """Each named field of a frozen ``control`` must be a whole number >= 1;
    a whole float (``10.0``) is stored as an int."""
    for name in names:
        value = getattr(control, name)
        if value < 1:
            raise ValueError(f"{name} must be >= 1")
        if not float(value).is_integer():
            raise ValueError(f"{name} must be a whole number")
        object.__setattr__(control, name, int(value))


def child_seed(seed: int, *key: int) -> int:
    """Integer seed of the stream ``key`` under ``seed``; ``child_seed(s, i)``
    is the first state word of ``SeedSequence(s).spawn(i + 1)[i]``."""
    return int(np.random.SeedSequence(entropy=seed, spawn_key=key).generate_state(1)[0])


def lhs_unit(rng: np.random.Generator, n: int, dims: int) -> np.ndarray:
    """Latin hypercube of ``n`` points in [0, 1)^dims drawn from ``rng``.

    Per dimension, in order: a permutation of the ``n`` strata, then one
    uniform jitter per point inside its stratum.
    """
    out = np.empty((n, dims))
    for d in range(dims):
        out[:, d] = (rng.permutation(n) + rng.random(n)) / n
    return out


def latin_hypercube(control: DesignControl, dims: int) -> np.ndarray:
    """Latin hypercube sample of ``init_size`` points in [0, 1)^dims.

    Per dimension, exactly one base point falls in each of the init_size
    equal-width strata (uniform jitter inside the cell; the single point of
    a size-1 design sits at the cell center). Each base point is then
    duplicated ``repeats`` times, consecutively. Deterministic per seed.
    """
    if dims < 1:
        raise ValueError("dims must be >= 1")
    n = control.init_size
    if n == 1:
        base = np.full((1, dims), 0.5)
    else:
        base = lhs_unit(np.random.default_rng(control.seed), n, dims)
    return np.repeat(base, control.repeats, axis=0)
