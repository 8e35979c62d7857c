import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spotkit.design import DesignControl, latin_hypercube, lhs_unit


def bin_counts(points: np.ndarray, bins: int) -> np.ndarray:
    """Brute-force per-dimension stratum occupancy."""
    idx = np.floor(points * bins).astype(int)
    counts = np.zeros((points.shape[1], bins), dtype=int)
    for d in range(points.shape[1]):
        for i in idx[:, d]:
            counts[d, i] += 1
    return counts


def test_one_point_per_quartile():
    pts = latin_hypercube(DesignControl(init_size=4, seed=1), dims=1)
    assert pts.shape == (4, 1)
    assert np.all(bin_counts(pts, 4) == 1)


def test_projection_property_20x9():
    pts = latin_hypercube(DesignControl(init_size=20, seed=7), dims=9)
    assert pts.shape == (20, 9)
    assert np.all(bin_counts(pts, 20) == 1)


def test_repeats_duplicate_base_points():
    pts = latin_hypercube(DesignControl(init_size=3, repeats=2, seed=3), dims=2)
    assert pts.shape == (6, 2)
    base, counts = np.unique(pts, axis=0, return_counts=True)
    assert len(base) == 3
    assert np.all(counts == 2)


def test_same_seed_bitwise_identical():
    a = latin_hypercube(DesignControl(init_size=11, seed=42), dims=4)
    b = latin_hypercube(DesignControl(init_size=11, seed=42), dims=4)
    assert "".join(repr(v) for v in a.ravel()) == "".join(repr(v) for v in b.ravel())


def test_different_seed_differs():
    a = latin_hypercube(DesignControl(init_size=11, seed=1), dims=4)
    b = latin_hypercube(DesignControl(init_size=11, seed=2), dims=4)
    assert not np.array_equal(a, b)


def old_latin_hypercube(control, dims):
    """The former per-dimension loop, kept as the reference."""
    n = control.init_size
    rng = np.random.default_rng(control.seed)
    base = np.empty((n, dims), dtype=float)
    for d in range(dims):
        perm = rng.permutation(n)
        jitter = np.full(n, 0.5) if n == 1 else rng.random(n)
        base[:, d] = (perm + jitter) / n
    return np.repeat(base, control.repeats, axis=0)


@pytest.mark.parametrize("n, dims, repeats", [(1, 1, 1), (1, 4, 3), (2, 1, 1),
                                              (10, 4, 1), (17, 9, 2)])
def test_bit_equal_to_old_loop(n, dims, repeats):
    for seed in range(5):
        control = DesignControl(init_size=n, repeats=repeats, seed=seed)
        assert np.array_equal(latin_hypercube(control, dims),
                              old_latin_hypercube(control, dims))


def test_lhs_unit_stratified():
    pts = lhs_unit(np.random.default_rng(3), 8, 5)
    assert np.all(bin_counts(pts, 8) == 1)


def test_single_point_centered():
    pts = latin_hypercube(DesignControl(init_size=1, seed=0), dims=3)
    assert np.all(pts == 0.5)


def test_dims_validated():
    with pytest.raises(ValueError):
        latin_hypercube(DesignControl(init_size=4), dims=0)


def test_control_validated():
    with pytest.raises(ValueError):
        DesignControl(init_size=0)
    with pytest.raises(ValueError):
        DesignControl(init_size=2, repeats=0)
    with pytest.raises(ValueError, match="init_size must be a whole number"):
        DesignControl(init_size=10.5)
    with pytest.raises(ValueError, match="repeats must be a whole number"):
        DesignControl(init_size=2, repeats=1.5)
    # a whole float is a count: stored as an int, usable by the sampler
    control = DesignControl(init_size=4.0, repeats=2.0, seed=1)
    assert (control.init_size, control.repeats) == (4, 2)
    assert type(control.init_size) is int and type(control.repeats) is int
    assert latin_hypercube(control, dims=2).shape == (8, 2)


@given(st.integers(1, 40), st.integers(1, 6), st.integers(0, 2 ** 31 - 1))
def test_always_in_unit_cube_and_stratified(n, dims, seed):
    pts = latin_hypercube(DesignControl(init_size=n, seed=seed), dims=dims)
    assert np.all((pts >= 0.0) & (pts < 1.0))
    assert np.all(bin_counts(pts, n) == 1)
