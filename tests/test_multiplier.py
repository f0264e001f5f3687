import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles as orc
from vnpair import multiplier as mult
from vnpair import numkernel as nk
from vnpair.errors import (CocycleViolation, DimensionMismatch, GridMismatch,
                           NotScalar, NotUnimodular, NotUnitary,
                           TrivializationResidual)

THETA = 2.0 * np.pi / 7.0


def quadratic_grid(horizon, theta=THETA):
    """exp(i theta s t): both cocycle sides reduce to exp(i theta (rs+rt+st))."""
    idx = np.arange(horizon + 1)
    return np.exp(1j * theta * np.multiply.outer(idx, idx))


def test_quadratic_grid_is_a_multiplier():
    m = mult.validate(quadratic_grid(8))
    assert m.horizon == 8
    assert m.residuals["unimodular"] < 1e-12
    assert m.residuals["cocycle"] < 1e-12
    assert m.residuals["boundary"] == 0.0
    assert m[1, 1] == pytest.approx(np.exp(1j * THETA))


def test_trivialize_quadratic_grid_frozen():
    """The splitting of exp(i theta s t) in the gauge f(0) = f(1) = 1.

    Solving f(s) f(t) = m(s, t) f(s+t) with that gauge gives
    f(t) = exp(-i theta t (t-1) / 2): the exponents telescope as
    s(s-1) + t(t-1) - (s+t)(s+t-1) = -2 s t.
    """
    m = mult.validate(quadratic_grid(9))
    f = mult.trivialize(m)
    t = np.arange(10)
    expect = np.exp(-1j * THETA * t * (t - 1) / 2.0)
    assert np.abs(f - expect).max() < 1e-12


def test_trivialize_of_trivial_is_exactly_one():
    f = mult.trivialize(mult.trivial(16))
    assert np.array_equal(f, np.ones(17, dtype=complex))


def test_coboundary_round_trip():
    rng = np.random.default_rng(2)
    f = np.exp(2j * np.pi * rng.random(21))
    m = mult.coboundary(f)
    assert m.horizon == 10
    # frozen spot check straight from the definition
    assert m[3, 4] == pytest.approx(f[3] * f[4] / f[7])
    g = mult.trivialize(m)
    assert np.abs(np.abs(g) - 1.0).max() < 1e-12
    # certify the splitting identity independently of trivialize's own check
    idx = np.arange(11)
    sums = np.add.outer(idx, idx)
    mask = sums <= 10
    lhs = m.values * g[np.minimum(sums, 10)]
    rhs = np.multiply.outer(g, g)
    assert float(np.where(mask, np.abs(lhs - rhs), 0.0).max()) < 1e-10


def test_validate_rejects_off_modulus_even_at_loose_tolerance():
    grid = 1.001 * quadratic_grid(4)
    with pytest.raises(NotUnimodular):
        mult.validate(grid, nk.Tolerance(0.5))


@pytest.mark.parametrize("cell", [(0, 0), (0, 3), (2, 3), (5, 5)])
@pytest.mark.parametrize("bad", [np.nan, complex(np.nan, 0.0), np.inf])
def test_validate_rejects_non_finite_entries(cell, bad):
    """A NaN compares false against every bound; it must still fail."""
    grid = quadratic_grid(5)
    grid[cell] = bad
    with pytest.raises(NotUnimodular):
        mult.validate(grid)


def test_non_finite_inputs_never_pass():
    with pytest.raises(NotUnimodular):
        mult.coboundary([1.0, np.nan, 1.0])
    with pytest.raises(NotUnimodular):
        mult.family_from_phases([1.0, np.nan], np.eye(2))
    grid = quadratic_grid(4)
    grid[1, 2] = np.nan
    with pytest.raises(TrivializationResidual), np.errstate(invalid="ignore"):
        mult.trivialize(mult.Multiplier(grid))


def test_validate_rejects_cocycle_corruption():
    grid = quadratic_grid(6).copy()
    grid[3, 2] = -grid[3, 2]
    with pytest.raises(CocycleViolation) as info:
        mult.validate(grid)
    assert info.value.residual > 0.5
    assert len(info.value.triple) == 3
    assert info.value.bound == nk.DEFAULT_TOL.bound(1.0)
    with pytest.raises(CocycleViolation) as info:
        mult.validate(grid, nk.Tolerance(1e-3))
    assert info.value.bound == nk.Tolerance(1e-3).bound(1.0)


def coboundary_grid(horizon, seed):
    """f(s) f(t) / f(s+t) for random unit-modulus f(0..2N)."""
    f = np.exp(2j * np.pi * np.random.default_rng(seed).random(2 * horizon + 1))
    idx = np.arange(horizon + 1)
    return np.multiply.outer(f[:horizon + 1], f[:horizon + 1]) / f[np.add.outer(idx, idx)]


def corrupted(grid, cells, factor=-1.0):
    grid = grid.copy()
    for cell in cells:
        grid[cell] *= factor
    return grid


def boundary_broken(grid):
    """Row and column zero no longer constant; every entry still unimodular."""
    grid = grid.copy()
    grid[0, -1] *= np.exp(0.5j)
    grid[-1, 0] *= np.exp(-0.25j)
    return grid


SLAB_CASES = {
    **{f"coboundary-{n}": (lambda n=n: coboundary_grid(n, n)) for n in (1, 2, 3, 8, 40, 128)},
    "quadratic-8": lambda: quadratic_grid(8),
    "one-cell-8": lambda: corrupted(coboundary_grid(8, 1), [(3, 4)], np.exp(0.3j)),
    "one-cell-40": lambda: corrupted(coboundary_grid(40, 2), [(17, 5)]),
    "last-cell-3": lambda: corrupted(coboundary_grid(3, 3), [(3, 3)]),
    "several-cells-40": lambda: corrupted(coboundary_grid(40, 4), [(1, 1), (20, 7), (39, 0)],
                                          np.exp(1j)),
    "tied-quadratic-6": lambda: corrupted(quadratic_grid(6), [(3, 2)]),
    "tied-ones-5": lambda: corrupted(np.ones((6, 6), dtype=complex), [(2, 3)]),
    "tied-ones-corner-4": lambda: corrupted(np.ones((5, 5), dtype=complex), [(4, 0), (0, 4)]),
    "boundary-2": lambda: boundary_broken(coboundary_grid(2, 5)),
    "boundary-8": lambda: boundary_broken(quadratic_grid(8)),
    "random-16": lambda: np.exp(2j * np.pi * np.random.default_rng(6).random((17, 17))),
}


@pytest.mark.parametrize("case", sorted(SLAB_CASES))
def test_slab_cocycle_check_matches_the_cube(case):
    """validate reports the cube's worst residual bit for bit and, on
    failure, its first worst triple in (r, s, t) order."""
    grid = SLAB_CASES[case]()
    worst, triple = orc.cube_worst_cocycle(grid)
    assert mult._worst_cocycle(grid) == (worst, triple)
    if worst <= nk.DEFAULT_TOL.bound(1.0):
        assert mult.validate(grid).residuals["cocycle"] == worst
        return
    with pytest.raises(CocycleViolation) as info:
        mult.validate(grid)
    assert info.value.triple == triple
    assert info.value.residual == worst


@pytest.mark.parametrize("cells", [[(2, 0)], [(0, 0)], [(3, 1), (1, 2)], [(4, 4)]])
def test_slab_cocycle_check_counts_a_nan_as_worst(cells):
    """validate rejects a NaN entry before the cocycle check, so the slab
    helper gets it directly: NaN beats every residual, and the first NaN
    triple in (r, s, t) order is reported even when an earlier slab holds
    a NaN at a later r, as for the cell (2, 0), first reached at (0, 2, 0)."""
    grid = corrupted(quadratic_grid(4), [(1, 3)])
    for cell in cells:
        grid[cell] = np.nan
    worst, triple = orc.cube_worst_cocycle(grid)
    got_worst, got_triple = mult._worst_cocycle(grid)
    assert np.isnan(worst) and np.isnan(got_worst)
    assert got_triple == triple
    if cells == [(2, 0)]:
        assert triple == (0, 2, 0)


def test_cocycle_check_memory_is_quadratic():
    """At N = 256 the (N+1)^3 cube of residuals alone is 270 MB as complex;
    one slab per middle index keeps the traced peak of validate near three
    grids (3.4 MB, numpy 2.4)."""
    grid = coboundary_grid(256, 7)
    tracemalloc.start()
    try:
        m = mult.validate(grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert m.residuals["cocycle"] < 1e-12
    assert peak < 8 * 2 ** 20


def test_validate_rejects_bad_shapes():
    with pytest.raises(GridMismatch):
        mult.validate(np.ones(5))
    with pytest.raises(GridMismatch):
        mult.validate(np.ones((1, 1)))
    with pytest.raises(GridMismatch):
        mult.validate(np.ones((3, 4)))


@pytest.mark.parametrize("horizon", [-1, 0, True, 2.5])
def test_trivial_needs_a_horizon_of_at_least_one(horizon):
    """No 0 x 0 grid, no 1 x 1 grid that validate rejects, no bool read as 1."""
    with pytest.raises(DimensionMismatch, match="horizon"):
        mult.trivial(horizon)
    assert mult.trivial(1).values.shape == (2, 2)


def test_group_operations():
    m = mult.validate(quadratic_grid(6))
    inv = mult.inverse(m)
    prod = mult.pointwise_product(m, inv)
    assert prod.distance(mult.trivial(6)) < 1e-12
    flipped = mult.transpose(m)
    assert flipped == m  # the quadratic grid is symmetric
    with pytest.raises(GridMismatch):
        mult.pointwise_product(m, mult.trivial(4))
    with pytest.raises(GridMismatch):
        m.distance(mult.trivial(4))


def test_multiplier_is_frozen():
    m = mult.trivial(3)
    with pytest.raises(ValueError):
        m.values[0, 0] = 2.0


def test_coboundary_argument_checks():
    with pytest.raises(GridMismatch):
        mult.coboundary(np.ones(4))  # even count
    with pytest.raises(GridMismatch):
        mult.coboundary(np.ones(1))
    with pytest.raises(NotUnimodular):
        mult.coboundary(np.array([1.0, 2.0, 1.0]))


def test_family_scalar_defects():
    """U_t = phi_t v^t carries the coboundary grid of the phases."""
    rng = np.random.default_rng(4)
    phases = np.exp(2j * np.pi * rng.random(13))
    v = nk.random_unitary(3, seed=6)
    fam = mult.family_from_phases(phases, v)
    assert fam.horizon == 12
    # U_3 U_2 = lam U_5, read off the extracted grid at (2, 3)
    lam = mult.extract(fam)[2, 3]
    assert lam == pytest.approx(phases[2] * phases[3] / phases[5])


def test_extract_matches_coboundary():
    rng = np.random.default_rng(9)
    phases = np.exp(2j * np.pi * rng.random(17))
    v = nk.random_unitary(2, seed=3)
    fam = mult.family_from_phases(phases, v)
    m = mult.extract(fam)
    assert m.horizon == 8
    reference = mult.coboundary(phases)
    assert m.distance(reference) < 1e-12


def test_extract_needs_room():
    v = nk.random_unitary(2, seed=0)
    fam = mult.family_from_phases(np.ones(2), v)
    with pytest.raises(GridMismatch):
        mult.extract(fam)


def test_family_rejects_nonscalar_products():
    u = np.diag([1.0, 1j]).astype(complex)
    w = np.array([[0, 1], [1, 0]], dtype=complex)
    with pytest.raises(NotScalar):
        mult.ProjectiveUnitaryFamily([np.eye(2), u, w])


def test_family_rejects_nonunitary_member():
    with pytest.raises(NotUnitary):
        mult.ProjectiveUnitaryFamily([np.eye(2), np.diag([1.0, 2.0])])


def test_family_needs_two_maps():
    with pytest.raises(GridMismatch):
        mult.ProjectiveUnitaryFamily([np.eye(2)])


def test_family_from_phases_rejects_bad_phases():
    with pytest.raises(NotUnimodular):
        mult.family_from_phases(np.array([1.0, 0.5, 1.0]),
                                np.eye(2, dtype=complex))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=5,
                max_size=17).filter(lambda v: len(v) % 2 == 1))
def test_coboundary_always_splits(angles):
    f = np.exp(2j * np.pi * np.array(angles))
    m = mult.coboundary(f)
    g = mult.trivialize(m)
    assert np.abs(np.abs(g) - 1.0).max() < 1e-12
