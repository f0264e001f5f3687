"""Unit-modulus 2-cocycles on a finite grid {0..N}^2.

A grid value m(s, t) records the scalar defect of a projective family,
U_t U_s = m(s, t) U_{s+t}; the first family index goes second in m. The
calculus here validates grids, forms the abelian group operations, splits
every valid grid as m(s, t) = f(s) f(t) / f(s+t), and reads grids off
projective unitary families.
"""

from __future__ import annotations

import numpy as np

from . import numkernel as nk
from .errors import (BoundaryViolation, CocycleViolation, GridMismatch,
                     NotScalar, NotUnimodular, NotUnitary,
                     TrivializationResidual)

UNIMODULAR_TOL = 1e-12
TRIVIALIZE_TOL = 1e-10


class Multiplier:
    """Validated unit-modulus grid satisfying the cocycle identity.

    Use ``validate`` to construct one from raw values; the constructor
    itself only freezes the array.
    """

    def __init__(self, values: np.ndarray, residuals: dict | None = None):
        self.values = np.array(values, dtype=complex)
        self.values.flags.writeable = False
        self.horizon = self.values.shape[0] - 1
        self.residuals = dict(residuals) if residuals else {}

    def __getitem__(self, st) -> complex:
        s, t = st
        return complex(self.values[s, t])

    def __eq__(self, other) -> bool:
        return isinstance(other, Multiplier) and \
            self.values.shape == other.values.shape and \
            bool(np.array_equal(self.values, other.values))

    def distance(self, other: "Multiplier") -> float:
        if self.horizon != other.horizon:
            raise GridMismatch(
                f"horizons differ: {self.horizon} vs {other.horizon}")
        return float(np.abs(self.values - other.values).max())


def cocycle_residuals(values: np.ndarray) -> np.ndarray:
    """|m(r,s)m(r+s,t) - m(r,s+t)m(s,t)| on every in-grid triple, else 0.

    A triple (r, s, t) counts when all four evaluation points lie on the
    grid, which means r+s <= N and s+t <= N.
    """
    n = values.shape[0] - 1
    idx = np.arange(n + 1)
    sums = np.add.outer(idx, idx)
    on_grid = sums <= n
    sums_c = np.minimum(sums, n)
    lhs = values[:, :, None] * values[sums_c, :]
    rhs = values[:, sums_c] * values[None, :, :]
    mask = on_grid[:, :, None] & on_grid[None, :, :]
    return np.where(mask, np.abs(lhs - rhs), 0.0)


def validate(values, tol: nk.Tolerance = nk.DEFAULT_TOL) -> Multiplier:
    """Check unimodularity, the cocycle identity, and boundary constancy."""
    grid = np.asarray(values, dtype=complex)
    if grid.ndim != 2 or grid.shape[0] != grid.shape[1] or grid.shape[0] < 2:
        raise GridMismatch(f"expected a square grid of size >= 2, got {grid.shape}")
    moduli = np.abs(np.abs(grid) - 1.0)
    # argmax picks the first NaN entry when there is one, and so does max
    s, t = np.unravel_index(int(moduli.argmax()), grid.shape)
    worst_mod = nk.require(float(moduli.max()), UNIMODULAR_TOL, NotUnimodular,
                           "|m({1},{2})| = {3:.15f} deviates from one by {0:.3e}",
                           s, t, abs(grid[s, t]))
    res = cocycle_residuals(grid)
    worst_coc = float(res.max())
    triple = tuple(int(i) for i in np.unravel_index(int(res.argmax()), res.shape))
    nk.require(worst_coc, tol.bound(1.0), CocycleViolation,
               "cocycle identity fails at ({1},{2},{3}), residual {0:.3e}",
               *triple, triple=triple, residual=worst_coc)
    worst_bnd = nk.require(float(nk.worst(np.abs(grid[0, :] - grid[0, 0]).max(),
                                          np.abs(grid[:, 0] - grid[0, 0]).max())),
                           tol.bound(1.0), BoundaryViolation,
                           "row or column zero is not constant, residual {:.3e}")
    return Multiplier(grid, {"unimodular": worst_mod, "cocycle": worst_coc,
                             "boundary": worst_bnd})


def trivial(horizon: int) -> Multiplier:
    """The constant-one grid."""
    return Multiplier(np.ones((horizon + 1, horizon + 1), dtype=complex),
                      {"unimodular": 0.0, "cocycle": 0.0, "boundary": 0.0})


def coboundary(f, tol: nk.Tolerance = nk.DEFAULT_TOL) -> Multiplier:
    """Grid f(s)f(t)/f(s+t) from unit-modulus scalars f(0..2N).

    An odd-length family of length 2N+1 fills the whole square {0..N}^2.
    """
    f = np.asarray(f, dtype=complex).reshape(-1)
    if f.size < 3 or f.size % 2 == 0:
        raise GridMismatch(
            f"need an odd number >= 3 of scalars, got {f.size}")
    nk.require(np.abs(np.abs(f) - 1.0).max(), UNIMODULAR_TOL, NotUnimodular,
               "family values must have modulus one")
    n = (f.size - 1) // 2
    idx = np.arange(n + 1)
    grid = np.multiply.outer(f[:n + 1], f[:n + 1]) / f[np.add.outer(idx, idx)]
    return validate(grid, tol)


def transpose(m: Multiplier, tol: nk.Tolerance = nk.DEFAULT_TOL) -> Multiplier:
    """The grid with swapped arguments; again a valid multiplier."""
    return validate(m.values.T, tol)


def pointwise_product(a: Multiplier, b: Multiplier,
                      tol: nk.Tolerance = nk.DEFAULT_TOL) -> Multiplier:
    if a.horizon != b.horizon:
        raise GridMismatch(f"horizons differ: {a.horizon} vs {b.horizon}")
    return validate(a.values * b.values, tol)


def inverse(m: Multiplier, tol: nk.Tolerance = nk.DEFAULT_TOL) -> Multiplier:
    """Pointwise inverse; equals the conjugate grid by unimodularity."""
    return validate(m.values.conj(), tol)


def splitting_residual(m: Multiplier, f) -> float:
    """Worst |m(s,t) f(s+t) - f(s) f(t)| over s+t <= N."""
    n = m.horizon
    idx = np.arange(n + 1)
    sums = np.add.outer(idx, idx)
    lhs = m.values * f[np.minimum(sums, n)]
    return float(np.where(sums <= n, np.abs(lhs - np.multiply.outer(f, f)), 0.0).max())


def trivialize(m: Multiplier) -> np.ndarray:
    """Unit-modulus f(0..N) with m(s,t) f(s+t) = f(s) f(t) on the grid.

    The recursion fixes the gauge f(1) = f(0) = m(0,0) after normalizing
    the grid by m(0,0); the identity is certified by exhaustive evaluation
    over s+t <= N, never trusted from the construction. Failure therefore
    signals a fault, not a property of the input.
    """
    n = m.horizon
    base = m.values[0, 0]
    normalized = m.values / base
    f = np.ones(n + 1, dtype=complex)
    for t in range(1, n):
        f[t + 1] = f[t] / normalized[1, t]
    f = f * base
    nk.require(splitting_residual(m, f), TRIVIALIZE_TOL, TrivializationResidual,
               "splitting family fails certification, residual {:.3e}")
    return f


class ProjectiveUnitaryFamily:
    """Unitaries U_0..U_N whose products close up to scalars.

    The scalar-defect invariant U_t U_s in C-span of U_{s+t} is verified on
    construction for every s+t <= N.
    """

    def __init__(self, maps, tol: nk.Tolerance = nk.DEFAULT_TOL):
        self.maps = [nk.as_matrix(u, f"U_{t}") for t, u in enumerate(maps)]
        if len(self.maps) < 2:
            raise GridMismatch("need at least U_0 and U_1")
        d = self.maps[0].shape[0]
        self.dim = d
        self.horizon = len(self.maps) - 1
        for t, u in enumerate(self.maps):
            if u.shape != (d, d):
                raise GridMismatch(f"U_{t} has shape {u.shape}, expected {(d, d)}")
            nk.require(nk.unitarity_residual(u), tol.bound(np.sqrt(d)), NotUnitary,
                       "U_{1} is not unitary, residual {0:.3e}", t)
        self._scalar_table(self.horizon, self.horizon, tol)

    def _scalar_table(self, n_s: int, n_t: int,
                      tol: nk.Tolerance = nk.DEFAULT_TOL) -> np.ndarray:
        """All scalars for s <= n_s, t <= n_t at once; off-grid cells are 1."""
        m = np.array(self.maps)
        prods = np.einsum("tab,sbc->stac", m[: n_t + 1], m[: n_s + 1])
        sums = np.add.outer(np.arange(n_s + 1), np.arange(n_t + 1))
        mask = sums <= self.horizon
        target = m[np.minimum(sums, self.horizon)]
        lam = np.einsum("stab,stab->st", target.conj(), prods) / self.dim
        defect = np.linalg.norm(prods - lam[:, :, None, None] * target, axis=(2, 3))
        score = np.where(mask, np.maximum(
            defect / tol.bound(np.sqrt(self.dim)),
            np.abs(np.abs(lam) - 1.0) / tol.bound(1.0)), 0.0)
        s, t = np.unravel_index(int(score.argmax()), score.shape)
        nk.require(float(score.max()), 1.0, NotScalar,
                   "U_{2} U_{1} is not a scalar multiple of U_{3}, defect {4:.3e}",
                   s, t, s + t, defect[s, t])
        lam = np.where(mask, lam, 1.0)
        return lam / np.abs(lam)


def family_from_phases(phases, v,
                       tol: nk.Tolerance = nk.DEFAULT_TOL) -> ProjectiveUnitaryFamily:
    """The family U_t = phases[t] v^t for a fixed unitary v."""
    v = nk.as_matrix(v, "v")
    phases = np.asarray(phases, dtype=complex).reshape(-1)
    nk.require(np.abs(np.abs(phases) - 1.0).max(), UNIMODULAR_TOL, NotUnimodular,
               "phases must have modulus one")
    maps = []
    power = np.eye(v.shape[0], dtype=complex)
    for t in range(phases.size):
        maps.append(phases[t] * power)
        power = v @ power
    return ProjectiveUnitaryFamily(maps, tol)


def extract(family: ProjectiveUnitaryFamily,
            tol: nk.Tolerance = nk.DEFAULT_TOL) -> Multiplier:
    """Read the multiplier off a projective family.

    The output grid has horizon floor(N/2) so that every entry, including
    those with s + t beyond the output horizon, is determined by the family
    through the trace formula; nothing is extrapolated.
    """
    n = family.horizon // 2
    if n < 1:
        raise GridMismatch("family horizon must be at least 2 to extract a grid")
    return validate(family._scalar_table(n, n, tol), tol)
