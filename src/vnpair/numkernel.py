"""Dense complex-matrix substrate with a single tolerance policy.

All higher layers route their linear algebra through the helpers here so
that rank decisions, orthonormalization, and residual reports share one
convention: comparison bounds are ``eps`` scaled by ``max(1, operand
norms)``, and rank cutoffs are relative to the largest singular value.
Everything is complex double precision; inputs are validated for shape and
finiteness and are never mutated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, SingularInput

DEFAULT_EPS = 1e-9


@dataclass(frozen=True)
class Tolerance:
    """Hybrid tolerance: eps acts absolutely near zero, relatively above one."""

    eps: float = DEFAULT_EPS

    def __post_init__(self):
        if not 0.0 < self.eps < 1.0:
            raise ValueError(f"eps must lie strictly between 0 and 1, got {self.eps}")

    def bound(self, *norms: float) -> float:
        """Comparison bound for operands of the given norms."""
        return self.eps * max(1.0, *norms) if norms else self.eps


DEFAULT_TOL = Tolerance()


@dataclass(frozen=True)
class MatchReport:
    """Boolean verdict plus the Frobenius residual that produced it."""

    ok: bool
    residual: float

    def __bool__(self) -> bool:
        return self.ok


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2d complex array."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise DimensionMismatch(f"{name}: expected a 2d array, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise DimensionMismatch(f"{name}: entries must be finite")
    return m


def frobenius(a) -> float:
    return float(np.linalg.norm(np.asarray(a)))


def require(residual: float, bound: float, error_cls, message: str, /,
            *values, **attrs) -> float:
    """The one verdict rule: pass when residual <= bound, else raise.

    A NaN residual or bound fails. The message is formatted only on
    failure, as message.format(residual, *values); attrs go to the error
    constructor. Returns the residual, so callers can keep it.
    """
    if not residual <= bound:
        raise error_cls(message.format(residual, *values), **attrs)
    return residual


def require_laws(residuals: dict, bound: float, error_cls, message: str) -> dict:
    """require for a dict of named residuals against one bound.

    The message is formatted with the dict of the failing laws only.
    Returns residuals unchanged.
    """
    bad = {k: v for k, v in residuals.items() if not v <= bound}
    if bad:
        raise error_cls(message.format(bad))
    return residuals


def worst(*values: float) -> float:
    """The largest value, or NaN when any value is NaN.

    Builtin max drops a NaN that follows a number, so a loop of max calls
    would turn a NaN residual into a pass.
    """
    out = values[0]
    for v in values[1:]:
        if out == out and not v <= out:
            out = v
    return out


def worst_norm(stack) -> float:
    """Largest Frobenius norm of the matrices stacked along the last two
    axes; NaN when any entry is NaN, 0.0 for an empty stack."""
    stack = np.asarray(stack)
    return float(np.linalg.norm(stack, axis=(-2, -1)).max()) if stack.size else 0.0


def unitarity_residual(u) -> float:
    """Frobenius norm of u* u - I, I of the column size of u.

    Small only for isometries; whether a non-square u may pass is the
    caller's rule.
    """
    u = np.asarray(u)
    return float(np.linalg.norm(u.conj().T @ u - np.eye(u.shape[1])))


def span_residual(rows, basis_flat) -> float:
    """Worst distance of the rows (flattened) from the span of the
    orthonormal rows of basis_flat; 0.0 when there are no rows."""
    rows = np.asarray(rows).reshape(-1, basis_flat.shape[1])
    resid = rows - (rows @ basis_flat.conj().T) @ basis_flat
    return float(np.linalg.norm(resid, axis=1).max()) if rows.size else 0.0


def approx_equal(a, b, tol: Tolerance = DEFAULT_TOL) -> MatchReport:
    """Frobenius comparison with the hybrid bound."""
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    if a.shape != b.shape:
        raise DimensionMismatch(f"approx_equal: shapes {a.shape} and {b.shape} differ")
    residual = float(np.linalg.norm(a - b))
    return MatchReport(residual <= tol.bound(frobenius(a), frobenius(b)), residual)


def mul_constraint(left, right) -> np.ndarray:
    """Matrix of x -> left @ x - x @ right on row-major flattened x.

    For vec taken row by row, vec(A x B) = (A kron B^T) vec(x), so the
    constraint is kron(left, I) - kron(I, right^T). Kept with null_space as
    the direct, stacked-SVD oracle that commuting_null_space is tested
    against.
    """
    left = as_matrix(left, "left")
    right = as_matrix(right, "right")
    p, q = left.shape[0], right.shape[0]
    if left.shape != (p, p) or right.shape != (q, q):
        raise DimensionMismatch("mul_constraint: left and right must be square")
    return np.kron(left, np.eye(q)) - np.kron(np.eye(p), right.T)


def null_space(constraints: Sequence[np.ndarray], shape: tuple[int, int],
               tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the joint kernel of stacked linear constraints.

    Each constraint acts on the row-major flattening of an unknown of the
    given shape; singular values below eps times max(largest, 1) are treated
    as zero, so an all-noise constraint (for instance from subtracting two
    copies of the same normalized operator) is the zero constraint. Returns
    an array of shape (k, *shape) whose slices are orthonormal under the
    Hilbert-Schmidt inner product. The package solves these problems with
    commuting_null_space; this slower route is its test oracle.
    """
    rows, cols = shape
    dim = rows * cols
    mats = [as_matrix(c, f"constraint {i}") for i, c in enumerate(constraints)]
    for i, c in enumerate(mats):
        if c.shape[1] != dim:
            raise DimensionMismatch(
                f"constraint {i}: {c.shape[1]} columns, unknown has {dim} entries")
    if mats:
        stacked = np.vstack(mats)
    else:
        stacked = np.zeros((0, dim), dtype=complex)
    # the full right factor is only needed when the stack has fewer rows
    # than the unknown has entries; otherwise skip the huge left factor
    _, s, vh = np.linalg.svd(stacked, full_matrices=stacked.shape[0] < dim)
    rank = int(np.sum(s > tol.eps * max(float(s[0]), 1.0))) if s.size else 0
    return vh[rank:].conj().reshape(-1, rows, cols)


def commuting_null_space(pairs, shape: tuple[int, int],
                         tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of {x: left @ x == x @ right for every pair}.

    Solves the same problem as null_space over stacked mul_constraint
    matrices, but assembles the normal matrix sum of C* C directly from
    kron identities, so the eigenproblem stays (rows*cols) square no
    matter how many pairs there are. Eigenvalues are squared singular
    values; the zero cutoff combines the usual relative threshold with
    the eigensolver noise floor, which the spectral gaps of the intended
    inputs (images of orthonormal operator bases) clear by a wide margin.
    """
    rows, cols = shape
    dim = rows * cols
    lefts, rights = [], []
    for i, (left, right) in enumerate(pairs):
        l = as_matrix(left, f"pair {i} left")
        r = as_matrix(right, f"pair {i} right")
        if l.shape != (rows, rows) or r.shape != (cols, cols):
            raise DimensionMismatch(
                f"pair {i}: shapes {l.shape} x {r.shape} do not act on {shape}")
        lefts.append(l)
        rights.append(r)
    h, gross = _normal_matrix(lefts, rights, rows, cols)
    h += h.conj().T
    h *= 0.5
    vals, vecs = np.linalg.eigh(h)
    keep = vals <= _kernel_cut(vals, dim, gross, tol)
    return vecs[:, keep].T.reshape(-1, rows, cols)


def commutant_space(mats, n: int, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of {x: g @ x == x @ g for every g and every g*}.

    The same kernel as commuting_null_space over the pairs (g, g) and
    (g*, g*), solved as a real problem of the same size. The constraint set
    is closed under adjoints, so the normal matrix commutes with x -> x*
    and is real symmetric, with the same spectrum, in the orthonormal basis
    of Hermitian matrices: diagonal units, (e_ab + e_ba)/sqrt2 and
    i(e_ab - e_ba)/sqrt2 for a < b. A real eigensolve costs about a quarter
    of the complex one, and its kernel vectors give a Hermitian basis.
    Returns an array of shape (k, n, n).
    """
    gens = []
    for i, g in enumerate(mats):
        g = as_matrix(g, f"matrix {i}")
        if g.shape != (n, n):
            raise DimensionMismatch(f"matrix {i}: shape {g.shape} does not act on {(n, n)}")
        gens.append(g)
    gens += [g.conj().T for g in gens]
    dim = n * n
    h, gross = _normal_matrix(gens, gens, n, n)
    # change of basis h -> P* h P, P the Hermitian basis above: the entry
    # pairs (a, b), (b, a) for a < b mix, the diagonal stays
    iu, ju = np.triu_indices(n, 1)
    upper, lower = iu * n + ju, ju * n + iu
    half = np.sqrt(0.5)
    a, b = h[:, upper], h[:, lower]
    h[:, upper] = half * (a + b)
    h[:, lower] = 1j * half * (a - b)
    a, b = h[upper], h[lower]
    h[upper] = half * (a + b)
    h[lower] = -1j * half * (a - b)
    del a, b
    q = np.ascontiguousarray(h.real)
    del h
    q += q.T
    q *= 0.5
    vals, vecs = np.linalg.eigh(q)
    keep = vals <= _kernel_cut(vals, dim, gross, tol)
    t = vecs[:, keep].T
    out = t.astype(complex)
    out[:, upper] = half * (t[:, upper] + 1j * t[:, lower])
    out[:, lower] = half * (t[:, upper] - 1j * t[:, lower])
    return out.reshape(-1, n, n)


def _normal_matrix(lefts, rights, rows: int, cols: int) -> tuple[np.ndarray, float]:
    """Sum over pairs of C* C, C: x -> l x - x r on row-major x, before
    symmetrization, and the summed squared norms of the pair terms."""
    dim = rows * cols
    if not lefts:
        return np.zeros((dim, dim), dtype=complex), 0.0
    # the normal matrix is built in place: at large shapes each
    # (rows*cols)^2 temporary is a sizeable share of peak memory
    l = np.array(lefts)
    r = np.array(rights)
    k = l.shape[0]
    l_adj = l.conj().transpose(0, 2, 1)
    # the sum over pairs of kron(l*, r^T) is one product over the pair
    # index; its adjoint is the sum of kron(l, conj(r))
    cross = l_adj.reshape(k, -1).T @ r.transpose(0, 2, 1).reshape(k, -1)
    h = cross.reshape(rows, rows, cols, cols).transpose(0, 2, 1, 3).reshape(dim, dim)
    del cross
    h += h.conj().T
    np.negative(h, out=h)
    h += np.kron((l_adj @ l).sum(axis=0), np.eye(cols))
    h += np.kron(np.eye(rows),
                 (r @ r.conj().transpose(0, 2, 1)).sum(axis=0).conj())
    gross = float(np.linalg.norm(l)) ** 2 + float(np.linalg.norm(r)) ** 2
    return h, gross


def _kernel_cut(vals, dim: int, gross: float, tol: Tolerance) -> float:
    """Largest eigenvalue of a normal matrix that still counts as zero."""
    top = float(vals[-1]) if vals.size else 0.0
    # cancellation noise scales with the summed term magnitudes, not with
    # the (possibly exactly zero) assembled matrix itself
    return max(tol.eps ** 2 * max(top, 1.0), dim * np.finfo(float).eps * gross)


def orthonormalize(mats, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the complex span of the given matrices.

    Rank is decided relative to the largest singular value. Returns an
    array of shape (k, rows, cols).
    """
    arr = np.asarray(mats, dtype=complex)
    if arr.ndim != 3:
        raise DimensionMismatch(f"orthonormalize: expected (k, rows, cols), got {arr.shape}")
    if arr.shape[0] == 0:
        return arr
    flat = arr.reshape(arr.shape[0], -1)
    _, s, vh = np.linalg.svd(flat, full_matrices=False)
    rank = int(np.sum(s > tol.eps * s[0])) if s.size and s[0] > 0 else 0
    return vh[:rank].reshape(-1, arr.shape[1], arr.shape[2])


def numeric_rank(a, tol: Tolerance = DEFAULT_TOL) -> int:
    a = as_matrix(a)
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0 or s[0] == 0:
        return 0
    return int(np.sum(s > tol.eps * s[0]))


def polar_unitary(t, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Unitary factor t (t* t)^(-1/2) of an invertible square matrix."""
    t = as_matrix(t, "t")
    if t.shape[0] != t.shape[1]:
        raise DimensionMismatch(f"polar_unitary: matrix must be square, got {t.shape}")
    return _polar(t, tol, "polar_unitary")


def polar_isometry(t, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Isometry factor t (t* t)^(-1/2) of an injective tall matrix."""
    t = as_matrix(t, "t")
    if t.shape[0] < t.shape[1]:
        raise DimensionMismatch(f"polar_isometry: matrix must be tall, got {t.shape}")
    return _polar(t, tol, "polar_isometry")


def _polar(t: np.ndarray, tol: Tolerance, name: str) -> np.ndarray:
    """w vh from the thin SVD t = w s vh; raises when t is numerically singular."""
    w, s, vh = np.linalg.svd(t, full_matrices=False)
    if s.size == 0 or s[-1] <= tol.eps * s[0] or s[0] == 0:
        raise SingularInput(
            f"{name}: smallest singular value {s[-1] if s.size else 0.0:.3e} "
            f"below cutoff")
    return w @ vh


def random_unitary(n: int, seed) -> np.ndarray:
    """Haar-distributed n x n unitary, deterministic per seed.

    QR of a complex Gaussian matrix with the R-diagonal phase fix. The seed
    may be a Generator, which is then advanced by the draw.
    """
    if n < 1:
        raise DimensionMismatch(f"random_unitary: n must be positive, got {n}")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_complex(shape, rng) -> np.ndarray:
    """Standard complex Gaussian array from an existing Generator."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def lstsq_map(inputs: np.ndarray, outputs: np.ndarray) -> np.ndarray:
    """Least-squares solve for W with W @ inputs = outputs (columns as samples)."""
    sol, *_ = np.linalg.lstsq(inputs.T, outputs.T, rcond=None)
    return sol.T
