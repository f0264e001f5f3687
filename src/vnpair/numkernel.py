"""Dense complex-matrix substrate with a single tolerance policy.

All higher layers route their linear algebra through the helpers here so
that rank decisions, orthonormalization, and residual reports share one
convention: comparison bounds are ``eps`` scaled by ``max(1, operand
norms)``, and rank cutoffs are relative to the largest singular value,
except in ``intertwiners``, whose rank is a trace rounded within a stated
bound. Everything is complex double precision; inputs are validated for
shape and finiteness and are never mutated.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
import numpy as np

from .errors import (DimensionMismatch, NonIntegralRank, NotIntertwining,
                     SingularInput)

DEFAULT_EPS = 1e-9

#: seed of the probes that intertwiners projects, so that every span it
#: returns is a deterministic function of its input
PROBE_SEED = 0

#: the rank bound of intertwiners stays clear of the half-way point between
#: two integers, so that a loose tolerance can never make it round silently
MAX_RANK_SLACK = 0.25

#: intertwiners projects k + min(k, OVERSAMPLE) probes for a rank-k range:
#: in range coordinates they form a k x (k + p) Gaussian draw, whose smallest
#: singular value stays near sqrt(k + p) - sqrt(k), while that of a square
#: draw can be arbitrarily small and would multiply the rounding error of
#: the projection by its inverse
OVERSAMPLE = 10

#: complex entries one contraction temporary of intertwiners may hold (4 MB)
_CHUNK = 1 << 18


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


def intertwiners(lefts, rights, shape: tuple[int, int], tol: Tolerance = DEFAULT_TOL,
                 laws=None) -> np.ndarray:
    """Orthonormal basis of {x: l @ x == x @ r for every pair (l, r)}.

    lefts and rights hold the images rho_f(b_i) on C^rows and rho_e(b_i)
    on C^cols of one trace-orthonormal basis b_i of a *-algebra B under two
    unital *-representations. With S = sum b_i b_i*, central and invertible
    in B, the averaging map

        E(x) = sum_i rho_f(b_i) x rho_e(b_i)* rho_e(S)^-1

    is the Hilbert-Schmidt orthogonal projection onto the fixed space, by
    the quasi-basis identity sum x b_i (x) b_i* = sum b_i (x) b_i* x
    (Pimsner-Popa 1986, Watatani 1990). No (rows*cols)^2 eigenproblem is
    solved:

    - the rank k is the trace of E, rounded by ``integral_trace`` within
      min(MAX_RANK_SLACK, tol.bound(g)), g its summed term magnitudes;
    - the range is spanned by the top k left singular vectors of the image
      of m = k + min(k, OVERSAMPLE) Gaussian probes drawn from PROBE_SEED.
      The map is applied in the cheaper of two orders: directly, about
      d*m*rows*cols*(rows + cols) flops for d basis images, or through the
      assembled (rows*cols)^2 superoperator, about (d + m)*(rows*cols)^2;
    - when lefts is rights the fixed space is a *-algebra (a commutant):
      the probes are Hermitian and the range is orthonormalized in real
      Hermitian coordinates (diagonal units, (e_ab + e_ba)/sqrt2 and
      i(e_ab - e_ba)/sqrt2 for a < b), so the basis is Hermitian;
    - the law l x = x r is checked on every basis element for every pair of
      laws (default: the input pair); a failure raises NotIntertwining.

    Returns an array of shape (k, rows, cols).
    """
    rows, cols = shape
    hermitian = lefts is rights
    lefts, rights = _pair_stacks(lefts, rights, rows, cols, "images")
    # the right factors rho_e(b_i)* rho_e(S)^-1 of the averaging map
    adj = rights.conj().transpose(0, 2, 1)
    try:
        cmaps = adj @ np.linalg.inv((rights @ adj).sum(axis=0))
    except np.linalg.LinAlgError as exc:
        raise SingularInput("sum of r r* is singular") from exc
    # x -> l x c has trace tr(l) tr(c)
    terms = np.trace(lefts, axis1=1, axis2=2) * np.trace(cmaps, axis1=1, axis2=2)
    k = integral_trace(complex(terms.sum()), min(
        MAX_RANK_SLACK, tol.bound(float(np.abs(terms).sum()))), rows * cols)
    if k == 0:
        return np.zeros((0, rows, cols), dtype=complex)
    if k == rows * cols:
        # the fixed space is everything: the coordinate basis, no probes
        basis = _hermitian_matrices(np.eye(k), rows) if hermitian else \
            np.eye(k, dtype=complex)
    else:
        rng = np.random.default_rng(PROBE_SEED)
        m = k + min(k, OVERSAMPLE)
        if hermitian:
            images = _hermitian_matrices(rng.standard_normal((m, rows * cols)), rows)
        else:
            images = random_complex((m, rows * cols), rng)
        images = _average(lefts, cmaps, images.reshape(m, rows, cols))
        flat = images.reshape(m, rows * cols)
        basis = _hermitian_matrices(_top_range(_hermitian_coordinates(flat, rows), k), rows) \
            if hermitian else _top_range(flat, k)
    basis = basis.reshape(k, rows, cols)
    law_l, law_r = (lefts, rights) if laws is None else \
        _pair_stacks(*laws, rows, cols, "laws")
    scale = max(float(np.linalg.norm(law_l, axis=(1, 2)).max(initial=0.0)),
                float(np.linalg.norm(law_r, axis=(1, 2)).max(initial=0.0)))
    bound = tol.bound(scale)
    residual = law_residual(law_l, law_r, basis)
    require(residual, bound, NotIntertwining,
            "averaged range breaks its intertwining law, residual {:.3e}",
            residual=residual, bound=bound)
    return basis


def _top_range(rows, k: int) -> np.ndarray:
    """Orthonormal rows spanning the top-k singular subspace of the rows:
    QR of their transpose, then the SVD of the small triangular factor."""
    q, r = np.linalg.qr(rows.T)
    u, _, _ = np.linalg.svd(r)
    return (q @ u[:, :k]).T


def _pair_stacks(lefts, rights, rows: int, cols: int, name):
    """Validated complex stacks (d, rows, rows) and (d, cols, cols)."""
    l = np.asarray(lefts, dtype=complex)
    r = np.asarray(rights, dtype=complex)
    if l.ndim != 3 or l.shape[1:] != (rows, rows) or r.shape != (l.shape[0], cols, cols):
        raise DimensionMismatch(
            f"{name}: shapes {l.shape} x {r.shape} do not act on {(rows, cols)}")
    if not (np.all(np.isfinite(l)) and np.all(np.isfinite(r))):
        raise DimensionMismatch(f"{name}: entries must be finite")
    return l, r


def integral_trace(trace, bound: float, dim: int) -> int:
    """The integer in [0, dim] that a trace counting dimensions rounds to.

    The one rounding rule for rank decisions made by traces: a non-finite
    trace, or one further than bound from every integer in [0, dim], raises
    NonIntegralRank carrying the trace, the rounded rank and the bound.
    """
    rank = int(round(trace.real)) if np.isfinite(trace) else -1
    deviation = abs(trace - rank) if 0 <= rank <= dim else float("inf")
    require(deviation, bound, NonIntegralRank,
            "trace {1:.6g} is not within {2:.3e} of a rank in [0, {3}]",
            trace, bound, dim, trace=trace, rank=rank, bound=bound)
    return rank


def _average(lefts, cmaps, y) -> np.ndarray:
    """sum_i lefts[i] @ y[p] @ cmaps[i] for every probe p, in the
    contraction order that costs fewer flops."""
    d, rows, _ = lefts.shape
    m, _, cols = y.shape
    if (d + m) * rows * cols < d * m * (rows + cols):
        # the map as one matrix, s[a, (c, e), b] = sum_i lefts[i, a, c] cmaps[i, e, b]
        s = (lefts.reshape(d, -1).T @ cmaps.reshape(d, -1)).reshape(rows, rows * cols, cols)
        return (y.reshape(m, -1) @ s).transpose(1, 0, 2)
    out = np.zeros(y.shape, dtype=complex)
    for probes, terms in _chunk_pairs(m, d, rows * cols):
        l, c, yp = lefts[terms], cmaps[terms], y[probes]
        g, h = l.shape[0], yp.shape[0]
        # y c_i for every i of the chunk, then one product with [l_1 | l_2 | ...]
        yc = (yp.reshape(h * rows, cols) @ c.transpose(1, 0, 2).reshape(cols, g * cols))
        yc = yc.reshape(h, rows, g, cols).transpose(0, 2, 1, 3).reshape(h, g * rows, cols)
        out[probes] += l.transpose(1, 0, 2).reshape(rows, g * rows) @ yc
    return out


def law_residual(lefts, rights, basis) -> float:
    """Worst Frobenius norm of l x - x r over all law pairs (l, r) and
    basis elements x, from two matrix products per chunk; NaN when any
    entry is NaN."""
    k, rows, cols = basis.shape
    out = 0.0
    for elements, pairs in _chunk_pairs(k, lefts.shape[0], rows * cols):
        x, l, r = basis[elements], lefts[pairs], rights[pairs]
        h, g = x.shape[0], l.shape[0]
        lx = (l.reshape(g * rows, rows) @ x.transpose(1, 0, 2).reshape(rows, h * cols))
        xr = (x.reshape(h * rows, cols) @ r.transpose(1, 0, 2).reshape(cols, g * cols))
        diff = lx.reshape(g, rows, h, cols) - xr.reshape(h, rows, g, cols).transpose(2, 1, 0, 3)
        # squared norms per (pair, element) from the real view of diff
        re = diff.view(float)
        out = worst(out, float(np.sqrt(np.einsum("gahb,gahb->gh", re, re).max())))
    return out


def _chunk_pairs(outer: int, inner: int, size: int):
    """Slices (a, b) covering outer x inner index pairs in blocks whose
    len(a) * len(b) * size stays within _CHUNK, or one index pair."""
    astep = max(1, _CHUNK // size)
    for a0 in range(0, outer, astep):
        a = slice(a0, min(outer, a0 + astep))
        bstep = max(1, _CHUNK // ((a.stop - a.start) * size))
        for b0 in range(0, inner, bstep):
            yield a, slice(b0, min(inner, b0 + bstep))


@functools.lru_cache(maxsize=None)
def _hermitian_frame(n: int):
    """Flat positions of the diagonal, of e_ab and of e_ba for a < b
    (read-only, shared by every call for this n)."""
    iu, ju = np.triu_indices(n, 1)
    frame = np.arange(n) * (n + 1), iu * n + ju, ju * n + iu
    for positions in frame:
        positions.setflags(write=False)
    return frame


def _hermitian_matrices(t, n: int) -> np.ndarray:
    """Flattened Hermitian matrices with the real coordinates t (rows): the
    diagonal units, (e_ab + e_ba)/sqrt2 at the position of e_ab and
    i(e_ab - e_ba)/sqrt2 at the position of e_ba, a < b."""
    diag, upper, lower = _hermitian_frame(n)
    half = np.sqrt(0.5)
    out = np.zeros(t.shape, dtype=complex)
    out[:, diag] = t[:, diag]
    tu, tl = t[:, upper], t[:, lower]
    out[:, upper] = half * (tu + 1j * tl)
    out[:, lower] = half * (tu - 1j * tl)
    return out


def _hermitian_coordinates(x, n: int) -> np.ndarray:
    """Real coordinates of the Hermitian parts of flattened matrices x; the
    inverse of _hermitian_matrices on Hermitian input."""
    diag, upper, lower = _hermitian_frame(n)
    half = np.sqrt(0.5)
    t = np.empty(x.shape)
    t[:, diag] = x[:, diag].real
    xu, xl = x[:, upper], x[:, lower]
    t[:, upper] = half * (xu + xl).real
    t[:, lower] = half * (xu - xl).imag
    return t


def commuting_null_space(pairs, shape: tuple[int, int],
                         tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of {x: left @ x == x @ right for every pair}.

    The dense route: assembles the normal matrix sum of C* C, C: x -> l x -
    x r, from kron identities and solves one (rows*cols)^2 eigenproblem,
    O((rows*cols)^3). Eigenvalues are squared singular values; the zero
    cutoff combines the usual relative threshold with the eigensolver noise
    floor, which the spectral gaps of the intended inputs (images of
    orthonormal operator bases) clear by a wide margin. The package solves
    these problems with intertwiners; this function stays here only because
    the benchmark's tracing wraps it, and the tests use it as the dense
    oracle.
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


def range_basis(p, tol: Tolerance, error_cls, what: str) -> np.ndarray:
    """Orthonormal basis q of the range of a numerical projection p; p q = q
    is required, else error_cls is raised naming what.

    The eigenvalue cutoff is a fixed 0.5, not a Tolerance: the spectrum of a
    projection computed to working precision clusters at 0 and 1. A p far
    from a projection fails the p q = q check instead.
    """
    lam, vec = np.linalg.eigh((p + p.conj().T) / 2.0)
    q = vec[:, lam > 0.5]
    require(float(np.linalg.norm(p @ q - q)), tol.bound(1.0), error_cls,
            "{1} is not a projection, residual {0:.3e}", what)
    return q


def polar_unitary(t, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Unitary factor t (t* t)^(-1/2) of an invertible square matrix; unused
    by the package, kept because the benchmark's tracing wraps it."""
    t = as_matrix(t, "t")
    if t.shape[0] != t.shape[1]:
        raise DimensionMismatch(f"polar_unitary: matrix must be square, got {t.shape}")
    return _polar(t, tol, "polar_unitary")


def polar_isometry(t, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Isometry factor t (t* t)^(-1/2) of an injective tall matrix; unused
    by the package, kept because the benchmark's tracing wraps it."""
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
