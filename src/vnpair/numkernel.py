"""Dense complex-matrix substrate with a single tolerance policy.

All higher layers route their linear algebra through the helpers here so
that rank decisions, orthonormalization, and residual reports share one
convention: comparison bounds are ``eps`` scaled by ``max(1, operand
norms)``, and rank cutoffs are relative to the largest singular value,
except where a rank is the trace of a projection, rounded within a stated
bound by ``integral_trace``, or a count of spectral clusters, split at
their gaps by ``split_spectrum``. Everything is complex double precision; inputs
are validated for shape and finiteness and are never mutated.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .errors import AmbiguousRank, DimensionMismatch, NonIntegralRank, SingularInput

DEFAULT_EPS = 1e-9

#: seed of the generic elements of algebra.block_decompose: frames are deterministic
PROBE_SEED = 0

#: rank bounds of integral_trace stay clear of the half-way point between two
#: integers, so that a loose tolerance can never make a trace round silently
MAX_RANK_SLACK = 0.25

#: a spectral gap above its cut but below SPLIT_WINDOW times it is neither noise nor a split
SPLIT_WINDOW = 100.0

#: complex entries one contraction temporary may hold (4 MB)
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
    """Boolean verdict, the Frobenius residual that produced it and its bound."""

    ok: bool
    residual: float
    bound: float

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


def as_horizon(horizon) -> int:
    """A horizon as an int; a bool, a non-integer or a value below 1 raises DimensionMismatch."""
    if isinstance(horizon, bool) or not isinstance(horizon, (int, np.integer)) or horizon < 1:
        raise DimensionMismatch(f"horizon must be an integer of at least 1, got {horizon!r}")
    return int(horizon)


def frobenius(a) -> float:
    return float(np.linalg.norm(np.asarray(a)))


def memo():
    """memo(fn, reads, *args): fn(*args) once per distinct fn and identities
    of the objects in reads, the arrays, frames and tolerance the term reads.
    Each entry holds them, so no id is reused while it lives."""
    terms = {}

    def memo(fn, reads, *args):
        key = (fn, *map(id, reads))
        if key not in terms:
            terms[key] = (reads, fn(*args))
        return terms[key][1]
    return memo


def require(residual: float, bound: float, error_cls, message: str, /,
            *values, law: str | None = None, **attrs) -> float:
    """The one verdict rule: pass when residual <= bound, else raise.

    A NaN residual or bound fails. The message is formatted only on
    failure, as message.format(residual, *values); attrs go to the error
    constructor, and a named law adds law, residual and bound. Returns the
    residual, so callers can keep it.
    """
    if not residual <= bound:
        if law is not None:
            attrs.update(law=law, residual=residual, bound=bound)
        raise error_cls(message.format(residual, *values), **attrs)
    return residual


def require_laws(residuals: dict, bound: float, error_cls, message: str) -> dict:
    """require for a dict of named residuals against one bound.

    The message and the error's ``residuals`` hold the failing laws only,
    with ``bound``. Returns residuals unchanged.
    """
    bad = {k: v for k, v in residuals.items() if not v <= bound}
    if bad:
        raise error_cls(message.format(bad), residuals=bad, bound=bound)
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


def integral_trace(trace, bound: float, dim: int) -> int:
    """The integer in [0, dim] that a trace counting dimensions rounds to.

    The one rounding rule for rank decisions made by traces: a non-finite
    trace, or one further than bound from every integer in [0, dim], raises
    NonIntegralRank, law ``integral_rank``, carrying the trace, the rounded rank,
    the deviation from it as residual (inf off [0, dim]) and the bound.
    """
    rank = int(round(trace.real)) if np.isfinite(trace) else -1
    deviation = float(abs(trace - rank)) if 0 <= rank <= dim else float("inf")
    require(deviation, bound, NonIntegralRank,
            "trace {1:.6g} is not within {2:.3e} of a rank in [0, {3}]",
            trace, bound, dim, trace=trace, rank=rank, law="integral_rank")
    return rank


def split_spectrum(values, cut: float) -> tuple[np.ndarray, float]:
    """The starts (for ``np.split``) of the clusters of an ascending
    spectrum after the first, and the smallest separating gap over the cut
    (inf for one cluster). A gap up to cut joins, one from SPLIT_WINDOW * cut
    on separates; one between, or a NaN, raises AmbiguousRank."""
    gaps = np.diff(np.asarray(values, dtype=float))
    ambiguous = gaps[~((gaps <= cut) | (gaps >= SPLIT_WINDOW * cut))]
    if ambiguous.size:
        raise AmbiguousRank(f"spectral gap {ambiguous[0]:.3e} lies between the cut {cut:.3e} "
                            f"and {SPLIT_WINDOW:g} times it", gap=float(ambiguous[0]), cut=cut,
                            window=SPLIT_WINDOW)
    starts = np.flatnonzero(gaps > cut) + 1
    return starts, float(gaps[starts - 1].min() / cut) if starts.size else float("inf")


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
        diff = lx.reshape(g, rows, h, cols)
        diff -= xr.reshape(h, rows, g, cols).transpose(2, 1, 0, 3)
        # squared norms per (pair, element) from the real view of diff
        re = diff.view(float)
        out = worst(out, float(np.sqrt(np.einsum("gahb,gahb->gh", re, re).max())))
    return out


def factored_law_residual(lefts, rights, heads, tails) -> float:
    """``law_residual`` on the elements x = h t* given by their factors,
    stacked as heads (k, rows, r) and tails (k, cols, r); zero columns pad
    a factor of smaller rank. l x - x r = (l h) t* - h (r* t)* is one
    product of rank 2r: O(rows cols r) per (pair, element) once l h and
    r* t are formed, where ``law_residual`` forms l x and x r. Chunked as
    ``law_residual``; NaN when any entry is NaN."""
    k, rows, rank = heads.shape
    cols = tails.shape[1]
    out = 0.0
    for elements, pairs in _chunk_pairs(k, lefts.shape[0], rows * cols):
        h, t, l, r = heads[elements], tails[elements], lefts[pairs], rights[pairs]
        e, g = h.shape[0], l.shape[0]
        # l h and r* t for every pair and element, each from one product
        lh = (l.reshape(g * rows, rows) @ h.transpose(1, 0, 2).reshape(rows, e * rank))
        rt = (r.conj().transpose(0, 2, 1).reshape(g * cols, cols) @
              t.transpose(1, 0, 2).reshape(cols, e * rank))
        left = np.concatenate([lh.reshape(g, rows, e, rank).transpose(0, 2, 1, 3),
                               np.broadcast_to(-h, (g,) + h.shape)], axis=3)
        right = np.concatenate([np.broadcast_to(t, (g,) + t.shape),
                                rt.reshape(g, cols, e, rank).transpose(0, 2, 1, 3)], axis=3)
        re = (left @ right.conj().transpose(0, 1, 3, 2)).view(float)
        out = worst(out, float(np.sqrt(np.einsum("geab,geab->ge", re, re).max())))
    return out


def column_pair_gram(m, heads, tails) -> np.ndarray:
    """Gram matrix G = F F^H of the flattened sums x_u = sum_k w_heads[k, u]
    w_tails[k, u]* of rank-one products of columns of a matrix W, read off
    m = W* W: G[u, v] = tr(x_v* x_u) = sum_kl conj(m[heads[k, u],
    heads[l, v]]) m[tails[k, u], tails[l, v]], in O(heads.size^2), no x_u
    formed. A zero column of W pads sums of fewer terms. The terms are
    formed for a few u at a time, at most _CHUNK entries (or one u)."""
    rank, count = heads.shape
    out = np.empty((count, count), dtype=complex)
    step = max(1, _CHUNK // (rank * rank * count))
    for u in range(0, count, step):
        rows = slice(u, min(count, u + step))
        terms = np.take(m[heads[:, rows].reshape(-1)], heads.reshape(-1), axis=1)
        np.conjugate(terms, out=terms)
        terms *= np.take(m[tails[:, rows].reshape(-1)], tails.reshape(-1), axis=1)
        out[rows] = terms.reshape(rank, -1, rank, count).sum(axis=(0, 2))
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


def commuting_null_space(pairs, shape: tuple[int, int],
                         tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of {x: left @ x == x @ right for every pair}.

    The dense route: assembles the normal matrix sum of C* C, C: x -> l x -
    x r, from kron identities and solves one (rows*cols)^2 eigenproblem,
    O((rows*cols)^3). Eigenvalues are squared singular values; the zero
    cutoff combines the usual relative threshold with the eigensolver noise
    floor, which the spectral gaps of the intended inputs (images of
    orthonormal operator bases) clear by a wide margin. The package reads
    these spaces off block frames; this function stays here only because
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
