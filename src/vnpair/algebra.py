"""Finite-dimensional *-algebras of matrices acting on C^n.

An algebra is stored as an orthonormal basis of its span under the
Hilbert-Schmidt inner product. Its structure is one matrix-unit frame W with
W* A W = (+)_i M_{a_i} (x) 1_{m_i} (``block_decompose``), built once per
algebra and tolerance, in O(d n^3), from the average sum_j b_j h b_j* of one
probe h in A: it is central, and the gaps of its spectrum split off the
minimal central projections. The center is their span. The commutant and
every intertwiner space between representations of the algebra are read off
that frame (``intertwiners``), so no eigenproblem on n^2 unknowns is solved,
and its laws are checked on matrix units of the frame, not on basis pairs;
the commutant's Gram matrix and commutation law are read off the frame's
columns, not off its d' x n^2 basis.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import numkernel as nk
from .errors import (AmbiguousRank, DegenerateCenterElement, DimensionMismatch,
                     InvalidAlgebra, NonConvergence, NonIntegralRank, NotIntertwining)

class VnAlgebra:
    """Unital *-subalgebra of the n x n complex matrices.

    The basis is orthonormal under trace(a* b). The optional generator list
    serves only the law check of ``commutant``: commutation with the
    generators and their adjoints pins down the commutant, and there are
    usually far fewer generators than basis elements. A supplied list must
    be nonempty, finite and in the span within tol.bound(1.0), else
    InvalidAlgebra; the check is only as strong as the list: an in-span list
    that does not generate, such as [1], passes. ``tol`` is kept: maps on
    the algebra check their laws on its frame at that tolerance. ``gram``
    is for a caller that holds the Gram matrix of an exactly Hermitian
    basis in coordinates of its own (``commutant``): the orthonormality and
    adjoint-closure checks read it instead of the d x n^2 Gram product.
    Instances are immutable; ``commutant`` and ``block_decompose`` cache
    their results per tolerance, for every later call over the algebra.
    """

    def __init__(self, ambient_dim: int, basis, generators=None,
                 tol: nk.Tolerance = nk.DEFAULT_TOL, *, gram=None):
        self.ambient_dim = int(ambient_dim)
        self.basis = np.asarray(basis, dtype=complex)
        if self.basis.ndim != 3 or self.basis.shape[1:] != (self.ambient_dim, self.ambient_dim):
            raise DimensionMismatch(
                f"basis must have shape (d, {ambient_dim}, {ambient_dim}), "
                f"got {self.basis.shape}")
        self.flat = self.basis.reshape(self.dim, -1)
        self.tol = tol
        self._commutants: dict[nk.Tolerance, VnAlgebra] = {}
        self._frames: dict[nk.Tolerance, BlockSignature] = {}
        self._check_light(tol, gram)
        self.generators = self.basis
        if generators is not None:
            self.generators = np.asarray(generators, dtype=complex).reshape(
                -1, self.ambient_dim, self.ambient_dim)
            nk.require(nk.span_residual(self.generators, self.flat) if len(self.generators)
                       else np.nan, tol.bound(1.0), InvalidAlgebra,
                       "generators empty, not finite or outside the span, residual {:.3e}",
                       law="generators")

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def _check_light(self, tol: nk.Tolerance, gram=None) -> None:
        """Orthonormality, identity and adjoint closure of the basis, from
        the Gram matrix of an exactly Hermitian basis if one is given, else
        from the d x n^2 Gram product."""
        hermitian = gram is not None
        if gram is None:
            gram = self.flat @ self.flat.conj().T
        bound = tol.bound(float(np.sqrt(self.dim)))
        nk.require(float(np.linalg.norm(gram - np.eye(self.dim))), bound, InvalidAlgebra,
                   "basis not orthonormal, gram residual {:.3e}", law="orthonormality")
        self._check_unit(tol)
        nk.require(_hermitian_adjoint_residual(gram) if hermitian
                   else _adjoint_residual(self.basis, gram), bound, InvalidAlgebra,
                   "span not adjoint closed, residual {:.3e}", law="adjoint_closure")

    def _check_unit(self, tol: nk.Tolerance) -> None:
        """The identity lies in the span within tol.bound(sqrt(n)), else InvalidAlgebra."""
        n = self.ambient_dim
        residual = np.linalg.norm(np.eye(n) - (self.unit_coefficients @ self.flat).reshape(n, n))
        nk.require(float(residual), tol.bound(float(np.sqrt(n))), InvalidAlgebra,
                   "identity outside span, residual {:.3e}", law="identity")

    @functools.cached_property
    def unit_coefficients(self) -> np.ndarray:
        """Coefficients of the identity matrix, for the identity checks of the
        algebra and the unitality checks of representations; computed once."""
        return self.coefficients(np.eye(self.ambient_dim))

    def coefficients(self, x) -> np.ndarray:
        """Coefficients of x against the orthonormal basis: a vector for one
        finite matrix, a row per matrix of a stack (..., n, n), from one
        product that conjugates x, not the basis. Coordinates in this basis
        are formed here only."""
        x = nk.as_matrix(x, "x") if np.ndim(x) == 2 else np.asarray(x, dtype=complex)
        n = self.ambient_dim
        if x.ndim < 2 or x.shape[-2:] != (n, n):
            raise DimensionMismatch(f"x: expected shape (..., {n}, {n}), got {x.shape}")
        return (x.reshape(-1, n * n).conj() @ self.flat.T).conj().reshape(
            x.shape[:-2] + (self.dim,))

    def apply(self, images, x) -> np.ndarray:
        """The linear map sending the i-th basis element to images[i], at x in
        the span: one image for a matrix, one per matrix of a stack, from one
        product. Maps given by basis images are applied here only; the
        identity's image is read off ``unit_coefficients``."""
        images = np.asarray(images)
        coeffs = self.coefficients(x)
        return (coeffs.reshape(-1, self.dim) @ images.reshape(self.dim, -1)).reshape(
            coeffs.shape[:-1] + images.shape[1:])

    def project(self, x) -> np.ndarray:
        return self.apply(self.basis, x)

    def contains(self, x, tol: nk.Tolerance = nk.DEFAULT_TOL) -> nk.MatchReport:
        x = nk.as_matrix(x, "x")
        residual, bound = float(np.linalg.norm(x - self.project(x))), tol.bound(nk.frobenius(x))
        return nk.MatchReport(residual <= bound, residual, bound)

    def validate(self, tol: nk.Tolerance = nk.DEFAULT_TOL) -> dict:
        """Product closure, else InvalidAlgebra: the span is closed when its
        block frame exists (sum a_i^2 = dim) and it holds every e^i_jk /
        sqrt(m_i). ``product_closure`` is their worst distance r from it; a
        basis product b_a b_b lies within 3 sqrt(dim) r of the span."""
        try:
            sig = block_decompose(self, tol)
        except (AmbiguousRank, DegenerateCenterElement, NonIntegralRank) as exc:
            raise InvalidAlgebra(f"span has no matrix-unit frame: {exc}") from exc
        return {"product_closure": nk.require(nk.worst(*(
            nk.span_residual(sig.unit_grid(i) / np.sqrt(m), self.flat)
            for i, (_, m) in enumerate(sig.blocks))), tol.bound(1.0), InvalidAlgebra,
            "span not closed under products, residual {:.3e}", law="product_closure")}

    def __repr__(self) -> str:
        return f"VnAlgebra(ambient_dim={self.ambient_dim}, dim={self.dim})"


def _adjoint_residual(basis, gram) -> float:
    """|F* - (F* F^H) F| for the flattened basis F and its adjoints F*;
    ``_hermitian_adjoint_residual`` of the Gram G = F F^H when F* is F."""
    flat = basis.reshape(len(basis), -1)
    adj = basis.conj().transpose(0, 2, 1).reshape(flat.shape)
    if np.array_equal(adj, flat):
        return _hermitian_adjoint_residual(gram)
    return float(np.linalg.norm(adj - (adj @ flat.conj().T) @ flat))


def _hermitian_adjoint_residual(gram) -> float:
    """|F - G F| = sqrt tr((1-G)*(1-G)G) for an exactly Hermitian basis F
    with Gram G = F F^H, in O(dim^3); the same for the Gram of any unitary
    recombination of F. np.maximum keeps a NaN."""
    c = np.eye(len(gram)) - gram
    return float(np.sqrt(np.maximum(np.sum((c.conj().T @ c) * gram.T).real, 0.0)))


def from_generators(ambient_dim: int, generators,
                    tol: nk.Tolerance = nk.DEFAULT_TOL) -> VnAlgebra:
    """Unital *-algebra generated by the given matrices.

    The span of all words in the generators and their adjoints is reached by
    repeatedly multiplying the current span by the generator set; the loop
    stops when the dimension stabilizes.
    """
    n = int(ambient_dim)
    gens = [nk.as_matrix(g, f"generator {i}") for i, g in enumerate(generators)]
    for i, g in enumerate(gens):
        if g.shape != (n, n):
            raise DimensionMismatch(f"generator {i}: expected {(n, n)}, got {g.shape}")
    seed = [np.eye(n, dtype=complex)] + gens + [g.conj().T for g in gens]
    multipliers = nk.orthonormalize(np.array(seed), tol)
    basis = multipliers
    for _ in range(2 * n * n + 2):
        prods = np.einsum("aij,bjk->abik", multipliers, basis).reshape(-1, n, n)
        new_basis = nk.orthonormalize(np.concatenate([basis, prods]), tol)
        if new_basis.shape[0] == basis.shape[0]:
            basis = new_basis
            break
        basis = new_basis
        if basis.shape[0] > n * n:
            raise NonConvergence("closure exceeded the ambient dimension bound")
    else:
        raise NonConvergence("closure did not stabilize")
    return VnAlgebra(n, basis, generators=np.array(gens) if gens else None, tol=tol)


def full_matrix_algebra(n: int, tol: nk.Tolerance = nk.DEFAULT_TOL) -> VnAlgebra:
    """All of the n x n matrices, with the matrix units as basis."""
    units = np.eye(n * n, dtype=complex).reshape(n * n, n, n)
    shifts = np.array([units[k] for k in range(1, n)]) if n > 1 else None
    return VnAlgebra(n, units, generators=shifts, tol=tol)


def trivial_algebra(n: int) -> VnAlgebra:
    """Scalar multiples of the identity."""
    basis = (np.eye(n, dtype=complex) / np.sqrt(n))[None, :, :]
    return VnAlgebra(n, basis)


def commutant(a: VnAlgebra, tol: nk.Tolerance = nk.DEFAULT_TOL) -> VnAlgebra:
    """Relative commutant of the algebra inside the ambient matrices.

    The units x^i_pq = sum_k T_ik[:, p] T_ik[:, q]* / sqrt(a_i) of
    1_{a_i} (x) M_{m_i} read off the block frame (``intertwiners``), in the
    exactly Hermitian basis x_pp, (x_pq + x_pq*)/sqrt2, i(x_pq - x_pq*)/sqrt2
    (p < q). The laws of ``VnAlgebra`` are checked against its bounds, in
    the coordinates of the frame where they can be:

    - orthonormality and adjoint closure on the Gram matrix G of the units,
      read off M = V* V for the frame's ``columns`` V (``_unit_gram``, every
      block exact) in O(n^3 + D^2), D = sum_i a_i m_i^2, not off the
      d' x n^2 basis in O(d'^2 n^2): the Hermitian basis is a unitary
      recombination of the units, which leaves |G - 1| and
      sqrt tr((1-G)*(1-G)G) unchanged;
    - commutation with the generators on the generating units x_p1, x_1q
      against half the bound, through their rank-a_i factors
      (``intertwiners``); for Hermitian x the residual of g* x - x g* is
      that of g x - x g;
    - the identity on the basis itself, O(d' n^2).

    Computed once per algebra and tolerance; the result takes over the
    frame, transposed, and computes its own commutant afresh.
    """
    cached = a._commutants.get(tol)
    if cached is None:
        n = a.ambient_dim
        sig = block_decompose(a, tol)
        gram = _unit_gram(sig)  # before the units: its transient never meets theirs
        parts = intertwiners(a, tol=tol)
        cached = a._commutants[tol] = VnAlgebra(n, _hermitian_basis(parts), tol=tol, gram=gram)
        cached._frames[tol] = sig._dual  # no frame check to repeat
    return cached


def _unit_gram(sig: BlockSignature) -> np.ndarray:
    """Gram matrix of the commutant's units x^i_pq in the order of
    ``intertwiners``, from M = V* V of the frame's ``columns`` V:
    tr(x^j_rs* x^i_pq) = sum_kl conj(M[ikp, jlr]) M[ikq, jls], every block
    exact (``numkernel.column_pair_gram``)."""
    heads, tails, _ = _unit_columns(sig.blocks)
    v = sig.columns
    return nk.column_pair_gram(v.conj().T @ v, heads, tails)


@functools.lru_cache(maxsize=256)
def _unit_columns(blocks) -> tuple:
    """Indices into the frame's ``columns`` of the products v_ikp v_ikq* that sum,
    over k, to the units x^i_pq, a column per unit in the order of
    ``intertwiners``, padded to the largest a_i by the zero column: heads
    and tails (max a_i, units); and the columns of the generating units
    x_p1 (every p) and x_1q (q > 1) of each summand."""
    n, width = sum(a_i * m for a_i, m in blocks), max(a_i for a_i, _ in blocks)
    heads, tails, generating, offset, start = [], [], [], 0, 0
    for a_i, m in blocks:
        cols = np.full((width, m), n)
        cols[:a_i] = offset + m * np.arange(a_i)[:, None] + np.arange(m)
        heads.append(np.repeat(cols, m, axis=1))
        tails.append(np.tile(cols, m))
        generating += [start + m * p for p in range(m)] + [start + q for q in range(1, m)]
        offset, start = offset + a_i * m, start + m * m
    out = np.concatenate(heads, axis=1), np.concatenate(tails, axis=1), np.array(generating)
    for x in out:  # shared by every caller of the cache
        x.flags.writeable = False
    return out


@functools.lru_cache(maxsize=64)
def _triangle(m: int) -> tuple:
    """The upper triangle of an m x m grid, diagonal included, and the scale
    of each of its places in ``_hermitian_basis``; read-only, as shared."""
    upper = np.triu(np.ones((m, m), dtype=bool))
    out = upper, np.where(np.eye(m, dtype=bool)[upper], 0.5, np.sqrt(0.5))[:, None, None]
    for x in out:
        x.flags.writeable = False
    return out


def _hermitian_basis(parts) -> np.ndarray:
    """Exactly Hermitian basis of the spans of the stacks x_pq, stack by stack
    in pq order, written into one array, one triangle at a time:
    (x_pq + x_pq*) scale at p <= q, i(x_qp - x_qp*)/sqrt2 at p > q."""
    n = parts[0].shape[2]
    out, start = np.empty((sum(len(x) ** 2 for x in parts), n, n), dtype=complex), 0
    for x in parts:
        m = len(x)
        block = out[start:start + m * m].reshape(m, m, n, n)
        upper, scale = _triangle(m)
        y = x[upper]
        y += y.conj().transpose(0, 2, 1)
        y *= scale
        block[upper] = y
        y = x.transpose(1, 0, 2, 3)[~upper]
        y -= y.conj().transpose(0, 2, 1)
        y *= 1j
        y *= np.sqrt(0.5)
        block[~upper] = y
        start += m * m
    return out


def equals(a: VnAlgebra, b: VnAlgebra,
           tol: nk.Tolerance = nk.DEFAULT_TOL) -> nk.MatchReport:
    """Span equality via the Frobenius distance of the two span projections,
    |P_A - P_B|^2 = sum_k |(1 - P_B) a_k|^2 + sum_l |(1 - P_A) b_l|^2 over the
    orthonormal rows a_k, b_l: exact, with no (n^2)^2 matrix and no cancellation."""
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch(
            f"ambient dimensions differ: {a.ambient_dim} vs {b.ambient_dim}")
    bound = tol.bound(a.dim ** 0.5, b.dim ** 0.5)
    if a is b:
        return nk.MatchReport(True, 0.0, bound)
    residual = float(np.hypot(
        np.linalg.norm(a.flat - (a.flat @ b.flat.conj().T) @ b.flat),
        np.linalg.norm(b.flat - (b.flat @ a.flat.conj().T) @ a.flat)))
    return nk.MatchReport(residual <= bound, residual, bound)


def center(a: VnAlgebra, tol: nk.Tolerance = nk.DEFAULT_TOL) -> VnAlgebra:
    """Intersection of the algebra with its commutant: the span of the
    minimal central projections p_i of the block frame, with the
    orthonormal basis p_i / sqrt(tr p_i)."""
    sig = block_decompose(a, tol)
    ranks = np.array([a_i * m for a_i, m in sig.blocks], dtype=float)
    return VnAlgebra(a.ambient_dim, sig.central_projections / np.sqrt(ranks)[:, None, None],
                     tol=tol)


@dataclass(frozen=True)
class BlockSignature:
    """Simple-summand sizes a_i with multiplicities m_i, largest first, and
    their matrix-unit frame.

    blocks[i] = (a_i, m_i); central_projections[i] is the unit of the i-th
    summand. units[i] has shape (a_i, n, m_i): isometries T_ik with matrix
    units T_ik T_il* of the i-th summand; their columns, in order, form a
    unitary W with W* A W = (+)_i M_{a_i} (x) 1_{m_i}, as in ``block_basis``.
    """

    blocks: tuple[tuple[int, int], ...]
    central_projections: np.ndarray
    units: tuple[np.ndarray, ...]

    @functools.cached_property
    def _dual(self) -> BlockSignature:
        """The commutant's frame, built once: (a_i, m_i) becomes (m_i, a_i), U_il[:, k] =
        T_ik[:, l], sorted stably by shape, as summands of one shape share their keys."""
        order = sorted(range(len(self.blocks)), key=lambda i: self.blocks[i][::-1],
                       reverse=True)  # stable
        return BlockSignature(blocks=tuple(self.blocks[i][::-1] for i in order),
                              central_projections=self.central_projections[order],
                              units=tuple(self.units[i].transpose(2, 1, 0) for i in order))

    def unit_grid(self, i: int) -> np.ndarray:
        """The matrix units e_jk = T_ij T_ik* of summand i, (a_i, a_i, n, n)."""
        return self.units[i][:, None] @ self.units[i].conj().transpose(0, 2, 1)[None]

    @functools.cached_property
    def columns(self) -> np.ndarray:
        """V, n x (n + 1): the columns v_ikp = T_ik[:, p] / a_i^(1/4) of the
        isometries in order (summand, k, p), then one zero column. The units
        of the commutant are the sums x^i_pq = sum_k v_ikp v_ikq*."""
        n = self.units[0].shape[1]
        return np.concatenate([t.transpose(1, 0, 2).reshape(n, -1) * len(t) ** -0.25
                               for t in self.units] + [np.zeros((n, 1))], axis=1)


def block_decompose(a: VnAlgebra, tol: nk.Tolerance = nk.DEFAULT_TOL) -> BlockSignature:
    """Block signature and matrix-unit frame, read off elements h (Hermitian)
    and g of A drawn once from ``numkernel.PROBE_SEED``:

    - z = sum_j b_j h b_j* = E(h) S is central, at O(d n^3): E(x) =
      sum_j b_j x b_j* S^-1 maps A onto its center (Pimsner-Popa 1986,
      Watatani 1990) and S = sum_j b_j b_j* is central. Its eigenvectors,
      split at the gaps of its spectrum by ``numkernel.split_spectrum`` at
      the cut min(tol.eps, 1e-6) max(|lambda|, 1), give the minimal central
      projections p_i, each required to lie in A and to commute with the
      basis (on q = sum_i i p_i, as p_j [b, q] p_k = (k - j) p_j b p_k). The
      cap keeps a loose tolerance from merging summands: generic values of
      z lie 1e-3 of the scale apart and more, rounding spreads one by 1e-14.
      a_i^2 = dim p_i A p_i is a trace rounded within 1e-6, a_i m_i = rank p_i;
    - the eigenvalues of p_i h p_i on ran(p_i), in ascending order, form a_i
      groups of m_i, with isometries V_1, ..., V_a;
    - T_i1 = V_1 and T_ik = V_k polar(V_k* g V_1).

    Checked once, else DegenerateCenterElement: every V_k* g V_1 has equal
    singular values (|g_k1| in the block model), sum a_i^2 = dim, the T_ik
    form a unitary, and every T_ik T_i1* lies in A, so a z that merges
    summands fails; one that splits a summand fails commutation. The span
    must hold the identity within tol, else InvalidAlgebra. Summands come
    largest shape first, equal shapes ordered by tr(p diag(0, ..., n-1)),
    then by the diagonal of p, under the tolerance, so not by the basis.
    Cached per algebra and tolerance.
    """
    cached = a._frames.get(tol)
    if cached is not None:
        return cached
    n = a.ambient_dim
    if tol != a.tol:  # construction checked the identity at a.tol
        a._check_unit(tol)
    rng = np.random.default_rng(nk.PROBE_SEED)
    h, g = (np.tensordot(nk.random_complex(a.dim, rng), a.basis, axes=(0, 0)) for _ in range(2))
    h = h + h.conj().T
    # z as one product of [b_1 h | ... | b_d h] with the stacked b_j*
    z = (a.basis @ h).transpose(1, 0, 2).reshape(n, -1) @ \
        a.basis.conj().transpose(0, 2, 1).reshape(-1, n)
    sig = a._frames[tol] = _frame(a, z, h, g, tol)
    return sig


def _frame(a: VnAlgebra, z, h, g, tol: nk.Tolerance) -> BlockSignature:
    """The frame of ``block_decompose`` read off z, h and g."""
    n = a.ambient_dim
    lam, vec = np.linalg.eigh(z)
    starts, _ = nk.split_spectrum(lam, min(tol.eps, 1e-6) * max(float(np.abs(lam).max()), 1.0))
    vs = np.split(vec, starts, axis=1)
    projections = [v @ v.conj().T for v in vs]
    bound = tol.bound(nk.worst_norm(projections))
    nk.require(nk.span_residual(projections, a.flat), bound, DegenerateCenterElement,
               "cluster projection leaves the algebra, residual {:.3e}")
    q = sum(i * p for i, p in enumerate(projections))
    nk.require(nk.law_residual(a.basis, a.basis, q[None]), bound, DegenerateCenterElement,
               "cluster projection does not commute with the algebra, residual {:.3e}")
    # sum_j b_j b_j* is (a_i / m_i) 1 on the i-th summand, so its trace
    # against the unit p_i of the summand is a_i^2 = dim p_i A p_i
    gram = (a.basis @ a.basis.conj().transpose(0, 2, 1)).sum(axis=0)
    blocks, units = [], []
    for v, p in zip(vs, projections):
        d_i = nk.integral_trace(complex(np.vdot(p, gram)), 1e-6, a.dim)
        a_i = int(round(np.sqrt(d_i)))
        rank = v.shape[1]
        if a_i * a_i != d_i or rank % a_i:
            raise DegenerateCenterElement(
                f"corner dimension {d_i} and projection rank {rank} do not "
                f"fit a summand M_a (x) 1_m")
        blocks.append((a_i, rank // a_i))
        t = v[None]
        if a_i > 1:
            _, hv = np.linalg.eigh(v.conj().T @ h @ v)
            t = (v @ hv).reshape(n, a_i, -1).transpose(1, 0, 2)
            links = t.conj().transpose(0, 2, 1) @ g @ t[0]
            links[0] = np.eye(t.shape[2])  # T_i1 = V_1
            w, s, vh = np.linalg.svd(links)
            spread = (s[:, 0] - s[:, -1]) / s[:, 0] if s[:, 0].all() else [np.inf]
            nk.require(float(np.max(spread)), tol.eps, DegenerateCenterElement,
                       "links of the generic element are not multiples of unitaries, "
                       "relative spread {:.3e}")
            t = t @ w @ vh
        units.append(t)
    if sum(ai * ai for ai, _ in blocks) != a.dim:
        raise DegenerateCenterElement("block dimension bookkeeping failed")
    frame = np.concatenate([t.transpose(1, 0, 2).reshape(n, -1) for t in units], axis=1)
    nk.require(nk.unitarity_residual(frame), tol.bound(np.sqrt(n)),
               DegenerateCenterElement, "frame is not unitary, residual {:.3e}")
    nk.require(_units_residual(units, a), tol.bound(1.0), DegenerateCenterElement,
               "frame matrix units leave the algebra, residual {:.3e}")
    order = sorted(range(len(blocks)), key=functools.cmp_to_key(
        _summand_order(blocks, projections, tol)))
    return BlockSignature(blocks=tuple(blocks[i] for i in order),
                          central_projections=np.array([projections[i] for i in order]),
                          units=tuple(units[i] for i in order))


def _units_residual(units, a: VnAlgebra) -> float:
    """Worst distance of a frame's matrix units T_ik T_i1* from the span of a."""
    return nk.span_residual(np.concatenate([t @ t[0].conj().T for t in units]), a.flat)


def adopt_frame(a: VnAlgebra, sig: BlockSignature, tol: nk.Tolerance) -> None:
    """Let a take over the frame sig at tol if a has none there, and sig fills
    dim a and passes the span check that ends ``block_decompose``."""
    if tol not in a._frames and sum(ai * ai for ai, _ in sig.blocks) == a.dim and \
            _units_residual(sig.units, a) <= tol.bound(1.0):
        a._frames[tol] = sig


def intertwiners(a: VnAlgebra, lefts=None, rights=None,
                 tol: nk.Tolerance = nk.DEFAULT_TOL) -> list[np.ndarray]:
    """The space {x: pi_L(b) x = x pi_R(b) for all b in a}, read off the
    block frame of a.

    lefts and rights hold the images of the basis of a under unital
    *-representations pi_L on C^rows and pi_R on C^cols (None, or the basis
    itself: the defining one). By Schur's lemma the orthonormal elements
    x^i_pq = sum_k pi_L(e^i_k1) R^L_i E_pq (R^R_i)* pi_R(e^i_1k) / sqrt(a_i)
    span it, e^i_k1 = T_ik T_i1* the matrix units of the frame and R_i an
    orthonormal basis of the range of pi(e^i_11) (``numkernel.range_basis``;
    T_i1 for the defining representation), whose rank must be the trace
    rounded by ``numkernel.integral_trace`` within
    min(MAX_RANK_SLACK, tol.bound(|trace|)). The law pi_L(b) x = x pi_R(b)
    is checked for every basis element b on every element x. For the
    defining representation on both sides (the commutant) it is checked
    for the generators g of a (its basis when none were supplied) on x_p1,
    x_1q against half the bound, as sqrt(a_i) x_pq is the product of the
    partial isometries sqrt(a_i) x_p1, sqrt(a_i) x_1q of the verified
    frame, so its residual is at most the sum of theirs; and on their
    rank-a_i factors x = h t* read off the frame, g x - x g = (g h) t* -
    h (g* t)* (``numkernel.factored_law_residual``), in O(|gens| sum_i
    (2 m_i - 1) a_i n^2), not n^3 per generator and unit. A failure of
    either raises NotIntertwining.

    Returns the stacks x^i, shape (r^L_i, r^R_i, rows, cols), per summand.
    """
    reps = [None if m is None or m is a.basis else _images(a, m) for m in (lefts, rights)]
    law_l, law_r = (a.basis if m is None else m for m in reps)
    rows, cols = law_l.shape[1], law_r.shape[1]
    sig = block_decompose(a, tol)
    parts = []
    for i, (a_i, _) in enumerate(sig.blocks):
        left = _legs(a, sig, i, reps[0], tol)
        right = left if reps[1] is reps[0] else _legs(a, sig, i, reps[1], tol)
        # x[p, q] = sum_k left[k][:, p] right[k][:, q]* / sqrt(a_i), as one product
        x = left.transpose(2, 1, 0).reshape(-1, a_i) @ \
            right.conj().transpose(0, 2, 1).reshape(a_i, -1)
        x /= np.sqrt(a_i)
        parts.append(x.reshape(
            left.shape[2], rows, right.shape[2], cols).transpose(0, 2, 1, 3))
    generating = reps[0] is None and reps[1] is None
    if generating:
        law_l = law_r = a.generators
    bound = tol.bound(max(nk.worst_norm(law_l), nk.worst_norm(law_r))) / (
        2.0 if generating else 1.0)
    residual = _generating_residual(sig, law_l, law_r) if generating else nk.law_residual(
        law_l, law_r, np.concatenate([x.reshape(-1, rows, cols) for x in parts]))
    nk.require(residual, bound, NotIntertwining,
               "frame-read space breaks its intertwining law, residual {:.3e}", law="intertwining")
    return parts


def _generating_residual(sig: BlockSignature, lefts, rights) -> float:
    """Worst |l x - x r| over the law pairs and the generating units x_p1,
    x_1q of the commutant, x = h t* with the rank-a_i factors h and t
    gathered from the frame's ``columns`` (``numkernel.factored_law_residual``)."""
    heads, tails, units = _unit_columns(sig.blocks)
    v = sig.columns
    return nk.factored_law_residual(lefts, rights, v[:, heads[:, units]].transpose(2, 0, 1),
                                    v[:, tails[:, units]].transpose(2, 0, 1))


def _images(a: VnAlgebra, images) -> np.ndarray:
    """Validated basis images of a representation of a, shape (dim, h, h)."""
    m = np.asarray(images, dtype=complex)
    if m.ndim != 3 or m.shape[0] != a.dim or m.shape[1] != m.shape[2] or \
            not np.all(np.isfinite(m)):
        raise DimensionMismatch(f"representation: expected {a.dim} finite square "
                                f"basis images, got shape {m.shape}")
    return m


def _legs(a: VnAlgebra, sig: BlockSignature, i: int, images,
          tol: nk.Tolerance) -> np.ndarray:
    """pi(e^i_k1) R_i for every k, shape (a_i, h, r_i), from the basis images
    of pi; the frame isometries T_ik for the defining representation (None)."""
    if images is None:
        return sig.units[i]
    pi = a.apply(images, sig.unit_grid(i)[:, 0])
    what = f"pi(e^{i}_11)"
    r = nk.range_basis(pi[0], tol, NotIntertwining, what)
    trace = complex(np.trace(pi[0]))
    rank = nk.integral_trace(trace, min(nk.MAX_RANK_SLACK, tol.bound(abs(trace))), len(r))
    nk.require(abs(rank - r.shape[1]), 0, NotIntertwining,
               "{1} has a range of rank {2}, but trace {3:.6g}", what, r.shape[1], trace.real)
    return pi @ r


def _summand_order(blocks, projections, tol: nk.Tolerance):
    """Comparison of summands: larger shape first, then the key
    (tr(p diag(0, ..., n-1)), diagonal of p) compared entry by entry, values
    within the tolerance counting as equal."""
    keys = [np.concatenate([[d @ np.arange(len(d))], d])
            for d in (np.diagonal(p).real for p in projections)]

    def compare(i, j):
        if blocks[i] != blocks[j]:
            return 1 if blocks[i] < blocks[j] else -1
        diff = keys[i] - keys[j]
        apart = np.flatnonzero(np.abs(diff) > tol.bound(1.0))
        return int(np.sign(diff[apart[0]])) if apart.size else 0
    return compare


def block_basis(blocks) -> tuple[np.ndarray, list[int]]:
    """Matrix-unit generators for the block-diagonal model algebra.

    For each block (a, m) the model occupies an a*m slot in which the
    algebra acts as M_a tensor 1_m; the returned generators are the first
    row of matrix units of each block, enough to generate the summand.
    """
    n = sum(a * m for a, m in blocks)
    gens = []
    offset = 0
    for a_i, m_i in blocks:
        for k in range(a_i):
            g = np.zeros((n, n), dtype=complex)
            for l in range(m_i):
                g[offset + l, offset + k * m_i + l] = 1.0
            gens.append(g)
        offset += a_i * m_i
    return np.array(gens), [a * m for a, m in blocks]


def block_model(blocks, frame, tol: nk.Tolerance = nk.DEFAULT_TOL) -> VnAlgebra:
    """The model algebra (+)_i M_{a_i} (x) 1_{m_i} of the signature, turned by
    the unitary frame u, in closed form (Davidson, C*-Algebras by Example,
    III.1): the generators g_k = u e_k u* of ``block_basis`` and, per summand,
    the orthonormal basis g_j* g_k / sqrt(m_i) of its matrix units. No closure."""
    gens, _ = block_basis(blocks)
    gens = frame @ gens @ frame.conj().T
    n, units, start = len(frame), [], 0
    for a, m in blocks:
        g = gens[start:start + a]
        grid = g.conj().transpose(0, 2, 1)[:, None] @ g[None]  # g_j* g_k at (j, k)
        units.append(grid.reshape(-1, n, n) / np.sqrt(m))
        start += a
    return VnAlgebra(n, np.concatenate(units), generators=gens, tol=tol)


def random_algebra(ambient_dim: int, blocks, seed,
                   tol: nk.Tolerance = nk.DEFAULT_TOL) -> VnAlgebra:
    """Random-basis copy of the block-diagonal algebra with the given signature:
    ``block_model`` turned by a Haar unitary drawn from the seed, in closed
    form, with no closure under products."""
    n = int(ambient_dim)
    blocks = [(int(a), int(m)) for a, m in blocks]
    if any(a < 1 or m < 1 for a, m in blocks):
        raise DimensionMismatch("block sizes and multiplicities must be positive")
    if sum(a * m for a, m in blocks) != n:
        raise DimensionMismatch(
            f"blocks fill {sum(a * m for a, m in blocks)} dimensions, ambient is {n}")
    return block_model(blocks, nk.random_unitary(n, seed), tol)
