"""Finite-dimensional *-algebras of matrices acting on C^n.

An algebra is stored as an orthonormal basis of its span under the
Hilbert-Schmidt inner product. Its structure is one matrix-unit frame W with
W* A W = (+)_i M_{a_i} (x) 1_{m_i} (``block_decompose``), built once per
algebra and tolerance from the center, which is the range of the
trace-averaging projection restricted to the algebra. The commutant and
every intertwiner space between representations of the algebra are read off
that frame (``intertwiners``), so no eigenproblem on n^2 unknowns is solved.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import numkernel as nk
from .errors import (DegenerateCenterElement, DimensionMismatch, InvalidAlgebra,
                     NonConvergence, NotIntertwining, SingularInput)

class VnAlgebra:
    """Unital *-subalgebra of the n x n complex matrices.

    The basis is orthonormal under trace(a* b). The optional generator list
    serves only the law check of ``commutant``: commutation with the
    generators and their adjoints already pins down the commutant, and there
    are usually far fewer generators than basis elements. Instances are
    immutable after construction, so ``commutant`` and ``block_decompose``
    store their results on the instance, one per tolerance.
    """

    def __init__(self, ambient_dim: int, basis, generators=None,
                 tol: nk.Tolerance = nk.DEFAULT_TOL):
        self.ambient_dim = int(ambient_dim)
        self.basis = np.asarray(basis, dtype=complex)
        if self.basis.ndim != 3 or self.basis.shape[1:] != (self.ambient_dim, self.ambient_dim):
            raise DimensionMismatch(
                f"basis must have shape (d, {ambient_dim}, {ambient_dim}), "
                f"got {self.basis.shape}")
        self.flat = self.basis.reshape(self.dim, -1)
        if generators is None:
            self.generators = self.basis
        else:
            self.generators = np.asarray(generators, dtype=complex).reshape(
                -1, self.ambient_dim, self.ambient_dim)
        self._commutants: dict[nk.Tolerance, VnAlgebra] = {}
        self._frames: dict[nk.Tolerance, BlockSignature] = {}
        self._check_light(tol)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def _check_light(self, tol: nk.Tolerance) -> None:
        # orthonormality, identity membership, and adjoint closure; the
        # quadratic product-closure check lives in validate()
        gram = self.flat @ self.flat.conj().T
        nk.require(float(np.linalg.norm(gram - np.eye(self.dim))),
                   tol.bound(float(np.sqrt(self.dim))), InvalidAlgebra,
                   "basis not orthonormal, gram residual {:.3e}")
        eye = np.eye(self.ambient_dim, dtype=complex)
        nk.require(self.contains(eye, tol).residual,
                   tol.bound(float(np.sqrt(self.ambient_dim))), InvalidAlgebra,
                   "identity outside span, residual {:.3e}")
        adj = self.basis.conj().transpose(0, 2, 1).reshape(self.dim, -1)
        nk.require(float(np.linalg.norm(adj - (adj @ self.flat.conj().T) @ self.flat)),
                   tol.bound(float(np.sqrt(self.dim))), InvalidAlgebra,
                   "span not adjoint closed, residual {:.3e}")

    @functools.cached_property
    def unit_coefficients(self) -> np.ndarray:
        """Coefficients of the identity matrix, for the unitality checks of
        representations; computed once, like the commutant."""
        return self.coefficients(np.eye(self.ambient_dim))

    def coefficients(self, x) -> np.ndarray:
        """Coefficient vector of x against the orthonormal basis."""
        x = nk.as_matrix(x, "x")
        return self.flat.conj() @ x.reshape(-1)

    def project(self, x) -> np.ndarray:
        return (self.coefficients(x) @ self.flat).reshape(
            self.ambient_dim, self.ambient_dim)

    def contains(self, x, tol: nk.Tolerance = nk.DEFAULT_TOL) -> nk.MatchReport:
        x = nk.as_matrix(x, "x")
        residual = float(np.linalg.norm(x - self.project(x)))
        return nk.MatchReport(residual <= tol.bound(nk.frobenius(x)), residual)

    def validate(self, tol: nk.Tolerance = nk.DEFAULT_TOL) -> dict:
        """Full invariant check including product closure; raises on failure."""
        worst = {"product_closure": 0.0}
        prods = np.einsum("aij,bjk->abik", self.basis, self.basis)
        worst["product_closure"] = nk.require(
            nk.span_residual(prods, self.flat), tol.bound(1.0),
            InvalidAlgebra, "span not closed under products, residual {:.3e}")
        return worst

    def __repr__(self) -> str:
        return f"VnAlgebra(ambient_dim={self.ambient_dim}, dim={self.dim})"


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


def full_matrix_algebra(n: int) -> VnAlgebra:
    """All of the n x n matrices, with the matrix units as basis."""
    units = np.eye(n * n, dtype=complex).reshape(n * n, n, n)
    shifts = np.array([units[k] for k in range(1, n)]) if n > 1 else None
    return VnAlgebra(n, units, generators=shifts)


def trivial_algebra(n: int) -> VnAlgebra:
    """Scalar multiples of the identity."""
    basis = (np.eye(n, dtype=complex) / np.sqrt(n))[None, :, :]
    return VnAlgebra(n, basis)


def commutant(a: VnAlgebra, tol: nk.Tolerance = nk.DEFAULT_TOL) -> VnAlgebra:
    """Relative commutant of the algebra inside the ambient matrices.

    Read off the block frame (``intertwiners`` of the defining
    representation with itself): the span of 1_{a_i} (x) M_{m_i}, with the
    basis sum_k T_ik h T_ik* / sqrt(a_i) over the Hermitian basis h of
    M_{m_i}, made exactly Hermitian. Commutation is checked against the
    generators only: for Hermitian x the residual of g* x - x g* is that of
    g x - x g. Computed once per algebra and tolerance. The result takes
    over the frame of the algebra, transposed; its own commutant store
    starts empty, so the commutant of the commutant is computed afresh.
    """
    cached = a._commutants.get(tol)
    if cached is None:
        n = a.ambient_dim
        parts = intertwiners(a, tol=tol, laws=(a.generators, a.generators))
        basis = np.concatenate([
            nk._hermitian_matrices(np.eye(len(x) ** 2), len(x)) @ x.reshape(len(x) ** 2, -1)
            for x in parts]).reshape(-1, n, n)
        basis = (basis + basis.conj().transpose(0, 2, 1)) / 2.0
        cached = a._commutants[tol] = VnAlgebra(n, basis, tol=tol)
        # the summand (a_i, m_i) is (m_i, a_i) there, with the same columns
        # regrouped, U_il[:, k] = T_ik[:, l]: no frame check to repeat
        sig = block_decompose(a, tol)
        cached._frames[tol] = _signature([(m, a_i) for a_i, m in sig.blocks],
                                         sig.central_projections,
                                         [t.transpose(2, 1, 0) for t in sig.units], tol)
    return cached


def equals(a: VnAlgebra, b: VnAlgebra,
           tol: nk.Tolerance = nk.DEFAULT_TOL) -> nk.MatchReport:
    """Span equality via the Frobenius distance of the two span projections,
    |P_A - P_B|^2 = sum_k |(1 - P_B) a_k|^2 + sum_l |(1 - P_A) b_l|^2 over the
    orthonormal rows a_k, b_l: exact, with no (n^2)^2 matrix and no cancellation."""
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch(
            f"ambient dimensions differ: {a.ambient_dim} vs {b.ambient_dim}")
    if a is b:
        return nk.MatchReport(True, 0.0)
    residual = float(np.hypot(
        np.linalg.norm(a.flat - (a.flat @ b.flat.conj().T) @ b.flat),
        np.linalg.norm(b.flat - (b.flat @ a.flat.conj().T) @ a.flat)))
    return nk.MatchReport(residual <= tol.bound(a.dim ** 0.5, b.dim ** 0.5), residual)


def center(a: VnAlgebra, tol: nk.Tolerance = nk.DEFAULT_TOL) -> VnAlgebra:
    """Intersection of the algebra with its commutant.

    The averaging map E(x) = sum_i b_i x b_i* S^-1, S = sum_i b_i b_i*, is
    the Hilbert-Schmidt projection onto the commutant (the quasi-basis
    identity of Pimsner-Popa 1986 and Watatani 1990) and maps the algebra
    onto its center, so the d x d matrix <b_k, E(b_j)> is a projection. Its
    trace, rounded by ``numkernel.integral_trace`` within
    min(MAX_RANK_SLACK, tol.bound(sum |diagonal|)), is the dimension of the
    center; its top eigenvectors are the coefficients of an orthonormal basis.
    """
    n = a.ambient_dim
    adj = a.basis.conj().transpose(0, 2, 1)
    try:
        cmaps = adj @ np.linalg.inv((a.basis @ adj).sum(axis=0))
    except np.linalg.LinAlgError as exc:
        raise SingularInput("sum of b b* is singular") from exc
    proj = a.flat.conj() @ nk._average(a.basis, cmaps, a.basis).reshape(a.dim, -1).T
    diag = np.diagonal(proj)
    c = nk.integral_trace(complex(diag.sum()), min(
        nk.MAX_RANK_SLACK, tol.bound(float(np.abs(diag).sum()))), a.dim)
    _, vec = np.linalg.eigh((proj + proj.conj().T) / 2.0)
    rows = vec[:, a.dim - c:].T @ a.flat
    return VnAlgebra(n, rows.reshape(-1, n, n), tol=tol)


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

    def matrix_units(self, i: int) -> np.ndarray:
        """The matrix units e_k1 = T_ik T_i1* of the i-th summand, stacked."""
        t = self.units[i]
        return t @ t[0].conj().T


def block_decompose(a: VnAlgebra, tol: nk.Tolerance = nk.DEFAULT_TOL) -> BlockSignature:
    """Block signature and matrix-unit frame, read off three elements drawn
    once from ``numkernel.PROBE_SEED``:

    - a Hermitian central element: its sorted spectrum, split at the c - 1
      widest gaps (c = dim of the center), gives the minimal central
      projections p_i, each required to lie in the center; a_i^2 = dim
      p_i A p_i and m_i = tr(p_i) / a_i are traces rounded within 1e-6;
    - a Hermitian h in A: the eigenvalues of p_i h p_i on ran(p_i), in
      ascending order, form a_i groups of m_i, with isometries V_1, ..., V_a;
    - a g in A: T_i1 = V_1 and T_ik = V_k polar(V_k* g V_1).

    Checked once, else DegenerateCenterElement: every V_k* g V_1 has equal
    singular values (|g_k1| in the block model), the T_ik form a unitary,
    and every T_ik T_i1* lies in A. Summands come largest shape first;
    equal shapes in increasing order of tr(p diag(0, ..., n-1)), then of
    the diagonal of p, under the tolerance, which does not depend on the
    basis of the algebra. Built once per algebra and tolerance, stored on it.
    """
    cached = a._frames.get(tol)
    if cached is not None:
        return cached
    n = a.ambient_dim
    z = center(a, tol)
    c = z.dim
    rng = np.random.default_rng(nk.PROBE_SEED)
    central, h, g = (np.tensordot(nk.random_complex(b.dim, rng), b.basis, axes=(0, 0))
                     for b in (z, a, a))
    lam, vec = np.linalg.eigh(central + central.conj().T)
    h = h + h.conj().T
    # sum_j b_j b_j* is (a_i / m_i) 1 on the i-th summand, so its trace
    # against the unit p_i of the summand is a_i^2 = dim p_i A p_i
    gram = (a.basis @ a.basis.conj().transpose(0, 2, 1)).sum(axis=0)
    # split the sorted spectrum at the c - 1 widest gaps
    cuts = np.sort(np.argsort(np.diff(lam))[n - c:]) + 1 if c > 1 else []
    blocks, projections, units = [], [], []
    for v in np.split(vec, cuts, axis=1):
        p = v @ v.conj().T
        if not z.contains(p, tol):
            raise DegenerateCenterElement("cluster projection leaves the center span")
        d_i = nk.integral_trace(complex(np.vdot(p, gram)), 1e-6, a.dim)
        a_i = int(round(np.sqrt(d_i)))
        rank = nk.integral_trace(complex(np.trace(p)), 1e-6, n)
        if a_i * a_i != d_i or rank % a_i:
            raise DegenerateCenterElement(
                f"corner dimension {d_i} and projection rank {rank} do not "
                f"fit a summand M_a (x) 1_m")
        blocks.append((a_i, rank // a_i))
        projections.append(p)
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
    nk.require(nk.span_residual(np.concatenate([t @ t[0].conj().T for t in units]), a.flat),
               tol.bound(1.0), DegenerateCenterElement,
               "frame matrix units leave the algebra, residual {:.3e}")
    sig = a._frames[tol] = _signature(blocks, projections, units, tol)
    return sig


def _signature(blocks, projections, units, tol: nk.Tolerance) -> BlockSignature:
    """The BlockSignature of the summands, in ``_summand_order``."""
    order = sorted(range(len(blocks)), key=functools.cmp_to_key(
        _summand_order(blocks, projections, tol)))
    return BlockSignature(blocks=tuple(blocks[i] for i in order),
                          central_projections=np.array([projections[i] for i in order]),
                          units=tuple(units[i] for i in order))


def intertwiners(a: VnAlgebra, lefts=None, rights=None, tol: nk.Tolerance = nk.DEFAULT_TOL,
                 laws=None) -> list[np.ndarray]:
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
    min(MAX_RANK_SLACK, tol.bound(|trace|)). The law l x = x r is checked on
    every element for every pair of laws (default: the two
    representations). A failure of either raises NotIntertwining.

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
        parts.append((x / np.sqrt(a_i)).reshape(
            left.shape[2], rows, right.shape[2], cols).transpose(0, 2, 1, 3))
    if laws is not None:
        law_l, law_r = laws
    bound = tol.bound(max(nk.worst_norm(law_l), nk.worst_norm(law_r)))
    residual = nk.law_residual(law_l, law_r, np.concatenate(
        [x.reshape(-1, rows, cols) for x in parts]))
    nk.require(residual, bound, NotIntertwining,
               "frame-read space breaks its intertwining law, residual {:.3e}",
               residual=residual, bound=bound)
    return parts


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
    units = sig.matrix_units(i)
    pi = np.tensordot(units.reshape(len(units), -1) @ a.flat.conj().T, images, axes=(1, 0))
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


def random_algebra(ambient_dim: int, blocks, seed,
                   tol: nk.Tolerance = nk.DEFAULT_TOL) -> VnAlgebra:
    """Random-basis copy of the block-diagonal algebra with the given signature.

    Builds the model algebra, conjugates its generators by a Haar unitary,
    and closes the result.
    """
    n = int(ambient_dim)
    blocks = [(int(a), int(m)) for a, m in blocks]
    if any(a < 1 or m < 1 for a, m in blocks):
        raise DimensionMismatch("block sizes and multiplicities must be positive")
    if sum(a * m for a, m in blocks) != n:
        raise DimensionMismatch(
            f"blocks fill {sum(a * m for a, m in blocks)} dimensions, ambient is {n}")
    u = nk.random_unitary(n, seed)
    gens, _ = block_basis(blocks)
    conjugated = np.einsum("ij,bjk,kl->bil", u, gens, u.conj().T)
    return from_generators(n, conjugated, tol)
