"""Finite-dimensional *-algebras of matrices acting on C^n.

An algebra is stored as an orthonormal basis of its span under the
Hilbert-Schmidt inner product. Commutants are ranges of the trace-averaging
projection x -> sum_i b_i x b_i* S^-1 (S = sum_i b_i b_i*) over that basis,
so no eigenproblem on n^2 unknowns is solved; the block structure (sizes
and multiplicities of the simple summands, and a matrix-unit frame for
them) is read off the spectral decompositions of generic elements of the
center and of the algebra.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import numkernel as nk
from .errors import (DegenerateCenterElement, DimensionMismatch, InvalidAlgebra,
                     NonConvergence)

class VnAlgebra:
    """Unital *-subalgebra of the n x n complex matrices.

    The basis is orthonormal under trace(a* b). The optional generator list
    serves only the law check of ``commutant``: commutation with the
    generators and their adjoints already pins down the commutant, and there
    are usually far fewer generators than basis elements. Instances are
    immutable after construction, so ``commutant`` stores its result on the
    instance, one per tolerance.
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

    The range of the averaging projection over the algebra's basis (see
    ``numkernel.intertwiners``): its dimension is a rounded trace, its
    Hermitian basis the orthonormalized image of seeded Hermitian probes,
    and the result is checked to commute with the generators and their
    adjoints. Computed once per algebra and tolerance. The result's own
    store starts empty, so the commutant of the commutant is always
    computed afresh.
    """
    cached = a._commutants.get(tol)
    if cached is None:
        n = a.ambient_dim
        # the basis is exactly Hermitian, and for Hermitian x the residual
        # of g* x - x g* is that of g x - x g, so the generators check both
        basis = nk.intertwiners(a.basis, a.basis, (n, n), tol,
                                laws=(a.generators, a.generators))
        cached = a._commutants[tol] = VnAlgebra(n, basis, tol=tol)
    return cached


def equals(a: VnAlgebra, b: VnAlgebra,
           tol: nk.Tolerance = nk.DEFAULT_TOL) -> nk.MatchReport:
    """Span equality via the Frobenius distance of the two span projections."""
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch(
            f"ambient dimensions differ: {a.ambient_dim} vs {b.ambient_dim}")
    pa = a.flat.conj().T @ a.flat
    pb = b.flat.conj().T @ b.flat
    return nk.approx_equal(pa, pb, tol)


def center(a: VnAlgebra, tol: nk.Tolerance = nk.DEFAULT_TOL) -> VnAlgebra:
    """Intersection of the algebra with its commutant.

    Principal vectors of the composed span projections with singular value
    within eps of one span the intersection.
    """
    b = commutant(a, tol)
    overlap = a.flat @ b.flat.conj().T
    p, svals, _ = np.linalg.svd(overlap)
    k = int(np.sum(svals >= 1.0 - tol.eps))
    rows = p[:, :k].conj().T @ a.flat
    return VnAlgebra(a.ambient_dim, rows.reshape(-1, a.ambient_dim, a.ambient_dim), tol=tol)


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
    basis of the algebra.
    """
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
    order = sorted(range(len(blocks)), key=functools.cmp_to_key(
        _summand_order(blocks, projections, tol)))
    return BlockSignature(blocks=tuple(blocks[i] for i in order),
                          central_projections=np.array([projections[i] for i in order]),
                          units=tuple(units[i] for i in order))


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
