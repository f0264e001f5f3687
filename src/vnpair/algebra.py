"""Finite-dimensional *-algebras of matrices acting on C^n.

An algebra is stored as an orthonormal basis of its span under the
Hilbert-Schmidt inner product. Commutants are ranges of the trace-averaging
projection x -> sum_i b_i x b_i* S^-1 (S = sum_i b_i b_i*) over that basis,
so no eigenproblem on n^2 unknowns is solved; the block structure (sizes
and multiplicities of the simple summands) comes from the spectral
decomposition of a generic Hermitian element of the center.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkernel as nk
from .errors import (DegenerateCenterElement, DimensionMismatch, InvalidAlgebra,
                     NonConvergence)

#: attempts at drawing a center element with simple block spectrum
MAX_CENTER_RETRIES = 8


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
        basis = nk.intertwiners([(a.basis, a.basis)], (n, n), tol,
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
    """Simple-summand sizes a_i with multiplicities m_i, largest first.

    blocks[i] = (a_i, m_i); central_projections[i] is the unit of the i-th
    summand. Sum of a_i * m_i is the ambient dimension, sum of a_i**2 the
    algebra dimension.
    """

    blocks: tuple[tuple[int, int], ...]
    central_projections: np.ndarray


def block_decompose(a: VnAlgebra, tol: nk.Tolerance = nk.DEFAULT_TOL,
                    seed: int = 0) -> BlockSignature:
    """Block signature from a generic Hermitian central element.

    A random Hermitian combination of the center basis has, generically, one
    eigenvalue per central component; clustering its spectrum at the largest
    gaps yields the minimal central projections. Draws that fail the
    membership or integrality checks are retried with a fresh seed.
    """
    n = a.ambient_dim
    z = center(a, tol)
    c = z.dim
    last_error = None
    for attempt in range(MAX_CENTER_RETRIES):
        rng = np.random.default_rng([seed, attempt])
        x = np.tensordot(nk.random_complex(c, rng), z.basis, axes=(0, 0))
        t = (x + x.conj().T) / 2.0
        lam, vec = np.linalg.eigh(t)
        # split the sorted spectrum at the c - 1 widest gaps
        gaps = np.diff(lam)
        cuts = np.sort(np.argsort(gaps)[len(gaps) - (c - 1):]) if c > 1 else np.array([], int)
        bounds = [0] + [int(i) + 1 for i in cuts] + [n]
        try:
            blocks = []
            projections = []
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                p = vec[:, lo:hi] @ vec[:, lo:hi].conj().T
                if not z.contains(p, tol):
                    raise DegenerateCenterElement(
                        "cluster projection leaves the center span")
                compressed = nk.orthonormalize(p @ a.basis @ p, tol)
                d_i = compressed.shape[0]
                a_i = int(round(np.sqrt(d_i)))
                if a_i * a_i != d_i:
                    raise DegenerateCenterElement(
                        f"compressed corner dimension {d_i} is not a square")
                rank = float(np.trace(p).real)
                m_i = int(round(rank / a_i))
                nk.require(abs(m_i * a_i - rank), 1e-6, DegenerateCenterElement,
                           "projection rank {1:.6f} not divisible by block size {2}",
                           rank, a_i)
                blocks.append((a_i, m_i))
                projections.append(p)
            if sum(ai * mi for ai, mi in blocks) != n or \
                    sum(ai * ai for ai, mi in blocks) != a.dim:
                raise DegenerateCenterElement("block dimension bookkeeping failed")
            order = sorted(range(len(blocks)), key=lambda i: blocks[i], reverse=True)
            return BlockSignature(
                blocks=tuple(blocks[i] for i in order),
                central_projections=np.array([projections[i] for i in order]))
        except DegenerateCenterElement as exc:
            last_error = exc
    raise DegenerateCenterElement(
        f"no separating central element after {MAX_CENTER_RETRIES} draws: {last_error}")


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
