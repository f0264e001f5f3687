"""Slow, direct constructions that the tests compare the package against.

None of these has a caller in the package: each is the construction that a
faster route replaced, kept so that the faster route has a reference.

- ``mul_constraint`` and ``null_space``: the commutation kernel as a stacked
  SVD of explicit constraint matrices;
- ``commutant_space``: the commutant as one real symmetric (n^2)^2
  eigenproblem in Hermitian coordinates;
- ``identity_right_dilation``: the dilation through which the eq33
  residual of ``vnpair.pairing`` was first defined;
- ``eq33_spanning_family``: that residual solved on the full d^2 n column
  family, before its reduction to d n columns.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from vnpair import numkernel as nk
from vnpair import prodsys as ps
from vnpair.errors import DimensionMismatch


def mul_constraint(left, right) -> np.ndarray:
    """Matrix of x -> left @ x - x @ right on row-major flattened x.

    For vec taken row by row, vec(A x B) = (A kron B^T) vec(x), so the
    constraint is kron(left, I) - kron(I, right^T).
    """
    left = nk.as_matrix(left, "left")
    right = nk.as_matrix(right, "right")
    p, q = left.shape[0], right.shape[0]
    if left.shape != (p, p) or right.shape != (q, q):
        raise DimensionMismatch("mul_constraint: left and right must be square")
    return np.kron(left, np.eye(q)) - np.kron(np.eye(p), right.T)


def null_space(constraints: Sequence[np.ndarray], shape: tuple[int, int],
               tol: nk.Tolerance = nk.DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the joint kernel of stacked linear constraints.

    Each constraint acts on the row-major flattening of an unknown of the
    given shape; singular values below eps times max(largest, 1) are treated
    as zero, so an all-noise constraint (for instance from subtracting two
    copies of the same normalized operator) is the zero constraint. Returns
    an array of shape (k, *shape) whose slices are orthonormal under the
    Hilbert-Schmidt inner product.
    """
    rows, cols = shape
    dim = rows * cols
    mats = [nk.as_matrix(c, f"constraint {i}") for i, c in enumerate(constraints)]
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


def commutant_space(mats, n: int, tol: nk.Tolerance = nk.DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of {x: g @ x == x @ g for every g and every g*}.

    The same kernel as commuting_null_space over the pairs (g, g) and
    (g*, g*), solved as a real problem of the same size. The constraint set
    is closed under adjoints, so the normal matrix commutes with x -> x*
    and is real symmetric, with the same spectrum, in the orthonormal basis
    of Hermitian matrices: diagonal units, (e_ab + e_ba)/sqrt2 and
    i(e_ab - e_ba)/sqrt2 for a < b. Its kernel vectors give a Hermitian
    basis. Returns an array of shape (k, n, n).
    """
    gens = []
    for i, g in enumerate(mats):
        g = nk.as_matrix(g, f"matrix {i}")
        if g.shape != (n, n):
            raise DimensionMismatch(f"matrix {i}: shape {g.shape} does not act on {(n, n)}")
        gens.append(g)
    gens += [g.conj().T for g in gens]
    dim = n * n
    h, gross = nk._normal_matrix(gens, gens, n, n)
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
    q = np.ascontiguousarray(h.real)
    q += q.T
    q *= 0.5
    vals, vecs = np.linalg.eigh(q)
    keep = vals <= nk._kernel_cut(vals, dim, gross, tol)
    t = vecs[:, keep].T
    out = t.astype(complex)
    out[:, upper] = half * (t[:, upper] + 1j * t[:, lower])
    out[:, lower] = half * (t[:, upper] - 1j * t[:, lower])
    return out.reshape(-1, n, n)


def identity_right_dilation(p, tol: nk.Tolerance = nk.DEFAULT_TOL):
    """Elements act on the ambient space as the matrices they are.

    This is a dilation exactly when the members carry the untwisted left
    action, as the member-wise commutants of an endomorphism system do; the
    bilinearity check rejects anything else.
    """
    return ps.make_right_dilation(p, p.algebra.basis, lambda t, xs: xs, tol=tol)


def eq33_spanning_family(u, theta) -> dict:
    """The eq33 residuals solved on the full family [theta(b_i) b_j] ->
    [b_i u b_j] over the orthonormal basis b of the domain, d^2 n columns."""
    b = theta.domain.basis
    n = b.shape[1]
    src = np.einsum("aij,cjk->iack", theta.basis_images, b).reshape(n, -1)
    dst = np.einsum("aij,cjk->iack", b @ u, b).reshape(n, -1)
    u33 = nk.lstsq_map(src, dst)
    return {"eq33_solve": float(np.linalg.norm(u33 @ src - dst)),
            "eq33_match": float(np.linalg.norm(u33 - u))}


def span_distance(x, y) -> float:
    """Frobenius distance of the orthogonal projections onto the spans of
    two orthonormal stacks; inf when the dimensions differ.

    For projections of equal rank, |P_x - P_y|^2 = 2 |(1 - P_y) P_x|^2, and
    the right side needs no (rows*cols)^2 matrix and cancels nothing.
    """
    x = np.asarray(x).reshape(len(x), -1)
    y = np.asarray(y).reshape(len(y), -1)
    if x.shape != y.shape:
        return float("inf")
    return float(np.sqrt(2.0) * np.linalg.norm(x - (x @ y.conj().T) @ y))
