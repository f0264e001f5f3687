"""Slow, direct constructions that the tests compare the package against.

None of these has a caller in the package: each is the construction that a
faster route replaced, kept so that the faster route has a reference.

- ``mul_constraint`` and ``null_space``: the commutation kernel as a stacked
  SVD of explicit constraint matrices;
- ``commutant_space``: the commutant as one real symmetric (n^2)^2
  eigenproblem in Hermitian coordinates;
- ``identity_right_dilation``: the dilation through which the eq33
  residual of ``vnpair.pairing`` was first defined;
- ``dilation_side_system``: the product system on the dilation space in
  the coordinates of the comparison maps, with the product solved from its
  per-pair actions, before ``prodsys.commutant_via_dilation`` returned the
  commutant system those maps are checked against;
- ``order_identification``: the identification of tensor(F_t, F_s) with
  tensor(E_s, E_t) solved by least squares, as ``prodsys.commutant_order_residual``
  solved it before it took the identity of their one carrier;
- ``eq33_spanning_family``: that residual solved on the full d^2 n column
  family, before its reduction to d n columns;
- ``projection_distance``: span equality of two algebras through their dense
  (n^2)^2 span projections, before ``algebra.equals`` read it off the rows;
- ``basis_pair_hom_residuals``, ``basis_pair_closure`` and
  ``all_units_commutation``: the law checks on every basis pair, every
  basis product and every commutant unit, before ``endo.hom_residuals``,
  ``VnAlgebra.validate`` and ``algebra.commutant`` checked them on the
  matrix units of the block frame;
- ``closure_algebra`` and ``elementwise_correspondence``: the sampled
  algebras closed under products, and the images of a sampled
  correspondence built one basis element at a time, before
  ``algebra.block_model`` and ``selftest.random_correspondence`` built
  them in closed form on whole stacks;
- ``einsum_iterates``: the iterates of a map composed afresh by the
  two-operand ``np.einsum``, before ``endo.iterates`` kept a memo composed
  by one product per step;
- ``kron_compression``, with ``kron_associativity`` and ``kron_lift``: the
  compression system for spaces of any width, its associativity residual
  and lifted dilation taken with explicit Kronecker products, before
  ``prodsys.bhat_system`` used that every space is a line and every product
  a phase;
- ``gram_product_adjoint_residual``: the adjoint-closure residual of an
  exactly Hermitian basis from a second dim x n^2 product, before
  ``VnAlgebra`` read it off the Gram matrix alone;
- ``dense_gram_residual``, ``generating_units_commutation`` and
  ``x_stack_commutant_basis``: the orthonormality residual of a basis
  from its d x n^2 Gram product, the commutation law on the dense
  generating units x_p1, x_1q, and the commutant basis built from the
  x-stacks of a frame, before ``algebra.commutant`` checked its laws in
  the coordinates of the frame;
- ``where_hermitian_basis``: the Hermitian commutant basis selected by
  ``np.where`` over the whole (m, m, n, n) stack, before
  ``algebra._hermitian_basis`` computed each triangle alone;
- ``averaging_center`` and ``averaging_projections``: the center as the
  range of the d x d projection <b_k, E(b_j)> with its rounded trace, and
  the central projections split off one of its elements at the c - 1
  widest gaps, before ``algebra.block_decompose`` read them off the
  average of one probe;
- ``cocycle_residuals`` and ``cube_worst_cocycle``: the cocycle identity
  of a multiplier grid on the whole (N+1)^3 cube, before
  ``multiplier.validate`` checked it one slab of middle index at a time;
- ``full_basis_commutation``: the commutation of a correspondence's two
  ranges over every pair of basis images, which ``correspondence._check_light``
  ran for every twisted correspondence and, batched, for the tensors of
  every product-system build, before ``of_endomorphism`` checked the laws
  that imply it and the builds left it to their ``bilinear`` law;
- ``elementwise_matrix`` and ``elementwise_vector``: the [re, im] scene
  encoding built one entry at a time, before ``scenes.encode_matrix`` and
  ``scenes.encode_vector`` stacked the real and imaginary parts;
- ``json_report``: a CLI report as ``json.dumps(indent=2)`` writes its
  strict-JSON copy, before ``cli`` laid out its arrays itself;
- ``basis_image_apply``, ``tensordot_images`` and ``inline_coefficients``:
  a map given by basis images applied, and coefficients formed, as
  ``correspondence.rep_apply``, ``endo.hom_residuals``,
  ``algebra._legs``, ``correspondence.tensor_quotient`` and
  ``TensorProduct.lift_left`` each computed them, before
  ``VnAlgebra.coefficients`` and ``VnAlgebra.apply`` did for all of them;
- ``central_table`` and ``predicted_table``: a joint multiplicity table
  read off the central projections alone, and the table of an interior
  tensor product predicted from those of its factors, table(E (x) F) =
  table(E) Pi table(F), a law the package does not use yet;
- ``commutant_distance``, ``twisted_decision`` and ``eq33_reduced_family``:
  B' compared with commutant(B) built as an algebra, the pairing decided
  by ``correspondence.find_isomorphism`` on the two twisted
  correspondences, and the eq33 residuals solved by least squares on d n
  columns with S^1/2 from an eigendecomposition, before
  ``correspondence.require_commutant`` measured that distance in the frame
  of B and ``pairing.can_pair`` read the tables, the unitary and the eq33
  bound off the automorphism form;
- ``dense_powers`` and ``dense_relations``: the powers u^k compared with the
  iterates of both maps, and the pairing check that validated both maps and
  compared those powers, before ``pairing._relations`` bounded the powers
  and the homomorphism laws in closed form off the two relation stacks;
- ``gram_route`` and ``factored_against_gram``: the tensor quotient read off
  the eigh of the whole (d h_f)^2 Gram matrix, with its lifted actions, as
  every ``correspondence.TensorProduct`` formed it before each quotient was
  read off one SVD of a root Phi, and the residuals of a tensor against it;
- ``element_basis_lift``: the left action lifted through <x_i, op x_k> over
  the element basis of e, as ``TensorProduct.lift_left`` formed it on the
  Gram route and below full rank before it read U* L(op) U off the rows of
  Phi.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from typing import Sequence

import numpy as np

from vnpair import algebra as alg
from vnpair import correspondence as corr
from vnpair import endo as endo_mod
from vnpair import numkernel as nk
from vnpair import pairing
from vnpair import prodsys as ps
from vnpair import scenes
from vnpair import selftest
from vnpair.errors import (DimensionMismatch, ProductSystemLawError, RelationB,
                           RelationBPrime, SingularInput)


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
    return ps.right_dilation_from_unitary(p, np.eye(p.algebra.ambient_dim), tol=tol)



def dilation_side_system(p, w, tol: nk.Tolerance = nk.DEFAULT_TOL):
    """(system, products): the commutant members and their tensors, validated, and
    the product of each index pair solved from the action of x in F_s on F_t,
    upsilon_{s+t}* theta_w(t, upsilon_s x xi*) upsilon_t, the comparison maps
    upsilon_t = eta_t(1) xi read off the dilation w: one action array and one
    product solve per index pair."""
    b = p.algebra
    xi = ps._frame_isometry(b, w.rho_of(b.basis), tol)
    rep = ps.representation_from_right_dilation(p, w, tol)
    eye = np.eye(b.ambient_dim, dtype=complex)
    upsilon = [rep.eta_of(t, eye) @ xi for t in range(p.horizon + 1)]

    members = [corr.commutant(e) for e in p.members]
    tensors, products = {}, {}
    for s, xs in enumerate(m.element_space for m in members):
        for t in range(p.horizon + 1 - s):
            tp = tensors[(s, t)] = corr.TensorProduct(members[s], members[t], tol)
            moved = w.theta_w(t, upsilon[s] @ xs @ xi.conj().T)
            target = np.concatenate(upsilon[s + t].conj().T @ moved @ upsilon[t], axis=1)
            products[(s, t)] = target @ tp.phi_pinv
            nk.require(float(np.linalg.norm(products[(s, t)] @ tp.phi - target)),
                       tol.bound(float(np.linalg.norm(target))), ProductSystemLawError,
                       "product does not factor, residual {:.3e}")
    system = ps.DiscreteProductSystem(p.commutant_algebra, members, tensors)
    system.residuals = system.validate(tol)
    return system, products


def order_identification(p, pc, s: int, t: int) -> np.ndarray:
    """The map from the carrier of tensor(F_t, F_s) (pc) to that of
    tensor(E_s, E_t) (p) sending x (tensor) y' g to y' (tensor) x g, solved by
    least squares on one column block per pair of element basis vectors x of
    F_t and y' of E_s, g running over the middle space."""
    t1, t2 = pc.tensors[(t, s)], p.tensors[(s, t)]
    src, dst = [], []
    for x in t1.e.element_space:
        for y in t2.e.element_space:
            src.append(t1.embed_matrix(x) @ y)
            dst.append(t2.embed_matrix(y) @ x)
    return nk.lstsq_map(np.concatenate(src, axis=1), np.concatenate(dst, axis=1))


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


def commutant_distance(b, bp, tol=nk.DEFAULT_TOL) -> nk.MatchReport:
    """bp against commutant(b) formed as an algebra (``algebra.equals``)."""
    return alg.equals(bp, alg.commutant(b, tol), tol)


def twisted_decision(theta, theta_prime, tol=nk.DEFAULT_TOL) -> corr.IsoDecision:
    """``find_isomorphism`` of the twisted correspondence of theta over B' and
    the commutant of that of theta_prime over B (``pairing._twisted_pair``)."""
    corr.require_commutant(theta.domain, theta_prime.domain, tol)
    return corr.find_isomorphism(*pairing._twisted_pair(theta, theta_prime, tol), tol)


def eq33_reduced_family(u, theta) -> dict:
    """The eq33 residuals solved on [theta(b_i) S^1/2] -> [b_i u S^1/2],
    S = sum_j b_j b_j*, d n columns with the Gram matrices of the spanning
    family, S^1/2 from an eigendecomposition."""
    b = theta.domain.basis
    n = b.shape[1]
    s = (b @ b.conj().transpose(0, 2, 1)).sum(axis=0)
    lam, vec = np.linalg.eigh((s + s.conj().T) / 2.0)
    root = (vec * np.sqrt(np.clip(lam, 0.0, None))) @ vec.conj().T
    src = (theta.basis_images @ root).transpose(1, 0, 2).reshape(n, -1)
    dst = (b @ u @ root).transpose(1, 0, 2).reshape(n, -1)
    u33 = nk.lstsq_map(src, dst)
    return {"eq33_solve": float(np.linalg.norm(u33 @ src - dst)),
            "eq33_match": float(np.linalg.norm(u33 - u))}


def dense_powers(u, theta, theta_prime, horizon: int) -> float:
    """Worst |(u^k)* b u^k - theta^k(b)| over the basis of B and |u^k b' (u^k)*
    - theta_prime^k(b')| over that of B', k = 2..horizon, from the iterates."""
    uk = list(itertools.accumulate([u] * horizon, np.matmul))[1:]
    b, bp = theta.domain, theta_prime.domain
    worst = nk.worst(0.0, *(nk.worst_norm(v.conj().T @ b.basis @ v - f.basis_images)
                            for v, f in zip(uk, endo_mod.iterates(theta, horizon)[2:])))
    return nk.worst(worst, *(nk.worst_norm(v @ bp.basis @ v.conj().T - f.basis_images)
                             for v, f in zip(uk, endo_mod.iterates(theta_prime, horizon)[2:])))


def dense_relations(u, theta, theta_prime, horizon: int, tol=nk.DEFAULT_TOL) -> dict:
    """``pairing._relations`` as it was: the relations on B and B', then
    ``validate`` of both maps, then the dense powers, each raising as there."""
    worst_b = nk.require(nk.worst_norm(u.conj().T @ theta.domain.basis @ u
                                       - theta.basis_images), tol.bound(1.0), RelationB,
                         "relation on B, residual {:.3e}", law="relation_b")
    worst_bp = nk.require(nk.worst_norm(u @ theta_prime.domain.basis @ u.conj().T
                                        - theta_prime.basis_images), tol.bound(1.0),
                          RelationBPrime, "relation on B', residual {:.3e}",
                          law="relation_b_prime")
    theta.validate(tol)
    theta_prime.validate(tol)
    powers = nk.require(dense_powers(u, theta, theta_prime, horizon), tol.bound(1.0),
                        RelationB, "powers, residual {:.3e}", law="powers")
    return {"relation_b": worst_b, "relation_b_prime": worst_bp, "powers": powers}


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


def projection_distance(a: alg.VnAlgebra, b: alg.VnAlgebra,
                        tol: nk.Tolerance = nk.DEFAULT_TOL) -> nk.MatchReport:
    """|P_A - P_B| of the two span projections, formed densely, against the
    bound eps max(1, |P_A|, |P_B|)."""
    pa = a.flat.conj().T @ a.flat
    pb = b.flat.conj().T @ b.flat
    residual = float(np.linalg.norm(pa - pb))
    bound = tol.bound(nk.frobenius(pa), nk.frobenius(pb))
    return nk.MatchReport(residual <= bound, residual, bound)


def basis_pair_hom_residuals(domain: alg.VnAlgebra, images) -> dict:
    """Worst unital, multiplicative and star residuals of a linear map over
    the orthonormal basis b of the domain: |theta(1) - 1|, the worst
    |theta(b_a b_b) - theta(b_a) theta(b_b)| over all pairs and the worst
    |theta(b_a*) - theta(b_a)*|, one row of pairs at a time."""
    images = np.asarray(images, dtype=complex)
    d, h = images.shape[0], images.shape[1]
    flat = images.reshape(d, -1)
    unit = domain.unit_coefficients @ flat
    mult = 0.0
    for a in range(d):
        prods = (domain.basis[a] @ domain.basis).reshape(d, -1)
        lhs = (prods @ domain.flat.conj().T) @ flat
        rhs = (images[a] @ images).reshape(d, -1)
        mult = nk.worst(mult, float(np.linalg.norm(lhs - rhs, axis=1).max()))
    adjoints = domain.basis.conj().transpose(0, 2, 1).reshape(d, -1)
    lhs_star = (adjoints @ domain.flat.conj().T) @ flat
    rhs_star = images.conj().transpose(0, 2, 1).reshape(d, -1)
    return {"unital": float(np.linalg.norm(unit - np.eye(h).reshape(-1))),
            "multiplicative": mult,
            "star": float(np.linalg.norm(lhs_star - rhs_star, axis=1).max())}


def basis_pair_closure(a: alg.VnAlgebra) -> float:
    """Worst distance of a product b_i b_j of basis elements from the span."""
    return nk.worst(*(nk.span_residual(a.basis[i] @ a.basis, a.flat) for i in range(a.dim)))


def commutant_units(sig) -> list:
    """The units x_pq = sum_k T_k[:, p] T_k[:, q]* / sqrt(a) of the
    commutant that a frame gives, one stack (m, m, n, n) per summand."""
    return [np.einsum("kap,kbq->pqab", t, t.conj()) / np.sqrt(len(t)) for t in sig.units]


def all_units_commutation(gens, parts) -> float:
    """Worst |g x - x g| over the generators g and every unit x_pq of the
    stacks x (shape (m, m, n, n))."""
    return nk.law_residual(gens, gens, np.concatenate(
        [x.reshape(-1, *x.shape[2:]) for x in parts]))


def closure_algebra(blocks, seed) -> alg.VnAlgebra:
    """The block-model algebra of the signature, rotated by the seeded
    unitary u, as the closure under products (``algebra.from_generators``)
    of the generators u (first row of matrix units) u* of
    ``algebra.block_basis``."""
    n = sum(a * m for a, m in blocks)
    u = nk.random_unitary(n, seed)
    gens, _ = alg.block_basis(blocks)
    return alg.from_generators(n, u @ gens @ u.conj().T)


def elementwise_correspondence(sa, sb, rng, carrier_cap: int = 12, mults=None,
                               tol: nk.Tolerance = nk.DEFAULT_TOL):
    """The images rho, rho' of ``selftest.random_correspondence`` from the same
    draws, one basis element at a time: each element is taken into its
    hidden frame, cut into its irreducible components, tensored with the
    identities of the joint multiplicities, laid out block-diagonally and
    scrambled on its own."""
    if mults is None:
        mults = selftest.random_joint_multiplicities(rng, sa, sb, carrier_cap)
    bprime = alg.commutant(sb.algebra, tol)
    h = sum(int(mults[i, j]) * a * nj
            for i, (a, _) in enumerate(sa.blocks)
            for j, (_, nj) in enumerate(sb.blocks))
    scramble = nk.random_unitary(h, rng)

    def block_diag(pieces):
        out, pos = np.zeros((h, h), dtype=complex), 0
        for p in pieces:
            out[pos:pos + len(p), pos:pos + len(p)] = p
            pos += len(p)
        return scramble @ out @ scramble.conj().T

    def rho_image(x):
        z = sa.frame.conj().T @ x @ sa.frame
        pieces = []
        for i, (a, m) in enumerate(sa.blocks):
            idx = sa.offsets[i] + np.arange(a) * m
            for j, (_, nj) in enumerate(sb.blocks):
                if mults[i, j]:
                    pieces.append(np.kron(z[np.ix_(idx, idx)], np.eye(nj * int(mults[i, j]))))
        return block_diag(pieces)

    def rho_prime_image(y):
        z = sb.frame.conj().T @ y @ sb.frame
        pieces = []
        for i, (a, _) in enumerate(sa.blocks):
            for j, (_, nj) in enumerate(sb.blocks):
                if mults[i, j]:
                    o = sb.offsets[j]
                    pieces.append(np.kron(np.eye(a), np.kron(z[o:o + nj, o:o + nj],
                                                             np.eye(int(mults[i, j])))))
        return block_diag(pieces)

    return (np.array([rho_image(x) for x in sa.algebra.basis]),
            np.array([rho_prime_image(y) for y in bprime.basis]))


def einsum_iterates(f, k: int) -> list:
    """Basis images of id, f, ..., f^k: each iterate is f applied after the
    previous one, through its coefficient matrix and the two-operand einsum."""
    out = [f.domain.basis.copy()]
    for _ in range(k):
        coeff = f.domain.flat.conj() @ out[-1].reshape(f.domain.dim, -1).T
        out.append(np.einsum("de,eij->dij", coeff.T, f.basis_images))
    return out


def kron_associativity(products, dims, r: int, s: int, t: int) -> float:
    """|P_{r+s,t} kron(P_{r,s}, 1) - P_{r,s+t} kron(1, P_{s,t})|."""
    lhs = products[(r + s, t)] @ np.kron(products[(r, s)], np.eye(dims[t]))
    rhs = products[(r, s + t)] @ np.kron(np.eye(dims[r]), products[(s, t)])
    return float(np.linalg.norm(lhs - rhs))


def kron_lift(v, basis, k: int) -> np.ndarray:
    """v kron(b, 1_k) v* for every slice b of the stack basis."""
    return v @ np.kron(basis, np.eye(k)) @ v.conj().T


def kron_compression(theta, gamma, horizon: int, tol: nk.Tolerance = nk.DEFAULT_TOL):
    """(spaces, products, dilations) of the compression system of theta at
    the unit vector gamma, for spaces of any width. products[(s, t)] sends
    g_s (tensor) h_t to theta^t(g_s gamma*) h_t and dilations[t] does the
    same with g from the whole ambient space; a non-square product or
    dilation, or a failed law, raises ProductSystemLawError."""
    b, n = theta.domain, theta.domain.ambient_dim
    powers = endo_mod.iterates(theta, horizon)
    spaces = [nk.range_basis(powers[t](np.outer(gamma, gamma.conj())), tol,
                             ProductSystemLawError, f"iterate {t} of the projection")
              for t in range(horizon + 1)]
    dims = [q.shape[1] for q in spaces]

    def unitary(u, what):
        res = nk.unitarity_residual(u)
        nk.require(res if u.shape[0] == u.shape[1] else np.inf, tol.bound(1.0),
                   ProductSystemLawError, "{1} not unitary, residual {2:.3e}", what, res)

    products = {}
    for s in range(horizon + 1):
        for t in range(horizon + 1 - s):
            # columns theta^t(g_a gamma*) h over the basis g_a of space s
            ops = b.apply(powers[t].basis_images, spaces[s].T[:, :, None] * gamma.conj())
            products[(s, t)] = np.concatenate(spaces[s + t].conj().T @ ops @ spaces[t], axis=1)
            unitary(products[(s, t)], f"product ({s},{t})")
    for r in range(horizon + 1):
        for s in range(horizon + 1 - r):
            for t in range(horizon + 1 - r - s):
                nk.require(kron_associativity(products, dims, r, s, t), tol.bound(1.0),
                           ProductSystemLawError, "not associative at {1}", (r, s, t))
    units = np.eye(n)[:, :, None] * gamma.conj()  # units[g] = e_g gamma*
    dilations = []
    for t in range(horizon + 1):
        v = np.concatenate(b.apply(powers[t].basis_images, units) @ spaces[t], axis=1)
        unitary(v, f"dilation {t}")
        nk.require(nk.worst_norm(kron_lift(v, b.basis, dims[t]) - powers[t].basis_images),
                   tol.bound(1.0), ProductSystemLawError, "dilation {1} misses the iterate", t)
        dilations.append(v)
    return spaces, products, dilations


def gram_product_adjoint_residual(basis) -> float:
    """|F - G F| for the flattened basis F and its Gram G = F F^H: the
    adjoint-closure residual of an exactly Hermitian basis."""
    flat = np.asarray(basis).reshape(len(basis), -1)
    return float(np.linalg.norm(flat - (flat @ flat.conj().T) @ flat))


def dense_gram_residual(basis) -> float:
    """|F F^H - 1| for the flattened basis F, from the d x n^2 product."""
    flat = np.asarray(basis).reshape(len(basis), -1)
    return float(np.linalg.norm(flat @ flat.conj().T - np.eye(len(flat))))


def generating_units_commutation(gens, parts) -> float:
    """Worst |g x - x g| over the generators g and the dense generating
    units x_p1, x_1q of the stacks x (shape (m, m, n, n))."""
    return nk.law_residual(gens, gens, np.concatenate(
        [np.concatenate([x[:, 0], x[0, 1:]]) for x in parts]))


def full_basis_commutation(e) -> float:
    """Worst |[rho(b_i), rho'(b'_j)]| over every pair of basis images of
    the correspondence e, each commutator formed on its own."""
    comm = e.rho[:, None] @ e.rho_prime[None] - e.rho_prime[None] @ e.rho[:, None]
    return float(np.linalg.norm(comm, axis=(2, 3)).max())


def x_stack_commutant_basis(sig) -> np.ndarray:
    """The commutant basis of a frame: per summand the x-stack product
    x_pq = sum_k T_k[:, p] T_k[:, q]* / sqrt(a), then the Hermitian basis
    selected over the whole stack (``where_hermitian_basis``)."""
    out = []
    for t in sig.units:
        a, n, m = t.shape
        x = t.transpose(2, 1, 0).reshape(-1, a) @ t.conj().transpose(0, 2, 1).reshape(a, -1)
        out.append(where_hermitian_basis(
            (x / np.sqrt(a)).reshape(m, n, m, n).transpose(0, 2, 1, 3)))
    return np.concatenate(out)


def where_hermitian_basis(x) -> np.ndarray:
    """Exactly Hermitian basis of the span of the stack x_pq, in pq order,
    from np.where over the whole stack."""
    m, n = len(x), x.shape[2]
    upper = np.triu(np.ones((m, m), dtype=bool))[:, :, None, None]
    y = np.where(upper, x, x.transpose(1, 0, 2, 3))  # x_pq at (p, q) and (q, p), p <= q
    y_adj = y.conj().transpose(0, 1, 3, 2)
    scale = np.where(np.eye(m, dtype=bool), 0.5, np.sqrt(0.5))[:, :, None, None]
    return (np.where(upper, y + y_adj, 1j * (y - y_adj)) * scale).reshape(-1, n, n)


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
    for probes, terms in nk._chunk_pairs(m, d, rows * cols):
        l, c, yp = lefts[terms], cmaps[terms], y[probes]
        g, h = l.shape[0], yp.shape[0]
        # y c_i for every i of the chunk, then one product with [l_1 | l_2 | ...]
        yc = (yp.reshape(h * rows, cols) @ c.transpose(1, 0, 2).reshape(cols, g * cols))
        yc = yc.reshape(h, rows, g, cols).transpose(0, 2, 1, 3).reshape(h, g * rows, cols)
        out[probes] += l.transpose(1, 0, 2).reshape(rows, g * rows) @ yc
    return out


def averaging_center(a: alg.VnAlgebra, tol: nk.Tolerance = nk.DEFAULT_TOL) -> alg.VnAlgebra:
    """The center as the range of the averaging map E(x) = sum_i b_i x b_i* S^-1,
    S = sum_i b_i b_i*, restricted to the algebra: the d x d projection
    <b_k, E(b_j)>, whose trace, rounded within
    min(MAX_RANK_SLACK, tol.bound(sum |diagonal|)), is dim Z(A), and whose
    top eigenvectors are the coefficients of an orthonormal basis."""
    n = a.ambient_dim
    adj = a.basis.conj().transpose(0, 2, 1)
    try:
        cmaps = adj @ np.linalg.inv((a.basis @ adj).sum(axis=0))
    except np.linalg.LinAlgError as exc:
        raise SingularInput("sum of b b* is singular") from exc
    proj = a.flat.conj() @ _average(a.basis, cmaps, a.basis).reshape(a.dim, -1).T
    diag = np.diagonal(proj)
    c = nk.integral_trace(complex(diag.sum()), min(
        nk.MAX_RANK_SLACK, tol.bound(float(np.abs(diag).sum()))), a.dim)
    _, vec = np.linalg.eigh((proj + proj.conj().T) / 2.0)
    rows = vec[:, a.dim - c:].T @ a.flat
    return alg.VnAlgebra(n, rows.reshape(-1, n, n), tol=tol)


def averaging_projections(a: alg.VnAlgebra, tol: nk.Tolerance = nk.DEFAULT_TOL):
    """Signature and minimal central projections, in summand order, from a
    seeded random element of ``averaging_center`` whose sorted spectrum is
    split at its c - 1 widest gaps; a_i^2 = <p_i, S> and m_i = tr(p_i) / a_i."""
    n, z = a.ambient_dim, averaging_center(a, tol)
    central = np.tensordot(nk.random_complex(z.dim, np.random.default_rng(nk.PROBE_SEED)),
                           z.basis, axes=(0, 0))
    lam, vec = np.linalg.eigh(central + central.conj().T)
    cuts = np.sort(np.argsort(np.diff(lam))[n - z.dim:]) + 1 if z.dim > 1 else []
    gram = (a.basis @ a.basis.conj().transpose(0, 2, 1)).sum(axis=0)
    blocks, projections = [], []
    for v in np.split(vec, cuts, axis=1):
        p = v @ v.conj().T
        a_i = int(round(np.sqrt(np.vdot(p, gram).real)))
        blocks.append((a_i, int(round(np.trace(p).real)) // a_i))
        projections.append(p)
    order = sorted(range(len(blocks)), key=functools.cmp_to_key(
        alg._summand_order(blocks, projections, tol)))
    return tuple(blocks[i] for i in order), np.array([projections[i] for i in order])


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


def cube_worst_cocycle(values) -> tuple[float, tuple[int, int, int]]:
    """The worst cocycle residual and the triple that argmax picks on the
    cube: the first worst in (r, s, t) order, the first NaN when there is one."""
    res = cocycle_residuals(np.asarray(values, dtype=complex))
    return float(res.max()), tuple(int(i) for i in np.unravel_index(int(res.argmax()), res.shape))


def _encode_complex(z) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def elementwise_matrix(m) -> list:
    return [[_encode_complex(z) for z in row] for row in np.asarray(m, dtype=complex)]


def elementwise_vector(v) -> list:
    return [_encode_complex(z) for z in np.asarray(v, dtype=complex).reshape(-1)]


def _jsonsafe(obj):
    """Strict-JSON copy: non-finite floats become strings, arrays their
    [re, im] lists."""
    if isinstance(obj, np.ndarray):
        return _jsonsafe(scenes.encode_matrix(obj))
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else repr(obj)
    if isinstance(obj, dict):
        return {k: _jsonsafe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonsafe(v) for v in obj]
    return obj


def json_report(report: dict) -> str:
    return json.dumps(_jsonsafe(report), indent=2, sort_keys=False)


def basis_image_apply(domain: alg.VnAlgebra, images, x) -> np.ndarray:
    """The map with the given basis images at x, as ``correspondence.rep_apply``
    computed it: the coefficients of one matrix from the vector product, those
    of a stack from a product batched over its leading axes."""
    x = np.asarray(x, dtype=complex)
    coeffs = domain.flat.conj() @ nk.as_matrix(x).reshape(-1) if x.ndim == 2 else \
        inline_coefficients(domain.flat, x)
    return (coeffs @ images.reshape(len(images), -1)).reshape(coeffs.shape[:-1] + images.shape[1:])


def tensordot_images(domain: alg.VnAlgebra, images, x) -> np.ndarray:
    """The images of the stack x as ``endo.hom_residuals`` and
    ``algebra._legs`` computed them: the coefficients of x flattened to rows,
    contracted with the images by ``np.tensordot``."""
    coeffs = x.reshape(-1, domain.flat.shape[1]) @ domain.flat.conj().T
    return np.tensordot(coeffs, images, axes=(1, 0)).reshape(x.shape[:-2] + images.shape[1:])


def inline_coefficients(flat, x) -> np.ndarray:
    """Coefficients of the stack x against the orthonormal rows flat, batched
    over its leading axes, as ``correspondence.tensor_quotient`` and
    ``TensorProduct.lift_left`` formed them inline."""
    return x.reshape(x.shape[:-2] + (flat.shape[1],)) @ flat.conj().T


def central_table(e, tol: nk.Tolerance = nk.DEFAULT_TOL) -> np.ndarray:
    """Joint multiplicities of e: tr(rho(P_i) rho'(Q_j)) / (a_i a'_j) over the
    central projections P_i (summand M_{a_i}) of the left algebra and Q_j
    (summand M_{a'_j}) of the right commutant, summands in the order of
    ``algebra.block_decompose``: the isotypic part of the pair (i, j) holds
    a_i a'_j copies of the joint minimal projection's range."""
    left_sig, right_sig = (alg.block_decompose(a, tol) for a in (e.left, e.right_commutant))
    traces = np.einsum("iab,jba->ij", e.rho_of(left_sig.central_projections),
                       e.rho_prime_of(right_sig.central_projections)).real
    sizes = np.outer([a for a, _ in left_sig.blocks], [a for a, _ in right_sig.blocks])
    return np.rint(traces / sizes).astype(int)


def summand_match(e, f, tol: nk.Tolerance = nk.DEFAULT_TOL) -> np.ndarray:
    """Pi[j, i] = 1 when summand j of the right commutant of e and summand i
    of the left algebra of f, its commutant, have one central projection."""
    p, q = (alg.block_decompose(a, tol).central_projections
            for a in (e.right_commutant, f.left))
    return (np.linalg.norm(p[:, None] - q[None], axis=(2, 3)) < 1e-6).astype(int)


def predicted_table(e, f, tol: nk.Tolerance = nk.DEFAULT_TOL) -> np.ndarray:
    """The table of the interior tensor product of e and f, table(e) Pi table(f):
    a summand M_b of the middle algebra links the copies of (i, b) in e to
    those of (b, k) in f."""
    return central_table(e, tol) @ summand_match(e, f, tol) @ central_table(f, tol)


def gram_route(tp, tol: nk.Tolerance = nk.DEFAULT_TOL) -> dict:
    """The Gram matrix G of the raw tensor space of tp, the quotient of its
    eigenvalues above eps max(top, 1) and the lifted actions of e and f on it."""
    e, f = tp.e, tp.f
    x = e.element_space
    de, hf = x.shape[0], f.carrier_dim
    gram = f.rho_of(corr.inner_products(x)).transpose(0, 2, 1, 3).reshape(de * hf, de * hf)
    lam, vec = np.linalg.eigh((gram + gram.conj().T) / 2.0)
    keep = lam > tol.eps * max(float(lam[-1]), 1.0)
    phi = np.sqrt(lam[keep])[:, None] * vec[:, keep].conj().T
    pinv = vec[:, keep] / np.sqrt(lam[keep])[None, :]
    phi3 = phi.reshape(len(phi), de, hf)
    # op (tensor) id through the coefficients <x_i, op x_k>, id (tensor) op on the carrier of f
    mt = e.element_coefficients(e.rho[:, None] @ x)
    rho = (mt[:, None] @ phi3).reshape(len(e.rho), len(phi), -1) @ pinv
    rho_prime = (phi.reshape(-1, hf) @ f.rho_prime).reshape(len(f.rho_prime), len(phi), -1) @ pinv
    return {"gram": gram, "phi": phi, "rho": rho, "rho_prime": rho_prime}


def element_basis_lift(tp, op) -> np.ndarray:
    """op (tensor) id on the quotient carrier of tp, phi (M (tensor) 1) phi+ for
    M[i, k] = <x_i, op x_k> over the element basis of e, as
    ``TensorProduct.lift_left`` read it off the Gram route and below full rank;
    a stack of operators lifts slice by slice."""
    op = np.asarray(op, dtype=complex)
    cd, de, hf = tp._phi3.shape
    mt = tp.e.element_coefficients(op[..., None, :, :] @ tp.e.element_space)
    raw = mt[..., None, :, :] @ tp._phi3  # raw[..., p, k, v]
    return raw.reshape(op.shape[:-2] + (cd, de * hf)) @ tp.phi_pinv


def factored_against_gram(tp, tol: nk.Tolerance = nk.DEFAULT_TOL) -> dict:
    """Residuals of a tensor against ``gram_route``: |Phi* Phi - G| for its
    Gram root Phi, the difference of the kept ranks, and, through the carrier
    map q = phi_G phi+ (unitary when the kept spaces agree), |q phi - phi_G|,
    the unitarity of q and the worst |q a q* - a_G| over each lifted action."""
    ref = gram_route(tp, tol)
    root = corr._gram_root(tp.e, tp.f, tol)
    q = ref["phi"] @ tp.phi_pinv
    out = {"gram": float(np.linalg.norm(root.conj().T @ root - ref["gram"])),
           "rank": abs(tp.carrier_dim - len(ref["phi"]))}
    if out["rank"]:
        return out
    out.update(carrier=float(np.linalg.norm(q @ tp.phi - ref["phi"])),
               unitary=nk.unitarity_residual(q),
               rho=nk.worst_norm(q @ tp.corr.rho @ q.conj().T - ref["rho"]),
               rho_prime=nk.worst_norm(q @ tp.corr.rho_prime @ q.conj().T - ref["rho_prime"]))
    return out
