"""Pairing of an endomorphism of an algebra with one of its commutant.

A single unitary U pairs theta on B with theta_prime on B' when conjugation
implements both maps with opposite orientations: U* b U = theta(b) and
U b' U* = theta_prime(b'). The engine verifies candidate unitaries, converts
pairings to bimodule isomorphisms between the twisted correspondence of
theta and the commutant of the twisted correspondence of theta_prime and
back, decides pairability through the multiplicity tables, and links two
pairable endomorphisms by an operator cocycle.
"""

from __future__ import annotations

import numpy as np

from . import algebra as alg
from . import correspondence as corr
from . import endo as endo_mod
from . import numkernel as nk
from .errors import (CocycleResidual, DomainsNotCommutant, NotFaithful,
                     NotPairedInput, NotUnitary, NotUnitaryImage,
                     PairingCheckFailed, RelationB, RelationBPrime)


class PairingCertificate:
    """Outcome of a pairing decision.

    Either carries the implementing unitary, or the two joint multiplicity
    tables whose mismatch obstructs any pairing.
    """

    def __init__(self, unitary=None, table_left=None, table_right=None,
                 residuals=None):
        self.unitary = None if unitary is None else np.asarray(unitary,
                                                               dtype=complex)
        self.table_left = table_left
        self.table_right = table_right
        self.residuals = dict(residuals) if residuals else {}

    @property
    def paired(self) -> bool:
        return self.unitary is not None

    def __bool__(self) -> bool:
        return self.paired


class CorrespondenceIso:
    """Bimodule unitary between two correspondences on explicit carriers.

    The carrier matrix intertwines both actions; on element spaces it acts
    by left multiplication, which is the whole map by right-linearity.
    """

    def __init__(self, source, target, carrier_unitary, residuals=None):
        self.source = source
        self.target = target
        self.carrier_unitary = np.asarray(carrier_unitary, dtype=complex)
        self.residuals = dict(residuals) if residuals else {}

    def apply(self, x) -> np.ndarray:
        return self.carrier_unitary @ np.asarray(x, dtype=complex)


def _check_unitary(u, n, tol: nk.Tolerance) -> np.ndarray:
    u = nk.as_matrix(u, "U")
    if u.shape != (n, n):
        raise NotUnitary(f"expected shape {(n, n)}, got {u.shape}")
    nk.require(nk.unitarity_residual(u), tol.bound(np.sqrt(n)), NotUnitary,
               "U is not unitary, residual {:.3e}")
    return u


def _commutant_domains(theta, theta_prime, tol: nk.Tolerance):
    b = theta.domain
    bp = theta_prime.domain
    match = alg.equals(bp, alg.commutant(b, tol), tol)
    if not match:
        raise DomainsNotCommutant(
            f"second domain is not the commutant of the first, "
            f"distance {match.residual:.3e}")
    return b, bp


def check_pairing(u, theta, theta_prime, horizon: int = 4,
                  tol: nk.Tolerance = nk.DEFAULT_TOL) -> PairingCertificate:
    """Verify that conjugation by u implements both maps, plus all powers.

    u* b u must equal theta(b) on the basis of B, u b' u* must equal
    theta_prime(b') on the basis of B', and the same relations must hold
    for u^k against the k-th iterates up to the horizon. Both maps pass the
    endomorphism law check once, at every horizon, before their iterates
    are compared.
    """
    b, bp = _commutant_domains(theta, theta_prime, tol)
    n = b.ambient_dim
    u = _check_unitary(u, n, tol)
    worst_b = nk.require(nk.worst_norm(u.conj().T @ b.basis @ u - theta.basis_images),
                         tol.bound(1.0), RelationB,
                         "u* b u does not implement the map on B, residual {:.3e}")
    worst_bp = nk.require(nk.worst_norm(u @ bp.basis @ u.conj().T - theta_prime.basis_images),
                          tol.bound(1.0), RelationBPrime,
                          "u b' u* does not implement the map on B', residual {:.3e}")
    # the law check runs once per map; its iterates are then valid as composed
    endo_mod.make(b, theta.basis_images, tol)
    endo_mod.make(bp, theta_prime.basis_images, tol)
    powers = endo_mod.iterates(theta, max(horizon, 1))
    powers_prime = endo_mod.iterates(theta_prime, max(horizon, 1))
    worst_pow = 0.0
    uk = u.copy()
    for k in range(2, horizon + 1):
        uk = uk @ u
        worst_pow = nk.worst(
            worst_pow, nk.worst_norm(uk.conj().T @ b.basis @ uk - powers[k].basis_images),
            nk.worst_norm(uk @ bp.basis @ uk.conj().T - powers_prime[k].basis_images))
    nk.require(worst_pow, tol.bound(1.0), RelationB,
               "powers of u fail to implement the iterates, residual {:.3e}")
    return PairingCertificate(unitary=u, residuals={
        "relation_b": worst_b, "relation_b_prime": worst_bp,
        "powers": worst_pow})


def isomorphism_from_pairing(u, theta, theta_prime,
                             tol: nk.Tolerance = nk.DEFAULT_TOL) -> CorrespondenceIso:
    """The bimodule unitary x -> u x induced by a verified pairing.

    Source is the twisted correspondence of theta; target is the commutant
    of the twisted correspondence of theta_prime. The map is checked to
    preserve inner products, to be right-linear, to interchange the left
    actions through theta, and to hit the whole target element space.
    """
    cert = check_pairing(u, theta, theta_prime, horizon=1, tol=tol)
    u = cert.unitary
    b = theta.domain
    bp = theta_prime.domain
    source = corr.of_endomorphism(theta, right_commutant=bp, tol=tol)
    target = corr.commutant(corr.of_endomorphism(theta_prime,
                                                 right_commutant=b, tol=tol))
    x = source.element_space
    moved = u @ x
    # over every pair (x_i, b_j): u (x_i b_j) = (u x_i) b_j and
    # u theta(b_j) x_i = b_j u x_i
    worst = {"inner": float(np.abs(corr.inner_products(moved)
                                   - corr.inner_products(x)).max()),
             "right_linear": nk.worst_norm(u @ (x[:, None] @ b.basis) - moved[:, None] @ b.basis),
             "left_covariant": nk.worst_norm(
                 u @ (theta.basis_images @ x[:, None]) - b.basis @ moved[:, None]),
             "target_span": 0.0}
    y = target.element_space
    if y.shape[0] != x.shape[0]:
        worst["target_span"] = 1.0
    else:
        worst["target_span"] = nk.worst(
            nk.span_residual(moved, y.reshape(y.shape[0], -1)),
            nk.span_residual(y, moved.reshape(moved.shape[0], -1)))
    nk.require_laws(worst, tol.bound(1.0), PairingCheckFailed,
                    "induced bimodule map fails: {}")
    return CorrespondenceIso(source, target, u, residuals=worst)


def _eq33_residuals(u, theta) -> dict:
    """Solve for the dilation-level map and compare with multiplication by u.

    On the simple tensor b_i (tensor) b_j (tensor) h the product of the
    endomorphism system gives theta(b_i) b_j h, and the identity dilation of
    the commutant system gives b_i u b_j h. The map solved for on this
    spanning family must return left multiplication by u.

    The family [theta(b_i) b_j] has d^2 n columns; it is solved on
    [theta(b_i) S^1/2] -> [b_i u S^1/2], S = sum_j b_j b_j*, with d n
    columns. Since sum_j X b_j (Y b_j)* = X S Y*, both families have the
    same Gram matrices, hence the same least-squares solution and the same
    residual norm.
    """
    b = theta.domain.basis
    n = b.shape[1]
    s = (b @ b.conj().transpose(0, 2, 1)).sum(axis=0)
    lam, vec = np.linalg.eigh((s + s.conj().T) / 2.0)
    root = (vec * np.sqrt(np.clip(lam, 0.0, None))) @ vec.conj().T
    src = (theta.basis_images @ root).transpose(1, 0, 2).reshape(n, -1)
    dst = (b @ u @ root).transpose(1, 0, 2).reshape(n, -1)
    u33 = nk.lstsq_map(src, dst)
    solve = float(np.linalg.norm(u33 @ src - dst))
    return {"eq33_solve": solve, "eq33_match": float(np.linalg.norm(u33 - u))}


def pairing_from_isomorphism(iso, theta, theta_prime,
                             tol: nk.Tolerance = nk.DEFAULT_TOL) -> PairingCertificate:
    """Recover the pairing unitary from a bimodule isomorphism.

    The image of the identity element determines the whole map by
    right-linearity; it must be unitary and pass the pairing checks, and
    the dilation-level map it induces must equal left multiplication by it.
    """
    b = theta.domain
    n = b.ambient_dim
    if isinstance(iso, CorrespondenceIso):
        u = iso.apply(np.eye(n, dtype=complex))
    else:
        u = np.asarray(iso, dtype=complex) @ np.eye(n, dtype=complex)
    res = nk.unitarity_residual(u)
    nk.require(res if u.shape == (n, n) else np.inf, tol.bound(np.sqrt(n)),
               NotUnitaryImage, "image of the identity is not unitary, residual {1:.3e}",
               res)
    try:
        cert = check_pairing(u, theta, theta_prime, tol=tol)
    except (NotUnitary, RelationB, RelationBPrime) as exc:
        raise PairingCheckFailed(
            f"recovered unitary fails the pairing relations: {exc}") from exc
    cert.residuals.update(nk.require_laws(
        _eq33_residuals(u, theta), tol.bound(np.sqrt(n)), PairingCheckFailed,
        "dilation-level map deviates: {}"))
    return cert


def can_pair(theta, theta_prime,
             tol: nk.Tolerance = nk.DEFAULT_TOL) -> PairingCertificate:
    """Decide pairability through the correspondence isomorphism test.

    Paired outcomes carry a verified unitary; unpaired outcomes carry the
    two joint multiplicity tables that differ.
    """
    if not endo_mod.is_faithful(theta, tol):
        raise NotFaithful("first map is not faithful")
    if not endo_mod.is_faithful(theta_prime, tol):
        raise NotFaithful("second map is not faithful")
    b, bp = _commutant_domains(theta, theta_prime, tol)
    e = corr.of_endomorphism(theta, right_commutant=bp, tol=tol)
    f = corr.commutant(corr.of_endomorphism(theta_prime,
                                            right_commutant=b, tol=tol))
    decision = corr.find_isomorphism(e, f, tol)
    if not decision:
        return PairingCertificate(unitary=None,
                                  table_left=decision.table_left,
                                  table_right=decision.table_right)
    iso = CorrespondenceIso(e, f, decision.unitary)
    cert = pairing_from_isomorphism(iso, theta, theta_prime, tol)
    cert.table_left = decision.table_left
    cert.table_right = decision.table_right
    return cert


def restriction_symmetry(u, b, tol: nk.Tolerance = nk.DEFAULT_TOL):
    """Whether conjugation preserves the algebra, tested on both sides.

    Returns the pair (u* (span b) u inside span b, u (span b') u* inside
    span b'). The two verdicts agree on every unitary; tests treat any
    disagreement as a bug, not as data.
    """
    n = b.ambient_dim
    u = _check_unitary(u, n, tol)
    bp = alg.commutant(b, tol)
    down = nk.span_residual(u.conj().T @ b.basis @ u, b.flat)
    up = nk.span_residual(u @ bp.basis @ u.conj().T, bp.flat)
    return (down <= tol.bound(1.0), up <= tol.bound(1.0))


def cocycle_link(theta1, theta2, theta_prime, horizon: int,
                 tol: nk.Tolerance = nk.DEFAULT_TOL):
    """Unitary cocycle in B linking two endomorphisms paired with the same map.

    c_1 is the quotient of the two pairing unitaries; the family follows the
    recursion c_{s+t} = c_s theta1^s(c_t) and conjugates the iterates of
    theta1 onto the iterates of theta2. Returns the list c_1..c_N.
    """
    cert1 = can_pair(theta1, theta_prime, tol)
    if not cert1:
        raise NotPairedInput("first map does not pair with the given partner")
    cert2 = can_pair(theta2, theta_prime, tol)
    if not cert2:
        raise NotPairedInput("second map does not pair with the given partner")
    b = theta1.domain
    c1 = cert2.unitary.conj().T @ cert1.unitary
    report = b.contains(c1)
    if not report:
        raise CocycleResidual(
            f"link is not in the algebra, residual {report.residual:.3e}",
            step=1, residual=float(report.residual))
    # can_pair validated both maps in check_pairing before pairing them
    powers1 = endo_mod.iterates(theta1, max(horizon, 1))
    powers2 = endo_mod.iterates(theta2, max(horizon, 1))
    family = [c1]
    for s in range(1, horizon):
        family.append(family[-1] @ powers1[s](c1))
    for k, c in enumerate(family, start=1):
        worst = nk.worst_norm(c @ powers1[k].basis_images @ c.conj().T
                              - powers2[k].basis_images)
        nk.require(worst, tol.bound(1.0), CocycleResidual,
                   "conjugation fails at step {1}, residual {0:.3e}", k,
                   step=k, residual=worst)
    worst_split = 0.0
    for s in range(1, horizon):
        for t in range(1, horizon - s + 1):
            worst_split = nk.worst(worst_split, float(np.linalg.norm(
                family[s + t - 1] - family[s - 1] @ powers1[s](family[t - 1]))))
    nk.require(worst_split, tol.bound(1.0), CocycleResidual,
               "cocycle identity fails on a splitting, residual {:.3e}",
               step=None, residual=worst_split)
    return family
