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

import itertools

import numpy as np

from . import algebra as alg
from . import correspondence as corr
from . import endo as endo_mod
from . import numkernel as nk
from .errors import (CocycleResidual, NotFaithful, NotPairedInput, NotUnitary,
                     NotUnitaryImage, PairingCheckFailed, RelationB, RelationBPrime)


class PairingCertificate:
    """Outcome of a pairing decision.

    Either carries the implementing unitary, or the two joint multiplicity
    tables whose mismatch obstructs any pairing.
    """

    def __init__(self, unitary=None, table_left=None, table_right=None,
                 residuals=None):
        self.unitary = None if unitary is None else np.asarray(unitary, dtype=complex)
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


def check_pairing(u, theta, theta_prime, horizon: int = 4,
                  tol: nk.Tolerance = nk.DEFAULT_TOL) -> PairingCertificate:
    """Verify that conjugation by u implements both maps, plus all powers.

    u* b u must equal theta(b) on the basis of B, u b' u* must equal
    theta_prime(b') on the basis of B', and the same relations must hold
    for u^k against the k-th iterates up to the horizon. Both maps pass
    ``Endomorphism.validate`` at every horizon before their iterates are
    compared; law residuals are computed once per map, iterates once per call.
    B' must be the commutant of B (``correspondence.require_commutant``:
    within r of it, so [b, b'] is within 2 |b| r of the commutant's law).
    """
    horizon = nk.as_horizon(horizon)
    corr.require_commutant(theta.domain, theta_prime.domain, tol)
    u = _check_unitary(u, theta.domain.ambient_dim, tol)
    return _relations(u, theta, theta_prime, horizon, tol)


def _relations(u, theta, theta_prime, horizon: int,
               tol: nk.Tolerance) -> PairingCertificate:
    """``check_pairing`` on domains already compared and an n x n u whose
    unitarity residual has passed tol.bound(sqrt(n))."""
    b, bp = theta.domain, theta_prime.domain
    worst_b = nk.require(nk.worst_norm(u.conj().T @ b.basis @ u - theta.basis_images),
                         tol.bound(1.0), RelationB,
                         "u* b u does not implement the map on B, residual {:.3e}")
    worst_bp = nk.require(nk.worst_norm(u @ bp.basis @ u.conj().T - theta_prime.basis_images),
                          tol.bound(1.0), RelationBPrime,
                          "u b' u* does not implement the map on B', residual {:.3e}")
    # each map is valid, so its iterates are valid as composed
    theta.validate(tol)
    theta_prime.validate(tol)
    uk = list(itertools.accumulate([u] * horizon, np.matmul))[1:]  # u^2, ..., u^horizon
    # the powers of theta, then those of theta_prime: one map's iterates at a time
    worst_pow = nk.worst(0.0, *(nk.worst_norm(v.conj().T @ b.basis @ v - f.basis_images)
                                for v, f in zip(uk, endo_mod.iterates(theta, horizon)[2:])))
    worst_pow = nk.worst(worst_pow, *(
        nk.worst_norm(v @ bp.basis @ v.conj().T - f.basis_images)
        for v, f in zip(uk, endo_mod.iterates(theta_prime, horizon)[2:])))
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
    preserve inner products, to interchange the left actions through theta,
    and to hit the whole target element space. Right-linearity,
    u (x b) = (u x) b, is matrix associativity and is not checked. The first
    two laws stay: the unitarity check of ``check_pairing`` (bound
    tol.bound(sqrt(n))) and its relation-B check imply them only to about
    sqrt(n) eps, looser than their own bound tol.bound(1.0).
    """
    cert = check_pairing(u, theta, theta_prime, horizon=1, tol=tol)
    u = cert.unitary
    b = theta.domain
    source, target = _twisted_pair(theta, theta_prime, tol)
    x = source.element_space
    moved = u @ x
    # over every pair (x_i, b_j): u theta(b_j) x_i = b_j u x_i
    y = target.element_space
    worst = {"inner": float(np.abs(corr.inner_products(moved)
                                   - corr.inner_products(x)).max()),
             "left_covariant": nk.worst_norm(
                 u @ (theta.basis_images @ x[:, None]) - b.basis @ moved[:, None]),
             "target_span": 1.0 if y.shape[0] != x.shape[0] else nk.worst(
                 nk.span_residual(moved, y.reshape(y.shape[0], -1)),
                 nk.span_residual(y, moved.reshape(moved.shape[0], -1)))}
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
    return {"eq33_solve": float(np.linalg.norm(u33 @ src - dst)),
            "eq33_match": float(np.linalg.norm(u33 - u))}


def pairing_from_isomorphism(iso, theta, theta_prime,
                             tol: nk.Tolerance = nk.DEFAULT_TOL) -> PairingCertificate:
    """Recover the pairing unitary from a bimodule isomorphism.

    iso is a ``CorrespondenceIso`` or its carrier matrix. The image of the
    identity determines the map by right-linearity; it must be an n x n
    unitary, pass the pairing checks, and induce the dilation-level map.
    """
    n = theta.domain.ambient_dim
    u = iso.carrier_unitary if isinstance(iso, CorrespondenceIso) else \
        np.asarray(iso, dtype=complex)
    res = nk.unitarity_residual(u) if u.shape == (n, n) else np.inf  # shape first
    nk.require(res, tol.bound(np.sqrt(n)), NotUnitaryImage,
               "image of the identity is not unitary, residual {:.3e}")
    corr.require_commutant(theta.domain, theta_prime.domain, tol)
    return _pairing_of(u, theta, theta_prime, tol)


def _pairing_of(u, theta, theta_prime, tol: nk.Tolerance) -> PairingCertificate:
    """Pairing relations and dilation-level map of u, domains compared."""
    try:
        cert = _relations(u, theta, theta_prime, 4, tol)
    except (RelationB, RelationBPrime) as exc:
        raise PairingCheckFailed(
            f"recovered unitary fails the pairing relations: {exc}") from exc
    cert.residuals.update(nk.require_laws(
        _eq33_residuals(u, theta), tol.bound(np.sqrt(u.shape[0])), PairingCheckFailed,
        "dilation-level map deviates: {}"))
    return cert


def _twisted_pair(theta, theta_prime, tol: nk.Tolerance, f=None):
    """(e, f): e the twisted correspondence of theta over B', f the commutant
    of that of theta_prime over B, built unchecked: the caller validated both
    maps and found B' within r of commutant(B) (``require_commutant``), so
    [B, B'] is within 2 |b| r of the commutant's law. f reads theta_prime and
    B's basis only, so an f given for another map on that basis is kept."""
    e = corr._twisted(theta, theta_prime.domain, tol)
    if f is None:
        f = corr.commutant(corr._twisted(theta_prime, theta.domain, tol))
    return e, f


def can_pair(theta, theta_prime,
             tol: nk.Tolerance = nk.DEFAULT_TOL) -> PairingCertificate:
    """Decide pairability through the correspondence isomorphism test.

    Paired outcomes carry a verified unitary; unpaired outcomes carry the
    two joint multiplicity tables that differ. Both are read off the frame of B
    and that of B'; a B' without one takes B's, so the unitary follows B's basis.
    Both maps pass ``Endomorphism.validate`` once the domains are compared
    and before any table is read, so a raw map that is not a unital
    *-homomorphism raises its law error (NotMultiplicative, ...): NotPaired
    certifies that the tables of two valid faithful maps differ.
    """
    return next(_decisions((theta,), theta_prime, tol))


def _decisions(thetas, theta_prime, tol: nk.Tolerance):
    """``can_pair`` of each map of thetas against theta_prime, one per next().
    The maps share one domain basis, so theta_prime's faithfulness and
    validation, the domain comparison and f (``_twisted_pair``) are built
    for the first only. Each map is validated before its tables, theta_prime
    once B' holds the frame of B."""
    f = None
    for theta in thetas:
        if not endo_mod.is_faithful(theta, tol):
            raise NotFaithful("first map is not faithful")
        if f is None:
            if not endo_mod.is_faithful(theta_prime, tol):
                raise NotFaithful("second map is not faithful")
            corr.require_commutant(theta.domain, theta_prime.domain, tol)
        for g in (theta, theta_prime) if f is None else (theta,):
            g.validate(tol)
        e, f = _twisted_pair(theta, theta_prime, tol, f)
        decision = corr.find_isomorphism(e, f, tol)
        # the domains were compared above, and find_isomorphism checked the
        # unitary against the bound of pairing_from_isomorphism
        cert = _pairing_of(decision.unitary, theta, theta_prime, tol) if decision \
            else PairingCertificate()
        cert.table_left, cert.table_right = decision.table_left, decision.table_right
        yield cert


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
    theta1 onto the iterates of theta2. Returns the list c_1..c_N. Both
    maps must be stored over one domain basis, else DomainMismatch; both
    pairings are then decided against one side of theta_prime.
    """
    horizon = nk.as_horizon(horizon)
    endo_mod._same_domain(theta1, theta2)
    certs = []
    for which, cert in zip(("first", "second"),
                           _decisions((theta1, theta2), theta_prime, tol)):
        if not cert:
            raise NotPairedInput(f"{which} map does not pair with the given partner")
        certs.append(cert)
    b = theta1.domain
    c1 = certs[1].unitary.conj().T @ certs[0].unitary
    report = b.contains(c1, tol)
    if not report:
        raise CocycleResidual(
            f"link is not in the algebra, residual {report.residual:.3e}",
            step=1, residual=float(report.residual))
    # _decisions validated both maps; theta2's iterates live for one loop only
    powers1 = endo_mod.iterates(theta1, horizon)
    family = [c1]
    for s in range(1, horizon):
        family.append(family[-1] @ powers1[s](c1))
    for k, (c, power2) in enumerate(zip(family, endo_mod.iterates(theta2, horizon)[1:]), 1):
        worst = nk.worst_norm(c @ powers1[k].basis_images @ c.conj().T - power2.basis_images)
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
