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

import functools

import numpy as np

from . import algebra as alg
from . import correspondence as corr
from . import endo as endo_mod
from . import numkernel as nk
from .errors import (CocycleResidual, ImageOutsideAlgebra, NotFaithful, NotIsometric,
                     NotPairedInput, NotUnitary, NotUnitaryImage, PairingCheckFailed, RelationB,
                     RelationBPrime, VnpairError)


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
               "U is not unitary, residual {:.3e}", law="unitarity")
    return u


def check_pairing(u, theta, theta_prime, horizon: int = 4,
                  tol: nk.Tolerance = nk.DEFAULT_TOL) -> PairingCertificate:
    """Verify that conjugation by u implements both maps, plus all powers.

    u* b u must equal theta(b) on the basis of B, u b' u* must equal
    theta_prime(b') on the basis of B', and the same relations must hold
    for u^k against the k-th iterates up to the horizon, which ``_relations``
    bounds off the first two in closed form. Each map's laws are proven by
    the same bounds or pass ``Endomorphism.validate``; its span law is
    checked either way. B' must be the commutant of B
    (``correspondence.require_commutant``: within r of it, so [b, b'] is
    within 2 |b| r of the commutant's law).
    """
    horizon = nk.as_horizon(horizon)
    corr.require_commutant(theta.domain, theta_prime.domain, tol)
    u = _check_unitary(u, theta.domain.ambient_dim, tol)
    return _relations(u, theta, theta_prime, horizon, tol)


def _relations(u, theta, theta_prime, horizon: int,
               tol: nk.Tolerance) -> PairingCertificate:
    """``check_pairing`` on domains already compared and an n x n u whose
    unitarity residual has passed tol.bound(sqrt(n)).

    The stacks R = u* b u - theta(b) over the basis of B and R' = u b' u* -
    theta_prime(b') over that of B' are the only products formed: u pairs the
    maps when theta = Ad u* and theta_prime = Ad u (the paper's Remark 1.8),
    and the rest is read off the two stacks (``_laws_and_powers``). No iterate
    and no power of u is formed; ``tests/oracles.py`` keeps the dense powers.
    """
    (worst_b, rho), (worst_bp, rho_prime) = (
        _relation(u.conj().T @ theta.domain.basis @ u - theta.basis_images, RelationB,
                  "relation_b", "u* b u does not implement the map on B", tol),
        _relation(u @ theta_prime.domain.basis @ u.conj().T - theta_prime.basis_images,
                  RelationBPrime, "relation_b_prime", "u b' u* does not implement the map "
                  "on B'", tol))
    eps = nk.unitarity_residual(u)
    worst_pow = nk.worst(_laws_and_powers(theta, rho, eps, horizon, tol),
                         _laws_and_powers(theta_prime, rho_prime, eps, horizon, tol))
    nk.require(worst_pow, tol.bound(1.0), RelationB,
               "powers of u fail to implement the iterates, residual {:.3e}", law="powers")
    return PairingCertificate(unitary=u, residuals={
        "relation_b": worst_b, "relation_b_prime": worst_bp,
        "powers": worst_pow})


def _relation(r, error_cls, law: str, what: str, tol: nk.Tolerance) -> tuple[float, float]:
    """The worst slice of the relation stack r, required within tol.bound(1.0),
    and the Frobenius norm of the whole stack."""
    return (nk.require(nk.worst_norm(r), tol.bound(1.0), error_cls, what + ", residual {:.3e}",
                       law=law), nk.frobenius(r))


def _laws_and_powers(f, rho: float, eps: float, horizon: int, tol: nk.Tolerance) -> float:
    """f's laws, and a bound on its powers against those of Ad (Ad u* for theta,
    Ad u for theta_prime), from rho = |f - Ad| (Frobenius over f's relation stack)
    and eps = |u* u - 1| = |u u* - 1| (Frobenius). In exact arithmetic, on the
    domain of dim d in M_n with projection P, Frobenius norms throughout:
    |(f - Ad)(x)| <= rho |x| on the domain (Cauchy-Schwarz over the orthonormal
    basis), |Ad| <= |u|_op^2 <= a = 1 + eps, |f P| <= kappa = a + rho and
    |(1 - P) f P| <= sigma = sqrt(d) f._span.

    - powers: f^k - Ad^k = sum_{j<k} Ad^j (f P - Ad) f^(k-1-j), and (f P - Ad)
      y = (f - Ad)(P y) - Ad((1 - P) y) with (1 - P) y = 0 at j = k - 1, so
      |f^k(b) - Ad^k(b)| <= (rho + a sigma) sum_{j<k} a^j kappa^(k-1-j); at
      k = horizon this bounds every k from 2 on (0.0 at horizon 1, where no
      power is compared).
    - laws, as ``endo.hom_residuals`` reads them on the units e of a frame of
      the domain (summand i of shape (a_i, m_i), |e| = sqrt(m_i), g_e = Ad(e)):
      f(e) = g_e - r_e with sum_e |r_e|^2 <= max m_i rho^2 <= n rho^2, and
      g_j1 g_1k = g_jk + u* e_j1 D e_1k u (D = u u* - 1; for Ad u, D = u* u - 1).
      unital: f(1) - 1 = (u* u - 1) - r_1, so <= eps + sqrt(n) rho.
      star: S_jk = r_jk - r_kj*, so <= 2 sqrt(n) rho.
      multiplicative: Q_jk = -r_jk - u* e_j1 D e_1k u + g_j1 r_1k + r_j1 g_1k
      - r_j1 r_1k and P = delta r_11 + u* e_1k D e'_j1 u - g_1k r'_j1 - r_1k g'_j1
      + r_1k r'_j1; with |sum_j g_j1* g_j1|_op <= a^2 a_i, |sum g_1k* g_1k|_op
      <= a^2 over all units, a_i m_i <= n and max a_i^2 <= d, each of |Q|, |P|
      is at most a sqrt(d) eps + (1 + 2 a) sqrt(n) rho + n rho^2, so
      multiplicative <= 2 (a sqrt(d) eps + 3 a sqrt(n) rho + n rho^2).

    When the three bounds are within those of ``Endomorphism.validate`` only the
    span law, which the relations do not imply, is checked; else ``validate``
    runs, so every law is proven or evaluated, at validate's order and bounds.
    """
    n, d = f.domain.ambient_dim, f.domain.dim
    a, root_n = 1.0 + eps, np.sqrt(n)
    if (eps + root_n * rho <= tol.bound(root_n) and 2.0 * root_n * rho <= tol.bound(1.0)
            and 2.0 * (a * np.sqrt(d) * eps + 3.0 * a * root_n * rho + n * rho * rho)
            <= tol.bound(1.0)):
        nk.require(f._span, tol.bound(1.0), ImageOutsideAlgebra,
                   "image leaves the algebra span, residual {:.3e}", law="span")
    else:
        f.validate(tol)
    if horizon < 2:
        return 0.0
    kappa = a + rho
    return float((rho + a * np.sqrt(d) * f._span) * sum(
        a ** j * kappa ** (horizon - 1 - j) for j in range(horizon)))


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


def _eq33_residuals(u, theta, tol: nk.Tolerance) -> dict:
    """Bound the dilation-level map against multiplication by u, in closed form.

    On b_i (tensor) b_j (tensor) h the endomorphism system gives theta(b_i) b_j h
    and the identity dilation of the commutant system b_i u b_j h; the map u33
    solved for on that family must return u. As sum_j X b_j (Y b_j)* = X S Y*,
    S = sum_j b_j b_j* = sum_i (a_i / m_i) p_i, it has the Gram matrices of
    src = [theta(b_i) S^1/2] -> dst = [b_i u S^1/2]. ``eq33_solve``, e =
    |u src - dst|, bounds the least-squares residual. src is [u* b_i u S^1/2],
    of least singular value c = min_i a_i / m_i, plus [r_i S^1/2] of norm e,
    r_i = theta(b_i) - u* b_i u, so |u33 - u| <= 2 e / (c - e), whose
    first-order term is ``eq33_match`` = 2 e / c."""
    sig = alg.block_decompose(theta.domain, tol)
    scale = np.array([a / m for a, m in sig.blocks])
    root = np.tensordot(np.sqrt(scale), sig.central_projections, axes=1)
    solve = float(np.linalg.norm((u @ theta.basis_images - theta.domain.basis @ u) @ root))
    return {"eq33_solve": solve, "eq33_match": 2.0 * solve / float(scale.min())}


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
               "image of the identity is not unitary, residual {:.3e}", law="unitarity")
    corr.require_commutant(theta.domain, theta_prime.domain, tol)
    return _pairing_of(u, theta, theta_prime, tol)


def _pairing_of(u, theta, theta_prime, tol: nk.Tolerance) -> PairingCertificate:
    """Pairing relations, with the maps' laws and powers read off them
    (``_relations``), and dilation-level map of u, domains compared; relation_b r
    implies eq33_solve <= sqrt(d) r max_i sqrt(a_i / m_i) (``_eq33_residuals``);
    PairingCheckFailed keeps a failed relation's law, residual and bound."""
    try:
        cert = _relations(u, theta, theta_prime, 4, tol)
    except (RelationB, RelationBPrime) as exc:
        raise PairingCheckFailed(f"recovered unitary fails the pairing relations: {exc}",
                                 law=exc.law, residual=exc.residual, bound=exc.bound) from exc
    cert.residuals.update(nk.require_laws(
        _eq33_residuals(u, theta, tol), tol.bound(np.sqrt(u.shape[0])), PairingCheckFailed,
        "dilation-level map deviates: {}"))
    return cert


def _twisted_pair(theta, theta_prime, tol: nk.Tolerance):
    """(e, f): the twisted correspondence of theta over B' and the commutant of
    that of theta_prime over B, unchecked, for a caller that validated both maps
    and found B' within r of commutant(B), so [B, B'] within 2 |b| r of its law."""
    return (corr._twisted(theta, theta_prime.domain, tol),
            corr.commutant(corr._twisted(theta_prime, theta.domain, tol)))


def can_pair(theta, theta_prime,
             tol: nk.Tolerance = nk.DEFAULT_TOL) -> PairingCertificate:
    """Decide pairability in the frame of B and its dual, the frame of B'.

    Unpaired outcomes carry the two tables that differ, those ``find_isomorphism``
    reads on ``_twisted_pair`` (``_form``). A faithful theta is an automorphism, a
    permutation sigma of the summands and a unitary on each (Davidson, III.1), so
    equal tables are the permutation matrix of sigma and the unitary is read off
    that form (``_unitary_of``) and certified by ``_pairing_of``; at the unitarity
    bound of ``find_isomorphism`` its intertwining laws are the relations up to the
    unitarity residual. A paired outcome proves both maps' homomorphism laws off
    its relation stacks, or evaluates them (``_relations``); both maps are
    validated before NotPaired is returned, so it certifies that the tables of two
    valid faithful maps differ, and before an error of the paired branch is raised."""
    return next(_decisions((theta,), theta_prime, tol))


def _decisions(thetas, theta_prime, tol: nk.Tolerance):
    """``can_pair`` of each map of thetas against theta_prime, one per next().
    The maps share one domain basis, so theta_prime's faithfulness and form, and
    the domain comparison, are read for the first only. A paired outcome has
    proven or evaluated the laws of both maps (``_relations``); both maps are
    validated before NotPaired is returned and before an error of the paired
    branch is raised, so a map's own law error comes first, as when each map
    was validated before its tables."""
    right = None
    for theta in thetas:
        if not endo_mod.is_faithful(theta, tol):
            raise NotFaithful("first map is not faithful")
        if right is None:
            if not endo_mod.is_faithful(theta_prime, tol):
                raise NotFaithful("second map is not faithful")
            corr.require_commutant(theta.domain, theta_prime.domain, tol)
        try:
            if right is None:
                sig = alg.block_decompose(theta.domain, tol)
                table = functools.partial(corr.MultiplicityTable, sig.blocks,
                                          sig._dual.blocks, carrier_dim=theta.domain.ambient_dim)
                xp, counts = _form(theta_prime, sig._dual, sig)
                right = table(tuple(zip(*counts)))
            x, counts = _form(theta, sig, sig._dual)
            left = table(counts)
            cert = None if left.counts != right.counts else _pairing_of(
                _unitary_of(sig, left.counts, x, xp, tol), theta, theta_prime, tol)
        except VnpairError:
            theta.validate(tol)
            theta_prime.validate(tol)
            raise
        if cert is None:
            theta.validate(tol)
            theta_prime.validate(tol)
            cert = PairingCertificate()
        cert.table_left, cert.table_right = left, right
        yield cert


def _form(g, sig, other):
    """x[i][j] = [s_0* g(t_k t_0*) s_0 over k], for the units t_k t_0* of summand i
    of the frame sig and the first units s_0 of summand j of the frame other, from
    one product; and the table of ``_table_against``, tr(g(t_0 t_0*) s_0 s_0*)
    rounded within 1e-6 (``numkernel.integral_trace``)."""
    images = g(np.concatenate([t @ t[0].conj().T for t in sig.units]))
    heads = np.concatenate([s[0] for s in other.units], axis=1)
    x = heads.conj().T @ images @ heads
    rows, cols = ([slice(e - k, e) for k, e in zip(sizes, np.cumsum(sizes))]
                  for sizes in ([len(t) for t in sig.units], [s.shape[2] for s in other.units]))
    traces = np.add.reduceat(np.diagonal(x[[r.start for r in rows]], axis1=1, axis2=2),
                             [c.start for c in cols], axis=1).tolist()
    return [[x[r, c, c] for c in cols] for r in rows], tuple(tuple(
        nk.integral_trace(t, 1e-6, len(heads)) for t in row) for row in traces)


def _unitary_of(sig, counts, x, xp, tol: nk.Tolerance) -> np.ndarray:
    """u = sum_i W_i (w_i* (x) w') V_j*, W_i and V_j the columns of summand i of the
    frame of B, in order (k, p), and of j = sigma(i) of its dual, in order (p, k),
    sigma the permutation table counts; w_i[:, k] = x_k w_i[:, 0] for the rank-one
    x_k = w_i[:, k] w_i[:, 0]* of theta's form x[i][j], w' likewise off xp[j][i]."""
    dual = sig._dual
    perm = [row.index(1) if sorted(row) == [0] * (len(row) - 1) + [1] else -1 for row in counts]
    if sorted(perm) != list(range(len(counts))) or any(
            sig.blocks[i] != dual.blocks[j][::-1] for i, j in enumerate(perm)):
        raise PairingCheckFailed(f"equal tables {counts} are not the permutation of "
                                 f"an automorphism of the summands {sig.blocks}")
    left, right = [], []
    for i, j in enumerate(perm):
        w_star, w_prime = _rank_one_columns(x[i][j]).conj(), _rank_one_columns(xp[j][i]).T
        (a, m), t = sig.blocks[i], sig.units[i]
        left.append(t.transpose(1, 0, 2).reshape(-1, a * m) @ (
            w_star[:, None, None, :] * w_prime[None, :, :, None]).reshape(a * m, a * m))
        right.append(dual.units[j].transpose(1, 0, 2).reshape(-1, a * m))
    u = np.concatenate(left, axis=1) @ np.concatenate(right, axis=1).conj().T
    nk.require(nk.unitarity_residual(u), tol.bound(np.sqrt(len(u))), NotIsometric,
               "form-built unitary is not unitary, residual {:.3e}", law="unitarity")
    return u


def _rank_one_columns(x) -> np.ndarray:
    """w.T from the stack x_k = w[:, k] w[:, 0]*: w[:, 0] off the largest column of
    x_0, which fixes its phase, then w[:, k] = x_k w[:, 0]."""
    c = int(np.argmax(np.diagonal(x[0]).real))
    return x @ (x[0][:, c] / np.sqrt(x[0][c, c].real))


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
    # _decisions proved or evaluated both maps' laws; theta2's iterates live for one loop only
    powers1 = endo_mod.iterates(theta1, horizon)
    family = [c1]
    for s in range(1, horizon):
        family.append(family[-1] @ powers1[s](c1))
    for k, (c, power2) in enumerate(zip(family, endo_mod.iterates(theta2, horizon)[1:]), 1):
        worst = nk.worst_norm(c @ powers1[k].basis_images @ c.conj().T - power2.basis_images)
        nk.require(worst, tol.bound(1.0), CocycleResidual,
                   "conjugation fails at step {1}, residual {0:.3e}", k,
                   step=k, law="conjugation")
    worst_split = 0.0
    for s in range(1, horizon):
        for t in range(1, horizon - s + 1):
            worst_split = nk.worst(worst_split, float(np.linalg.norm(
                family[s + t - 1] - family[s - 1] @ powers1[s](family[t - 1]))))
    nk.require(worst_split, tol.bound(1.0), CocycleResidual,
               "cocycle identity fails on a splitting, residual {:.3e}",
               step=None, law="cocycle")
    return family
