"""Discrete product systems of correspondences over {0, ..., N}.

A system is its members E_t and the interior tensor products of E_s and E_t,
whose carrier, the rows of Phi = [rho(x_1)| ... |rho(x_d)], is that of E_{s+t}:
the product is the identity there, not a map formed or solved for. The main
sources are iterates of a single endomorphism, the commutant construction
(elements multiply as operators, with the factor order reversed relative to the
original system), the rank-one compression of an automorphism of a full matrix
algebra, and the commutant system checked against its realization on a dilation
space. Every law is verified on spanning families of simple tensors, as a few
matrix products over the stacked element bases (one loop level per degree).
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from . import algebra as alg
from . import correspondence as corr
from . import endo as endo_mod
from . import numkernel as nk
from .errors import (DimensionMismatch, NoUnitVector, NotFaithful,
                     NotFullAlgebra, NotUnitVector, ProductSystemLawError)

class DiscreteProductSystem:
    """Members E_0..E_N and tensors[(s, t)] = tensor(E_s, E_t), whose carrier, the
    rows of Phi, is that of E_{s+t}: x (tensor) y -> x . y is the identity there.

    Basis products and the law terms of ``validate`` stay in ``_terms``
    (``numkernel.memo``), keyed on the quotients ``tp.phi`` the build shares:
    iterate systems share them per t and commutant systems per s, so at horizon N
    associativity is evaluated on (N+1)(N+2)/2 pairs, not (N+1)(N+2)(N+3)/6 triples.
    """

    def __init__(self, algebra, members, tensors, source=None):
        self.algebra = algebra
        self.commutant_algebra = members[0].right_commutant
        self.members = list(members)
        self.tensors = dict(tensors)
        self.horizon = len(self.members) - 1
        self.source = source
        self.residuals: dict = {}  # what validate returned at construction
        self._terms = nk.memo()

    @property
    def products(self) -> dict:
        """The product map of each pair (s, t): the identity of the carrier of E_{s+t}."""
        return {key: np.eye(tp.carrier_dim, dtype=complex) for key, tp in self.tensors.items()}

    def prod_matrix(self, s: int, t: int, x) -> np.ndarray:
        """Matrix of h -> (x . h) from the carrier of E_t to that of E_{s+t};
        a stack of elements gives the stack of their matrices."""
        return self.tensors[(s, t)].embed_matrix(x)

    def basis_products(self, s: int, t: int) -> tuple[np.ndarray, float]:
        """Coefficients of every product x_k . y_l of element basis vectors
        (x_k of E_s, y_l of E_t) in the element basis of E_{s+t}, row
        k * d_t + l, and the worst distance of those products from that span
        (the product closure law). Computed once per distinct set of arrays.
        """
        tp = self.tensors[(s, t)]
        ys, basis = self.members[t].element_space, self.members[s + t].element_space
        return self._terms(_basis_products, (tp.phi, ys, basis), tp._phi3, ys, basis)

    def multiply(self, s: int, t: int, x, y) -> np.ndarray:
        """Product of an element of E_s with an element of E_t."""
        return self.prod_matrix(s, t, x) @ np.asarray(y, dtype=complex)

    def validate(self, tol: nk.Tolerance = nk.DEFAULT_TOL) -> dict:
        """Check the whole law book; returns worst residuals, raises on failure. The
        identity products are unitary (0.0) once each carrier is its target's."""
        worst = dict.fromkeys(("unit_member", "unitary", "bilinear", "left_marginal",
                               "right_marginal", "associative", "product_closure"), 0.0)
        e0 = self.members[0]
        worst["unit_member"] = nk.worst(
            float(np.linalg.norm(e0.rho - self.algebra.basis)),
            float(np.linalg.norm(e0.rho_prime - self.commutant_algebra.basis)))
        for (s, t), tp in self.tensors.items():
            target = self.members[s + t]
            if tp.carrier_dim != target.carrier_dim:
                raise ProductSystemLawError(
                    f"tensor ({s},{t}) has carrier dimension {tp.carrier_dim}, "
                    f"member {s + t} {target.carrier_dim}")
            worst["bilinear"] = nk.worst(worst["bilinear"], *(
                self._terms(_bilinear, (a, b), None, a, b)
                for a, b in ((tp.corr.rho, target.rho), (tp.corr.rho_prime, target.rho_prime))))
            worst["product_closure"] = nk.worst(worst["product_closure"],
                                                self.basis_products(s, t)[1])
        x0 = e0.element_space
        for t, member in enumerate(self.members):
            worst["left_marginal"] = nk.worst(worst["left_marginal"], nk.worst_norm(
                self.prod_matrix(0, t, x0) - member.rho_of(x0)))
            worst["right_marginal"] = nk.worst(worst["right_marginal"], nk.worst_norm(
                self.prod_matrix(t, 0, member.element_space) - member.element_space))
        # (x y) z against x (y z) for x of E_r, y of E_s, over the carrier of
        # E_t, which spans the triple tensor: once per distinct set of arrays
        tps, terms = self.tensors, []
        for r, s in tps:
            coeffs = self.basis_products(r, s)[0]
            for t in range(self.horizon + 1 - r - s):
                triple = (tps[(r + s, t)], tps[(r, s + t)], tps[(s, t)])
                terms.append(self._terms(_associativity, (coeffs, *(tp.phi for tp in triple)),
                                         coeffs, *(tp._phi3 for tp in triple)))
        worst["associative"] = nk.worst(0.0, *terms)
        return nk.require_laws(worst, tol.bound(1.0), ProductSystemLawError,
                               "product system laws violated: {}")


def _basis_products(stack, ys, basis) -> tuple[np.ndarray, float]:
    """``DiscreteProductSystem.basis_products`` from the arrays it reads."""
    h, ds, ht = stack.shape
    dt, n = ys.shape[0], ys.shape[2]
    prods = (stack.transpose(1, 0, 2).reshape(ds * h, ht)
             @ ys.transpose(1, 0, 2).reshape(ht, dt * n)).reshape(
        ds, h, dt, n).transpose(0, 2, 1, 3).reshape(ds * dt, h * n)
    flat = basis.reshape(basis.shape[0], h * n)
    coeffs = prods @ flat.conj().T
    return coeffs, nk.worst_norm((prods - coeffs @ flat).reshape(ds * dt, h, n))


def _associativity(coeffs, inner, outer_x, outer_y) -> float:
    """Worst |(x y) z - x (y z)| over the element bases x of E_r, y of E_s and
    the carrier of E_t, from the coefficients of x y and the split quotients
    ``_phi3`` of (r+s, t), (r, s+t) and (s, t), the actions of the element bases."""
    h, dm, ht = inner.shape
    dr, (hm, ds, _) = outer_x.shape[1], outer_y.shape
    lhs = coeffs @ inner.transpose(1, 0, 2).reshape(dm, h * ht)
    rhs = (outer_x.transpose(1, 0, 2).reshape(dr * h, hm)
           @ outer_y.reshape(hm, ds * ht)).reshape(dr, h, ds, ht).transpose(0, 2, 1, 3)
    return nk.worst_norm(lhs.reshape(dr, ds, h, ht) - rhs)


def _bilinear(u, a, b) -> float:
    """Worst |u a - b u| over the stacks; |a - b| for u None, the identity."""
    return nk.worst_norm(a - b if u is None else u @ a - b @ u)


def _map_laws(memo, u, *pairs) -> tuple[float, float]:
    """Unitarity residual of a map u between carriers (at least 1.0 for a
    non-square u) and its bilinearity residual: the worst |u a - b u| over
    each pair (a, b) of stacked images of one basis on source and target."""
    res = memo(nk.unitarity_residual, (u,), u)
    if u.shape[0] != u.shape[1]:
        res = nk.worst(res, 1.0)
    return res, nk.worst(*(memo(_bilinear, (u, a, b), u, a, b) for a, b in pairs))


def _full_tensor(e, f, memo, what: str, tol: nk.Tolerance):
    """tensor(e, f) on the build's memo, its carrier the rows of Phi, where the map
    of what is given (``TensorProduct.full``); else law ``factors``, with no residual
    and no quotient formed off cases (a) and (b) of ``correspondence._factors`` (a given
    rho_H, members not twisted), and on them with the cutoff as residual and the float
    below the largest dropped squared singular value of Phi as bound (``spectrum``)."""
    if not corr._factors(e, f):
        raise ProductSystemLawError(f"{what} is given on the rows of Phi, but the tensor "
                                    f"quotient is not read off Phi", law="factors")
    tp = corr.TensorProduct(e, f, tol, memo=memo, check=False)
    if not tp.full:
        sv2 = tp.spectrum
        dropped = float(sv2[tp.carrier_dim])
        nk.require(float(tol.eps * max(sv2[0], 1.0)), float(np.nextafter(dropped, -np.inf)),
                   ProductSystemLawError, "{1}: the tensor quotient keeps {2} of the {3} "
                   "directions of Phi, dropping squared singular value {4:.17g} at cutoff "
                   "{0:.17g}", what, tp.carrier_dim, len(sv2), dropped, law="factors")
    return tp


def _build(factors, make, what: str, tol: nk.Tolerance):
    """make(tensors), validated: the tensor products of factors[key] = (e, f) on one
    ``numkernel.memo``, on whose carriers each map is given (``_full_tensor``, named
    what % key). No tensor is light-checked: validate's ``bilinear`` law carries its
    actions to its target's."""
    memo = nk.memo()
    tensors = {key: _full_tensor(e, f, memo, what % key, tol) for key, (e, f) in factors.items()}
    built = make(tensors)
    built.residuals = built.validate(tol)
    return built


def _build_system(algebra, members, source=None,
                  tol: nk.Tolerance = nk.DEFAULT_TOL) -> DiscreteProductSystem:
    """``_build`` of the tensors of every pair: x . y is the row of Phi of x (tensor) y.
    The pairs with one t share the quotient and lifted B' action in the iterate
    system E_t = {}_{theta^t}B, those with one s in the commutant system."""
    n = len(members) - 1
    pairs = {(s, t): (members[s], members[t]) for s in range(n + 1) for t in range(n + 1 - s)}
    return _build(pairs, lambda tensors: DiscreteProductSystem(
        algebra, members, tensors, source=source), "product (%d,%d)", tol)


def from_endomorphism(theta, horizon: int,
                      tol: nk.Tolerance = nk.DEFAULT_TOL) -> DiscreteProductSystem:
    """Product system of the iterates of a unital endomorphism.

    E_t is the algebra with left action twisted by the t-th iterate; the
    product x (tensor) y -> theta^t(x) y is the identity of the rows of Phi. Iterates
    of the validated theta are valid and B' commutes by its own law: no E_t is checked.
    """
    horizon = nk.as_horizon(horizon)
    b = theta.domain
    theta.validate(tol)
    powers = endo_mod.iterates(theta, horizon)
    members = [corr._twisted(p, alg.commutant(b, tol), tol) for p in powers]
    # B' acts as itself on every member, so all have one element space: span B
    for member in members[1:]:
        member.element_space = members[0].element_space
    return _build_system(b, members, source=theta, tol=tol)


def commutant_system(p: DiscreteProductSystem,
                     tol: nk.Tolerance = nk.DEFAULT_TOL) -> DiscreteProductSystem:
    """Member-wise commutant with products by operator multiplication.

    Elements of the commutant members are intertwiners on the ambient
    space; the product of x' in F_s with y' in F_t is the operator product
    x' y', the factor-order reversal being absorbed by the canonical
    identification of the tensor carriers.
    """
    if p.source is None:
        raise NotFaithful("commutant system needs the generating endomorphism")
    if not endo_mod.is_faithful(p.source, tol):
        raise NotFaithful("generating endomorphism is not faithful")
    members = [corr.commutant(e) for e in p.members]
    return _build_system(p.commutant_algebra, members, tol=tol)


def commutant_order_residual(p: DiscreteProductSystem, pc: DiscreteProductSystem,
                             s: int, t: int,
                             tol: nk.Tolerance = nk.DEFAULT_TOL) -> float:
    """Spanning residual |x y' g - theta^t(y') x g| of the canonical identification
    x (tensor) y' g -> y' (tensor) x g of tensor(F_t, F_s) with tensor(E_s, E_t), the
    identity of their one carrier (``correspondence._identification``), once per t,
    whose arrays it reads, on ``pc._terms``; both intertwinings of the identity are
    checked there once per distinct pair of arrays."""
    t1, t2 = pc.tensors[(t, s)], p.tensors[(s, t)]
    residual = pc._terms(corr._identification, (t1.e.element_space, t2.e.element_space,
                                                t1.phi, t2.phi, tol), t1, t2, tol)[1]
    for a, b, what in ((t1.corr.rho, t2.corr.rho_prime, "left-algebra"),
                       (t1.corr.rho_prime, t2.corr.rho, "commutant")):
        pc._terms(corr._check_intertwining, (a, b, tol), None, a, b, tol, what)
    return residual


class RightDilation:
    """Unitaries w_t from tensor(E_t, H) onto H for a left action of B on H.

    theta_w(t, .) conjugates id (tensor) . through w_t and implements the
    induced endomorphism on the commutant of the action on H.
    """

    def __init__(self, system: DiscreteProductSystem, space, tensors, maps):
        self.system = system
        self.space = space
        self.tensors = tensors
        self.maps = maps
        self.residuals: dict = {}  # what validate returned at construction
        self._terms = nk.memo()
        self.rho_basis = space.rho_of(system.algebra.basis)  # rho_H(B), formed once

    @property
    def carrier_dim(self) -> int:
        return self.space.carrier_dim

    def rho_of(self, b) -> np.ndarray:
        return self.space.rho_of(b)

    def theta_w(self, t: int, op) -> np.ndarray:
        """w_t (id tensor op) w_t*; a stack of operators maps slice by slice."""
        w = self.maps[t]
        return w @ self.tensors[t].lift_right(op) @ w.conj().T

    def validate(self, tol: nk.Tolerance = nk.DEFAULT_TOL) -> dict:
        worst = {"unitary": 0.0, "bilinear": 0.0, "unit_map": 0.0}
        for t in range(self.system.horizon + 1):
            res, bil = _map_laws(self._terms, self.maps[t],
                                 (self.tensors[t].corr.rho, self.rho_basis))
            worst["unitary"] = nk.worst(worst["unitary"], res)
            worst["bilinear"] = nk.worst(worst["bilinear"], bil)
        x0 = self.system.members[0].element_space
        worst["unit_map"] = nk.worst_norm(
            self.maps[0] @ self.tensors[0].embed_matrix(x0) - self.rho_of(x0))
        return nk.require_laws(worst, tol.bound(1.0), ProductSystemLawError,
                               "right dilation laws violated: {}")


def right_dilation_from_unitary(p: DiscreteProductSystem, u, rho_images=None,
                                tol: nk.Tolerance = nk.DEFAULT_TOL) -> RightDilation:
    """w_t(x tensor g) = u^t rho(x) g for a unitary u on the represented space H.

    rho_images default to the identity representation on the ambient space. H, a
    correspondence to the scalars, is checked for unitality, a given rho then as a
    *-homomorphism (``endo.require_hom``), recorded as ``_twisted`` records theta:
    every quotient is read off Phi = [rho(x_1)| ... |rho(x_d)], on whose rows w_t is
    u^t. Valid whenever rho(theta(b)) = u* rho(b) u, which bilinearity enforces. The
    iterate system's members share one tensor quotient with H.
    """
    u = nk.as_matrix(u, "u")
    given = rho_images is not None
    rho_images = np.asarray(rho_images, dtype=complex) if given else p.algebra.basis
    h = rho_images.shape[1]
    if u.shape != (h, h):
        raise DimensionMismatch(
            f"unitary has shape {u.shape}, representation acts on dimension {h}")
    scalars = alg.trivial_algebra(1)
    space = corr.Correspondence(p.algebra, scalars, p.commutant_algebra, scalars, rho_images,
                                np.eye(h, dtype=complex)[None], h, tol, check=False)
    corr._check_unital(space, tol)
    if given:
        laws = endo_mod.require_hom(endo_mod.hom_residuals(p.algebra, rho_images), h, tol)
        space._maps = (SimpleNamespace(law_residuals=laws), None)
    powers = {0: np.eye(h, dtype=complex)}
    for t in range(1, p.horizon + 1):
        powers[t] = u @ powers[t - 1]
    return _build(dict(enumerate((member, space) for member in p.members)),
                  lambda tensors: RightDilation(p, space, tensors, powers), "dilation map %d", tol)


class SystemRepresentation:
    """Maps eta_t from the members into operators on a fixed Hilbert space.

    eta respects products across degrees and the degree-zero map recovers
    the B-valued inner products: eta_t(x)* eta_t(y) = eta_0(x* y). Both
    laws are checked on the stacked images of the element bases.
    """

    def __init__(self, system: DiscreteProductSystem, images):
        self.system = system
        self.images = images  # images[t][i] over the element basis of E_t

    def eta_of(self, t: int, x) -> np.ndarray:
        coeff = self.system.members[t].element_coefficients(x)
        return np.tensordot(coeff, self.images[t], axes=(0, 0))

    def validate(self, tol: nk.Tolerance = nk.DEFAULT_TOL) -> dict:
        sysm = self.system
        imgs = self.images
        gram = nk.memo()  # x_k* x_l once per distinct element basis
        worst = {"multiplicative": 0.0, "inner": 0.0}
        for s in range(sysm.horizon + 1):
            for t in range(sysm.horizon + 1 - s):
                # eta_s(x_k) eta_t(y_l) against eta_{s+t}(x_k . y_l)
                lhs = imgs[s][:, None] @ imgs[t][None]
                rhs = np.tensordot(sysm.basis_products(s, t)[0], imgs[s + t],
                                   axes=(1, 0)).reshape(lhs.shape)
                worst["multiplicative"] = nk.worst(worst["multiplicative"],
                                                   nk.worst_norm(lhs - rhs))
        for t in range(sysm.horizon + 1):
            # eta_t(x_k)* eta_t(x_l) against eta_0(x_k* x_l)
            lhs = imgs[t].conj().transpose(0, 2, 1)[:, None] @ imgs[t][None]
            x = sysm.members[t].element_space
            coeffs = sysm.members[0].element_coefficients(gram(corr.inner_products, (x,), x))
            worst["inner"] = nk.worst(worst["inner"], nk.worst_norm(
                lhs - np.tensordot(coeffs, imgs[0], axes=(-1, 0))))
        return nk.require_laws(worst, tol.bound(1.0), ProductSystemLawError,
                               "representation laws violated: {}")


def representation_from_right_dilation(p: DiscreteProductSystem, w: RightDilation,
                                       tol: nk.Tolerance = nk.DEFAULT_TOL) -> SystemRepresentation:
    """eta_t(x) h = w_t(x tensor h), including the commutant relation check.

    Every basis element a' of the commutant of the action on H must satisfy
    theta_w(t, a') eta_t(x) = eta_t(x) a' on the element basis of E_t.
    """
    images = [w.maps[t] @ w.tensors[t].embed_matrix(p.members[t].element_space)
              for t in range(p.horizon + 1)]
    rep = SystemRepresentation(p, images)
    rep.validate(tol)
    h = w.carrier_dim
    comm = np.concatenate([x.reshape(-1, h, h) for x in
                           alg.intertwiners(p.algebra, w.rho_basis, w.rho_basis, tol)])
    worst = nk.worst(*(nk.law_residual(w.theta_w(t, comm), comm, images[t])
                       for t in range(p.horizon + 1)))
    nk.require(worst, tol.bound(1.0), ProductSystemLawError,
               "commutant relation fails for the dilation, residual {:.3e}",
               law="commutant_relation")
    return rep


class BhatSystem:
    """Rank-one compressions of an automorphism of a full matrix algebra.

    Every theta^t(gamma gamma*) is a rank-one projection, so spaces[t] is a
    unit vector q_t spanning its range (an n x 1 column), each product is a
    phase (a 1 x 1 array) and dilations[t] is an n x n unitary.
    """

    def __init__(self, spaces, products, dilations):
        self.spaces = spaces
        self.products = products
        self.dilations = dilations

    @property
    def dims(self) -> list[int]:
        return [q.shape[1] for q in self.spaces]


def bhat_system(theta, gamma, horizon: int,
                tol: nk.Tolerance = nk.DEFAULT_TOL) -> BhatSystem:
    """Lines theta^t(gamma gamma*) C^n with their product phases and dilations.

    Requires the full matrix algebra as domain and a unit vector gamma.
    products[(s, t)] is q_{s+t}* theta^t(q_s gamma*) q_t, the phase by which
    q_s (tensor) q_t is sent to q_{s+t}; dilations[t] has the columns
    theta^t(e_g gamma*) q_t and must recover theta^t as v b v*.
    """
    horizon = nk.as_horizon(horizon)
    b = theta.domain
    n = b.ambient_dim
    if b.dim != n * n:
        raise NotFullAlgebra(f"domain has dimension {b.dim}, the full algebra "
                             f"needs {n * n}")
    gamma = np.asarray(gamma, dtype=complex).reshape(-1)
    if gamma.shape[0] != n:
        raise DimensionMismatch(f"vector length {gamma.shape[0]}, ambient is {n}")
    norm = float(np.linalg.norm(gamma))
    nk.require(abs(norm - 1.0), tol.bound(1.0), NotUnitVector,
               "vector norm {1:.12f} differs from one", norm, law="unit_vector")
    if not endo_mod.is_automorphism(theta, tol):
        raise NotFaithful("the map is not an automorphism")
    theta.validate(tol)
    powers = endo_mod.iterates(theta, horizon)
    pr = np.outer(gamma, gamma.conj())
    spaces = [nk.range_basis(powers[t](pr), tol, ProductSystemLawError,
                             f"iterate {t} of the projection")
              for t in range(horizon + 1)]
    for t, q in enumerate(spaces):
        if q.shape[1] != 1:
            raise ProductSystemLawError(f"iterate {t} of the projection has rank "
                                        f"{q.shape[1]}, not 1")
    products = {}
    for s in range(horizon + 1):
        for t in range(horizon + 1 - s):
            op = powers[t](spaces[s] * gamma.conj())
            u = spaces[s + t].conj().T @ op @ spaces[t]
            nk.require(nk.unitarity_residual(u), tol.bound(1.0), ProductSystemLawError,
                       "compressed product ({1},{2}) not unitary, residual {0:.3e}", s, t,
                       law="unitary")
            products[(s, t)] = u
    _check_associativity(products, horizon, tol)
    units = np.eye(n)[:, :, None] * gamma.conj()  # units[g] = e_g gamma*
    dilations = []
    for t in range(horizon + 1):
        v = (powers[t](units) @ spaces[t])[:, :, 0].T
        nk.require(nk.unitarity_residual(v), tol.bound(1.0), ProductSystemLawError,
                   "dilation map {1} not unitary, residual {0:.3e}", t, law="dilation_unitary")
        dilations.append(v)
        nk.require(nk.worst_norm(v @ b.basis @ v.conj().T - powers[t].basis_images),
                   tol.bound(1.0), ProductSystemLawError,
                   "dilation {1} does not recover the iterate, residual {0:.3e}", t,
                   law="dilation_iterate")
    return BhatSystem(spaces, products, dilations)


def _check_associativity(products, horizon: int, tol: nk.Tolerance) -> None:
    """|P(r+s,t) P(r,s) - P(r,s+t) P(s,t)| over every triple r+s+t <= horizon,
    for the 1 x 1 products P of the compression system."""
    p = {key: u[0, 0] for key, u in products.items()}
    for r in range(horizon + 1):
        for s in range(horizon + 1 - r):
            for t in range(horizon + 1 - r - s):
                nk.require(float(abs(p[(r + s, t)] * p[(r, s)] - p[(r, s + t)] * p[(s, t)])),
                           tol.bound(1.0), ProductSystemLawError, "compressed products not "
                           "associative at ({1},{2},{3}), residual {0:.3e}", r, s, t,
                           law="associative")


def _frame_isometry(b: alg.VnAlgebra, rho_b, tol: nk.Tolerance) -> np.ndarray:
    """xi = sum_i sqrt(a_i) sum_{p < m_i} x^i_pp = sum_ik rho_H(e^i_k1)
    R_i[:, :m_i] T_ik* over the intertwiners x^i_pq from b to rho_H (images
    rho_b), ``algebra.intertwiners``. A rank below m_i raises NoUnitVector
    with the m_i required and the ranks available."""
    sig = alg.block_decompose(b, tol)
    parts = alg.intertwiners(b, rho_b, None, tol)
    required, available = [m for _, m in sig.blocks], [len(x) for x in parts]
    if any(have < need for have, need in zip(available, required)):
        raise NoUnitVector("the action on H has too few copies of a summand",
                           required=required, available=available)
    return sum(np.sqrt(a_i) * np.trace(x[:m, :m], axis1=0, axis2=1)
               for x, (a_i, m) in zip(parts, sig.blocks))


class CommutantViaDilation:
    """Commutant system realized inside a right dilation, with the comparison.

    system is the operator-commutant system. Through the comparison maps
    upsilon_t = eta_t(1) xi it is the dilation-side system, where x in F_s
    acts on F_t by upsilon_{s+t}* theta_w(t, upsilon_s x xi*) upsilon_t: the
    upsilon_t are isometries, so that action differs from the operator
    product x y by at most the compatibility residual that
    ``commutant_via_dilation`` bounds. Member t is the commutant of member t
    of the original system (left action the basis of B', right commutant
    action the images of theta^t); nu[t] is its element basis.
    """

    def __init__(self, system, upsilon, xi):
        self.system = system
        self.upsilon = upsilon
        self.xi = xi

    @property
    def nu(self) -> list:
        return [m.element_space for m in self.system.members]


def commutant_via_dilation(p: DiscreteProductSystem, w: RightDilation,
                           tol: nk.Tolerance = nk.DEFAULT_TOL) -> CommutantViaDilation:
    """The commutant system, checked against the dilation space.

    ``commutant_system`` runs first, with its source checks. Reads off the
    block frame of the algebra an isometry xi from the ambient space into H
    intertwining the identity representation with the action on H, and
    checks both properties. The comparison maps upsilon_t = eta_t(1) xi are
    verified to be isometries onto the ranges of theta_w(t, xi xi*), to
    intertwine both actions, and to be compatible with the operator products
    of the commutant system. These checks say that the system on the
    dilation space is the commutant system in the coordinates of the
    upsilon_t up to the compatibility residual, so it is not built again.
    """
    fsys = commutant_system(p, tol)
    b = p.algebra
    bp = p.commutant_algebra
    n = b.ambient_dim
    rho_b = w.rho_basis
    xi = _frame_isometry(b, rho_b, tol)
    nk.require(nk.unitarity_residual(xi), tol.bound(np.sqrt(n)), NotUnitVector,
               "xi is not an isometry, residual {:.3e}", law="xi_isometry")
    nk.require(nk.worst_norm(rho_b @ xi - xi @ b.basis), tol.bound(1.0), NotUnitVector,
               "xi does not intertwine, residual {:.3e}", law="xi_intertwining")

    rep = representation_from_right_dilation(p, w, tol)
    eye = np.eye(n, dtype=complex)
    upsilon = [rep.eta_of(t, eye) @ xi for t in range(p.horizon + 1)]
    proj = xi @ xi.conj().T
    for t, up in enumerate(upsilon):
        res = nk.worst(nk.unitarity_residual(up), float(np.linalg.norm(
            up @ up.conj().T - w.theta_w(t, proj))))
        nk.require(res, tol.bound(np.sqrt(n)), ProductSystemLawError,
                   "comparison map {1} is not unitary onto theta_w({1}, xi xi*), "
                   "residual {0:.3e}", t, law="comparison_carrier")
    # theta_w(t, xi b' xi*) for every basis element b' of B', per t
    lifted = [w.theta_w(t, xi @ bp.basis @ xi.conj().T) for t in range(p.horizon + 1)]
    worst_b = nk.worst(*(nk.worst_norm(rho_b @ up - up @ p.members[t].rho)
                         for t, up in enumerate(upsilon)))
    worst_bp = nk.worst(*(nk.worst_norm(lifted[t] @ up - up @ bp.basis)
                          for t, up in enumerate(upsilon)))
    nk.require(nk.worst(worst_b, worst_bp), tol.bound(1.0), ProductSystemLawError,
               "comparison maps fail to intertwine, residuals {1:.3e} and {2:.3e}",
               worst_b, worst_bp, law="comparison_intertwining")

    # (upsilon_{s+t} x - theta_w(t, upsilon_s x xi*) upsilon_t) y over the
    # element bases, x y being the product of x in F_s and y in F_t
    spaces, compatible = [m.element_space for m in fsys.members], [0.0]
    for s, xs in enumerate(spaces):
        for t in range(p.horizon + 1 - s):
            diff = upsilon[s + t] @ xs - w.theta_w(t, upsilon[s] @ xs @ xi.conj().T) @ upsilon[t]
            compatible.append(nk.worst_norm(diff[:, None] @ spaces[t][None]))
    nk.require(nk.worst(*compatible), tol.bound(1.0), ProductSystemLawError,
               "comparison maps are not product compatible, residual {:.3e}",
               law="product_compatible")
    return CommutantViaDilation(fsys, upsilon, xi)
