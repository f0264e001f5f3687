"""Discrete product systems of correspondences over {0, ..., N}.

Members E_t carry bilinear unitary product maps from the interior tensor
product of E_s and E_t onto E_{s+t}. The main sources are iterates of a
single endomorphism, the commutant construction (elements multiply as
operators, with the factor order reversed relative to the original system),
the rank-one compression of an automorphism of a full matrix algebra, and
the commutant-through-dilation pipeline.

All product maps act on quotient tensor carriers; element-level products
x . y are recovered through the embeddings, and every law is verified on
spanning families of simple tensors, as a few matrix products over the
stacked element bases (one loop level per degree, none per element).
"""

from __future__ import annotations

import numpy as np

from . import algebra as alg
from . import correspondence as corr
from . import endo as endo_mod
from . import numkernel as nk
from .errors import (DimensionMismatch, NoUnitVector, NotFaithful,
                     NotFullAlgebra, NotUnitVector, ProductSystemLawError)

class DiscreteProductSystem:
    """Members E_0..E_N with product unitaries on the tensor carriers.

    products[(s, t)] maps the carrier of tensor(E_s, E_t) onto the carrier
    of E_{s+t}; tensors[(s, t)] holds the corresponding quotient structure.
    E_0 is the identity correspondence of the underlying algebra and the
    maps with a zero index reduce to the module actions.
    """

    def __init__(self, algebra, members, tensors, products, source=None):
        self.algebra = algebra
        self.commutant_algebra = members[0].right_commutant
        self.members = list(members)
        self.tensors = dict(tensors)
        self.products = dict(products)
        self.horizon = len(self.members) - 1
        self.source = source
        self.residuals: dict = {}  # what validate returned at construction
        self._stacks: dict = {}
        self._basis_prods: dict = {}

    def action_stack(self, s: int, t: int) -> np.ndarray:
        """prod_matrix of every element basis vector of E_s, stacked.

        Shape (carrier of E_{s+t}, element dimension of E_s, carrier of
        E_t); slice [:, k, :] is the action of the k-th basis element.
        """
        key = (s, t)
        if key not in self._stacks:
            self._stacks[key] = np.tensordot(
                self.products[key], self.tensors[key]._phi3, axes=(1, 0))
        return self._stacks[key]

    def prod_matrix(self, s: int, t: int, x) -> np.ndarray:
        """Matrix of h -> (x . h) from the carrier of E_t to that of E_{s+t};
        a stack of elements gives the stack of their matrices."""
        coeffs = self.members[s].element_coefficients(x)
        return np.tensordot(coeffs, self.action_stack(s, t), axes=(-1, 1))

    def basis_products(self, s: int, t: int) -> tuple[np.ndarray, float]:
        """Coefficients of every product x_k . y_l of element basis vectors
        (x_k of E_s, y_l of E_t) in the element basis of E_{s+t}, row
        k * d_t + l, and the worst distance of those products from that span
        (the product closure law). Computed once per pair.
        """
        key = (s, t)
        if key not in self._basis_prods:
            stack = self.action_stack(s, t)
            ys = self.members[t].element_space
            basis = self.members[s + t].element_space
            h, ds, ht = stack.shape
            dt, n = ys.shape[0], ys.shape[2]
            prods = (stack.transpose(1, 0, 2).reshape(ds * h, ht)
                     @ ys.transpose(1, 0, 2).reshape(ht, dt * n)).reshape(
                ds, h, dt, n).transpose(0, 2, 1, 3).reshape(ds * dt, h * n)
            flat = basis.reshape(basis.shape[0], h * n)
            coeffs = prods @ flat.conj().T
            closure = nk.worst_norm((prods - coeffs @ flat).reshape(ds * dt, h, n))
            self._basis_prods[key] = (coeffs, closure)
        return self._basis_prods[key]

    def multiply(self, s: int, t: int, x, y) -> np.ndarray:
        """Product of an element of E_s with an element of E_t."""
        return self.prod_matrix(s, t, x) @ np.asarray(y, dtype=complex)

    def validate(self, tol: nk.Tolerance = nk.DEFAULT_TOL) -> dict:
        """Check the whole law book; returns worst residuals, raises on failure."""
        worst = dict.fromkeys(("unit_member", "unitary", "bilinear", "left_marginal",
                               "right_marginal", "associative", "product_closure"), 0.0)
        e0 = self.members[0]
        worst["unit_member"] = nk.worst(
            float(np.linalg.norm(e0.rho - self.algebra.basis)),
            float(np.linalg.norm(e0.rho_prime - self.commutant_algebra.basis)))
        for (s, t), u in self.products.items():
            tp = self.tensors[(s, t)]
            target = self.members[s + t]
            if u.shape != (target.carrier_dim, tp.carrier_dim):
                raise ProductSystemLawError(
                    f"product ({s},{t}) has shape {u.shape}")
            res, bil = _map_laws(u, (tp.corr.rho, target.rho),
                                 (tp.corr.rho_prime, target.rho_prime))
            worst["unitary"] = nk.worst(worst["unitary"], res)
            worst["bilinear"] = nk.worst(worst["bilinear"], bil)
            worst["product_closure"] = nk.worst(worst["product_closure"],
                                                self.basis_products(s, t)[1])
        x0 = e0.element_space
        for t, member in enumerate(self.members):
            worst["left_marginal"] = nk.worst(worst["left_marginal"], nk.worst_norm(
                self.prod_matrix(0, t, x0) - member.rho_of(x0)))
            worst["right_marginal"] = nk.worst(worst["right_marginal"], nk.worst_norm(
                self.prod_matrix(t, 0, member.element_space) - member.element_space))
        for r in range(self.horizon + 1):
            for s in range(self.horizon + 1 - r):
                for t in range(self.horizon + 1 - r - s):
                    worst["associative"] = nk.worst(
                        worst["associative"], self.associativity_residual(r, s, t))
        return nk.require_laws(worst, tol.bound(1.0), ProductSystemLawError,
                               "product system laws violated: {}")

    def associativity_residual(self, r: int, s: int, t: int) -> float:
        """Worst deviation of (x y) z from x (y z) over all pairs of element
        basis vectors x of E_r and y of E_s.

        Evaluated against the full carrier of E_t, which spans the triple
        tensor; equality on these simple tensors is equality of the two
        composite product maps.
        """
        coeffs = self.basis_products(r, s)[0]
        inner = self.action_stack(r + s, t)
        outer_x = self.action_stack(r, s + t)
        outer_y = self.action_stack(s, t)
        h, dm, ht = inner.shape
        dr, (hm, ds, _) = outer_x.shape[1], outer_y.shape
        lhs = coeffs @ inner.transpose(1, 0, 2).reshape(dm, h * ht)
        rhs = (outer_x.transpose(1, 0, 2).reshape(dr * h, hm)
               @ outer_y.reshape(hm, ds * ht)).reshape(dr, h, ds, ht).transpose(0, 2, 1, 3)
        return nk.worst_norm(lhs.reshape(dr, ds, h, ht) - rhs)


def _map_laws(u, *pairs) -> tuple[float, float]:
    """Unitarity residual of a map u between carriers (at least 1.0 for a
    non-square u) and its bilinearity residual: the worst |u a - b u| over
    each pair (a, b) of stacked images of one basis on source and target."""
    res = nk.unitarity_residual(u)
    if u.shape[0] != u.shape[1]:
        res = nk.worst(res, 1.0)
    return res, nk.worst(*(nk.worst_norm(u @ a - b @ u) for a, b in pairs))


def _factor(tp, images, tol: nk.Tolerance, what: str) -> np.ndarray:
    """The map u with u phi = target, target the element-level action on
    simple tensors: images[k] is the action of the k-th element basis vector
    of the left factor. The action must factor through the tensor quotient.
    """
    target = np.concatenate(images, axis=1)
    u = target @ tp.phi_pinv
    nk.require(float(np.linalg.norm(u @ tp.phi - target)),
               tol.bound(float(np.linalg.norm(target))), ProductSystemLawError,
               "{1} does not factor through the tensor quotient, residual {0:.3e}",
               what)
    return u


def _tensor_builder(tol: nk.Tolerance):
    """TensorProduct constructor for one build that computes each tensor
    quotient once.

    The Gram matrix of tensor(e, f) depends only on the element basis of e
    and on the left algebra and action of f (``corr.tensor_quotient``), so
    index pairs that share those arrays share one quotient. The memo is
    keyed by their identities and holds the arrays themselves, so no id is
    reused while it lives; it lives for one build, which has one tolerance.
    """
    memo = {}

    def tensor(e, f):
        x = e.element_space
        key = (id(x), id(f.left), id(f.rho))
        if key not in memo:
            memo[key] = (x, f.left, f.rho, corr.tensor_quotient(x, f, tol))
        return corr.TensorProduct(e, f, tol, quotient=memo[key][-1])
    return tensor


def _build_system(algebra, members, action_matrix, source=None,
                  tol: nk.Tolerance = nk.DEFAULT_TOL) -> DiscreteProductSystem:
    """Assemble and validate tensors and product unitaries from an
    element-level action.

    action_matrix(s, t, xs) takes the stacked element basis xs of E_s and
    returns, per slice x, the matrix of h -> (x . h) from the carrier of E_t
    to the carrier of E_{s+t}.

    Each distinct (element basis of E_s, left action of E_t) gets one tensor
    quotient. For the iterate system E_t = {}_{theta^t}B every member has the
    element space B and the Gram matrix of E_s (tensor) E_t is
    theta^t(x_i* x_k), so all pairs with the same t share a quotient; for the
    commutant system every member has the left action of B' on itself and
    the pairs with the same s share one.
    """
    n = len(members) - 1
    tensor = _tensor_builder(tol)
    tensors = {}
    products = {}
    for s in range(n + 1):
        for t in range(n + 1 - s):
            tp = tensors[(s, t)] = tensor(members[s], members[t])
            products[(s, t)] = _factor(tp, action_matrix(s, t, members[s].element_space),
                                       tol, f"product ({s},{t})")
    system = DiscreteProductSystem(algebra, members, tensors, products, source=source)
    system.residuals = system.validate(tol)
    return system


def from_endomorphism(theta, horizon: int,
                      tol: nk.Tolerance = nk.DEFAULT_TOL) -> DiscreteProductSystem:
    """Product system of the iterates of a unital endomorphism.

    E_t is the algebra with left action twisted by the t-th iterate; the
    product sends x (tensor) y to theta^t(x) y.
    """
    if horizon < 1:
        raise DimensionMismatch(f"horizon must be at least 1, got {horizon}")
    b = theta.domain
    bp = alg.commutant(b, tol)
    endo_mod.make(b, theta.basis_images, tol)
    powers = endo_mod.iterates(theta, horizon)
    members = [corr.of_endomorphism(p, right_commutant=bp, tol=tol) for p in powers]
    # every member has the right commutant bp acting as itself, so they
    # all have one element space: the span of B
    for member in members[1:]:
        member.element_space = members[0].element_space

    def action(s, t, xs):
        return corr.rep_apply(b, powers[t].basis_images, xs)

    return _build_system(b, members, action, source=theta, tol=tol)


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
    return _build_system(p.commutant_algebra, members, lambda s, t, xs: xs, tol=tol)


def commutant_order_residual(p: DiscreteProductSystem, pc: DiscreteProductSystem,
                             s: int, t: int,
                             tol: nk.Tolerance = nk.DEFAULT_TOL) -> float:
    """Deviation of the commutant product from the swapped original product.

    Composing the canonical carrier identification of tensor(F_t, F_s) with
    tensor(E_s, E_t) against the product of the original system must give
    the commutant product for the index pair (t, s).
    """
    w = corr.tensor_commutant_iso(pc.members[t], pc.members[s], tol,
                                  tp=pc.tensors[(t, s)], tp_swapped=p.tensors[(s, t)])
    return float(np.linalg.norm(p.products[(s, t)] @ w - pc.products[(t, s)]))


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
        rho_b = self.rho_of(self.system.algebra.basis)
        for t in range(self.system.horizon + 1):
            res, bil = _map_laws(self.maps[t], (self.tensors[t].corr.rho, rho_b))
            worst["unitary"] = nk.worst(worst["unitary"], res)
            worst["bilinear"] = nk.worst(worst["bilinear"], bil)
        x0 = self.system.members[0].element_space
        worst["unit_map"] = nk.worst_norm(
            self.maps[0] @ self.tensors[0].embed_matrix(x0) - self.rho_of(x0))
        return nk.require_laws(worst, tol.bound(1.0), ProductSystemLawError,
                               "right dilation laws violated: {}")


def make_right_dilation(p: DiscreteProductSystem, rho_images, action_matrix,
                        tol: nk.Tolerance = nk.DEFAULT_TOL) -> RightDilation:
    """Right dilation from an element-level action on a represented space.

    rho_images are the basis images of a faithful unital representation of
    the system algebra on H; action_matrix(t, xs) takes the stacked element
    basis xs of E_t and returns, per slice x, the matrix of
    h -> w_t(x tensor h) on H. H enters as a correspondence from the system
    algebra to the scalars. Members with one element space share one tensor
    quotient with H: for the iterate system, one for every t.
    """
    rho_images = np.asarray(rho_images, dtype=complex)
    h = rho_images.shape[1]
    scalars = alg.trivial_algebra(1)
    space = corr.Correspondence(
        left=p.algebra, right=scalars, left_commutant=p.commutant_algebra,
        right_commutant=scalars, rho=rho_images,
        rho_prime=np.eye(h, dtype=complex)[None, :, :], carrier_dim=h, tol=tol)
    tensor = _tensor_builder(tol)
    tensors = {}
    maps = {}
    for t in range(p.horizon + 1):
        tp = tensors[t] = tensor(p.members[t], space)
        maps[t] = _factor(tp, action_matrix(t, p.members[t].element_space), tol,
                          f"dilation map {t}")
    dilation = RightDilation(p, space, tensors, maps)
    dilation.residuals = dilation.validate(tol)
    return dilation


def right_dilation_from_unitary(p: DiscreteProductSystem, u, rho_images=None,
                                tol: nk.Tolerance = nk.DEFAULT_TOL) -> RightDilation:
    """w_t(x tensor g) = u^t rho(x) g for a unitary u on the represented space.

    rho_images defaults to the identity representation on the ambient space.
    Valid whenever rho(theta(b)) = u* rho(b) u for the generating map theta;
    the bilinearity check of the dilation enforces exactly that relation.
    """
    u = nk.as_matrix(u, "u")
    rho_images = p.algebra.basis if rho_images is None else \
        np.asarray(rho_images, dtype=complex)
    if u.shape[0] != rho_images.shape[1]:
        raise DimensionMismatch(
            f"unitary acts on dimension {u.shape[0]}, representation on "
            f"{rho_images.shape[1]}")
    powers = [np.eye(u.shape[0], dtype=complex)]
    for _ in range(p.horizon):
        powers.append(u @ powers[-1])

    def action(t, xs):
        return powers[t] @ corr.rep_apply(p.algebra, rho_images, xs)

    return make_right_dilation(p, rho_images, action, tol=tol)


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
            coeffs = sysm.members[0].element_coefficients(
                corr.inner_products(sysm.members[t].element_space))
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
    action = w.rho_of(p.algebra.basis)
    comm = nk.intertwiners(action, action, (h, h), tol)
    worst = nk.worst(*(nk.law_residual(w.theta_w(t, comm), comm, images[t])
                       for t in range(p.horizon + 1)))
    nk.require(worst, tol.bound(1.0), ProductSystemLawError,
               "commutant relation fails for the dilation, residual {:.3e}")
    return rep


class BhatSystem:
    """Rank-one compressions of an automorphism of a full matrix algebra.

    spaces[t] holds an orthonormal basis of the range of the t-th iterate
    applied to the chosen rank-one projection; the product and dilation
    maps act on honest Hilbert-space tensor products, so associativity is a
    plain Kronecker identity here.
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
    """Spaces theta^t(gamma gamma*) G with their product and dilation maps.

    Requires the full matrix algebra as domain and a unit vector gamma.
    products[(s, t)] sends g_s (tensor) h_t to theta^t(g_s gamma*) h_t;
    dilations[t] does the same with g from the whole ambient space and is
    unitary, which forces every compressed space to be one dimensional.
    """
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
               "vector norm {1:.12f} differs from one", norm)
    if not endo_mod.is_automorphism(theta, tol):
        raise NotFaithful("the map is not an automorphism")
    endo_mod.make(b, theta.basis_images, tol)
    powers = endo_mod.iterates(theta, max(horizon, 0))
    pr = np.outer(gamma, gamma.conj())
    spaces = [nk.range_basis(powers[t](pr), tol, ProductSystemLawError,
                             f"iterate {t} of the projection")
              for t in range(horizon + 1)]
    products = {}
    for s in range(horizon + 1):
        for t in range(horizon + 1 - s):
            # columns theta^t(g_a gamma*) h over the basis g_a of space s
            ops = corr.rep_apply(b, powers[t].basis_images,
                                 spaces[s].T[:, :, None] * gamma.conj())
            u = np.concatenate(spaces[s + t].conj().T @ ops @ spaces[t], axis=1)
            res = nk.unitarity_residual(u)
            nk.require(res if u.shape[0] == u.shape[1] else np.inf, tol.bound(1.0),
                       ProductSystemLawError,
                       "compressed product ({2},{3}) not unitary, residual {1:.3e}",
                       res, s, t)
            products[(s, t)] = u
    for r in range(horizon + 1):
        for s in range(horizon + 1 - r):
            for t in range(horizon + 1 - r - s):
                dr, dt = spaces[r].shape[1], spaces[t].shape[1]
                lhs = products[(r + s, t)] @ np.kron(products[(r, s)], np.eye(dt))
                rhs = products[(r, s + t)] @ np.kron(np.eye(dr), products[(s, t)])
                nk.require(float(np.linalg.norm(lhs - rhs)), tol.bound(1.0),
                           ProductSystemLawError, "compressed products not "
                           "associative at ({1},{2},{3}), residual {0:.3e}", r, s, t)
    units = np.eye(n)[:, :, None] * gamma.conj()  # units[g] = e_g gamma*
    dilations = []
    for t in range(horizon + 1):
        v = np.concatenate(corr.rep_apply(b, powers[t].basis_images, units) @ spaces[t],
                           axis=1)
        res = nk.unitarity_residual(v)
        nk.require(res if v.shape[0] == v.shape[1] else np.inf, tol.bound(1.0),
                   ProductSystemLawError, "dilation map {2} not unitary, residual {1:.3e}",
                   res, t)
        dilations.append(v)
        lifted = v @ np.kron(b.basis, np.eye(spaces[t].shape[1])) @ v.conj().T
        nk.require(nk.worst_norm(lifted - powers[t].basis_images), tol.bound(1.0),
                   ProductSystemLawError,
                   "dilation {1} does not recover the iterate, residual {0:.3e}", t)
    return BhatSystem(spaces, products, dilations)


def _frame_isometry(b: alg.VnAlgebra, w: RightDilation, tol: nk.Tolerance) -> np.ndarray:
    """xi = sum_ik rho_H(e^i_k1) R_i[:, :m_i] T_ik* over the block frame
    (T_ik, e^i_k1) of b, R_i a basis of the range of rho_H(e^i_11); a rank
    below m_i raises NoUnitVector with the m_i required and ranks available.
    """
    sig = alg.block_decompose(b, tol)
    units = [w.rho_of(sig.matrix_units(i)) for i in range(len(sig.blocks))]
    ranges = [nk.range_basis(e[0], tol, ProductSystemLawError, f"rho_H(e^{i}_11)")
              for i, e in enumerate(units)]
    required, available = [m for _, m in sig.blocks], [r.shape[1] for r in ranges]
    if any(have < need for have, need in zip(available, required)):
        raise NoUnitVector("the action on H has too few copies of a summand",
                           required=required, available=available)
    return sum((e @ r[:, :m] @ t.conj().transpose(0, 2, 1)).sum(axis=0)
               for e, r, t, (_, m) in zip(units, ranges, sig.units, sig.blocks))


class CommutantViaDilation:
    """Commutant system realized inside a right dilation, with the comparison.

    system is the dilation-side product system; nu[t] holds the images of the
    element basis of the t-th member of the operator-commutant system (the
    commutant correspondence of the t-th member of the original system), in
    the coordinates of the dilation-side member.
    """

    def __init__(self, system, nu, upsilon, xi):
        self.system = system
        self.nu = nu
        self.upsilon = upsilon
        self.xi = xi


def commutant_via_dilation(p: DiscreteProductSystem, w: RightDilation,
                           xi=None, tol: nk.Tolerance = nk.DEFAULT_TOL) -> CommutantViaDilation:
    """Build the commutant system on the dilation space and compare it.

    Needs an isometry xi from the ambient space into H intertwining the
    identity representation with the action on H; by default it is read off
    the block frame of the algebra. The member carriers are the ranges of
    theta_w(t, xi xi*); the comparison maps nu_t(x') = eta_t(1) xi x' are
    verified to be unitary, to intertwine both actions, and to be compatible
    with the products of the operator-commutant system, whose elements
    multiply as operators; that system itself is not built.
    """
    if p.source is None:
        raise NotFaithful("the pipeline needs the generating endomorphism")
    if not endo_mod.is_faithful(p.source, tol):
        raise NotFaithful("generating endomorphism is not faithful")
    b = p.algebra
    bp = p.commutant_algebra
    n = b.ambient_dim
    if xi is None:
        xi = _frame_isometry(b, w, tol)
    xi = nk.as_matrix(xi, "xi")
    nk.require(nk.unitarity_residual(xi), tol.bound(np.sqrt(n)), NotUnitVector,
               "xi is not an isometry, residual {:.3e}")
    rho_b = w.rho_of(b.basis)
    nk.require(nk.worst_norm(rho_b @ xi - xi @ b.basis), tol.bound(1.0), NotUnitVector,
               "xi does not intertwine, residual {:.3e}")

    rep = representation_from_right_dilation(p, w, tol)
    eye = np.eye(n, dtype=complex)
    upsilon = [rep.eta_of(t, eye) @ xi for t in range(p.horizon + 1)]
    proj = xi @ xi.conj().T
    bases = []
    for t in range(p.horizon + 1):
        if t == 0:
            bases.append(xi)
            continue
        q = nk.range_basis(w.theta_w(t, proj), tol, ProductSystemLawError,
                           f"theta_w({t}) of xi xi*")
        if q.shape[1] != n:
            raise ProductSystemLawError(
                f"member {t} carrier has dimension {q.shape[1]}, expected {n}")
        bases.append(q)
    for t, (q, up) in enumerate(zip(bases, upsilon)):
        res = nk.worst(nk.unitarity_residual(up),
                       float(np.linalg.norm(q @ (q.conj().T @ up) - up)))
        nk.require(res, tol.bound(np.sqrt(n)), ProductSystemLawError,
                   "comparison map {1} is not unitary onto its member, residual {0:.3e}", t)
    # theta_w(t, xi b' xi*) for every basis element b' of B', per t
    lifted = [w.theta_w(t, xi @ bp.basis @ xi.conj().T) for t in range(p.horizon + 1)]
    worst_b = nk.worst(*(nk.worst_norm(rho_b @ up - up @ p.members[t].rho)
                         for t, up in enumerate(upsilon)))
    worst_bp = nk.worst(*(nk.worst_norm(lifted[t] @ up - up @ bp.basis)
                          for t, up in enumerate(upsilon)))
    nk.require(nk.worst(worst_b, worst_bp), tol.bound(1.0), ProductSystemLawError,
               "comparison maps fail to intertwine, residuals {1:.3e} and {2:.3e}",
               worst_b, worst_bp)

    members = [corr.Correspondence(
        left=bp, right=bp, left_commutant=b, right_commutant=b,
        rho=q.conj().T @ lifted[t] @ q, rho_prime=q.conj().T @ rho_b @ q,
        carrier_dim=q.shape[1], tol=tol) for t, q in enumerate(bases)]

    def action(s, t, xs):
        op = w.theta_w(t, bases[s] @ xs @ xi.conj().T)
        return bases[s + t].conj().T @ op @ bases[t]

    fsys = _build_system(bp, members, action, tol=tol)

    elts = [corr.commutant(e).element_space for e in p.members]
    nu = [bases[t].conj().T @ upsilon[t] @ elts[t] for t in range(p.horizon + 1)]
    worst_prod = 0.0
    for s in range(p.horizon + 1):
        for t in range(p.horizon + 1 - s):
            # (upsilon_{s+t} x - theta_w(t, upsilon_s x xi*) upsilon_t) y, where
            # x y is the product of x in F_s and y in F_t
            moved = w.theta_w(t, upsilon[s] @ elts[s] @ xi.conj().T)
            diff = upsilon[s + t] @ elts[s] - moved @ upsilon[t]
            worst_prod = nk.worst(worst_prod, nk.worst_norm(diff[:, None] @ elts[t][None]))
    nk.require(worst_prod, tol.bound(1.0), ProductSystemLawError,
               "comparison maps are not product compatible, residual {:.3e}")
    return CommutantViaDilation(fsys, nu, upsilon, xi)
