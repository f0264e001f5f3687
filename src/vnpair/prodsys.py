"""Discrete product systems of correspondences over {0, ..., N}.

Members E_t carry bilinear unitary product maps from the interior tensor
product of E_s and E_t onto E_{s+t}. The main sources are iterates of a
single endomorphism, the commutant construction (elements multiply as
operators, with the factor order reversed relative to the original system),
the rank-one compression of an automorphism of a full matrix algebra, and
the commutant-through-dilation pipeline.

All product maps act on quotient tensor carriers; element-level products
x . y are recovered through the embeddings, and every law is verified on
spanning families of simple tensors.
"""

from __future__ import annotations

import numpy as np

from . import algebra as alg
from . import correspondence as corr
from . import endo as endo_mod
from . import numkernel as nk
from .errors import (DimensionMismatch, NoUnitVector, NotFaithful,
                     NotFullAlgebra, NotUnitVector, ProductSystemLawError,
                     SingularInput)

MAX_VECTOR_RETRIES = 8


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
        self._stacks: dict = {}

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
        """Matrix of h -> (x . h) from the carrier of E_t to that of E_{s+t}."""
        coeffs = self.members[s].element_coefficients(x)
        return np.tensordot(coeffs, self.action_stack(s, t), axes=(0, 1))

    def multiply(self, s: int, t: int, x, y) -> np.ndarray:
        """Product of an element of E_s with an element of E_t."""
        return self.prod_matrix(s, t, x) @ np.asarray(y, dtype=complex)

    def validate(self, tol: nk.Tolerance = nk.DEFAULT_TOL) -> dict:
        """Check the whole law book; returns worst residuals, raises on failure."""
        worst = {"unit_member": 0.0, "unitary": 0.0, "bilinear": 0.0,
                 "left_marginal": 0.0, "right_marginal": 0.0,
                 "associative": 0.0, "product_closure": 0.0}
        e0 = self.members[0]
        worst["unit_member"] = max(
            float(np.linalg.norm(e0.rho - self.algebra.basis)),
            float(np.linalg.norm(e0.rho_prime - self.commutant_algebra.basis)))
        for (s, t), u in self.products.items():
            tp = self.tensors[(s, t)]
            target = self.members[s + t]
            if u.shape != (target.carrier_dim, tp.carrier_dim):
                raise ProductSystemLawError(
                    f"product ({s},{t}) has shape {u.shape}")
            gram = u.conj().T @ u
            res = float(np.linalg.norm(gram - np.eye(tp.carrier_dim)))
            if u.shape[0] != u.shape[1]:
                res = max(res, 1.0)
            worst["unitary"] = max(worst["unitary"], res)
            for img_t, img_m in zip(tp.corr.rho, target.rho):
                worst["bilinear"] = max(worst["bilinear"], float(
                    np.linalg.norm(u @ img_t - img_m @ u)))
            for img_t, img_m in zip(tp.corr.rho_prime, target.rho_prime):
                worst["bilinear"] = max(worst["bilinear"], float(
                    np.linalg.norm(u @ img_t - img_m @ u)))
        for t in range(self.horizon + 1):
            member = self.members[t]
            for x in self.members[0].element_space:
                res = float(np.linalg.norm(
                    self.prod_matrix(0, t, x) - member.rho_of(x)))
                worst["left_marginal"] = max(worst["left_marginal"], res)
            for x in member.element_space:
                res = float(np.linalg.norm(self.prod_matrix(t, 0, x) - x))
                worst["right_marginal"] = max(worst["right_marginal"], res)
        for r in range(self.horizon + 1):
            for s in range(self.horizon + 1 - r):
                for t in range(self.horizon + 1 - r - s):
                    worst["associative"] = max(
                        worst["associative"], self.associativity_residual(r, s, t))
        for (s, t) in self.products:
            basis = self.members[s + t].element_space
            flat = basis.reshape(basis.shape[0], -1)
            ys = self.members[t].element_space
            stack = self.action_stack(s, t)
            for k in range(stack.shape[1]):
                prods = np.einsum("ac,lcn->lan", stack[:, k, :], ys)
                rows = prods.reshape(prods.shape[0], -1)
                recon = (rows @ flat.conj().T) @ flat
                res = np.linalg.norm(rows - recon, axis=1)
                if res.size:
                    worst["product_closure"] = max(
                        worst["product_closure"], float(res.max()))
        bad = {k: v for k, v in worst.items() if v > tol.bound(1.0)}
        if bad:
            raise ProductSystemLawError(f"product system laws violated: {bad}")
        return worst

    def associativity_residual(self, r: int, s: int, t: int) -> float:
        """Worst deviation of (x y) z from x (y z) on element basis pairs.

        Evaluated against the full carrier of E_t, which spans the triple
        tensor; equality on these simple tensors is equality of the two
        composite product maps.
        """
        ys = self.members[s].element_space
        basis = self.members[r + s].element_space
        flat = basis.reshape(basis.shape[0], -1)
        first = self.action_stack(r, s)
        inner = self.action_stack(r + s, t)
        outer_x = self.action_stack(r, s + t)
        outer_y = self.action_stack(s, t)
        worst = 0.0
        for k in range(first.shape[1]):
            prods = np.einsum("ac,lcn->lan", first[:, k, :], ys)
            coeffs = prods.reshape(prods.shape[0], -1) @ flat.conj().T
            lhs = np.tensordot(coeffs, inner, axes=(1, 1))
            rhs = np.einsum("ac,clb->lab", outer_x[:, k, :], outer_y)
            res = np.linalg.norm((lhs - rhs).reshape(lhs.shape[0], -1), axis=1)
            if res.size:
                worst = max(worst, float(res.max()))
        return worst


def _build_system(algebra, members, action_matrix, source=None,
                  tol: nk.Tolerance = nk.DEFAULT_TOL,
                  check: bool = True) -> DiscreteProductSystem:
    """Assemble tensors and product unitaries from an element-level action.

    action_matrix(s, t, x) maps the carrier of E_t to the carrier of
    E_{s+t} and represents h -> (x . h) for an element x of E_s.
    """
    n = len(members) - 1
    tensors = {}
    products = {}
    for s in range(n + 1):
        for t in range(n + 1 - s):
            tp = corr.tensor_product(members[s], members[t], tol)
            cols = [action_matrix(s, t, x) for x in members[s].element_space]
            target = np.concatenate(cols, axis=1) if cols else \
                np.zeros((members[s + t].carrier_dim, 0), dtype=complex)
            u = target @ tp.phi_pinv
            res = float(np.linalg.norm(u @ tp.phi - target))
            if res > tol.bound(float(np.linalg.norm(target))):
                raise ProductSystemLawError(
                    f"product ({s},{t}) does not factor through the tensor "
                    f"quotient, residual {res:.3e}")
            tensors[(s, t)] = tp
            products[(s, t)] = u
    system = DiscreteProductSystem(algebra, members, tensors, products, source=source)
    if check:
        system.validate(tol)
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

    def action(s, t, x):
        return powers[t](x)

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

    def action(s, t, x):
        return np.asarray(x, dtype=complex)

    return _build_system(p.commutant_algebra, members, action, tol=tol)


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


class LeftDilation:
    """The maps x (tensor) y_t -> theta^t(x) y_t on the tensor carriers.

    For systems built from an endomorphism these coincide with the products
    with left index zero; recovery conjugates the lifted left action back
    and must reproduce the iterate.
    """

    def __init__(self, system: DiscreteProductSystem):
        self.system = system
        self.maps = {t: system.products[(0, t)] for t in range(system.horizon + 1)}

    def validate(self, tol: nk.Tolerance = nk.DEFAULT_TOL) -> dict:
        sysm = self.system
        worst = {"recovery": 0.0, "associative": 0.0}
        for t in range(sysm.horizon + 1):
            tp = sysm.tensors[(0, t)]
            v = self.maps[t]
            for b, img in zip(sysm.algebra.basis, sysm.members[t].rho):
                lifted = v @ tp.lift_left(b) @ v.conj().T
                worst["recovery"] = max(worst["recovery"],
                                        float(np.linalg.norm(lifted - img)))
        for s in range(sysm.horizon + 1):
            for t in range(sysm.horizon + 1 - s):
                worst["associative"] = max(worst["associative"],
                                           sysm.associativity_residual(0, s, t))
        bad = {k: v for k, v in worst.items() if v > tol.bound(1.0)}
        if bad:
            raise ProductSystemLawError(f"left dilation laws violated: {bad}")
        return worst


def left_dilation(p: DiscreteProductSystem,
                  tol: nk.Tolerance = nk.DEFAULT_TOL) -> LeftDilation:
    d = LeftDilation(p)
    d.validate(tol)
    return d


def _hilbert_space_correspondence(b, rho_images, left_commutant=None,
                                  tol: nk.Tolerance = nk.DEFAULT_TOL):
    """A Hilbert space with a left action of b, as a correspondence to C."""
    scalars = alg.trivial_algebra(1)
    h = rho_images.shape[1]
    return corr.Correspondence(
        left=b, right=scalars,
        left_commutant=left_commutant if left_commutant is not None
        else alg.commutant(b, tol),
        right_commutant=scalars,
        rho=rho_images, rho_prime=np.eye(h, dtype=complex)[None, :, :],
        carrier_dim=h, tol=tol)


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

    @property
    def carrier_dim(self) -> int:
        return self.space.carrier_dim

    def rho_of(self, b) -> np.ndarray:
        return self.space.rho_of(b)

    def theta_w(self, t: int, op) -> np.ndarray:
        w = self.maps[t]
        return w @ self.tensors[t].lift_right(op) @ w.conj().T

    def validate(self, tol: nk.Tolerance = nk.DEFAULT_TOL) -> dict:
        worst = {"unitary": 0.0, "bilinear": 0.0, "unit_map": 0.0}
        h = self.carrier_dim
        for t in range(self.system.horizon + 1):
            w = self.maps[t]
            tp = self.tensors[t]
            res = float(np.linalg.norm(w.conj().T @ w - np.eye(tp.carrier_dim)))
            if w.shape[0] != tp.carrier_dim:
                res = max(res, 1.0)
            worst["unitary"] = max(worst["unitary"], res)
            for img_t, b in zip(tp.corr.rho, self.system.algebra.basis):
                worst["bilinear"] = max(worst["bilinear"], float(
                    np.linalg.norm(w @ img_t - self.rho_of(b) @ w)))
        for x in self.system.members[0].element_space:
            res = float(np.linalg.norm(
                self.maps[0] @ self.tensors[0].embed_matrix(x) - self.rho_of(x)))
            worst["unit_map"] = max(worst["unit_map"], res)
        bad = {k: v for k, v in worst.items() if v > tol.bound(1.0)}
        if bad:
            raise ProductSystemLawError(f"right dilation laws violated: {bad}")
        return worst


def make_right_dilation(p: DiscreteProductSystem, rho_images, action_matrix,
                        left_commutant=None,
                        tol: nk.Tolerance = nk.DEFAULT_TOL) -> RightDilation:
    """Right dilation from an element-level action on a represented space.

    rho_images are the basis images of a faithful unital representation of
    the system algebra on H; action_matrix(t, x) is the matrix of
    h -> w_t(x tensor h) on H for an element x of E_t.
    """
    rho_images = np.asarray(rho_images, dtype=complex)
    space = _hilbert_space_correspondence(p.algebra, rho_images,
                                          left_commutant=left_commutant, tol=tol)
    tensors = {}
    maps = {}
    for t in range(p.horizon + 1):
        tp = corr.tensor_product(p.members[t], space, tol)
        cols = [action_matrix(t, x) for x in p.members[t].element_space]
        target = np.concatenate(cols, axis=1)
        w = target @ tp.phi_pinv
        res = float(np.linalg.norm(w @ tp.phi - target))
        if res > tol.bound(float(np.linalg.norm(target))):
            raise ProductSystemLawError(
                f"dilation map {t} does not factor through the tensor quotient, "
                f"residual {res:.3e}")
        tensors[t] = tp
        maps[t] = w
    dilation = RightDilation(p, space, tensors, maps)
    dilation.validate(tol)
    return dilation


def identity_right_dilation(p: DiscreteProductSystem,
                            tol: nk.Tolerance = nk.DEFAULT_TOL) -> RightDilation:
    """Elements act on the ambient space as the matrices they are.

    This is a dilation exactly when the members carry the untwisted left
    action, as the member-wise commutants of an endomorphism system do; the
    bilinearity check rejects anything else.
    """
    def action(t, x):
        return np.asarray(x, dtype=complex)

    return make_right_dilation(p, p.algebra.basis, action,
                               left_commutant=p.commutant_algebra, tol=tol)


def right_dilation_from_unitary(p: DiscreteProductSystem, u, rho_images=None,
                                tol: nk.Tolerance = nk.DEFAULT_TOL) -> RightDilation:
    """w_t(x tensor g) = u^t rho(x) g for a unitary u on the represented space.

    rho_images defaults to the identity representation on the ambient space.
    Valid whenever rho(theta(b)) = u* rho(b) u for the generating map theta;
    the bilinearity check of the dilation enforces exactly that relation.
    """
    u = nk.as_matrix(u, "u")
    if rho_images is None:
        rho_images = p.algebra.basis
        left_commutant = p.commutant_algebra
    else:
        rho_images = np.asarray(rho_images, dtype=complex)
        left_commutant = p.commutant_algebra
    if u.shape[0] != rho_images.shape[1]:
        raise DimensionMismatch(
            f"unitary acts on dimension {u.shape[0]}, representation on "
            f"{rho_images.shape[1]}")
    powers = [np.eye(u.shape[0], dtype=complex)]
    for _ in range(p.horizon):
        powers.append(u @ powers[-1])

    def action(t, x):
        return powers[t] @ corr.rep_apply(p.algebra, rho_images, x)

    return make_right_dilation(p, rho_images, action,
                               left_commutant=left_commutant, tol=tol)


class SystemRepresentation:
    """Maps eta_t from the members into operators on a fixed Hilbert space.

    eta respects products across degrees and the degree-zero map recovers
    the B-valued inner products: eta_t(x)* eta_t(y) = eta_0(x* y).
    """

    def __init__(self, system: DiscreteProductSystem, space_dim: int, images):
        self.system = system
        self.space_dim = int(space_dim)
        self.images = images  # images[t][i] over the element basis of E_t

    def eta_of(self, t: int, x) -> np.ndarray:
        coeff = self.system.members[t].element_coefficients(x)
        return np.tensordot(coeff, self.images[t], axes=(0, 0))

    def validate(self, tol: nk.Tolerance = nk.DEFAULT_TOL) -> dict:
        sysm = self.system
        worst = {"multiplicative": 0.0, "inner": 0.0}
        for s in range(sysm.horizon + 1):
            for t in range(sysm.horizon + 1 - s):
                for x in sysm.members[s].element_space:
                    ex = self.eta_of(s, x)
                    for y in sysm.members[t].element_space:
                        lhs = ex @ self.eta_of(t, y)
                        rhs = self.eta_of(s + t, sysm.multiply(s, t, x, y))
                        worst["multiplicative"] = max(
                            worst["multiplicative"], float(np.linalg.norm(lhs - rhs)))
        for t in range(sysm.horizon + 1):
            elts = sysm.members[t].element_space
            for x in elts:
                ex = self.eta_of(t, x)
                for y in elts:
                    lhs = ex.conj().T @ self.eta_of(t, y)
                    rhs = self.eta_of(0, x.conj().T @ y)
                    worst["inner"] = max(worst["inner"], float(np.linalg.norm(lhs - rhs)))
        bad = {k: v for k, v in worst.items() if v > tol.bound(1.0)}
        if bad:
            raise ProductSystemLawError(f"representation laws violated: {bad}")
        return worst


def representation_from_right_dilation(p: DiscreteProductSystem, w: RightDilation,
                                       tol: nk.Tolerance = nk.DEFAULT_TOL,
                                       seed: int = 0) -> SystemRepresentation:
    """eta_t(x) h = w_t(x tensor h), including the commutant relation check.

    A random element a' of the commutant of the action on H must satisfy
    theta_w(t, a') eta_t(x) = eta_t(x) a'.
    """
    images = []
    for t in range(p.horizon + 1):
        images.append(np.array([w.maps[t] @ w.tensors[t].embed_matrix(x)
                                for x in p.members[t].element_space]))
    rep = SystemRepresentation(p, w.carrier_dim, images)
    rep.validate(tol)
    h = w.carrier_dim
    comm = nk.commuting_null_space(
        [(img, img) for img in (w.rho_of(b) for b in p.algebra.basis)],
        (h, h), tol)
    rng = np.random.default_rng([seed, 17])
    aprime = np.tensordot(nk.random_complex(comm.shape[0], rng), comm, axes=(0, 0))
    worst = 0.0
    for t in range(p.horizon + 1):
        moved = w.theta_w(t, aprime)
        for i in range(images[t].shape[0]):
            worst = max(worst, float(np.linalg.norm(
                moved @ images[t][i] - images[t][i] @ aprime)))
    if worst > tol.bound(float(np.linalg.norm(aprime))):
        raise ProductSystemLawError(
            f"commutant relation fails for the dilation, residual {worst:.3e}")
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
    if abs(norm - 1.0) > tol.bound(1.0):
        raise NotUnitVector(f"vector norm {norm:.12f} differs from one")
    if not endo_mod.is_automorphism(theta, tol):
        raise NotFaithful("the map is not an automorphism")
    endo_mod.make(b, theta.basis_images, tol)
    powers = endo_mod.iterates(theta, max(horizon, 0))
    pr = np.outer(gamma, gamma.conj())
    spaces = []
    for t in range(horizon + 1):
        p_t = powers[t](pr)
        lam, vec = np.linalg.eigh((p_t + p_t.conj().T) / 2.0)
        keep = lam > 0.5
        q = vec[:, keep]
        res = float(np.linalg.norm(p_t @ q - q))
        if res > tol.bound(1.0):
            raise ProductSystemLawError(
                f"iterate {t} of the projection is not a projection, "
                f"residual {res:.3e}")
        spaces.append(q)
    products = {}
    for s in range(horizon + 1):
        for t in range(horizon + 1 - s):
            qs, qt, qst = spaces[s], spaces[t], spaces[s + t]
            cols = []
            for a in range(qs.shape[1]):
                op = powers[t](np.outer(qs[:, a], gamma.conj()))
                cols.append(qst.conj().T @ op @ qt)
            u = np.concatenate(cols, axis=1)
            res = float(np.linalg.norm(u.conj().T @ u - np.eye(u.shape[1])))
            if u.shape[0] != u.shape[1] or res > tol.bound(1.0):
                raise ProductSystemLawError(
                    f"compressed product ({s},{t}) not unitary, residual {res:.3e}")
            products[(s, t)] = u
    for r in range(horizon + 1):
        for s in range(horizon + 1 - r):
            for t in range(horizon + 1 - r - s):
                dr, ds, dt = (spaces[r].shape[1], spaces[s].shape[1],
                              spaces[t].shape[1])
                lhs = products[(r + s, t)] @ np.kron(products[(r, s)], np.eye(dt))
                rhs = products[(r, s + t)] @ np.kron(np.eye(dr), products[(s, t)])
                res = float(np.linalg.norm(lhs - rhs))
                if res > tol.bound(1.0):
                    raise ProductSystemLawError(
                        f"compressed products not associative at ({r},{s},{t}), "
                        f"residual {res:.3e}")
    dilations = []
    for t in range(horizon + 1):
        qt = spaces[t]
        cols = [powers[t](np.outer(np.eye(n)[:, g], gamma.conj())) @ qt
                for g in range(n)]
        v = np.concatenate(cols, axis=1)
        res = float(np.linalg.norm(v.conj().T @ v - np.eye(v.shape[1])))
        if v.shape[0] != v.shape[1] or res > tol.bound(1.0):
            raise ProductSystemLawError(
                f"dilation map {t} not unitary, residual {res:.3e}")
        dilations.append(v)
        dt = qt.shape[1]
        for i, base in enumerate(b.basis):
            lifted = v @ np.kron(base, np.eye(dt)) @ v.conj().T
            res = float(np.linalg.norm(lifted - powers[t].basis_images[i]))
            if res > tol.bound(1.0):
                raise ProductSystemLawError(
                    f"dilation {t} does not recover the iterate, residual {res:.3e}")
    return BhatSystem(spaces, products, dilations)


class CommutantViaDilation:
    """Commutant system realized inside a right dilation, with the comparison.

    system is the dilation-side product system; nu[t] holds the images of the
    element basis of the t-th member of the operator-commutant system, in the
    coordinates of the dilation-side member.
    """

    def __init__(self, system, reference, nu, upsilon, xi):
        self.system = system
        self.reference = reference
        self.nu = nu
        self.upsilon = upsilon
        self.xi = xi


def commutant_via_dilation(p: DiscreteProductSystem, w: RightDilation,
                           xi=None, seed: int = 0,
                           tol: nk.Tolerance = nk.DEFAULT_TOL) -> CommutantViaDilation:
    """Build the commutant system on the dilation space and compare it.

    Needs an isometry xi from the ambient space into H intertwining the
    identity representation with the action on H; one is drawn from the
    intertwiner space by polar normalization when not supplied. The member
    carriers are the ranges of theta_w(t, xi xi*); the comparison maps
    nu_t(x') = eta_t(1) xi x' are verified to be unitary, to intertwine both
    actions, and to be compatible with the products.
    """
    if p.source is None:
        raise NotFaithful("the pipeline needs the generating endomorphism")
    b = p.algebra
    bp = p.commutant_algebra
    n = b.ambient_dim
    h = w.carrier_dim
    rho_imgs = w.space.rho
    inter = nk.commuting_null_space(list(zip(rho_imgs, b.basis)), (h, n), tol)

    def _multiplicities():
        sig = alg.block_decompose(b, tol, seed=seed)
        required, available = [], []
        for (a_i, m_i), z in zip(sig.blocks, sig.central_projections):
            required.append(m_i)
            rank = float(np.trace(w.rho_of(z)).real)
            available.append(int(round(rank / a_i)))
        return required, available

    if xi is None:
        if inter.shape[0] == 0 or h < n:
            required, available = _multiplicities()
            raise NoUnitVector("intertwiner space admits no isometry",
                               required=required, available=available)
        for attempt in range(MAX_VECTOR_RETRIES):
            rng = np.random.default_rng([seed, attempt, 53])
            t = np.tensordot(nk.random_complex(inter.shape[0], rng), inter,
                             axes=(0, 0))
            try:
                xi = nk.polar_isometry(t, tol)
                break
            except SingularInput:
                continue
        else:
            required, available = _multiplicities()
            raise NoUnitVector(
                f"no isometry found after {MAX_VECTOR_RETRIES} draws",
                required=required, available=available)
    xi = nk.as_matrix(xi, "xi")
    res = float(np.linalg.norm(xi.conj().T @ xi - np.eye(n)))
    if res > tol.bound(np.sqrt(n)):
        raise NotUnitVector(f"xi is not an isometry, residual {res:.3e}")
    worst = max(float(np.linalg.norm(w.rho_of(base) @ xi - xi @ base))
                for base in b.basis)
    if worst > tol.bound(1.0):
        raise NotUnitVector(f"xi does not intertwine, residual {worst:.3e}")

    rep = representation_from_right_dilation(p, w, tol, seed=seed)
    eye = np.eye(n, dtype=complex)
    upsilon = [rep.eta_of(t, eye) @ xi for t in range(p.horizon + 1)]
    proj = xi @ xi.conj().T
    bases = []
    for t in range(p.horizon + 1):
        if t == 0:
            bases.append(xi)
            continue
        p_t = w.theta_w(t, proj)
        lam, vec = np.linalg.eigh((p_t + p_t.conj().T) / 2.0)
        q = vec[:, lam > 0.5]
        if q.shape[1] != n:
            raise ProductSystemLawError(
                f"member {t} carrier has dimension {q.shape[1]}, expected {n}")
        bases.append(q)
    for t, (q, up) in enumerate(zip(bases, upsilon)):
        res = float(np.linalg.norm(up.conj().T @ up - np.eye(n)))
        res = max(res, float(np.linalg.norm(q @ (q.conj().T @ up) - up)))
        if res > tol.bound(np.sqrt(n)):
            raise ProductSystemLawError(
                f"comparison map {t} is not unitary onto its member, "
                f"residual {res:.3e}")
    endo_mod.make(b, p.source.basis_images, tol)
    powers = endo_mod.iterates(p.source, p.horizon)
    worst_b = worst_bp = 0.0
    for t in range(p.horizon + 1):
        for base in b.basis:
            worst_b = max(worst_b, float(np.linalg.norm(
                w.rho_of(base) @ upsilon[t] - upsilon[t] @ powers[t](base))))
        for bprime in bp.basis:
            worst_bp = max(worst_bp, float(np.linalg.norm(
                w.theta_w(t, xi @ bprime @ xi.conj().T) @ upsilon[t]
                - upsilon[t] @ bprime)))
    if max(worst_b, worst_bp) > tol.bound(1.0):
        raise ProductSystemLawError(
            f"comparison maps fail to intertwine, residuals {worst_b:.3e} "
            f"and {worst_bp:.3e}")

    members = []
    for t, q in enumerate(bases):
        rho = np.array([q.conj().T @ w.theta_w(t, xi @ bprime @ xi.conj().T) @ q
                        for bprime in bp.basis])
        rho_prime = np.array([q.conj().T @ w.rho_of(base) @ q
                              for base in b.basis])
        members.append(corr.Correspondence(
            left=bp, right=bp, left_commutant=b, right_commutant=b,
            rho=rho, rho_prime=rho_prime, carrier_dim=q.shape[1], tol=tol))

    def action(s, t, x):
        ambient = bases[s] @ np.asarray(x, dtype=complex)
        op = w.theta_w(t, ambient @ xi.conj().T)
        return bases[s + t].conj().T @ op @ bases[t]

    fsys = _build_system(bp, members, action, tol=tol)

    reference = commutant_system(p, tol)
    nu = []
    worst_prod = 0.0
    for t in range(p.horizon + 1):
        elts = reference.members[t].element_space
        nu.append(np.array([bases[t].conj().T @ upsilon[t] @ x for x in elts]))
    for s in range(p.horizon + 1):
        for t in range(p.horizon + 1 - s):
            ys = reference.members[t].element_space
            if not ys.size:
                continue
            for x in reference.members[s].element_space:
                lifted = w.theta_w(t, upsilon[s] @ x @ xi.conj().T)
                left = upsilon[s + t] @ reference.prod_matrix(s, t, x)
                diff = np.einsum("ab,lbn->lan", left - lifted @ upsilon[t], ys)
                worst_prod = max(worst_prod, float(
                    np.linalg.norm(diff.reshape(diff.shape[0], -1), axis=1).max()))
    if worst_prod > tol.bound(1.0):
        raise ProductSystemLawError(
            f"comparison maps are not product compatible, residual {worst_prod:.3e}")
    return CommutantViaDilation(fsys, reference, nu, upsilon, xi)
