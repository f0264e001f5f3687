"""Two-sided Hilbert modules realized as commuting pairs of representations.

A correspondence from an algebra A on C^k to an algebra B on C^n is stored
as a carrier space C^h together with a representation of the commutant of B
and a commuting representation of A. The element picture, the space of
maps x: C^n -> C^h intertwining the commutant representation with plain
right multiplication, is derived on demand; x* y then lands in B and plays
the role of the B-valued inner product.

Taking commutants swaps the two representations and is exact: no numerics
are involved beyond what was already stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import algebra as alg
from . import endo as endo_mod
from . import numkernel as nk
from .errors import (AlgebraMismatch, DimensionMismatch, DomainsNotCommutant,
                     EmptyTensorProduct, GramNotPSD, InvalidCorrespondence,
                     NotIntertwining, NotIsometric)


def inner_products(x) -> np.ndarray:
    """x_i* x_k for every pair of a stack of elements, shape (d, d, n, n),
    from one matrix product."""
    d, h, n = x.shape
    rows = x.conj().transpose(0, 2, 1).reshape(d * n, h)
    return (rows @ x.transpose(1, 0, 2).reshape(h, d * n)).reshape(
        d, n, d, n).transpose(0, 2, 1, 3)


class Correspondence:
    """Commuting pair (representation of B-commutant, representation of A).

    Attributes
    ----------
    left, right : the algebras A and B.
    left_commutant, right_commutant : their commutants, stored so that
        taking commutants twice reproduces the original fields exactly.
    carrier_dim : dimension h of the carrier space.
    rho : images of the basis of ``left`` on the carrier.
    rho_prime : images of the basis of ``right_commutant`` on the carrier.
    tol : the tolerance it was built with; the element space is computed
        at it, and the commutant correspondence keeps it.
    """
    _maps = (None, None)  # the maps whose images rho, rho_prime are (``_twisted``)

    def __init__(self, left, right, left_commutant, right_commutant,
                 rho, rho_prime, carrier_dim,
                 tol: nk.Tolerance = nk.DEFAULT_TOL, check: bool = True):
        self.left = left
        self.right = right
        self.left_commutant = left_commutant
        self.right_commutant = right_commutant
        self.carrier_dim = int(carrier_dim)
        self.tol = tol
        self.rho = np.asarray(rho, dtype=complex)
        self.rho_prime = np.asarray(rho_prime, dtype=complex)
        h = self.carrier_dim
        for name, images, domain in (("rho", self.rho, left),
                                     ("rho_prime", self.rho_prime, right_commutant)):
            if images.shape != (domain.dim, h, h):
                raise DimensionMismatch(
                    f"{name} shape {images.shape}, expected {(domain.dim, h, h)}")
        if left.ambient_dim != left_commutant.ambient_dim or \
                right.ambient_dim != right_commutant.ambient_dim:
            raise DimensionMismatch("algebra and commutant live on different spaces")
        if check:
            _check_light(self, tol)

    def rho_of(self, a) -> np.ndarray:
        return self.left.apply(self.rho, a)

    def rho_prime_of(self, b) -> np.ndarray:
        return self.right_commutant.apply(self.rho_prime, b)

    @cached_property
    def element_space(self) -> np.ndarray:
        """Orthonormal basis of {x: rho_prime(b') x = x b' for all b'}, read
        off the block frame of the right commutant
        (``algebra.intertwiners``)."""
        parts = alg.intertwiners(self.right_commutant, self.rho_prime, None, self.tol)
        return np.concatenate([x.reshape(-1, self.carrier_dim, self.right.ambient_dim)
                               for x in parts])

    def element_coefficients(self, x) -> np.ndarray:
        """Coefficients of x in the element basis; a stack of elements x
        gives one row per slice."""
        basis = self.element_space
        flat = basis.reshape(basis.shape[0], basis.shape[1] * basis.shape[2])
        x = np.asarray(x, dtype=complex)
        return x.reshape(x.shape[:-2] + (flat.shape[1],)) @ flat.conj().T

    def validate(self, tol: nk.Tolerance = nk.DEFAULT_TOL) -> dict:
        """Both actions are unital *-homomorphisms (``endo.hom_residuals``, or the
        ``law_residuals`` of the map whose images a side holds), inner products of
        elements lie in the right algebra and the elements reach the whole carrier,
        else InvalidCorrespondence. Commutation is checked at construction only, with
        unitality, by ``_check_light`` or by laws that imply it (``of_endomorphism``)."""
        sides = (("rho", self.left, self.rho), ("rho_prime", self.right_commutant, self.rho_prime))
        worst = {f"{side}_{k}": v for (side, domain, images), f in zip(sides, self._maps)
                 for k, v in (endo_mod.hom_residuals(domain, images) if f is None
                              else f.law_residuals).items() if k != "span"}
        x = self.element_space
        # inner products of elements land in the right algebra
        worst["inner_in_right"] = nk.span_residual(inner_products(x), self.right.flat)
        # elements reach the whole carrier
        cols = x.transpose(1, 0, 2).reshape(self.carrier_dim, -1)
        worst["nondegenerate"] = float(nk.numeric_rank(cols, tol) != self.carrier_dim)
        return nk.require_laws(worst, tol.bound(1.0), InvalidCorrespondence,
                               "invariants violated: {}")


def _check_unital(e: Correspondence, tol: nk.Tolerance) -> None:
    """Both actions send the identity to the carrier's within tol.bound(sqrt(h))."""
    h = e.carrier_dim
    for law, domain, images, what in (("unital_left", e.left, e.rho, "left"), (
            "unital_commutant", e.right_commutant, e.rho_prime, "commutant")):
        nk.require(float(np.linalg.norm(domain.unit_coefficients @ images.reshape(
            domain.dim, h * h) - np.eye(h).reshape(-1))), tol.bound(np.sqrt(h)),
            InvalidCorrespondence, what + " action not unital, residual {:.3e}", law=law)


def _check_light(e: Correspondence, tol: nk.Tolerance) -> None:
    """Unitality and commutation of every pair of images (``validate`` has the rest)."""
    _check_unital(e, tol)
    nk.require(nk.law_residual(e.rho_prime, e.rho_prime, e.rho), tol.bound(1.0),
               InvalidCorrespondence, "ranges do not commute, residual {:.3e}", law="commutation")


def of_endomorphism(theta, right_commutant=None,
                    tol: nk.Tolerance = nk.DEFAULT_TOL) -> Correspondence:
    """Correspondence whose left action twists by the endomorphism.

    Carrier is the ambient space, the commutant B' of the domain B acts as
    itself, and B acts through the map; the element space is span B. Each
    law is checked where it lives: theta's by ``theta.validate`` (cached on
    the map), B' acting unitally by its ``identity`` law, [B, B'] = 0 by the
    commutant's law, which a given B' within r of it keeps up to 2 |b| r
    (``require_commutant``). With theta(b_i) = p_i + r_i, p_i in B, |r_i| <= s
    and |b'|_op <= 1, |[theta(b_i), b']| <= 2 s + |[p_i, b']| (factor 2).
    """
    theta.validate(tol)
    return _twisted(theta, alg.commutant(theta.domain, tol) if right_commutant is None
                    else require_commutant(theta.domain, right_commutant, tol), tol)


def _twisted(theta, bp, tol: nk.Tolerance) -> Correspondence:
    """{}_theta B over B' with no check, for a caller that holds the proofs: theta
    validated and bp the commutant of its domain (``of_endomorphism``); rho records theta."""
    b = theta.domain
    e = Correspondence(b, b, bp, bp, theta.basis_images, bp.basis, b.ambient_dim, tol, check=False)
    e._maps = (theta, None)
    return e


def require_commutant(b, bp, tol: nk.Tolerance):
    """bp, once it is the commutant C of b, else DomainsNotCommutant naming the
    law: ``commutation``, the shorter generator list against the other basis
    within tol.bound(its largest norm); ``commutant``, bp within r of C at the
    bound of ``algebra.equals``, r read in b's frame (``_frame_distance``), so C's
    law bounds each [b, b'] by |[b, c]| + 2 |b| r. bp then takes over C's frame
    (``BlockSignature._dual``); a bp holding the dual of b's frame at tol took it
    after both laws passed, or is commutant(b, tol), so neither law runs again."""
    held = b._frames.get(tol)
    if held is not None and bp._frames.get(tol) is held._dual:
        return bp
    gens, other = min((b.generators, bp), (bp.generators, b), key=lambda g: len(g[0]))
    nk.require(nk.law_residual(gens, gens, other.basis), tol.bound(nk.worst_norm(gens)),
               DomainsNotCommutant, "ranges do not commute, residual {:.3e}",
               law="commutation")
    sig = alg.block_decompose(b, tol)
    nk.require(_frame_distance(sig, bp), tol.bound(
        bp.dim ** 0.5, sum(m * m for _, m in sig.blocks) ** 0.5), DomainsNotCommutant,
        "second domain is not the commutant of the first, distance {:.3e}", law="commutant")
    alg.adopt_frame(bp, sig._dual, tol)
    return bp


def _frame_distance(sig, bp) -> float:
    """|P_bp - P_C| for the commutant C of the algebra with frame W (sig), in W:
    y_k = W* b'_k W less, per summand, the average 1 (x) x_i of its diagonal blocks
    is (1 - P_C) b'_k, and |P_bp - P_C|^2 = 2 sum_k |y_k|^2 + dim C - dim bp, exact."""
    w = np.concatenate([t.transpose(1, 0, 2).reshape(len(t[0]), -1) for t in sig.units], axis=1)
    y, start, dim_c = w.conj().T @ bp.basis @ w, 0, 0
    for a, m in sig.blocks:
        end = start + a * m  # the diagonal blocks, a view of y
        blocks = np.einsum("xkpkq->xkpq", y[:, start:end, start:end].reshape(-1, a, m, a, m))
        blocks -= blocks.mean(axis=1, keepdims=True)
        start, dim_c = end, dim_c + m * m
    return float(np.sqrt(np.maximum(2.0 * np.vdot(y, y).real + (dim_c - bp.dim), 0.0)))


def intertwiner_space(theta, right_commutant=None,
                      tol: nk.Tolerance = nk.DEFAULT_TOL) -> Correspondence:
    """Correspondence over the commutant whose elements intertwine the map.

    The element space consists of the x with theta(b) x = x b; the commutant
    algebra acts by plain multiplication on both sides: the fields of the
    commutant of the twisted correspondence, built with its checks.
    """
    return commutant(of_endomorphism(theta, right_commutant, tol))


def commutant(e: Correspondence) -> Correspondence:
    """Commutant correspondence: the same carrier with the two actions swapped.

    This is purely structural; applying it twice returns a correspondence
    whose fields, tolerance and recorded maps included, are the original ones.
    """
    c = Correspondence(left=e.right_commutant, right=e.left_commutant, left_commutant=e.right,
                       right_commutant=e.left, rho=e.rho_prime, rho_prime=e.rho,
                       carrier_dim=e.carrier_dim, tol=e.tol, check=False)
    c._maps = e._maps[::-1]
    return c


def tensor_quotient(gram_factor, f: Correspondence, tol: nk.Tolerance = nk.DEFAULT_TOL,
                    elements=None) -> tuple[np.ndarray, np.ndarray]:
    """Quotient of the raw tensor space of an element basis x against f.

    The raw spanning family consists of simple tensors x_i (tensor) g_j, g_j
    the carrier basis of f; their Gram matrix is
    G[(i,j),(k,l)] = rho_f(x_i* x_k)[j,l]. Given elements = x, where G factors
    as Phi* Phi (``TensorProduct``), the spectrum is read off one SVD of Phi
    (``_gram_root``, ``_root_spectrum``), G is never formed and gram_factor is
    not read; otherwise G is formed from gram_factor = ``inner_products(x)``
    and diagonalized (``_gram_spectrum``). Either way eigenvalues of G (the
    squared singular values of Phi) below eps * max(top, 1) are quotiented
    away. Returns phi, mapping raw coordinates isometrically onto the quotient
    carrier, and its pseudo-inverse; at full row rank of Phi the carrier is
    its rows, phi = Phi and phi+ = Phi+. A Gram eigenvalue below -cutoff
    raises GramNotPSD, law ``gram_psd`` (unreachable where G = Phi* Phi by
    construction), a quotient that keeps no direction (largest eigenvalue at
    most the cutoff) EmptyTensorProduct, law ``quotient_rank``, the cutoff
    its residual and the float below that eigenvalue its bound.
    """
    if elements is None:
        root = left = None
        lam, vec = _gram_spectrum(gram_factor, f)
    else:
        root = _gram_root(elements, f)
        left, lam, vec = _root_spectrum(root)
    top = float(lam.max()) if lam.size else 0.0
    cut = tol.eps * max(top, 1.0)
    if root is None and lam.size:
        nk.require(-lam[0], cut, GramNotPSD,
                   "Gram matrix eigenvalue {1:.3e} below zero", lam[0], law="gram_psd")
    # a direction survives when the cut lies strictly below the top: at most the float before it
    nk.require(cut, np.nextafter(top, -np.inf), EmptyTensorProduct, "no direction of the "
               "{1}-dimensional raw space survives: largest Gram eigenvalue {2:.3e}, cutoff "
               "{0:.3e}", vec.shape[0], top, law="quotient_rank")
    keep = lam > cut
    lam_kept, vec_kept = lam[keep], vec[:, keep]
    pinv = vec_kept / np.sqrt(lam_kept)[None, :]
    if root is not None and lam_kept.size == root.shape[0]:
        return root, pinv @ left[:, keep].conj().T
    return np.sqrt(lam_kept)[:, None] * vec_kept.conj().T, pinv


def _gram_spectrum(gram_factor, f: Correspondence) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of the raw Gram matrix, f's left
    action applied to the inner products, which lie in the middle algebra."""
    de, hf = gram_factor.shape[0], f.carrier_dim
    gram = f.rho_of(gram_factor).transpose(0, 2, 1, 3).reshape(de * hf, de * hf)
    return np.linalg.eigh((gram + gram.conj().T) / 2.0)


def _root_spectrum(root) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Left singular vectors, squared singular values and right singular
    vectors (as columns) of Phi: the nonzero spectrum of G = Phi* Phi."""
    left, sv, vh = np.linalg.svd(root, full_matrices=False)
    return left, sv * sv, vh.conj().T


def _factors(e: Correspondence, f: Correspondence) -> bool:
    """Whether the Gram matrix of tensor(e, f) is Phi* Phi for ``_gram_root``:
    (a) f's left action is the defining representation of f.left, or (b) e and f
    are both twisted (``_maps[0]`` a validated map, or the representation that
    ``prodsys.right_dilation_from_unitary`` checked), so e's elements lie in
    span e.right = f.left and rho_f is a *-homomorphism."""
    return f.rho is f.left.basis or (e._maps[0] is not None and f._maps[0] is not None)


def _gram_root(x, f: Correspondence) -> np.ndarray:
    """Phi = [rho_f(x_1)| ... |rho_f(x_d)], shape (h, d h_f), raw column (k, l).

    Phi* Phi has the blocks rho_f(x_i)* rho_f(x_k). In case (a) of ``_factors``
    Phi = [x_1| ... |x_d] and that is x_i* x_k, the Gram matrix exactly. In
    case (b) it is rho_f(x_i* x_k) up to the map's residuals: with s its
    ``star`` residual and m the bound that ``endo.hom_residuals`` states for
    its worst |rho(b_a b_b) - rho(b_a) rho(b_b)| over the orthonormal basis
    of the d-dimensional f.left, each block is off by at most
    d m + sqrt(d) s |rho_f(x_k)|, as x_i has unit coefficients there.
    """
    images = x if f.rho is f.left.basis else f.rho_of(x)
    return images.transpose(1, 0, 2).reshape(images.shape[1], -1)


class TensorProduct:
    """Interior tensor product of composable correspondences.

    The carrier is the quotient of the raw space of simple tensors
    (element of e) x (carrier vector of f) by the null space of its Gram
    matrix (``tensor_quotient``, from Phi where the Gram factors, ``_factors``).
    ``phi`` maps raw coordinates isometrically onto the quotient carrier; at
    full row rank of Phi (``full``) it is Phi itself, the carrier is its rows and
    ``lift_left`` closed-form. ``memo(fn, reads, *args)``, when given, returns
    fn(*args) once per fn and identities of the arrays in reads:
    the quotient reads the element basis of e (its inner products, on the
    Gram route) and the left algebra and action of f, a lifted action the
    quotient, the operators and (left lift) that element basis. In the
    iterate system E_t = {}_{theta^t}B the pairs with one t share the
    quotient and lifted B' action, in its commutant system the pairs with
    one s. ``check=False`` skips ``_check_light`` for a caller whose laws
    imply it (``prodsys._build``).
    """

    def __init__(self, e: Correspondence, f: Correspondence,
                 tol: nk.Tolerance = nk.DEFAULT_TOL, memo=None, check: bool = True):
        if not alg.equals(e.right, f.left, tol):
            raise AlgebraMismatch("right algebra of e and left algebra of f differ")
        memo = memo or (lambda fn, reads, *args: fn(*args))
        self.e = e
        self.f = f
        x = e.element_space
        if factored := _factors(e, f):
            self.phi, self.phi_pinv = memo(tensor_quotient, (x, f.left, f.rho),
                                           None, f, tol, x)
        else:
            gram_factor = memo(inner_products, (x,), x)
            self.phi, self.phi_pinv = memo(tensor_quotient, (gram_factor, f.left, f.rho),
                                           gram_factor, f, tol)
        self.carrier_dim = self.phi.shape[0]
        self.left_basis = x
        rows = (e if f.rho is f.left.basis else f).carrier_dim  # of Phi: case (a), (b)
        self.full = factored and self.carrier_dim == rows
        # phi with its raw axis split into (element index, f-carrier index)
        self._phi3 = self.phi.reshape(self.carrier_dim, x.shape[0], f.carrier_dim)
        quotient = (self.phi, self.phi_pinv)
        self.corr = Correspondence(
            left=e.left, right=f.right,
            left_commutant=e.left_commutant, right_commutant=f.right_commutant,
            rho=memo(TensorProduct.lift_left, (x, *quotient, e.rho), self, e.rho),
            rho_prime=memo(TensorProduct.lift_right, (*quotient, f.rho_prime), self,
                           f.rho_prime),
            carrier_dim=self.carrier_dim, tol=tol, check=check)

    def lift_left(self, op) -> np.ndarray:
        """Operator op (tensor) id on the quotient, op acting on e's carrier
        and keeping its elements; a stack of operators lifts slice by slice.
        Where phi = Phi (``full``), (op x) g = rho_f(op) rho_f(x) g: op in case (a)
        of ``_factors``, rho_f(op) in case (b), op keeping span e.right = f.left;
        otherwise read off <x_i, op x_k> over the element basis of e."""
        op = np.asarray(op, dtype=complex)
        if self.full:
            return op if self.f.rho is self.f.left.basis else self.f.rho_of(op)
        cd, de, hf = self._phi3.shape
        # mt[..., k, i] = <x_i, op x_k>: op on the element basis of e, transposed
        mt = self.e.element_coefficients(op[..., None, :, :] @ self.e.element_space)
        raw = mt[..., None, :, :] @ self._phi3  # raw[..., p, k, v]
        return raw.reshape(op.shape[:-2] + (cd, de * hf)) @ self.phi_pinv

    def lift_right(self, op) -> np.ndarray:
        """Operator id (tensor) op on the quotient, op acting on f's carrier;
        a stack of operators lifts slice by slice."""
        op = np.asarray(op, dtype=complex)
        cd, de, hf = self._phi3.shape
        raw = self.phi.reshape(cd * de, hf) @ op
        return raw.reshape(op.shape[:-2] + (cd, de * hf)) @ self.phi_pinv

    def embed_matrix(self, x) -> np.ndarray:
        """Matrix taking h to the quotient coordinates of the simple tensor
        x (tensor) h, shape (carrier_dim, f.carrier_dim); a stack of elements
        gives the stack of their matrices."""
        a = self.e.element_coefficients(x)
        return np.tensordot(a, self._phi3, axes=(-1, 1))


def tensor_product(e: Correspondence, f: Correspondence,
                   tol: nk.Tolerance = nk.DEFAULT_TOL) -> TensorProduct:
    return TensorProduct(e, f, tol)


def tensor_commutant_iso(e: Correspondence, f: Correspondence,
                         tol: nk.Tolerance = nk.DEFAULT_TOL,
                         tp: TensorProduct | None = None,
                         tp_swapped: TensorProduct | None = None) -> np.ndarray:
    """Unitary between the carriers witnessing the order-reversing identity.

    The commutant of the tensor product of e and f is canonically the tensor
    product of the commutant of f with the commutant of e. On spanning
    vectors the map sends x (tensor) y' g to y' (tensor) x g, with x an
    element of e, y' an element of the commutant of f, and g a vector of
    the shared middle space. The returned matrix maps the carrier of
    tensor(e, f) to the carrier of tensor(commutant(f), commutant(e)) and
    is checked to be unitary and to intertwine both actions.
    """
    t1 = tp if tp is not None else TensorProduct(e, f, tol)
    t2 = tp_swapped if tp_swapped is not None else \
        TensorProduct(commutant(f), commutant(e), tol)
    x = e.element_space
    yp = t2.e.element_space  # elements of the commutant of f
    # columns (i, j, g): embed(x_i) y'_j g and embed(y'_j) x_i g
    src = t1.embed_matrix(x)[:, None] @ yp[None]
    dst = t2.embed_matrix(yp)[None] @ x[:, None]
    src, dst = (np.moveaxis(m, 2, 0).reshape(m.shape[2], -1) for m in (src, dst))
    w = nk.lstsq_map(src, dst)
    nk.require(float(np.linalg.norm(w @ src - dst)),
               tol.bound(float(np.linalg.norm(src)), float(np.linalg.norm(dst))),
               NotIsometric, "spanning identity fails, residual {:.3e}", law="spanning_identity")
    if w.shape[0] != w.shape[1]:
        raise NotIsometric(f"carrier dimensions differ: {w.shape}")
    nk.require(nk.unitarity_residual(w), tol.bound(np.sqrt(w.shape[0])), NotIsometric,
               "not unitary, residual {:.3e}", law="unitarity")
    _check_intertwining(w, t1.corr.rho, t2.corr.rho_prime, tol, "left-algebra")
    _check_intertwining(w, t1.corr.rho_prime, t2.corr.rho, tol, "commutant")
    return w


def _check_intertwining(w, img1, img2, tol: nk.Tolerance, what: str) -> None:
    """|w a - b w| within tol.bound(|a|) for each pair (a, b) of the stacks
    img1, img2, else NotIntertwining naming what and the first failure."""
    res = np.linalg.norm(w @ img1 - img2 @ w, axis=(1, 2))
    bounds = np.array([tol.bound(float(v)) for v in np.linalg.norm(img1, axis=(1, 2))])
    k = int(np.argmin(res <= bounds))  # the first failure, else 0
    nk.require(float(res[k]), float(bounds[k]), NotIntertwining,
               what + " intertwining fails, residual {:.3e}", law="intertwining")


@dataclass(frozen=True)
class MultiplicityTable:
    """Joint multiplicities of the commuting pair on the carrier.

    counts[i][j] is how often the pair (i-th block of the left algebra,
    j-th block of the right commutant) occurs; two correspondences over the
    same algebras are unitarily equivalent exactly when their tables and
    carrier dimensions agree.
    """

    left_blocks: tuple[tuple[int, int], ...]
    right_blocks: tuple[tuple[int, int], ...]
    counts: tuple[tuple[int, ...], ...]
    carrier_dim: int


@dataclass(frozen=True)
class IsoDecision:
    """Outcome of an equivalence test: a unitary, or the two distinct tables."""

    unitary: np.ndarray | None
    table_left: MultiplicityTable
    table_right: MultiplicityTable

    @property
    def isomorphic(self) -> bool:
        return self.unitary is not None

    def __bool__(self) -> bool:
        return self.isomorphic


def _table_against(e: Correspondence, left_sig, right_sig,
                   tol: nk.Tolerance) -> MultiplicityTable:
    """Joint multiplicities tr(rho(e^i_11) rho'(f^j_11)) over the first
    matrix units of the two block frames, rounded within 1e-6 by
    ``numkernel.integral_trace``."""
    left, right = (rep(np.array([t[0] @ t[0].conj().T for t in sig.units]))
                   for rep, sig in ((e.rho_of, left_sig), (e.rho_prime_of, right_sig)))
    traces = left.reshape(len(left), -1) @ right.transpose(0, 2, 1).reshape(len(right), -1).T
    counts = tuple(tuple(nk.integral_trace(complex(tr), 1e-6, e.carrier_dim) for tr in row)
                   for row in traces)
    return MultiplicityTable(left_blocks=left_sig.blocks, right_blocks=right_sig.blocks,
                             counts=counts, carrier_dim=e.carrier_dim)


def _joint_frame(e: Correspondence, left_sig, right_sig, counts,
                 tol: nk.Tolerance) -> np.ndarray:
    """Unitary with the columns rho(e^i_k1) rho'(f^j_l1) R_ij for every pair
    (i, j) with counts[i][j] > 0 and every k, l: e^i and f^j are the matrix
    units of the two block frames, R_ij an orthonormal basis of the range of
    rho(e^i_11) rho'(f^j_11). Correspondences with one table get one column
    layout, so F_f F_e* intertwines them."""
    rights = [e.rho_prime_of(right_sig.unit_grid(j)[:, 0]) for j in range(len(counts[0]))]
    cols = []
    for i, row in enumerate(counts):
        left = e.rho_of(left_sig.unit_grid(i)[:, 0])
        for j, (c, right) in enumerate(zip(row, rights)):
            if not c:
                continue
            r = nk.range_basis(left[0] @ right[0], tol, NotIntertwining,
                               f"joint unit ({i},{j})")
            if r.shape[1] != c:
                raise NotIntertwining(f"joint unit ({i},{j}) has rank {r.shape[1]}, not {c}")
            cols.append((left[:, None] @ right[None] @ r).transpose(2, 0, 1, 3).reshape(
                e.carrier_dim, -1))
    return np.concatenate(cols, axis=1)


def find_isomorphism(e: Correspondence, f: Correspondence,
                     tol: nk.Tolerance = nk.DEFAULT_TOL) -> IsoDecision:
    """Unitary equivalence of two correspondences over the same algebras.

    Joint multiplicity tables are computed against the block frames of the
    left algebra and the right commutant; differing tables are the
    obstruction certificate. Equal ones give U = F_f F_e* (``_joint_frame``),
    checked to be unitary (NotIsometric) and to intertwine both actions
    (NotIntertwining).
    """
    if not alg.equals(e.left, f.left, tol) or not alg.equals(e.right, f.right, tol):
        raise AlgebraMismatch("correspondences live over different algebra pairs")
    left_sig = alg.block_decompose(e.left, tol)
    right_sig = alg.block_decompose(e.right_commutant, tol)
    te, tf = (_table_against(c, left_sig, right_sig, tol) for c in (e, f))
    if te.counts != tf.counts or te.carrier_dim != tf.carrier_dim:
        return IsoDecision(unitary=None, table_left=te, table_right=tf)
    u = _joint_frame(f, left_sig, right_sig, te.counts, tol) @ \
        _joint_frame(e, left_sig, right_sig, te.counts, tol).conj().T
    nk.require(nk.unitarity_residual(u), tol.bound(np.sqrt(u.shape[0])), NotIsometric,
               "frame-built unitary is not unitary, residual {:.3e}", law="unitarity")
    rho_f, rho_prime_f = f.rho_of(e.left.basis), f.rho_prime_of(e.right_commutant.basis)
    nk.require(nk.worst(nk.worst_norm(u @ e.rho - rho_f @ u),
                        nk.worst_norm(u @ e.rho_prime - rho_prime_f @ u)),
               tol.bound(1.0), NotIntertwining,
               "frame-built unitary does not intertwine, residual {:.3e}", law="intertwining")
    return IsoDecision(unitary=u, table_left=te, table_right=tf)
