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
from .errors import (AlgebraMismatch, DimensionMismatch, EmptyTensorProduct,
                     GramNotPSD, InvalidCorrespondence, NotIntertwining,
                     NotIsometric)


def rep_apply(domain: alg.VnAlgebra, images: np.ndarray, x) -> np.ndarray:
    """Apply the representation with the given basis images to x in span;
    a stack of matrices x maps slice by slice."""
    x = np.asarray(x, dtype=complex)
    coeffs = domain.coefficients(x) if x.ndim == 2 else \
        x.reshape(x.shape[:-2] + (domain.flat.shape[1],)) @ domain.flat.conj().T
    return np.tensordot(coeffs, images, axes=(-1, 0))


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
        if self.rho.shape != (left.dim, h, h):
            raise DimensionMismatch(
                f"rho shape {self.rho.shape}, expected {(left.dim, h, h)}")
        if self.rho_prime.shape != (right_commutant.dim, h, h):
            raise DimensionMismatch(
                f"rho_prime shape {self.rho_prime.shape}, "
                f"expected {(right_commutant.dim, h, h)}")
        if left.ambient_dim != left_commutant.ambient_dim or \
                right.ambient_dim != right_commutant.ambient_dim:
            raise DimensionMismatch("algebra and commutant live on different spaces")
        if check:
            self._check_light(tol)

    def _check_light(self, tol: nk.Tolerance) -> None:
        # unitality of both representations and commutation of their ranges;
        # the full homomorphism laws are covered by validate()
        h = self.carrier_dim
        eye = np.eye(h).reshape(-1)
        for domain, images, what in ((self.left, self.rho, "left action"),
                                     (self.right_commutant, self.rho_prime,
                                      "commutant action")):
            res = float(np.linalg.norm(
                domain.unit_coefficients @ images.reshape(domain.dim, h * h) - eye))
            nk.require(res, tol.bound(np.sqrt(h)), InvalidCorrespondence,
                       what + " not unital, residual {:.3e}")
        # rho_prime(b') rho(a) - rho(a) rho_prime(b') over every pair
        nk.require(nk.law_residual(self.rho_prime, self.rho_prime, self.rho),
                   tol.bound(1.0), InvalidCorrespondence,
                   "ranges do not commute, residual {:.3e}")

    def rho_of(self, a) -> np.ndarray:
        return rep_apply(self.left, self.rho, a)

    def rho_prime_of(self, b) -> np.ndarray:
        return rep_apply(self.right_commutant, self.rho_prime, b)

    @cached_property
    def element_space(self) -> np.ndarray:
        """Orthonormal basis of {x: rho_prime(b') x = x b' for all b'}, the
        range of the averaging projection over the basis of the right
        commutant."""
        return nk.intertwiners(self.rho_prime, self.right_commutant.basis,
                               (self.carrier_dim, self.right.ambient_dim), self.tol)

    def element_coefficients(self, x) -> np.ndarray:
        """Coefficients of x in the element basis; a stack of elements x
        gives one row per slice."""
        basis = self.element_space
        flat = basis.reshape(basis.shape[0], basis.shape[1] * basis.shape[2])
        x = np.asarray(x, dtype=complex)
        return x.reshape(x.shape[:-2] + (flat.shape[1],)) @ flat.conj().T

    def validate(self, tol: nk.Tolerance = nk.DEFAULT_TOL) -> dict:
        """Full invariant check; raises InvalidCorrespondence on failure."""
        worst = {}
        worst.update({"rho_" + k: v for k, v in
                      endo_mod.hom_residuals(self.left, self.rho).items()})
        worst.update({"rho_prime_" + k: v for k, v in endo_mod.hom_residuals(
            self.right_commutant, self.rho_prime).items()})
        x = self.element_space
        # inner products of elements land in the right algebra
        worst["inner_in_right"] = nk.span_residual(inner_products(x), self.right.flat)
        # elements reach the whole carrier
        cols = x.transpose(1, 0, 2).reshape(self.carrier_dim, -1)
        worst["nondegenerate"] = 0.0 if nk.numeric_rank(cols, tol) == self.carrier_dim \
            else 1.0
        return nk.require_laws(worst, tol.bound(1.0), InvalidCorrespondence,
                               "invariants violated: {}")


def of_endomorphism(theta, right_commutant=None,
                    tol: nk.Tolerance = nk.DEFAULT_TOL) -> Correspondence:
    """Correspondence whose left action twists by the endomorphism.

    Carrier is the ambient space, the commutant of the domain acts as
    itself, and the domain acts through the map. The element space then
    recovers the span of the domain algebra.
    """
    b = theta.domain
    bp = right_commutant if right_commutant is not None else alg.commutant(b, tol)
    return Correspondence(left=b, right=b, left_commutant=bp, right_commutant=bp,
                          rho=theta.basis_images, rho_prime=bp.basis,
                          carrier_dim=b.ambient_dim, tol=tol)


def intertwiner_space(theta, right_commutant=None,
                      tol: nk.Tolerance = nk.DEFAULT_TOL) -> Correspondence:
    """Correspondence over the commutant whose elements intertwine the map.

    The element space consists of the x with theta(b) x = x b; the commutant
    algebra acts by plain multiplication on both sides. These are the fields
    of the commutant of the twisted correspondence, whose construction runs
    the same checks.
    """
    return commutant(of_endomorphism(theta, right_commutant, tol))


def commutant(e: Correspondence) -> Correspondence:
    """Commutant correspondence: the same carrier with the two actions swapped.

    This is purely structural; applying it twice returns a correspondence
    whose fields, tolerance included, are identical to the original ones.
    """
    return Correspondence(left=e.right_commutant, right=e.left_commutant,
                          left_commutant=e.right, right_commutant=e.left,
                          rho=e.rho_prime, rho_prime=e.rho,
                          carrier_dim=e.carrier_dim, tol=e.tol, check=False)


def tensor_quotient(x, f: Correspondence,
                    tol: nk.Tolerance = nk.DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Quotient of the raw tensor space of element basis x against f.

    The raw spanning family consists of simple tensors x_i (tensor) g_j, g_j
    the carrier basis of f; their Gram matrix
    G[(i,j),(k,l)] = rho_f(x_i* x_k)[j,l] is diagonalized and eigenvalues
    below eps * max(top, 1) are quotiented away. Returns phi, mapping raw
    coordinates isometrically onto the quotient carrier, and its
    pseudo-inverse. G depends on x, f.left and f.rho only. A Gram
    eigenvalue below -cutoff raises GramNotPSD, a quotient that keeps no
    direction EmptyTensorProduct.
    """
    de, n, hf = x.shape[0], x.shape[2], f.carrier_dim
    # the inner products, their coefficients in the middle algebra, then
    # the left action of f
    coeffs = inner_products(x).reshape(de * de, n * n) @ f.left.flat.conj().T
    gram = (coeffs @ f.rho.reshape(f.left.dim, hf * hf)).reshape(
        de, de, hf, hf).transpose(0, 2, 1, 3).reshape(de * hf, de * hf)
    lam, vec = np.linalg.eigh((gram + gram.conj().T) / 2.0)
    top = float(lam[-1]) if lam.size else 0.0
    cut = tol.eps * max(top, 1.0)
    if lam.size:
        nk.require(-lam[0], cut, GramNotPSD,
                   "Gram matrix eigenvalue {1:.3e} below zero", lam[0])
    keep = lam > cut
    if not keep.any():
        raise EmptyTensorProduct(
            f"no direction of the {de * hf}-dimensional raw space survives: "
            f"largest Gram eigenvalue {top:.3e}, cutoff {cut:.3e}")
    lam_kept, vec_kept = lam[keep], vec[:, keep]
    return (np.sqrt(lam_kept)[:, None] * vec_kept.conj().T,
            vec_kept / np.sqrt(lam_kept)[None, :])


class TensorProduct:
    """Interior tensor product of composable correspondences.

    The carrier is the quotient of the raw space of simple tensors
    (element of e) x (carrier vector of f) by the null space of its Gram
    matrix (``tensor_quotient``). ``phi`` maps raw coordinates isometrically
    onto the quotient carrier. A quotient computed for the same element
    basis of e and the same left algebra and action of f may be passed in:
    the Gram matrix depends on nothing else. In the iterate system
    E_t = {}_{theta^t}B every member has the element space B, so the Gram
    matrix of E_s (tensor) E_t is theta^t(x_i* x_k) and the pairs with one t
    share a quotient; in its commutant system every member has the left
    action of B' on itself, so the pairs with one s share one.
    """

    def __init__(self, e: Correspondence, f: Correspondence,
                 tol: nk.Tolerance = nk.DEFAULT_TOL, quotient=None):
        if e.right is not f.left and not alg.equals(e.right, f.left, tol):
            raise AlgebraMismatch("right algebra of e and left algebra of f differ")
        self.e = e
        self.f = f
        x = e.element_space
        self.phi, self.phi_pinv = quotient if quotient is not None else \
            tensor_quotient(x, f, tol)
        self.carrier_dim = self.phi.shape[0]
        self.left_basis = x
        # phi with its raw axis split into (element index, f-carrier index)
        self._phi3 = self.phi.reshape(self.carrier_dim, x.shape[0], f.carrier_dim)
        self.corr = Correspondence(
            left=e.left, right=f.right,
            left_commutant=e.left_commutant, right_commutant=f.right_commutant,
            rho=self.lift_left(e.rho), rho_prime=self.lift_right(f.rho_prime),
            carrier_dim=self.carrier_dim, tol=tol)

    def lift_left(self, op) -> np.ndarray:
        """Operator op (tensor) id on the quotient, op acting on e's carrier;
        a stack of operators lifts slice by slice."""
        op = np.asarray(op, dtype=complex)
        x = self.e.element_space
        cd, de, hf = self._phi3.shape
        flat = x.reshape(de, -1)
        # mt[..., k, i] = <x_i, op x_k>: op on the element basis of e, transposed
        mt = (op[..., None, :, :] @ x).reshape(op.shape[:-2] + flat.shape) @ flat.conj().T
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
               NotIsometric, "spanning identity fails, residual {:.3e}")
    if w.shape[0] != w.shape[1]:
        raise NotIsometric(f"carrier dimensions differ: {w.shape}")
    nk.require(nk.unitarity_residual(w), tol.bound(np.sqrt(w.shape[0])), NotIsometric,
               "not unitary, residual {:.3e}")
    for img1, img2, what in ((t1.corr.rho, t2.corr.rho_prime, "left-algebra"),
                             (t1.corr.rho_prime, t2.corr.rho, "commutant")):
        res = np.linalg.norm(w @ img1 - img2 @ w, axis=(1, 2))
        bounds = np.array([tol.bound(float(v)) for v in np.linalg.norm(img1, axis=(1, 2))])
        k = int(np.argmin(res <= bounds))  # the first failure, else 0
        nk.require(float(res[k]), float(bounds[k]), NotIntertwining,
                   what + " intertwining fails, residual {:.3e}")
    return w


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
    """Joint ranks tr(rho(z_i) rho'(z'_j)), rounded within 1e-6 by
    ``numkernel.integral_trace``, over the block sizes."""
    traces = np.einsum("iab,jba->ij", e.rho_of(left_sig.central_projections),
                       e.rho_prime_of(right_sig.central_projections))
    counts = []
    for (a_i, _), row in zip(left_sig.blocks, traces):
        counts.append([])
        for (b_j, _), tr in zip(right_sig.blocks, row):
            rank = nk.integral_trace(complex(tr), 1e-6, e.carrier_dim)
            if rank % (a_i * b_j) != 0:
                raise InvalidCorrespondence(
                    f"joint rank {rank} not divisible by {a_i}*{b_j}")
            counts[-1].append(rank // (a_i * b_j))
    return MultiplicityTable(left_blocks=left_sig.blocks,
                             right_blocks=right_sig.blocks,
                             counts=tuple(map(tuple, counts)), carrier_dim=e.carrier_dim)


def _joint_frame(e: Correspondence, left_sig, right_sig, counts,
                 tol: nk.Tolerance) -> np.ndarray:
    """Unitary with the columns rho(e^i_k1) rho'(f^j_l1) R_ij for every pair
    (i, j) with counts[i][j] > 0 and every k, l: e^i and f^j are the matrix
    units of the two block frames, R_ij an orthonormal basis of the range of
    rho(e^i_11) rho'(f^j_11). Correspondences with one table get one column
    layout, so F_f F_e* intertwines them."""
    rights = [e.rho_prime_of(right_sig.matrix_units(j)) for j in range(len(counts[0]))]
    cols = []
    for i, row in enumerate(counts):
        left = e.rho_of(left_sig.matrix_units(i))
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
    te = _table_against(e, left_sig, right_sig, tol)
    tf = _table_against(f, left_sig, right_sig, tol)
    if te.counts != tf.counts or te.carrier_dim != tf.carrier_dim:
        return IsoDecision(unitary=None, table_left=te, table_right=tf)
    u = _joint_frame(f, left_sig, right_sig, te.counts, tol) @ \
        _joint_frame(e, left_sig, right_sig, te.counts, tol).conj().T
    nk.require(nk.unitarity_residual(u), tol.bound(np.sqrt(u.shape[0])), NotIsometric,
               "frame-built unitary is not unitary, residual {:.3e}")
    rho_f = rep_apply(f.left, f.rho, e.left.basis)
    rho_prime_f = rep_apply(f.right_commutant, f.rho_prime, e.right_commutant.basis)
    nk.require(nk.worst(nk.worst_norm(u @ e.rho - rho_f @ u),
                        nk.worst_norm(u @ e.rho_prime - rho_prime_f @ u)),
               tol.bound(1.0), NotIntertwining,
               "frame-built unitary does not intertwine, residual {:.3e}")
    return IsoDecision(unitary=u, table_left=te, table_right=tf)
