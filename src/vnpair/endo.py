"""Unital normal *-endomorphisms of a stored matrix *-algebra.

A map is kept as the images of the orthonormal algebra basis together with
the induced matrix on coefficient space; its law residuals are computed once
per map, on the matrix units of the domain's block frame, not on basis pairs.
"""

from __future__ import annotations

import functools

import numpy as np

from . import numkernel as nk
from . import algebra as alg
from .errors import (AlgebraNotInvariant, DimensionMismatch, DomainMismatch,
                     ImageOutsideAlgebra, InconsistentGeneratorImages,
                     NotMultiplicative, NotStar, NotUnital, NotUnitary)


class Endomorphism:
    """Linear map on an algebra, stored through basis images.

    ``make`` runs the law checks, ``from_unitary`` its input checks; the constructor
    wires the data. Instances are immutable: residuals are kept on first use, iterates never.
    """

    def __init__(self, domain: alg.VnAlgebra, basis_images: np.ndarray):
        self.domain = domain
        self.basis_images = np.asarray(basis_images, dtype=complex)
        if self.basis_images.shape != domain.basis.shape:
            raise DimensionMismatch(
                f"images shape {self.basis_images.shape} does not match "
                f"domain basis shape {domain.basis.shape}")

    @functools.cached_property
    def coefficient_matrix(self) -> np.ndarray:
        """[i, j] = <b_i, theta(b_j)>, on first read; coefficients(images).T, or
        conjugating the images' side (no basis copy), differs in the last bits."""
        return self.domain.flat.conj() @ self.basis_images.reshape(self.domain.dim, -1).T

    def __call__(self, x) -> np.ndarray:
        """Apply to an ambient matrix lying in the domain span; a stack of
        matrices maps slice by slice (``VnAlgebra.apply``)."""
        return self.domain.apply(self.basis_images, x)

    @functools.cached_property
    def _span(self) -> float:  # kept apart from the frame's laws: from_unitary reads it alone
        return nk.span_residual(self.basis_images, self.domain.flat)

    @functools.cached_property
    def law_residuals(self) -> dict:
        """``_span`` and ``hom_residuals``; no tolerance, for each validate."""
        return {"span": self._span, **hom_residuals(self.domain, self.basis_images)}

    def validate(self, tol: nk.Tolerance = nk.DEFAULT_TOL) -> dict:
        """Raise on the first law residual over its hybrid bound, in the order
        span, unital, multiplicative, star; return the residuals."""
        res = self.law_residuals
        nk.require(res["span"], tol.bound(1.0), ImageOutsideAlgebra,
                   "image leaves the algebra span, residual {:.3e}", law="span")
        return require_hom(res, self.domain.ambient_dim, tol)

    def __repr__(self) -> str:
        return f"Endomorphism(ambient_dim={self.domain.ambient_dim}, dim={self.domain.dim})"


def _same_domain(f: Endomorphism, g: Endomorphism) -> None:
    if f.domain is not g.domain and not np.array_equal(f.domain.basis, g.domain.basis):
        raise DomainMismatch("maps are stored over different domain bases")


def hom_residuals(domain: alg.VnAlgebra, images) -> dict:
    """Unital, multiplicative and star residuals of the linear map sending
    the i-th domain basis element to images[i] (an endomorphism, or a
    representation on a carrier), from the images f^i_jk of the units of
    the domain's block frame (at the domain's tolerance, cached): the map is a
    unital *-homomorphism exactly when theta(1) - 1, Q = f^i_jk - f^i_j1
    f^i_1k, P = f^i_1k f^i'_j1 - delta_ii' delta_kj f^i_11 and S = (f^i_jk)*
    - f^i_kj vanish, sum a_i^2 + (sum a_i)^2 products. ``unital`` is
    |theta(1) - 1|, ``star`` |S| and ``multiplicative`` r = |(Q, P)|, all
    Frobenius over every index. Against the worst residuals over basis
    elements b_a, b_b (``tests/oracles.py``; domain of dim d on C^n): |S|
    is at least the worst |theta(b*) - theta(b)*| and at most n sqrt(d)
    times it; r is at most sqrt(2) d n times the worst |theta(b_a b_b) -
    theta(b_a) theta(b_b)|, which is at most sqrt(17) c^2 r + r^2, c the
    largest of 1 and the norms of the row [f^i_j1] and the column [f^i_1k].
    """
    images = np.asarray(images, dtype=complex)
    d, h = images.shape[0], images.shape[1]
    unit = domain.unit_coefficients @ images.reshape(d, -1)
    sig = alg.block_decompose(domain, domain.tol)
    f = [domain.apply(images, sig.unit_grid(i)) for i in range(len(sig.blocks))]
    q = np.linalg.norm([np.linalg.norm(x - x[:, :1] @ x[:1]) for x in f])
    star = np.linalg.norm([np.linalg.norm(x.conj().transpose(1, 0, 3, 2) - x) for x in f])
    # p[k, :, j, :] = f_1k f_j1 over the (summand, unit) indices k and j
    s = sum(len(x) for x in f)
    p = (np.concatenate([x[0] for x in f]).reshape(-1, h) @ np.concatenate(
        [x[:, 0] for x in f]).transpose(1, 0, 2).reshape(h, -1)).reshape(s, h, s, h)
    p[np.arange(s), :, np.arange(s)] -= np.concatenate([[x[0, 0]] * len(x) for x in f])
    return {"unital": float(np.linalg.norm(unit - np.eye(h).reshape(-1))),
            "multiplicative": float(np.hypot(q, np.linalg.norm(p))),
            "star": float(star)}


def require_hom(res: dict, h: int, tol: nk.Tolerance) -> dict:
    """Raise on the first ``hom_residuals`` res of a map into M_h over its bound: unital
    (tol.bound(sqrt(h))), multiplicative, star (tol.bound(1)); return a copy of res."""
    nk.require(res["unital"], tol.bound(np.sqrt(h)), NotUnital,
               "identity maps with residual {:.3e}", law="unital")
    nk.require(res["multiplicative"], tol.bound(1.0), NotMultiplicative,
               "product residual {:.3e} on the frame's matrix units", law="multiplicative")
    nk.require(res["star"], tol.bound(1.0), NotStar,
               "adjoint residual {:.3e} on the frame's matrix units", law="star")
    return dict(res)


def make(domain: alg.VnAlgebra, images, tol: nk.Tolerance = nk.DEFAULT_TOL) -> Endomorphism:
    """Validated endomorphism from basis images: construct, then ``validate``."""
    theta = Endomorphism(domain, images)
    theta.validate(tol)
    return theta


def identity(domain: alg.VnAlgebra) -> Endomorphism:
    # a view: no copy, yet not the basis object that intertwiners takes for the defining one
    return Endomorphism(domain, domain.basis.view())


def from_unitary(domain: alg.VnAlgebra, u, direction: str = "adjoint",
                 tol: nk.Tolerance = nk.DEFAULT_TOL) -> Endomorphism:
    """Conjugation by a unitary, restricted to the algebra.

    direction "adjoint" sends b to u* b u; "direct" sends b to u b u*.
    Raises if u is not unitary or if conjugation leaves the span (``_span``);
    the call that reads the map runs ``validate`` for the homomorphism laws.
    """
    u = nk.as_matrix(u, "u")
    n = domain.ambient_dim
    if u.shape != (n, n):
        raise DimensionMismatch(f"unitary shape {u.shape}, expected {(n, n)}")
    nk.require(nk.unitarity_residual(u), tol.bound(np.sqrt(n)), NotUnitary,
               "u* u deviates from the identity by {:.3e}", law="unitarity")
    if direction == "adjoint":
        images = u.conj().T @ domain.basis @ u
    elif direction == "direct":
        images = u @ domain.basis @ u.conj().T
    else:
        raise ValueError(f"direction must be 'adjoint' or 'direct', got {direction!r}")
    theta = Endomorphism(domain, images)
    nk.require(theta._span, tol.bound(1.0), AlgebraNotInvariant,
               "conjugation moves the span, worst basis residual {:.3e}", law="span")
    return theta


def compose(f: Endomorphism, g: Endomorphism,
            tol: nk.Tolerance = nk.DEFAULT_TOL) -> Endomorphism:
    """Composite applying g first, then f, validated with ``make``.

    The package composes iterates with ``iterates``; this stays public as
    the validated composite that the benchmark's traced runs wrap.
    """
    _same_domain(f, g)
    return make(f.domain, _after(f, g), tol)


def _after(f: Endomorphism, g: Endomorphism) -> np.ndarray:
    """Images f(g(b_j)) = sum_i <b_i, g(b_j)> f(b_i), one product on the flat images."""
    return (g.coefficient_matrix.T @ f.basis_images.reshape(f.domain.dim, -1)).reshape(
        f.basis_images.shape)


def iterates(f: Endomorphism, k: int) -> list[Endomorphism]:
    """[id, f, f f, ..., f^k], composed afresh on each call, each from the one
    before (``_after``): f keeps none, so the iterates live only as long as
    the caller's list. No law check runs here: callers validate f before the
    first iterate is used, and composites of a valid map are valid."""
    powers = [identity(f.domain)]
    for _ in range(_exponent(k)):
        powers.append(Endomorphism(f.domain, _after(f, powers[-1])))
    return powers


def _exponent(k) -> int:
    """k itself; a bool, a non-integer or a negative value raises DimensionMismatch."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 0:
        raise DimensionMismatch(f"exponent must be a nonnegative integer, got {k!r}")
    return k


def power(f: Endomorphism, k: int, tol: nk.Tolerance = nk.DEFAULT_TOL) -> Endomorphism:
    if _exponent(k) > 0:
        f.validate(tol)
    return iterates(f, k)[-1]


def is_faithful(f: Endomorphism, tol: nk.Tolerance = nk.DEFAULT_TOL) -> bool:
    """Injectivity via the singular values of the coefficient matrix.

    A non-finite basis image raises ImageOutsideAlgebra, the class ``make``
    gives for the same input, instead of reaching the SVD.
    """
    if not np.all(np.isfinite(f.coefficient_matrix)):
        raise ImageOutsideAlgebra("basis images are not finite")
    s = np.linalg.svd(f.coefficient_matrix, compute_uv=False)
    return bool(s.size and s[0] > 0 and s[-1] > tol.eps * s[0])


def is_automorphism(f: Endomorphism, tol: nk.Tolerance = nk.DEFAULT_TOL) -> bool:
    """Same test as faithfulness: injective maps are onto in finite dimension."""
    return is_faithful(f, tol)


def from_generator_images(ambient_dim: int, generators, images,
                          tol: nk.Tolerance = nk.DEFAULT_TOL):
    """Extend a map prescribed on algebra generators to all basis elements.

    The prescription g_i -> y_i extends to a unital *-homomorphism exactly
    when the *-algebra generated by the pairs g_i (+) y_i in M_2n is the
    graph of a map on the domain, that is, when it has the dimension of the
    domain; a larger graph means a word that vanishes in the source has a
    nonvanishing image. Both closures are ``from_generators``, so every rank
    decision follows the tolerance.

    Returns the pair (algebra, endomorphism).
    """
    n = int(ambient_dim)
    gens = [nk.as_matrix(g, f"generator {i}") for i, g in enumerate(generators)]
    imgs = [nk.as_matrix(y, f"image {i}") for i, y in enumerate(images)]
    if len(gens) != len(imgs):
        raise DimensionMismatch(f"{len(gens)} generators but {len(imgs)} images")
    for m in gens + imgs:
        if m.shape != (n, n):
            raise DimensionMismatch(f"expected shape {(n, n)}, got {m.shape}")
    pairs = np.zeros((len(gens), 2 * n, 2 * n), dtype=complex)
    pairs[:, :n, :n] = np.reshape(gens, (-1, n, n))
    pairs[:, n:, n:] = np.reshape(imgs, (-1, n, n))
    dom = alg.from_generators(n, gens, tol)
    graph = alg.from_generators(2 * n, pairs, tol)
    if graph.dim != dom.dim:
        raise InconsistentGeneratorImages(
            f"the graph algebra has dimension {graph.dim}, the domain {dom.dim}: a "
            f"vanishing word has a nonvanishing image; the prescription does not "
            f"define a homomorphism")
    # the source corners of the graph basis span the domain; the coefficients
    # that give the domain basis from them give its images from the image corners
    coeffs = nk.lstsq_map(graph.basis[:, :n, :n].reshape(dom.dim, -1), dom.flat)
    images = coeffs @ graph.basis[:, n:, n:].reshape(dom.dim, -1)
    return dom, make(dom, images.reshape(-1, n, n), tol)
