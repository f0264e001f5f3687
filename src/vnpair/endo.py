"""Unital normal *-endomorphisms of a stored matrix *-algebra.

A map is kept as the images of the orthonormal algebra basis together with
the induced matrix on coefficient space. Construction validates the four
laws (unitality, multiplicativity, adjoints, image containment) on basis
elements, which pins the map down by linearity.
"""

from __future__ import annotations

import numpy as np

from . import numkernel as nk
from .algebra import VnAlgebra, from_generators
from .errors import (AlgebraNotInvariant, DimensionMismatch, DomainMismatch,
                     ImageOutsideAlgebra, InconsistentGeneratorImages,
                     NotMultiplicative, NotStar, NotUnital, NotUnitary)


class Endomorphism:
    """Linear map on an algebra, stored through basis images.

    Instances are produced by the factories below, which run the law checks;
    the constructor itself only wires the data.
    """

    def __init__(self, domain: VnAlgebra, basis_images: np.ndarray):
        self.domain = domain
        self.basis_images = np.asarray(basis_images, dtype=complex)
        if self.basis_images.shape != domain.basis.shape:
            raise DimensionMismatch(
                f"images shape {self.basis_images.shape} does not match "
                f"domain basis shape {domain.basis.shape}")
        # coefficient_matrix[i, j] = <b_i, theta(b_j)>
        self.coefficient_matrix = domain.flat.conj() @ \
            self.basis_images.reshape(domain.dim, -1).T

    def __call__(self, x) -> np.ndarray:
        """Apply to an ambient matrix lying in the domain span."""
        return np.tensordot(self.domain.coefficients(x), self.basis_images, axes=(0, 0))

    def __repr__(self) -> str:
        return f"Endomorphism(ambient_dim={self.domain.ambient_dim}, dim={self.domain.dim})"


def _same_domain(f: Endomorphism, g: Endomorphism) -> None:
    if f.domain is not g.domain and not np.array_equal(f.domain.basis, g.domain.basis):
        raise DomainMismatch("maps are stored over different domain bases")


def make(domain: VnAlgebra, images, tol: nk.Tolerance = nk.DEFAULT_TOL) -> Endomorphism:
    """Validated endomorphism from basis images.

    Checks, on basis elements and basis pairs: images stay in the span, the
    identity maps to the identity, products map to products, adjoints to
    adjoints. Residuals are Frobenius norms against the hybrid bound.
    """
    images = np.asarray(images, dtype=complex)
    theta = Endomorphism(domain, images)
    d, n = domain.dim, domain.ambient_dim
    flat = images.reshape(d, -1)

    resid = flat - (flat @ domain.flat.conj().T) @ domain.flat
    worst = float(np.linalg.norm(resid, axis=1).max())
    if worst > tol.bound(1.0):
        raise ImageOutsideAlgebra(f"image leaves the algebra span, residual {worst:.3e}")

    eye = np.eye(n, dtype=complex)
    unit = theta(eye)
    res = float(np.linalg.norm(unit - eye))
    if res > tol.bound(np.sqrt(n)):
        raise NotUnital(f"identity maps with residual {res:.3e}")

    # row (a, b): theta(b_a b_b) through the coefficients of b_a b_b, against
    # theta(b_a) theta(b_b)
    prods = (domain.basis[:, None] @ domain.basis[None, :]).reshape(d * d, -1)
    lhs = (prods @ domain.flat.conj().T) @ flat
    rhs = (images[:, None] @ images[None, :]).reshape(d * d, -1)
    res = float(np.linalg.norm(lhs - rhs, axis=1).max())
    if res > tol.bound(1.0):
        raise NotMultiplicative(f"worst product residual {res:.3e} on basis pairs")

    adjoints = domain.basis.conj().transpose(0, 2, 1).reshape(d, -1)
    lhs_star = (adjoints @ domain.flat.conj().T) @ flat
    rhs_star = images.conj().transpose(0, 2, 1).reshape(d, -1)
    res = float(np.linalg.norm(lhs_star - rhs_star, axis=1).max())
    if res > tol.bound(1.0):
        raise NotStar(f"worst adjoint residual {res:.3e} on basis elements")
    return theta


def identity(domain: VnAlgebra) -> Endomorphism:
    return Endomorphism(domain, domain.basis.copy())


def from_unitary(domain: VnAlgebra, u, direction: str = "adjoint",
                 tol: nk.Tolerance = nk.DEFAULT_TOL) -> Endomorphism:
    """Conjugation by a unitary, restricted to the algebra.

    direction "adjoint" sends b to u* b u; "direct" sends b to u b u*.
    Raises if u is not unitary or if conjugation leaves the span.
    """
    u = nk.as_matrix(u, "u")
    n = domain.ambient_dim
    if u.shape != (n, n):
        raise DimensionMismatch(f"unitary shape {u.shape}, expected {(n, n)}")
    gram = u.conj().T @ u
    res = float(np.linalg.norm(gram - np.eye(n)))
    if res > tol.bound(np.sqrt(n)):
        raise NotUnitary(f"u* u deviates from the identity by {res:.3e}")
    if direction == "adjoint":
        images = np.einsum("ij,bjk,kl->bil", u.conj().T, domain.basis, u)
    elif direction == "direct":
        images = np.einsum("ij,bjk,kl->bil", u, domain.basis, u.conj().T)
    else:
        raise ValueError(f"direction must be 'adjoint' or 'direct', got {direction!r}")
    flat = images.reshape(domain.dim, -1)
    resid = flat - (flat @ domain.flat.conj().T) @ domain.flat
    worst = float(np.linalg.norm(resid, axis=1).max())
    if worst > tol.bound(1.0):
        raise AlgebraNotInvariant(
            f"conjugation moves the span, worst basis residual {worst:.3e}")
    return make(domain, images, tol)


def compose(f: Endomorphism, g: Endomorphism,
            tol: nk.Tolerance = nk.DEFAULT_TOL) -> Endomorphism:
    """Composite applying g first, then f."""
    _same_domain(f, g)
    images = np.einsum("de,eij->dij", g.coefficient_matrix.T, f.basis_images)
    return make(f.domain, images, tol)


def iterates(f: Endomorphism, k: int) -> list[Endomorphism]:
    """The list [id, f, f f, ..., f^k], composed on coefficient matrices.

    No law check runs here: callers validate f once with ``make`` before
    the first iterate is used, and composites of a valid map are valid.
    """
    if k < 0:
        raise ValueError(f"exponent must be nonnegative, got {k}")
    out = [identity(f.domain)]
    for _ in range(k):
        out.append(Endomorphism(f.domain, np.einsum(
            "de,eij->dij", out[-1].coefficient_matrix.T, f.basis_images)))
    return out


def power(f: Endomorphism, k: int, tol: nk.Tolerance = nk.DEFAULT_TOL) -> Endomorphism:
    if k > 0:
        make(f.domain, f.basis_images, tol)
    return iterates(f, k)[-1]


def is_faithful(f: Endomorphism, tol: nk.Tolerance = nk.DEFAULT_TOL) -> bool:
    """Injectivity via the singular values of the coefficient matrix."""
    s = np.linalg.svd(f.coefficient_matrix, compute_uv=False)
    return bool(s.size and s[0] > 0 and s[-1] > tol.eps * s[0])


def is_automorphism(f: Endomorphism, tol: nk.Tolerance = nk.DEFAULT_TOL) -> bool:
    """Same test as faithfulness: injective maps are onto in finite dimension."""
    return is_faithful(f, tol)


def from_generator_images(ambient_dim: int, generators, images,
                          tol: nk.Tolerance = nk.DEFAULT_TOL):
    """Extend a map prescribed on algebra generators to all basis elements.

    Closes the generated algebra while carrying candidate images along:
    words are orthonormalized by the source component only, and the same
    linear operations are applied to the image component. A word that
    vanishes in the source while its image does not means the prescription
    is not a well defined homomorphism.

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

    eye = np.eye(n, dtype=complex)
    pool_x = [eye] + gens + [g.conj().T for g in gens]
    pool_y = [eye] + imgs + [y.conj().T for y in imgs]

    basis_x: list[np.ndarray] = []
    basis_y: list[np.ndarray] = []

    def absorb(x, y):
        xr, yr = x.reshape(-1), y.reshape(-1)
        source_scale = max(1.0, float(np.linalg.norm(xr)))
        for _ in range(2):  # re-orthogonalize once for stability
            for bx, by in zip(basis_x, basis_y):
                c = np.vdot(bx, xr)
                xr = xr - c * bx
                yr = yr - c * by
        nx = float(np.linalg.norm(xr))
        if nx > tol.eps * source_scale:
            basis_x.append(xr / nx)
            basis_y.append(yr / nx)
            return True
        if float(np.linalg.norm(yr)) > np.sqrt(tol.eps) * source_scale:
            raise InconsistentGeneratorImages(
                "a vanishing word has a nonvanishing image; the prescription "
                "does not define a homomorphism")
        return False

    for x, y in zip(pool_x, pool_y):
        absorb(x, y)
    for _ in range(2 * n * n + 2):
        grew = False
        snapshot = list(zip(list(basis_x), list(basis_y)))
        for bx, by in snapshot:
            for px, py in zip(pool_x, pool_y):
                x = px @ bx.reshape(n, n)
                y = py @ by.reshape(n, n)
                grew |= absorb(x, y)
        if not grew:
            break
    else:
        raise InconsistentGeneratorImages("closure with images did not stabilize")

    dom = VnAlgebra(n, np.array(basis_x).reshape(-1, n, n),
                    generators=np.array(gens) if gens else None, tol=tol)
    theta = make(dom, np.array(basis_y).reshape(-1, n, n), tol)
    return dom, theta
