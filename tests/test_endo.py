import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles as orc
from vnpair import algebra as alg
from vnpair import endo
from vnpair import numkernel as nk
from vnpair import selftest
from vnpair.errors import (AlgebraNotInvariant, DimensionMismatch,
                           DomainMismatch, ImageOutsideAlgebra, InvalidAlgebra,
                           InconsistentGeneratorImages, NotMultiplicative,
                           NotStar, NotUnital, NotUnitary)

SWAP = np.array([[0, 1], [1, 0]], dtype=complex)


def diag_algebra_2():
    gens = [np.diag([1.0, 0.0]).astype(complex),
            np.diag([0.0, 1.0]).astype(complex)]
    return alg.from_generators(2, gens)


def test_swap_conjugation_exchanges_projections():
    """Conjugating diag(a, b) by the swap matrix gives diag(b, a)."""
    d2 = diag_algebra_2()
    theta = endo.from_unitary(d2, SWAP)
    assert np.allclose(theta(np.diag([1.0, 0.0])), np.diag([0.0, 1.0]))
    assert np.allclose(theta(np.diag([1.0, 2.0])), np.diag([2.0, 1.0]))


def test_identity_has_identity_coefficients():
    d2 = diag_algebra_2()
    ident = endo.identity(d2)
    assert np.allclose(ident.coefficient_matrix, np.eye(d2.dim))
    x = np.diag([3.0, -1.0])
    assert np.allclose(ident(x), x)


def test_adjoint_and_direct_are_inverse():
    m3 = alg.full_matrix_algebra(3)
    u = nk.random_unitary(3, seed=7)
    forward = endo.from_unitary(m3, u, direction="adjoint")
    backward = endo.from_unitary(m3, u, direction="direct")
    both = endo.compose(forward, backward)
    assert np.allclose(both.coefficient_matrix, np.eye(m3.dim), atol=1e-12)


def test_power_of_involution_is_identity():
    d2 = diag_algebra_2()
    theta = endo.from_unitary(d2, SWAP)
    assert np.allclose(endo.power(theta, 2).coefficient_matrix, np.eye(2))
    assert np.allclose(endo.power(theta, 0).coefficient_matrix, np.eye(2))
    assert np.allclose(endo.power(theta, 3).coefficient_matrix,
                       theta.coefficient_matrix)
    with pytest.raises(DimensionMismatch):
        endo.power(theta, -1)


def test_iterates_match_repeated_composition():
    b = alg.random_algebra(6, [(2, 1), (1, 2), (1, 2)], seed=8)
    u = selftest.unitary_inside(b, np.random.default_rng(3))
    theta = endo.from_unitary(b, u)
    chain = endo.iterates(theta, 4)
    assert len(chain) == 5
    assert np.allclose(chain[0].basis_images, b.basis)
    composed = endo.identity(b)
    for k in range(1, 5):
        composed = endo.compose(theta, composed)
        assert np.allclose(chain[k].basis_images, composed.basis_images,
                           atol=1e-12)
        assert np.allclose(chain[k].basis_images,
                           endo.power(theta, k).basis_images, atol=1e-12)
    assert len(endo.iterates(theta, 0)) == 1
    with pytest.raises(DimensionMismatch):
        endo.iterates(theta, -1)


@pytest.mark.parametrize("k", [-1, True, 2.5, "2", None])
def test_exponents_must_be_nonnegative_integers(k):
    """A bool is not read as 1, nor 2.5 cut to an integer, and a string or
    None is not compared with 0: iterates and power raise DimensionMismatch."""
    theta = endo.from_unitary(diag_algebra_2(), SWAP)
    with pytest.raises(DimensionMismatch, match="nonnegative integer"):
        endo.iterates(theta, k)
    with pytest.raises(DimensionMismatch, match="nonnegative integer"):
        endo.power(theta, k)


def test_iterates_are_composed_afresh_and_not_kept():
    """Each call composes new iterates, which agree with the einsum oracle,
    and the map holds none of them afterwards."""
    b = alg.random_algebra(6, [(2, 1), (1, 2), (1, 2)], seed=8)
    theta = endo.from_unitary(b, selftest.unitary_inside(b, np.random.default_rng(3)))
    first = endo.iterates(theta, 2)
    later = endo.iterates(theta, 5)
    assert len(first) == 3 and len(later) == 6
    assert not any(x is y for x, y in zip(first, later))
    for power_k, oracle in zip(later, orc.einsum_iterates(theta, 5)):
        assert np.abs(power_k.basis_images - oracle).max() <= 1e-15
    for x, y in zip(first, later):
        assert np.array_equal(x.basis_images, y.basis_images)
    # the cached span residual is a float: no array is kept besides the images
    assert set(vars(theta)) <= {"domain", "basis_images", "coefficient_matrix", "_span",
                                "law_residuals"}
    refs = [weakref.ref(x) for x in first + later]
    del first, later, x, y, power_k  # the loops' last items too
    assert all(r() is None for r in refs)


def test_power_rejects_an_invalid_map_at_positive_exponents():
    d2 = diag_algebra_2()
    outside = endo.Endomorphism(d2, np.array([SWAP, SWAP]))
    with pytest.raises(ImageOutsideAlgebra):
        endo.power(outside, 3)
    assert np.allclose(endo.power(outside, 0).basis_images, d2.basis)


def test_validate_compares_the_stored_residuals_with_each_tolerance(monkeypatch):
    """Residuals are computed once, at make; a later, tighter tolerance
    still sees them over its bound."""
    calls = []
    real = endo.hom_residuals

    def counted(domain, images):
        calls.append(domain)
        return real(domain, images)
    monkeypatch.setattr(endo, "hom_residuals", counted)
    d2 = diag_algebra_2()
    theta = endo.make(d2, d2.basis * (1.0 + 1e-9), nk.Tolerance(1e-6))
    assert 1e-12 < theta.law_residuals["unital"] < 1e-6
    with pytest.raises(NotUnital):
        theta.validate(nk.Tolerance(1e-12))
    assert theta.validate(nk.Tolerance(1e-6)) == theta.law_residuals
    assert len(calls) == 1


def test_from_unitary_rejects_nonunitary():
    d2 = diag_algebra_2()
    with pytest.raises(NotUnitary):
        endo.from_unitary(d2, np.diag([1.0, 2.0]))


def test_from_unitary_rejects_noninvariant_algebra():
    # the Hadamard matrix moves diag(1, 0) off the diagonal
    d2 = diag_algebra_2()
    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    with pytest.raises(AlgebraNotInvariant):
        endo.from_unitary(d2, hadamard)


def test_from_unitary_computes_the_span_residual_once(monkeypatch):
    """The invariance check and the law check read one stored residual."""
    # built first: the generator check and the frame's own span check are
    # not from_unitary's
    d2 = diag_algebra_2()
    alg.block_decompose(d2)
    calls = []
    real = nk.span_residual

    def counted(rows, basis_flat):
        calls.append(rows)
        return real(rows, basis_flat)
    monkeypatch.setattr(nk, "span_residual", counted)
    theta = endo.from_unitary(d2, SWAP)
    assert len(calls) == 1
    assert theta.law_residuals["span"] <= 1e-12


def test_from_unitary_rejects_bad_direction():
    d2 = diag_algebra_2()
    with pytest.raises(ValueError):
        endo.from_unitary(d2, SWAP, direction="sideways")


def test_make_rejects_image_outside_span():
    d2 = diag_algebra_2()
    e01 = np.array([[0, 1], [0, 0]], dtype=complex)
    with pytest.raises(ImageOutsideAlgebra):
        endo.make(d2, [e01, e01.conj().T])


def test_make_rejects_a_nan_image():
    d2 = diag_algebra_2()
    images = d2.basis.copy()
    images[0][0, 0] = np.nan
    with pytest.raises(ImageOutsideAlgebra):
        endo.make(d2, images)


def test_make_rejects_nonunital_map():
    d2 = diag_algebra_2()
    images = np.array([np.diag([1.0, 0.0]), np.diag([1.0, 0.0])], dtype=complex)
    with pytest.raises(NotUnital):
        endo.make(d2, images)


def test_make_rejects_transpose_map():
    # the transpose is unital and star-preserving but reverses products
    m2 = alg.full_matrix_algebra(2)
    images = m2.basis.transpose(0, 2, 1).copy()
    with pytest.raises(NotMultiplicative):
        endo.make(m2, images)


def test_make_rejects_nonunitary_similarity():
    # b -> s b s^-1 is an algebra map but breaks adjoints for s = diag(1, 2)
    m2 = alg.full_matrix_algebra(2)
    s = np.diag([1.0, 2.0]).astype(complex)
    s_inv = np.diag([1.0, 0.5]).astype(complex)
    images = np.einsum("ij,bjk,kl->bil", s, m2.basis, s_inv)
    with pytest.raises(NotStar):
        endo.make(m2, images)


def test_collapse_map_is_valid_but_not_faithful():
    """diag(a, b) -> diag(a, a) is a unital *-map with a kernel."""
    d2 = diag_algebra_2()
    # the orthonormal basis is diagonal, so copying the top entry across
    # the whole diagonal realizes the collapse on basis elements
    images = [np.diag([b[0, 0], b[0, 0]]).astype(complex) for b in d2.basis]
    theta = endo.make(d2, np.array(images))
    assert not endo.is_faithful(theta)
    assert not endo.is_automorphism(theta)
    assert np.allclose(theta(np.diag([1.0, 5.0])), np.eye(2))


def test_conjugation_is_automorphism():
    m3 = alg.full_matrix_algebra(3)
    theta = endo.from_unitary(m3, nk.random_unitary(3, seed=1))
    assert endo.is_faithful(theta)
    assert endo.is_automorphism(theta)


def test_compose_rejects_mismatched_domains():
    d2 = diag_algebra_2()
    m2 = alg.full_matrix_algebra(2)
    with pytest.raises(DomainMismatch):
        endo.compose(endo.identity(d2), endo.identity(m2))


def test_from_generator_images_sign_flip():
    """u -> -u extends to the sign automorphism of span{1, u}."""
    dom, theta = endo.from_generator_images(2, [SWAP], [-SWAP])
    assert dom.dim == 2
    assert np.allclose(theta(SWAP), -SWAP)
    assert np.allclose(theta(np.eye(2)), np.eye(2))


def test_from_generator_images_matches_permutation_conjugation():
    """Prescribing a cyclic shift of projections recovers Ad of the cycle."""
    gens = [np.diag([1.0, 0.0, 0.0]).astype(complex),
            np.diag([0.0, 1.0, 0.0]).astype(complex)]
    images = [np.diag([0.0, 1.0, 0.0]).astype(complex),
              np.diag([0.0, 0.0, 1.0]).astype(complex)]
    dom, theta = endo.from_generator_images(3, gens, images)
    assert dom.dim == 3
    cycle = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=complex)
    reference = endo.from_unitary(dom, cycle, direction="adjoint")
    assert np.allclose(theta.coefficient_matrix, reference.coefficient_matrix,
                       atol=1e-12)


def test_from_generator_images_rejects_scaling():
    # u -> 2u forces the word u^2 = 1 to map to 4, not a homomorphism
    with pytest.raises(InconsistentGeneratorImages):
        endo.from_generator_images(2, [SWAP], [2.0 * SWAP])


@pytest.mark.parametrize("delta, error", [(1e-3, InconsistentGeneratorImages),
                                          (1e-6, InconsistentGeneratorImages),
                                          (1e-12, None)])
def test_from_generator_images_inconsistency_follows_the_tolerance(delta, error):
    """SWAP -> (1 + delta) SWAP sends the word SWAP^2 = 1 to (1 + delta)^2 1;
    the prescription is rejected as soon as delta clears eps, not sqrt(eps)."""
    tol = nk.Tolerance(1e-9)
    if error is None:
        _, theta = endo.from_generator_images(2, [SWAP], [(1 + delta) * SWAP], tol)
        assert np.allclose(theta(SWAP), SWAP, atol=1e-10)
    else:
        with pytest.raises(error):
            endo.from_generator_images(2, [SWAP], [(1 + delta) * SWAP], tol)


@pytest.mark.parametrize("seed", range(6))
def test_from_generator_images_recovers_a_normalizing_conjugation(seed):
    """Generators of a sampled algebra sent to v* g v, v normalizing: the
    domain is the algebra the generators generate and the map is Ad v*."""
    rng = np.random.default_rng([seed, 41])
    sample = selftest.sample_algebra(rng, 8)
    v = selftest.normalizing_unitary(sample, rng)
    gens = list(sample.algebra.generators)
    dom, theta = endo.from_generator_images(
        sample.ambient_dim, gens, [v.conj().T @ g @ v for g in gens])
    assert alg.equals(dom, alg.from_generators(sample.ambient_dim, gens))
    for x in dom.basis:
        assert np.linalg.norm(theta(x) - v.conj().T @ x @ v) < 1e-10


def test_is_faithful_rejects_a_nan_image():
    """A NaN image used to reach the SVD and raise numpy's LinAlgError."""
    d2 = diag_algebra_2()
    images = d2.basis.copy()
    images[0][0, 0] = np.nan
    theta = endo.Endomorphism(d2, images)
    with pytest.raises(ImageOutsideAlgebra):
        endo.is_faithful(theta)
    with pytest.raises(ImageOutsideAlgebra):
        endo.is_automorphism(theta)


def test_from_generator_images_counts_arguments():
    with pytest.raises(DimensionMismatch):
        endo.from_generator_images(2, [SWAP], [SWAP, SWAP])


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_conjugation_round_trip_property(seed):
    m2 = alg.full_matrix_algebra(2)
    u = nk.random_unitary(2, seed)
    forward = endo.from_unitary(m2, u, direction="adjoint")
    backward = endo.from_unitary(m2, u, direction="direct")
    assert np.allclose(endo.compose(backward, forward).coefficient_matrix,
                       np.eye(4), atol=1e-10)


def test_call_agrees_with_the_tensordot_contraction():
    """theta(x) as one product on the flattened images equals the
    contraction of the coefficients of x with the stacked images."""
    b = alg.random_algebra(6, [(2, 1), (1, 2), (1, 2)], seed=8)
    rng = np.random.default_rng(8)
    theta = endo.from_unitary(b, selftest.unitary_inside(b, rng))
    for x in (b.basis[0], b.project(nk.random_complex((6, 6), rng))):
        ref = np.tensordot(b.coefficients(x), theta.basis_images, axes=(0, 0))
        assert np.linalg.norm(theta(x) - ref) <= 1e-15


RELATION_SIGNATURES = [[(2, 8), (2, 8)], [(3, 2)], [(2, 1), (1, 3)], [(4, 6), (6, 4)]]


@pytest.mark.parametrize("blocks", RELATION_SIGNATURES, ids=str)
def test_presentation_check_against_the_basis_pair_check(blocks):
    """An inner automorphism with every basis image moved by delta times a
    unit-norm random matrix: the frame's residuals are at least the
    basis-pair ones, so they reject whatever those reject at any bound,
    and they agree within the factors ``hom_residuals`` states."""
    b = alg.random_algebra(sum(s * m for s, m in blocks), blocks, seed=len(blocks))
    n, d = b.ambient_dim, b.dim
    rng = np.random.default_rng(d)
    images = endo.from_unitary(b, selftest.unitary_inside(b, rng)).basis_images
    sig = alg.block_decompose(b)
    for delta in (1e-9, 1e-6, 1e-3):
        noise = nk.random_complex(images.shape, rng)
        moved = images + delta * noise / np.linalg.norm(noise, axis=(1, 2))[:, None, None]
        new = endo.hom_residuals(b, moved)
        old = orc.basis_pair_hom_residuals(b, moved)
        assert new["unital"] == old["unital"]
        assert old["star"] <= new["star"] <= n * np.sqrt(d) * old["star"]
        # c: operator norms of the row [f_j1] and the column [f_1k]
        f = [np.tensordot(sig.unit_grid(i).reshape(a * a, -1) @ b.flat.conj().T, moved,
                          axes=(1, 0)).reshape(a, a, n, n) for i, (a, _) in enumerate(sig.blocks)]
        col = np.concatenate([x[:, 0] for x in f])
        row = np.concatenate([x[0] for x in f])
        c = max(1.0, np.linalg.norm(col.transpose(1, 0, 2).reshape(n, -1), 2),
                np.linalg.norm(row.reshape(-1, n), 2))
        r = new["multiplicative"]
        assert old["multiplicative"] <= r <= np.sqrt(2) * d * n * old["multiplicative"]
        assert old["multiplicative"] <= np.sqrt(17) * c * c * r + r * r


def test_law_residuals_at_n32_stay_below_one_pair_product_array():
    """theta' on B' (dim 128) at n = 32: the basis-pair check formed
    d^2 x n^2 complex arrays (268 MB each); the frame's check stays far
    below one of them."""
    n = 32
    bp = alg.commutant(alg.random_algebra(n, [(2, 8), (2, 8)], seed=1))
    theta = endo.Endomorphism(bp, bp.basis.copy())
    tracemalloc.start()
    try:
        res = theta.law_residuals
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert bp.dim == 128
    assert max(res.values()) <= 1e-10
    assert peak < bp.dim ** 2 * n * n * 16


def test_law_checks_read_the_frame_at_the_domain_tolerance():
    """M_2 (x) 1_2 (+) C closed from generators moved by 1e-7, at tolerance
    1e-5: its identity lies about 4e-7 off the span, so it has no frame at
    the default tolerance, and the law checks of a map on it read the frame
    at the tolerance the domain was built with."""
    rng = np.random.default_rng(0)
    shift = np.zeros((5, 5), dtype=complex)
    shift[0, 2] = shift[1, 3] = 1.0
    gens = [g + 1e-7 * nk.random_complex((5, 5), rng)
            for g in (shift, np.diag([1.0, 1, 0, 0, 0]).astype(complex))]
    tol = nk.Tolerance(1e-5)
    a = alg.from_generators(5, gens, tol)
    assert a.tol == tol and a.dim == 5
    with pytest.raises(InvalidAlgebra):
        alg.block_decompose(a)
    theta = endo.from_unitary(a, np.eye(5), tol=tol)
    assert 1e-9 < max(theta.law_residuals.values()) < 1e-5


def test_each_law_error_names_its_law_residual_and_bound():
    """The four laws of ``Endomorphism.validate`` and from_unitary's
    invariance check raise errors that carry law, residual and bound, with
    the residual in the message."""
    d2, m2 = diag_algebra_2(), alg.full_matrix_algebra(2)
    e01 = np.array([[0, 1], [0, 0]], dtype=complex)
    s, s_inv = np.diag([1.0, 2.0]), np.diag([1.0, 0.5])
    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    cases = [
        (ImageOutsideAlgebra, "span", lambda: endo.make(d2, [e01, e01.conj().T])),
        (NotUnital, "unital", lambda: endo.make(d2, np.array([np.diag([1.0, 0.0])] * 2))),
        (NotMultiplicative, "multiplicative",
         lambda: endo.make(m2, m2.basis.transpose(0, 2, 1).copy())),
        (NotStar, "star", lambda: endo.make(m2, s @ m2.basis @ s_inv)),
        (AlgebraNotInvariant, "span", lambda: endo.from_unitary(d2, hadamard))]
    for error, law, build in cases:
        with pytest.raises(error) as info:
            build()
        err = info.value
        assert err.law == law and not err.residual <= err.bound, error
        assert f"{err.residual:.3e}" in str(err)


def test_building_a_map_copies_no_basis():
    """A map on the n = 64 commutant of [(4, 8), (8, 4)] (5 MiB of basis)
    allocates well under one basis copy: the identity shares its domain's
    basis, and the coefficient matrix is formed on first read only."""
    bp = alg.commutant(alg.random_algebra(64, [(4, 8), (8, 4)], seed=1))
    images = bp.basis.copy()
    tracemalloc.start()
    try:
        maps = [endo.identity(bp), endo.Endomorphism(bp, images)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bp.basis.nbytes / 100
    assert np.shares_memory(maps[0].basis_images, bp.basis)
    assert maps[0].basis_images is not bp.basis  # not read as the defining representation
    assert "coefficient_matrix" not in vars(maps[1])
    assert np.array_equal(maps[1].coefficient_matrix,
                          bp.flat.conj() @ images.reshape(bp.dim, -1).T)
