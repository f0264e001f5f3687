import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vnpair import algebra as alg
from vnpair import endo
from vnpair import numkernel as nk
from vnpair import selftest
from vnpair.errors import (AlgebraNotInvariant, DimensionMismatch,
                           DomainMismatch, ImageOutsideAlgebra,
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
    with pytest.raises(ValueError):
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
    with pytest.raises(ValueError):
        endo.iterates(theta, -1)


def test_power_rejects_an_invalid_map_at_positive_exponents():
    d2 = diag_algebra_2()
    outside = endo.Endomorphism(d2, np.array([SWAP, SWAP]))
    with pytest.raises(ImageOutsideAlgebra):
        endo.power(outside, 3)
    assert np.allclose(endo.power(outside, 0).basis_images, d2.basis)


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
