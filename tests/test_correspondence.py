import numpy as np
import pytest

from vnpair import algebra as alg
from vnpair import correspondence as corr
from vnpair import endo
from vnpair import numkernel as nk
from vnpair.errors import (AlgebraMismatch, DimensionMismatch,
                           InvalidCorrespondence)

SWAP = np.array([[0, 1], [1, 0]], dtype=complex)


def diag_algebra_2():
    gens = [np.diag([1.0, 0.0]).astype(complex),
            np.diag([0.0, 1.0]).astype(complex)]
    return alg.from_generators(2, gens)


def identity_corr(b):
    """The algebra as a correspondence over itself: the twist by the identity."""
    return corr.of_endomorphism(endo.identity(b))


def test_identity_correspondence_element_space_is_the_algebra():
    d2 = diag_algebra_2()
    e = identity_corr(d2)
    assert e.carrier_dim == 2
    x = e.element_space
    assert x.shape[0] == d2.dim
    # every element commutes with the commutant, hence lies in the algebra
    for xi in x:
        assert d2.contains(xi)


def test_full_algebra_identity_elements_fill_everything():
    m2 = alg.full_matrix_algebra(2)
    e = identity_corr(m2)
    assert e.element_space.shape[0] == 4


def test_element_coefficients_round_trip():
    d2 = diag_algebra_2()
    e = identity_corr(d2)
    x = e.element_space
    for i, xi in enumerate(x):
        c = e.element_coefficients(xi)
        expect = np.zeros(x.shape[0])
        expect[i] = 1.0
        assert np.allclose(c, expect)


def test_double_commutant_is_exactly_the_identity():
    """Swapping the stored actions twice must reproduce the fields verbatim."""
    d2 = diag_algebra_2()
    theta = endo.from_unitary(d2, SWAP)
    e = corr.of_endomorphism(theta)
    cc = corr.commutant(corr.commutant(e))
    assert cc.left is e.left
    assert cc.right is e.right
    assert cc.left_commutant is e.left_commutant
    assert cc.right_commutant is e.right_commutant
    assert np.array_equal(cc.rho, e.rho)
    assert np.array_equal(cc.rho_prime, e.rho_prime)
    assert cc.carrier_dim == e.carrier_dim


def test_intertwiner_space_of_conjugation_is_shifted_commutant():
    """For b -> u* b u on the full algebra the intertwiners are spanned by u*."""
    m3 = alg.full_matrix_algebra(3)
    u = nk.random_unitary(3, seed=4)
    theta = endo.from_unitary(m3, u, direction="adjoint")
    e = corr.intertwiner_space(theta)
    x = e.element_space
    assert x.shape[0] == 1
    overlap = abs(np.vdot(u.conj().T, x[0]))
    assert overlap == pytest.approx(np.sqrt(3), abs=1e-10)


def test_validate_reports_small_residuals():
    d2 = diag_algebra_2()
    theta = endo.from_unitary(d2, SWAP)
    worst = corr.of_endomorphism(theta).validate()
    assert worst["nondegenerate"] == 0.0
    assert all(v < 1e-12 for v in worst.values())


def test_constructor_rejects_wrong_rho_shape():
    d2 = diag_algebra_2()
    dc = alg.commutant(d2)
    with pytest.raises(DimensionMismatch):
        corr.Correspondence(left=d2, right=d2, left_commutant=dc,
                            right_commutant=dc, rho=d2.basis[:1],
                            rho_prime=dc.basis, carrier_dim=2)


def test_swap_and_identity_have_the_frozen_tables():
    """Multiplicity tables: identity pairs blocks straight, swap crosses.

    By hand: with both projections one-dimensional, tr(rho(z_i) rho'(z_j))
    is 1 when the identity correspondence matches z_i with the equal right
    projection and 0 otherwise, while the swap conjugation matches it with
    the other one. The blocks have equal signatures, so which enumeration
    order the two sides pick is not canonical; the unordered pair of tables
    is, and it must consist of the two 2 x 2 permutation matrices.
    """
    d2 = diag_algebra_2()
    e_id = identity_corr(d2)
    e_swap = corr.of_endomorphism(endo.from_unitary(d2, SWAP))
    decision = corr.find_isomorphism(e_id, e_swap)
    assert not decision.isomorphic
    assert not decision
    assert decision.unitary is None
    tables = {decision.table_left.counts, decision.table_right.counts}
    assert tables == {((1, 0), (0, 1)), ((0, 1), (1, 0))}
    assert decision.table_left.left_blocks == ((1, 1), (1, 1))
    assert decision.table_left.carrier_dim == 2


def test_identity_copies_are_isomorphic():
    d2 = diag_algebra_2()
    e = identity_corr(d2)
    f = corr.of_endomorphism(endo.identity(d2))
    decision = corr.find_isomorphism(e, f)
    assert decision.isomorphic
    u = decision.unitary
    assert np.linalg.norm(u.conj().T @ u - np.eye(2)) < 1e-10
    for be, bf in zip(e.rho, f.rho):
        assert np.linalg.norm(u @ be - bf @ u) < 1e-8


def test_full_algebra_identity_table():
    m2 = alg.full_matrix_algebra(2)
    decision = corr.find_isomorphism(identity_corr(m2), identity_corr(m2))
    assert decision.isomorphic
    assert decision.table_left.counts == ((1,),)
    assert decision.table_left.left_blocks == ((2, 1),)
    assert decision.table_left.right_blocks == ((1, 2),)


def test_find_isomorphism_rejects_different_algebras():
    d2 = diag_algebra_2()
    m2 = alg.full_matrix_algebra(2)
    with pytest.raises(AlgebraMismatch):
        corr.find_isomorphism(identity_corr(d2), identity_corr(m2))


def test_tensor_with_identity_is_identity():
    d2 = diag_algebra_2()
    e = identity_corr(d2)
    t = corr.tensor_product(e, e).corr
    assert t.carrier_dim == 2
    assert corr.find_isomorphism(t, e).isomorphic


def test_tensor_rejects_noncomposable():
    d2 = diag_algebra_2()
    m2 = alg.full_matrix_algebra(2)
    with pytest.raises(AlgebraMismatch):
        corr.tensor_product(identity_corr(d2), identity_corr(m2))


def test_embed_matches_inner_product_metric():
    """|x (x) h|^2 equals <h, rho_f(x* x) h> by construction of the Gram."""
    m2 = alg.full_matrix_algebra(2)
    u = nk.random_unitary(2, seed=3)
    e = corr.of_endomorphism(endo.from_unitary(m2, u))
    f = corr.of_endomorphism(endo.from_unitary(m2, u.conj().T))
    tp = corr.tensor_product(e, f)
    rng = np.random.default_rng(0)
    for xi in e.element_space[:3]:
        h = nk.random_complex(f.carrier_dim, rng)
        v = tp.embed_matrix(xi) @ h
        metric = np.vdot(h, f.rho_of(xi.conj().T @ xi) @ h)
        assert abs(np.vdot(v, v) - metric) < 1e-10


def test_embed_matrix_consistency():
    """Linear in the element, and carrying the inner product:
    embed_matrix(x)* embed_matrix(y) = rho_f(x* y)."""
    d2 = diag_algebra_2()
    e = identity_corr(d2)
    tp = corr.tensor_product(e, e)
    x, y = e.element_space
    assert np.allclose(tp.embed_matrix(x + 2.0j * y),
                       tp.embed_matrix(x) + 2.0j * tp.embed_matrix(y))
    for a in (x, y, x + y):
        for b in (x, y, x - 1.0j * y):
            assert np.allclose(tp.embed_matrix(a).conj().T @ tp.embed_matrix(b),
                               e.rho_of(a.conj().T @ b))


def test_lifted_actions_commute_on_the_quotient():
    m2 = alg.full_matrix_algebra(2)
    u = nk.random_unitary(2, seed=8)
    e = corr.of_endomorphism(endo.from_unitary(m2, u))
    t = corr.tensor_product(e, e).corr
    t.validate()


@pytest.mark.parametrize("seed", range(5))
def test_tensor_commutant_iso_is_unitary(seed):
    """Order-reversing identity on pairs of twisted full-algebra modules."""
    m2 = alg.full_matrix_algebra(2)
    e = corr.of_endomorphism(endo.from_unitary(m2, nk.random_unitary(2, seed)))
    f = corr.of_endomorphism(
        endo.from_unitary(m2, nk.random_unitary(2, seed + 100)))
    tensor_dim = corr.tensor_product(e, f).carrier_dim
    iso = corr.tensor_commutant_iso(e, f)
    assert iso.shape == (tensor_dim, tensor_dim)
    assert np.linalg.norm(iso.conj().T @ iso - np.eye(tensor_dim)) < 1e-8


def test_validate_rejects_a_nan_representation():
    d2 = diag_algebra_2()
    e = identity_corr(d2)
    rho = e.rho.copy()
    rho[1][0, 1] = np.nan
    # the light construction check already fails; so does the full law
    # check on a correspondence built without it
    with pytest.raises(InvalidCorrespondence):
        corr.Correspondence(e.left, e.right, e.left_commutant, e.right_commutant,
                            rho, e.rho_prime, e.carrier_dim)
    unchecked = corr.Correspondence(e.left, e.right, e.left_commutant,
                                    e.right_commutant, rho, e.rho_prime,
                                    e.carrier_dim, check=False)
    with pytest.raises(InvalidCorrespondence):
        unchecked.validate()
