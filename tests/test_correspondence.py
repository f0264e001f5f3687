import numpy as np
import pytest

from vnpair import algebra as alg
from vnpair import correspondence as corr
from vnpair import endo
from vnpair import numkernel as nk
from vnpair import prodsys as ps
from vnpair.errors import (AlgebraMismatch, DimensionMismatch,
                           EmptyTensorProduct, InvalidCorrespondence, NonIntegralRank)

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


def test_off_integer_joint_trace_raises():
    """rho' of the diagonal algebra turned by 1e-2 rad: the joint traces are
    cos^2 and sin^2 of the angle, off an integer by 1e-4, and the table
    refuses to round them."""
    d2 = diag_algebra_2()
    e = identity_corr(d2)
    angle = 1e-2
    v = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    turned = corr.Correspondence(d2, d2, e.left_commutant, e.right_commutant, e.rho,
                                 v @ e.rho_prime @ v.T, 2, check=False)
    with pytest.raises(NonIntegralRank) as info:
        corr.find_isomorphism(turned, e)
    err = info.value
    assert abs(err.trace - err.rank) == pytest.approx(np.sin(angle) ** 2)
    assert err.bound == 1e-6


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


def test_empty_quotient_is_a_typed_error():
    """The commutant of M_3 acting on C^3 has the element space C (I/sqrt 3);
    its Gram matrix is I/3, so a cutoff of 0.5 keeps no direction, which is
    a typed error, not a failed reshape of an empty quotient."""
    c = corr.commutant(identity_corr(alg.full_matrix_algebra(3)))
    assert corr.tensor_product(c, c).carrier_dim == 3
    with pytest.raises(EmptyTensorProduct) as info:
        corr.tensor_product(c, c, nk.Tolerance(0.5))
    assert "largest Gram eigenvalue 3.333e-01" in str(info.value)


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


# ---------------------------------------------------------------------------
# the light construction check: unit coefficients and one product per side


def _two_block_corr():
    return identity_corr(alg.random_algebra(4, [(2, 1), (1, 2)], seed=3))


def _rebuild(e, rho, rho_prime):
    return corr.Correspondence(e.left, e.right, e.left_commutant, e.right_commutant,
                               rho, rho_prime, e.carrier_dim)


def test_unit_coefficients_are_those_of_the_identity():
    b = alg.random_algebra(5, [(2, 2), (1, 1)], seed=4)
    coeffs = b.unit_coefficients
    assert np.array_equal(coeffs, b.coefficients(np.eye(5)))
    assert b.unit_coefficients is coeffs  # computed once
    assert np.allclose(np.tensordot(coeffs, b.basis, axes=(0, 0)), np.eye(5))


def test_light_check_rejects_a_non_unital_left_action():
    e = _two_block_corr()
    _rebuild(e, e.rho, e.rho_prime)  # the unperturbed fields pass
    with pytest.raises(InvalidCorrespondence, match="^left action not unital, residual"):
        _rebuild(e, 0.5 * e.rho, e.rho_prime)


def test_light_check_rejects_a_non_unital_commutant_action():
    e = _two_block_corr()
    with pytest.raises(InvalidCorrespondence,
                       match="^commutant action not unital, residual"):
        _rebuild(e, e.rho, 0.5 * e.rho_prime)


def test_light_check_rejects_non_commuting_ranges():
    """rho_prime moved by a unitary 1e-3 away from the identity: still a
    unital representation, no longer commuting with rho."""
    e = _two_block_corr()
    rng = np.random.default_rng(2)
    x = nk.random_complex((4, 4), rng)
    lam, vec = np.linalg.eigh(1e-3 * (x + x.conj().T) / 2.0)
    w = (vec * np.exp(1j * lam)) @ vec.conj().T
    moved = w @ e.rho_prime @ w.conj().T
    assert nk.worst_norm(moved - e.rho_prime) > 1e-4
    with pytest.raises(InvalidCorrespondence,
                       match="^ranges do not commute, residual [1-9]"):
        _rebuild(e, e.rho, moved)


def test_light_check_rejects_nan_in_rho():
    e = _two_block_corr()
    rho = e.rho.copy()
    rho[2][1, 0] = np.nan
    with pytest.raises(InvalidCorrespondence,
                       match="^left action not unital, residual nan"):
        _rebuild(e, rho, e.rho_prime)


def test_tolerance_reaches_every_element_space(monkeypatch):
    """The construction tolerance of a correspondence is the one its
    element space is computed at, through of_endomorphism, commutant,
    TensorProduct and the product-system builders."""
    tol = nk.Tolerance(1e-7)
    b = alg.random_algebra(4, [(2, 1), (1, 2)], seed=3)
    theta = endo.from_unitary(b, np.eye(4))
    alg.commutant(b, tol)
    seen = []
    kernel = nk.intertwiners

    def spy(lefts, rights, shape, tol=nk.DEFAULT_TOL, laws=None):
        seen.append(tol)
        return kernel(lefts, rights, shape, tol, laws)

    monkeypatch.setattr(nk, "intertwiners", spy)
    e = corr.of_endomorphism(theta, tol=tol)
    for get in (lambda: e, lambda: corr.commutant(e),
                lambda: corr.TensorProduct(e, e, tol).corr):
        seen.clear()
        get().element_space
        assert seen == [tol]
    seen.clear()
    p = ps.from_endomorphism(theta, 2, tol)
    assert seen == [tol]
    assert all(m.tol == tol for m in p.members)
    seen.clear()
    ps.commutant_system(p, tol)
    assert seen == [tol] * 3
