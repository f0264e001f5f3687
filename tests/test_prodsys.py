import numpy as np
import pytest

from vnpair import algebra as alg
from vnpair import correspondence as corr
from vnpair import endo
from vnpair import numkernel as nk
from vnpair import prodsys as ps
from vnpair.errors import (DimensionMismatch, NotFaithful, NotFullAlgebra,
                           NotUnitVector, NoUnitVector, ProductSystemLawError)


def unitary_in(b, seed):
    """A unitary element of the algebra, exp(i h) of a random Hermitian."""
    rng = np.random.default_rng(seed)
    x = np.tensordot(nk.random_complex(b.dim, rng), b.basis, axes=(0, 0))
    h = (x + x.conj().T) / 2.0
    lam, vec = np.linalg.eigh(h)
    return (vec * np.exp(1j * lam)) @ vec.conj().T


def diag_algebra_2():
    gens = [np.diag([1.0, 0.0]).astype(complex),
            np.diag([0.0, 1.0]).astype(complex)]
    return alg.from_generators(2, gens)


@pytest.fixture(scope="module")
def inner_system():
    """Inner automorphism of a two-block algebra, with its dilation chain."""
    b = alg.random_algebra(4, [(2, 1), (1, 2)], seed=3)
    v = unitary_in(b, 11)
    theta = endo.from_unitary(b, v)
    p = ps.from_endomorphism(theta, horizon=3)
    return b, v, theta, p


@pytest.fixture(scope="module")
def commutant_of_inner(inner_system):
    _, _, _, p = inner_system
    return ps.commutant_system(p)


def test_identity_system_products_multiply():
    d2 = diag_algebra_2()
    p = ps.from_endomorphism(endo.identity(d2), horizon=2)
    x = np.diag([1.0, 2.0]).astype(complex)
    y = np.diag([3.0, 4.0]).astype(complex)
    assert np.allclose(p.multiply(1, 1, x, y), np.diag([3.0, 8.0]))
    assert [m.carrier_dim for m in p.members] == [2, 2, 2]


def test_swap_system_twists_the_left_factor():
    """Degree-one product is theta(x) y; the swap moves diag(1, 2) to diag(2, 1)."""
    d2 = diag_algebra_2()
    swap = np.array([[0, 1], [1, 0]], dtype=complex)
    p = ps.from_endomorphism(endo.from_unitary(d2, swap), horizon=2)
    x = np.diag([1.0, 2.0]).astype(complex)
    y = np.diag([3.0, 4.0]).astype(complex)
    assert np.allclose(p.multiply(1, 1, x, y), np.diag([6.0, 4.0]))
    # even powers of the involution untwist again
    assert np.allclose(p.multiply(2, 0, x, x), x @ x)


def test_prod_matrix_matches_multiply():
    d2 = diag_algebra_2()
    swap = np.array([[0, 1], [1, 0]], dtype=complex)
    p = ps.from_endomorphism(endo.from_unitary(d2, swap), horizon=2)
    x = np.diag([1.0, -1.0]).astype(complex)
    y = np.diag([0.5, 2.0]).astype(complex)
    assert np.allclose(p.prod_matrix(1, 1, x) @ y, p.multiply(1, 1, x, y))


def test_action_stack_is_cached():
    d2 = diag_algebra_2()
    p = ps.from_endomorphism(endo.identity(d2), horizon=1)
    first = p.action_stack(1, 0)
    assert p.action_stack(1, 0) is first


def test_validate_reports_small_residuals(inner_system):
    _, _, _, p = inner_system
    worst = p.validate()
    assert set(worst) == {"unit_member", "unitary", "bilinear", "left_marginal",
                          "right_marginal", "associative", "product_closure"}
    assert all(v < 1e-10 for v in worst.values())


def test_horizon_must_be_positive():
    d2 = diag_algebra_2()
    with pytest.raises(DimensionMismatch):
        ps.from_endomorphism(endo.identity(d2), horizon=0)


def test_commutant_system_reverses_order(inner_system, commutant_of_inner):
    _, _, _, p = inner_system
    pc = commutant_of_inner
    assert pc.algebra.dim == 5
    for (s, t) in [(1, 1), (1, 2), (2, 1), (0, 2), (3, 0)]:
        assert ps.commutant_order_residual(p, pc, s, t) < 1e-8


def test_commutant_system_needs_a_faithful_source(commutant_of_inner):
    # the commutant system does not carry a generating map of its own
    with pytest.raises(NotFaithful):
        ps.commutant_system(commutant_of_inner)


def test_left_dilation_recovers_left_action(inner_system):
    """The products with left index zero are the left dilation: conjugating
    the lifted left action through them gives back the iterate. validate
    checks this as its bilinear law, and associativity on every triple."""
    _, _, _, p = inner_system
    worst = p.validate()
    assert worst["bilinear"] < 1e-10
    assert worst["associative"] < 1e-10
    assert p.residuals == worst  # kept from construction
    for t in range(p.horizon + 1):
        v, tp = p.products[(0, t)], p.tensors[(0, t)]
        for b, img in zip(p.algebra.basis, p.members[t].rho):
            assert np.linalg.norm(v @ tp.lift_left(b) @ v.conj().T - img) < 1e-10


def test_validate_rejects_a_nan_product(inner_system):
    """A NaN entry in one product map used to vanish from every worst-case
    residual, since max(0.0, nan) is 0.0."""
    _, _, _, p = inner_system
    u = p.products[(1, 1)].copy()
    u[0, 0] = np.nan
    q = ps.DiscreteProductSystem(p.algebra, p.members, p.tensors,
                                 {**p.products, (1, 1): u}, source=p.source)
    with pytest.raises(ProductSystemLawError, match="unitary"):
        q.validate()


def test_right_dilation_from_unitary(inner_system):
    _, v, _, p = inner_system
    w = ps.right_dilation_from_unitary(p, v)
    worst = w.validate()
    assert all(val < 1e-10 for val in worst.values())


def test_representation_laws(inner_system):
    _, v, _, p = inner_system
    w = ps.right_dilation_from_unitary(p, v)
    rep = ps.representation_from_right_dilation(p, w)
    worst = rep.validate()
    assert worst["multiplicative"] < 1e-10
    assert worst["inner"] < 1e-10


def test_identity_dilation_recovers_iterates(inner_system, commutant_of_inner):
    """theta_w of the canonical commutant dilation reproduces the powers."""
    b, _, theta, p = inner_system
    wc = ps.identity_right_dilation(commutant_of_inner)
    powers = [endo.identity(b)]
    for _ in range(p.horizon):
        powers.append(endo.compose(theta, powers[-1]))
    worst = 0.0
    for t in range(p.horizon + 1):
        for base in b.basis:
            worst = max(worst, float(np.linalg.norm(
                wc.theta_w(t, base) - powers[t](base))))
    assert worst < 1e-8


def test_identity_dilation_rejects_twisted_members(inner_system):
    _, _, _, p = inner_system
    with pytest.raises(ProductSystemLawError):
        ps.identity_right_dilation(p)


def test_commutant_via_dilation_pipeline(inner_system):
    b, v, _, p = inner_system
    w = ps.right_dilation_from_unitary(p, v)
    cv = ps.commutant_via_dilation(p, w)
    assert [m.carrier_dim for m in cv.system.members] == [4, 4, 4, 4]
    assert corr.find_isomorphism(cv.system.members[1], cv.reference.members[1])
    # comparison maps are isometries from the reference carriers
    for up in cv.upsilon:
        assert np.linalg.norm(up.conj().T @ up - np.eye(b.ambient_dim)) < 1e-10


def test_deficient_representation_has_no_isometry():
    """Dropping one scalar copy leaves too little room for the intertwiner."""
    gens, _ = alg.block_basis([(2, 1), (1, 2)])
    b = alg.from_generators(4, gens)

    def rep_image(x):
        out = np.zeros((3, 3), dtype=complex)
        out[:2, :2] = x[:2, :2]
        out[2, 2] = x[2, 2]
        return out

    rho_images = np.array([rep_image(x) for x in b.basis])
    v = unitary_in(b, 5)
    theta = endo.from_unitary(b, v)
    p = ps.from_endomorphism(theta, horizon=2)
    w = ps.right_dilation_from_unitary(p, rep_image(v), rho_images=rho_images)
    with pytest.raises(NoUnitVector) as info:
        ps.commutant_via_dilation(p, w)
    assert info.value.required == [1, 2]
    assert info.value.available == [1, 1]


def test_oversize_representation_pipeline():
    """Multiplicities above the minimum still admit the full comparison."""
    gens, _ = alg.block_basis([(2, 1), (1, 2)])
    b = alg.from_generators(4, gens)

    def rep_image(x):
        out = np.zeros((7, 7), dtype=complex)
        out[:2, :2] = x[:2, :2]
        out[2:4, 2:4] = x[:2, :2]
        out[4, 4] = x[2, 2]
        out[5, 5] = x[2, 2]
        out[6, 6] = x[2, 2]
        return out

    rho_images = np.array([rep_image(x) for x in b.basis])
    v = unitary_in(b, 5)
    theta = endo.from_unitary(b, v)
    p = ps.from_endomorphism(theta, horizon=2)
    w = ps.right_dilation_from_unitary(p, rep_image(v), rho_images=rho_images)
    cv = ps.commutant_via_dilation(p, w)
    assert [m.carrier_dim for m in cv.system.members] == [4, 4, 4]


def test_block_swap_automorphism_pipeline():
    """An outer block swap of M_2 + M_2 runs both commutant routes."""
    gens, _ = alg.block_basis([(2, 1), (2, 1)])
    b = alg.from_generators(4, gens)
    swap = np.zeros((4, 4), dtype=complex)
    swap[:2, 2:] = np.eye(2)
    swap[2:, :2] = np.eye(2)
    theta = endo.from_unitary(b, swap)
    p = ps.from_endomorphism(theta, horizon=3)
    w = ps.right_dilation_from_unitary(p, swap)
    cv = ps.commutant_via_dilation(p, w)
    assert [m.carrier_dim for m in cv.system.members] == [4, 4, 4, 4]
    pc = ps.commutant_system(p)
    assert ps.commutant_order_residual(p, pc, 2, 1) < 1e-8


def test_bhat_compression_is_one_dimensional():
    m3 = alg.full_matrix_algebra(3)
    theta = endo.from_unitary(m3, nk.random_unitary(3, seed=7))
    gamma = np.zeros(3, dtype=complex)
    gamma[0] = 1.0
    bh = ps.bhat_system(theta, gamma, horizon=3)
    assert bh.dims == [1, 1, 1, 1]
    for v in bh.dilations:
        assert v.shape == (3, 3)
        assert np.linalg.norm(v.conj().T @ v - np.eye(3)) < 1e-10
    for u in bh.products.values():
        assert u.shape == (1, 1)
        assert abs(abs(u[0, 0]) - 1.0) < 1e-10


def test_bhat_requires_full_algebra():
    d2 = diag_algebra_2()
    with pytest.raises(NotFullAlgebra):
        ps.bhat_system(endo.identity(d2), np.array([1.0, 0.0]), horizon=2)


def test_bhat_requires_unit_vector():
    m2 = alg.full_matrix_algebra(2)
    theta = endo.from_unitary(m2, nk.random_unitary(2, seed=1))
    with pytest.raises(NotUnitVector):
        ps.bhat_system(theta, np.array([1.0, 1.0]), horizon=2)
    with pytest.raises(DimensionMismatch):
        ps.bhat_system(theta, np.array([1.0, 0.0, 0.0]), horizon=2)
