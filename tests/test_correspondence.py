import ast
import pathlib

import numpy as np
import pytest

import oracles as orc
from vnpair import algebra as alg
from vnpair import correspondence as corr
from vnpair import endo
from vnpair import numkernel as nk
from vnpair import prodsys as ps
from vnpair import selftest as st
from vnpair.errors import (AlgebraMismatch, DimensionMismatch, DomainsNotCommutant,
                           EmptyTensorProduct, ImageOutsideAlgebra, InvalidCorrespondence,
                           NonIntegralRank, NotIntertwining, NotIsometric,
                           NotMultiplicative)

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


# ---------------------------------------------------------------------------
# the construction laws of a twisted correspondence, each checked once


def _turn(n, delta, seed, within=None):
    """exp(i delta h) for h the unit-norm Hermitian part of a random matrix
    (an element of the algebra within, when given)."""
    rng = np.random.default_rng(seed)
    x = nk.random_complex((n, n), rng) if within is None else \
        np.tensordot(nk.random_complex(within.dim, rng), within.basis, axes=(0, 0))
    h = (x + x.conj().T) / 2.0
    lam, vec = np.linalg.eigh(delta * h / np.linalg.norm(h))
    return (vec * np.exp(1j * lam)) @ vec.conj().T


def _off_span(b, seed):
    """A stack r, one slice per basis element of b, orthogonal to span b
    with sum_i c_i r_i = 0 for the unit coefficients c, so that b's basis
    moved by r is mapped off the span by a map that is still unital; the
    largest slice has unit norm."""
    rng = np.random.default_rng(seed)
    r = nk.random_complex(b.basis.shape, rng)
    r -= b.project(r)
    c = b.unit_coefficients
    r -= c.conj()[:, None, None] * (np.tensordot(c, r, axes=1) / np.vdot(c, c))
    return r / nk.worst_norm(r)


@pytest.mark.parametrize("delta", [0.0, 1e-12, 1e-9, 1e-6, 1e-3])
@pytest.mark.parametrize("kind", ["span", "rotation"])
@pytest.mark.parametrize("n, blocks, seed, swap", [
    (4, [(2, 1), (1, 2)], 3, False), (6, [(1, 2), (2, 2)], 5, False),
    (6, [(3, 2)], 7, True), (8, [(2, 2), (2, 2)], 4, True)])
def test_twisted_laws_bound_the_full_basis_commutation(n, blocks, seed, swap, kind, delta):
    """theta's images moved delta off span B (the default B'), or a given B'
    turned by a unitary delta away from the identity. Whenever
    of_endomorphism's laws pass, the commutation over every pair of basis
    images (``oracles.full_basis_commutation``) is within the stated
    factor 2 of tol.bound(1.0); above it, they raise: a law of theta's own
    (its span law first; at the bound its multiplicative law may fail
    instead), or a law of ``require_commutant`` (DomainsNotCommutant). swap
    makes B the commutant of the sampled algebra, so that B''s generator
    list, not B's, is the shorter one."""
    tol = nk.DEFAULT_TOL
    a = alg.random_algebra(n, blocks, seed=seed)
    b, bp = (alg.commutant(a), a) if swap else (a, alg.commutant(a))
    images, given = endo.from_unitary(b, _turn(n, 1.0, seed, within=b)).basis_images, None
    if kind == "span":
        images = images + delta * _off_span(b, seed)
    else:
        w = _turn(n, delta, seed + 1)
        given = alg.VnAlgebra(n, w @ bp.basis @ w.conj().T,
                              generators=w @ bp.generators @ w.conj().T)
    right = bp if given is None else given
    oracle = orc.full_basis_commutation(corr.Correspondence(
        b, b, right, right, images, right.basis, n, tol=tol, check=False))
    try:
        corr.of_endomorphism(endo.Endomorphism(b, images), right_commutant=given, tol=tol)
        raised = False
    except (ImageOutsideAlgebra, NotMultiplicative, DomainsNotCommutant) as exc:
        assert (type(exc), exc.law) in {
            "span": ((ImageOutsideAlgebra, "span"), (NotMultiplicative, "multiplicative")),
            "rotation": ((DomainsNotCommutant, "commutation"),
                         (DomainsNotCommutant, "commutant"))}[kind]
        assert exc.law == "span" or delta <= 1e-9 or kind == "rotation"
        assert not exc.residual <= exc.bound
        raised = True
    assert raised or oracle <= 2.0 * tol.bound(1.0), oracle
    if delta != 1e-9:  # at the bound either verdict is right
        assert raised == (delta > 1e-9)


def test_a_default_commutant_adds_no_commutation_pass(monkeypatch):
    """The default B' is the commutant, whose own law covers [B, B']: no
    law_residual, and none for the commutant given as B', which holds the
    dual of B's frame; a B' built on its own costs one, of the shorter
    generator list, and none once it has taken that frame."""
    b = alg.random_algebra(6, [(1, 2), (2, 2)], seed=5)
    bp = alg.commutant(b)
    theta = endo.from_unitary(b, _turn(6, 1.0, 15, within=b))
    shapes = []
    law = nk.law_residual

    def counted(lefts, rights, basis):
        shapes.append((len(lefts), len(basis)))
        return law(lefts, rights, basis)

    monkeypatch.setattr(nk, "law_residual", counted)
    e = corr.of_endomorphism(theta)
    assert shapes == [] and e.right_commutant is bp
    corr.of_endomorphism(theta, right_commutant=bp)
    assert shapes == []
    own = alg.VnAlgebra(6, bp.basis[::-1])
    corr.of_endomorphism(theta, right_commutant=own)
    assert shapes == [(len(b.generators), own.dim)]
    corr.of_endomorphism(theta, right_commutant=own)
    assert shapes == [(len(b.generators), own.dim)]


def test_construction_errors_carry_the_law_residual_and_bound():
    """Each construction law names itself on its error, with the residual
    and the bound it failed: InvalidCorrespondence for the light check, and
    theta's own ImageOutsideAlgebra for an image off span B."""
    e = _two_block_corr()
    b, w = e.left, _turn(4, 1e-3, 2)
    cases = {"unital_left": lambda: _rebuild(e, 0.5 * e.rho, e.rho_prime),
             "unital_commutant": lambda: _rebuild(e, e.rho, 0.5 * e.rho_prime),
             "commutation": lambda: _rebuild(e, e.rho, w @ e.rho_prime @ w.conj().T),
             "span": lambda: corr.of_endomorphism(
                 endo.Endomorphism(b, b.basis + 1e-3 * _off_span(b, 1)))}
    for law, build in cases.items():
        with pytest.raises(ImageOutsideAlgebra if law == "span" else
                           InvalidCorrespondence) as info:
            build()
        err = info.value
        assert err.law == law and not err.residual <= err.bound, law
        assert f"{err.residual:.3e}" in str(err)


def test_validate_failure_carries_the_failing_residuals_and_bound():
    d2 = diag_algebra_2()
    e = identity_corr(d2)
    rho = e.rho.copy()
    rho[1][0, 1] = np.nan
    unchecked = corr.Correspondence(e.left, e.right, e.left_commutant, e.right_commutant,
                                    rho, e.rho_prime, e.carrier_dim, check=False)
    with pytest.raises(InvalidCorrespondence) as info:
        unchecked.validate()
    assert info.value.law is None and info.value.bound == nk.DEFAULT_TOL.bound(1.0)
    assert info.value.residuals and all(not v <= info.value.bound
                                        for v in info.value.residuals.values())


def test_tolerance_reaches_every_element_space(monkeypatch):
    """The construction tolerance of a correspondence is the one its
    element space is computed at, through of_endomorphism, commutant,
    TensorProduct and the product-system builders."""
    tol = nk.Tolerance(1e-7)
    b = alg.random_algebra(4, [(2, 1), (1, 2)], seed=3)
    theta = endo.from_unitary(b, np.eye(4))
    alg.commutant(b, tol)
    seen = []
    helper = alg.intertwiners

    def spy(a, lefts=None, rights=None, tol=nk.DEFAULT_TOL):
        seen.append(tol)
        return helper(a, lefts, rights, tol)

    monkeypatch.setattr(alg, "intertwiners", spy)
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


def test_a_joint_unit_of_the_wrong_rank_does_not_intertwine():
    """rho(e_11) = diag(1, 1/4, 1/4, 1/4, 1/4) and rho(e_22) = 1 - rho(e_11) on
    C^5, the scalars on the right: unital, commuting, and with the table of
    the correspondence sending e_11 to a rank-2 projection, but the range of
    rho(e_11) is one-dimensional, so no joint frame exists."""
    d2 = diag_algebra_2()
    scalars = alg.trivial_algebra(1)

    def over_scalars(p11):
        rho = np.array([x[0, 0] * p11 + x[1, 1] * (np.eye(5) - p11) for x in d2.basis])
        return corr.Correspondence(d2, scalars, alg.commutant(d2), scalars, rho,
                                   np.eye(5, dtype=complex)[None], 5)

    bad = over_scalars(np.diag([1.0, 0.25, 0.25, 0.25, 0.25]))
    good = over_scalars(np.diag([1.0, 1.0, 0.0, 0.0, 0.0]))
    with pytest.raises(NotIntertwining, match=r"has rank 1, not 2") as info:
        corr.find_isomorphism(bad, good)
    assert (info.value.law, info.value.residual, info.value.bound) == ("joint_rank", 1, 0)


def test_order_reversal_between_carriers_of_different_dimension_is_not_isometric(monkeypatch):
    """A quotient carrier with one direction more than the swapped one (a zero
    row appended to every embedding of an element of e) passes the spanning
    identity, but no unitary maps it onto the smaller carrier."""
    e = identity_corr(alg.random_algebra(4, [(1, 2), (1, 2)], seed=3))
    embed = corr.TensorProduct.embed_matrix

    def padded(self, x):
        m = embed(self, x)
        return m if self.e is not e else np.concatenate([m, np.zeros_like(m[..., :1, :])], -2)

    monkeypatch.setattr(corr.TensorProduct, "embed_matrix", padded)
    with pytest.raises(NotIsometric, match=r"carrier dimensions differ: \(4, 5\)") as info:
        corr.tensor_commutant_iso(e, e)
    assert (info.value.law, info.value.residual, info.value.bound) == ("carrier_dimension", 1, 0)


def test_a_given_commuting_algebra_smaller_than_the_commutant_is_rejected():
    """B' = C 1 commutes with B = M_2 (x) 1_2, so it passes the generator
    law, but it is not the commutant 1_2 (x) M_2: its twisted
    correspondence would have 16 elements, not 4."""
    b = alg.random_algebra(4, [(2, 2)], seed=3)
    with pytest.raises(DomainsNotCommutant) as info:
        corr.of_endomorphism(endo.identity(b), right_commutant=alg.trivial_algebra(4))
    err = info.value
    assert err.law == "commutant" and not err.residual <= err.bound
    assert f"{err.residual:.3e}" in str(err)


def test_require_commutant_checks_the_generators_first_and_returns_bp():
    """M_2 against itself fails the generator law, law ``commutation``,
    before any commutant is compared; DomainsNotCommutant is an
    InvalidCorrespondence, for callers that catch the construction error of
    a twisted correspondence. A B' with the commutant's span is returned."""
    m2 = alg.full_matrix_algebra(2)
    with pytest.raises(InvalidCorrespondence) as info:
        corr.require_commutant(m2, m2, nk.DEFAULT_TOL)
    err = info.value
    assert isinstance(err, DomainsNotCommutant) and m2._commutants == {}
    assert err.law == "commutation" and not err.residual <= err.bound
    assert f"{err.residual:.3e}" in str(err)
    b = alg.random_algebra(4, [(2, 2)], seed=3)
    bp = alg.VnAlgebra(4, alg.commutant(b).basis[::-1])
    assert corr.require_commutant(b, bp, nk.DEFAULT_TOL) is bp


def test_of_endomorphism_reads_the_laws_of_a_validated_map(monkeypatch):
    """A validated theta keeps its law residuals: no span residual, no law
    residual and no hom residual is computed again, for the default B' and
    for a given one."""
    b = alg.random_algebra(6, [(1, 2), (2, 2)], seed=5)
    bp = alg.commutant(b)
    theta = endo.from_unitary(b, _turn(6, 1.0, 15, within=b))
    theta.validate()
    calls = []
    for module, name in ((nk, "span_residual"), (endo, "hom_residuals")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, real=real, name=name:
                            calls.append(name) or real(*args))
    e = corr.of_endomorphism(theta)
    corr.of_endomorphism(theta, right_commutant=bp)
    assert calls == [] and e.rho is theta.basis_images


def _table(e) -> np.ndarray:
    """The package's joint multiplicity table of e, as find_isomorphism reads it."""
    frames = (alg.block_decompose(e.left), alg.block_decompose(e.right_commutant))
    return np.array(corr._table_against(e, *frames, nk.DEFAULT_TOL).counts)


@pytest.mark.parametrize("seed", range(8))
def test_tables_multiply_under_the_tensor_product(seed):
    """table(E (x) F) = table(E) Pi table(F), Pi matching the summands of B'
    to those of B by their central projections, on the selftest samplers:
    every tensor product of two sampled correspondences; every product of
    the iterate system of a paired instance, E_s (x) E_t against E_{s+t};
    and the iterates, table(theta^k) = (T Pi)^(k-1) T with T = table(theta)."""
    rng = np.random.default_rng(seed)
    sa, sb, sc = (st.sample_algebra(rng, 6, max_dim=10) for _ in range(3))
    mults_e = st.random_joint_multiplicities(rng, sa, sb, 10)
    e = st.random_correspondence(sa, sb, rng, mults=mults_e)
    f = st.random_correspondence(sb, sc, rng, mults=st.random_joint_multiplicities(
        rng, sb, sc, 10, rows=np.flatnonzero(mults_e.any(axis=0))))
    for x in (e, f):
        assert np.array_equal(_table(x), orc.central_table(x))
    assert np.array_equal(_table(corr.TensorProduct(e, f).corr), orc.predicted_table(e, f))

    theta = st._paired_instance(rng, nk.DEFAULT_TOL)[2]
    p = ps.from_endomorphism(theta, 3)
    for (s, t), tp in p.tensors.items():
        table = _table(tp.corr)
        assert np.array_equal(table, _table(p.members[s + t]))
        assert np.array_equal(table, orc.predicted_table(p.members[s], p.members[t]))
    step = _table(p.members[1]) @ orc.summand_match(p.members[1], p.members[1])
    for k in range(1, 4):
        assert np.array_equal(_table(p.members[k]),
                              np.linalg.matrix_power(step, k - 1) @ _table(p.members[1]))


FRAME_CASES = [([(1, 2), (1, 2), (2, 1)], 4), ([(2, 3), (1, 2), (3, 1)], 5), ([(2, 2)], 3),
               ([(1, 1), (1, 1)], 2), ([(1, 3)], 1), ([(4, 2), (2, 4)], 1)]


@pytest.mark.parametrize("blocks, seed", FRAME_CASES)
def test_frame_distance_is_the_distance_of_equals(blocks, seed):
    """The distance require_commutant reads in the frame of B equals that of
    ``algebra.equals`` against commutant(B) (``oracles.commutant_distance``)
    within 1e-12: on the commutant's span in another basis, turned by 1e-12
    up to 0.3, and on B and on the scalars."""
    n = sum(a * m for a, m in blocks)
    b = alg.random_algebra(n, blocks, seed=seed)
    sig = alg.block_decompose(b)
    comm = alg.commutant(b)
    given = [alg.trivial_algebra(n), b]
    for k, delta in enumerate((0.0, 1e-12, 1e-10, 1e-8, 1e-6, 1e-3, 0.3)):
        w = _turn(n, delta, seed + k)
        given.append(alg.VnAlgebra(n, w @ comm.basis[::-1] @ w.conj().T))
    for bp in given:
        oracle = orc.commutant_distance(b, bp)
        assert abs(corr._frame_distance(sig, bp) - oracle.residual) <= 1e-12


@pytest.mark.parametrize("blocks, seed", FRAME_CASES[:4])
def test_require_commutant_at_its_bound(blocks, seed):
    """B' turned off the commutant so that its frame distance lies 20% inside
    or 20% outside the bound of ``equals``: inside it passes and takes the
    frame; outside it fails the ``commutant`` law, as the generator law,
    about 0.6 of its bound there, still passes, and it fails so again when
    it holds a frame of its own."""
    tol = nk.DEFAULT_TOL
    n = sum(a * m for a, m in blocks)
    b = alg.random_algebra(n, blocks, seed=seed)
    sig, comm = alg.block_decompose(b), alg.commutant(b)
    bound = tol.bound(comm.dim ** 0.5)
    probe = corr._frame_distance(sig, alg.VnAlgebra(n, _conjugate(_turn(n, 1e-7, seed), comm)))
    for factor in (0.8, 1.2):
        w = _turn(n, 1e-7 * factor * bound / probe, seed)
        bp = alg.VnAlgebra(n, _conjugate(w, comm))
        distance = orc.commutant_distance(b, bp).residual
        assert abs(distance / bound - factor) <= 1e-3
        if factor < 1.0:
            assert corr.require_commutant(b, bp, tol) is bp
            assert alg.block_decompose(bp) is sig._dual
            continue
        with pytest.raises(DomainsNotCommutant) as info:
            corr.require_commutant(b, bp, tol)
        err = info.value
        assert err.law == "commutant" and err.bound == bound
        assert abs(err.residual - distance) <= 1e-12 and bp._frames == {}
        alg.block_decompose(bp)
        with pytest.raises(DomainsNotCommutant, match="not the commutant"):
            corr.require_commutant(b, bp, tol)


def _conjugate(w, a) -> np.ndarray:
    return w @ a.basis[::-1] @ w.conj().T


def test_a_commutant_correspondence_over_a_twisted_one_takes_route_c(monkeypatch):
    """e = commutant of {}_theta B for theta = Ad u*, u in B, has the elements
    u* B', outside B' = f.left, and is not twisted on its left; so tensor(e, f)
    with f twisted over B' reads Phi off rho_f(y) = sum_q V_q* y V_q
    (``_stinespring``, case (c)), since [rho_f(x_i)] would project those
    elements into B' and miss the Gram matrix."""
    b = alg.random_algebra(4, [(2, 1), (1, 2)], seed=3)
    bp = alg.commutant(b)
    rng = np.random.default_rng(4)
    e = corr.commutant(corr.of_endomorphism(endo.from_unitary(b, st.unitary_inside(b, rng))))
    f = corr.of_endomorphism(endo.from_unitary(bp, st.unitary_inside(bp, rng), "direct"))
    routes = []
    for name in ("_stinespring", "_root_spectrum"):
        real = getattr(corr, name)
        monkeypatch.setattr(corr, name, lambda *args, real=real, name=name:
                            routes.append(name) or real(*args))
    tp = corr.TensorProduct(e, f)
    assert not corr._factors(e, f) and routes == ["_stinespring", "_root_spectrum"]
    wrong = f.rho_of(e.element_space).transpose(1, 0, 2).reshape(f.carrier_dim, -1)
    assert np.linalg.norm(wrong.conj().T @ wrong - orc.gram_route(tp)["gram"]) > 0.1
    res = orc.factored_against_gram(tp)
    assert res.pop("rank") == 0 and max(res.values()) <= 1e-12, res


def _commutant_order_draw(seed):
    """(e, f) of case 0 of the selftest's ``tensor-commutant-order`` at seed."""
    index = [p.name for p in st.PROPERTIES].index("tensor-commutant-order")
    drawn = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(corr, "tensor_commutant_iso",
                   lambda e, f, tol: drawn.append((e, f)) or np.eye(1))
        _, measure = st.PROPERTIES[index].build(
            np.random.default_rng([seed, index, 0]), nk.DEFAULT_TOL, 0)
        measure()
    return drawn[0]


@pytest.fixture(scope="module")
def order_tensors():
    """Both tensors of ``tensor_commutant_iso`` on the draws of seeds 0-9."""
    out = []
    for seed in range(10):
        e, f = _commutant_order_draw(seed)
        out += [corr.TensorProduct(e, f), corr.TensorProduct(corr.commutant(f), corr.commutant(e))]
    return out


def test_route_c_matches_the_gram_route_on_sampled_correspondences(order_tensors):
    """On general correspondences Phi* Phi is the Gram matrix within
    rounding, V is an isometry, the kept rank is the Gram route's, and the
    carrier and both lifted actions are that route's up to one unitary."""
    for tp in order_tensors:
        assert not corr._factors(tp.e, tp.f)
        v = corr._stinespring(tp.f, nk.DEFAULT_TOL)
        assert nk.worst_norm(np.einsum("qij,qik->jk", v.conj(), v) - np.eye(len(v[0, 0]))) \
            <= 1e-12
        res = orc.factored_against_gram(tp)
        assert res.pop("rank") == 0 and max(res.values()) <= 1e-12, res


def test_the_closed_form_lift_below_full_rank_is_the_element_basis_lift(order_tensors):
    """Below full row rank of Phi, U* L(op) U is phi (M (tensor) 1) phi+ read
    off <x_i, op x_k> over the element basis (``oracles.element_basis_lift``);
    at eps 0.6, B = [(1, 2), (1, 1)] keeps 1 of 3 directions of {}_theta B (x)
    {}_theta B (case (b)) and 2 of 3 of its commutant's (case (a))."""
    tol = nk.Tolerance(0.6)
    b = alg.random_algebra(3, [(1, 2), (1, 1)], seed=2, tol=tol)
    twisted = corr.of_endomorphism(endo.from_unitary(b, np.eye(3)), tol=tol)
    small = [corr.TensorProduct(e, e, tol) for e in (twisted, corr.commutant(twisted))]
    cases = [(corr._factors(tp.e, tp.f), tp.f.rho is tp.f.left.basis) for tp in small]
    assert cases == [(True, False), (True, True)]
    assert [(tp.carrier_dim, len(tp.spectrum)) for tp in small] == [(1, 3), (2, 3)]
    below = [tp for tp in order_tensors if not tp.full] + small
    assert len(below) >= 10
    for tp in below:
        assert nk.worst_norm(tp.lift_left(tp.e.rho) - orc.element_basis_lift(tp, tp.e.rho)) \
            <= 1e-12


def test_a_tensor_over_a_non_multiplicative_left_action_is_rejected():
    """f over M_2 with the pinching rho(b) = diag(b), unital and commuting
    with the scalars, fails its own ``rho_multiplicative`` law; tensor(e, f)
    reads its Phi off the intertwiners of rho_f, where rho_f(e_11) is no
    projection: NotIntertwining, law ``projection``."""
    m2 = alg.full_matrix_algebra(2)
    scalars = alg.commutant(m2)
    e = corr.commutant(corr.of_endomorphism(endo.identity(scalars)))
    pinching = np.array([np.diag(np.diag(b)) for b in m2.basis])
    f = corr.Correspondence(m2, m2, scalars, scalars, pinching, scalars.basis, 2)
    with pytest.raises(InvalidCorrespondence, match="rho_multiplicative"):
        f.validate()
    with pytest.raises(NotIntertwining, match="not a projection") as info:
        corr.TensorProduct(e, f)
    err = info.value
    assert err.law == "projection" and abs(err.residual - 0.49) <= 0.01
    assert err.bound == nk.DEFAULT_TOL.bound(1.0)


@pytest.mark.parametrize("ratio, kept", [(0.9, 1), (1.1, 2)])
def test_a_singular_value_near_the_cut_is_decided_on_its_square(ratio, kept):
    """Phi = diag(1, s) with s^2 at ratio times the cut eps max(top, 1) = eps:
    0.9 drops it and 1.1 keeps it, as the eigenvalues of G = Phi* Phi decide;
    at full row rank the carrier is Phi's rows, phi = Phi, and no U is kept."""
    tol = nk.Tolerance(1e-3)
    root = np.diag([1.0, np.sqrt(ratio * tol.eps)]).astype(complex)
    phi, pinv, left, spectrum = corr.tensor_quotient(root, tol)
    gram = np.linalg.eigvalsh(root.conj().T @ root)
    assert len(phi) == np.count_nonzero(gram > tol.eps * max(gram.max(), 1.0)) == kept
    assert np.allclose(spectrum, gram[::-1], rtol=0, atol=1e-15)
    assert np.allclose(pinv @ phi, np.eye(2)) == (kept == 2)
    if kept == 2:
        assert np.array_equal(phi, root) and left is None
    else:
        assert np.allclose(left @ phi, root @ pinv @ phi)


@pytest.mark.parametrize("module", [corr, endo])
def test_every_require_names_its_law(module):
    """No ``nk.require`` call in ``correspondence`` or ``endo`` leaves out
    ``law=``: ``tensor_commutant_iso``, ``_check_intertwining``,
    ``find_isomorphism`` and ``endo.from_unitary`` name theirs too."""
    tree = ast.parse(pathlib.Path(module.__file__).read_text())
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and ast.unparse(node.func) == "nk.require"]
    assert calls and [node.lineno for node in calls
                      if "law" not in {k.arg for k in node.keywords}] == []
