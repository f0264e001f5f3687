import ast
import copy

import numpy as np
import pytest

import oracles as orc
from vnpair import algebra as alg
from vnpair import correspondence as corr
from vnpair import endo
from vnpair import numkernel as nk
from vnpair import prodsys as ps
from vnpair import selftest as st
from vnpair.errors import (DimensionMismatch, InvalidCorrespondence, NotFaithful,
                           NotFullAlgebra, NotIsometric, NotMultiplicative, NotUnitVector,
                           NoUnitVector, ProductSystemLawError)


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


def test_basis_products_are_cached_per_quotient():
    """The basis products of a pair are kept on the system, keyed on the
    quotient it shares with the pairs of its right index."""
    d2 = diag_algebra_2()
    p = ps.from_endomorphism(endo.identity(d2), horizon=1)
    first = p.basis_products(1, 0)
    assert p.basis_products(1, 0) is first
    assert p.basis_products(0, 0) is first


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


@pytest.mark.parametrize("horizon", [0, -1, True, 2.5])
def test_library_horizons_are_validated(horizon):
    """A horizon below 1, a bool or a non-integer is refused by both system
    builds, not read as an empty range or as 1; a numpy integer is a horizon."""
    d2 = diag_algebra_2()
    m3 = alg.full_matrix_algebra(3)
    theta = endo.from_unitary(m3, nk.random_unitary(3, seed=7))
    gamma = np.eye(3, dtype=complex)[0]
    with pytest.raises(DimensionMismatch, match="horizon"):
        ps.from_endomorphism(endo.identity(d2), horizon)
    with pytest.raises(DimensionMismatch, match="horizon"):
        ps.bhat_system(theta, gamma, horizon)
    assert ps.from_endomorphism(endo.identity(d2), np.int64(2)).horizon == 2
    assert ps.bhat_system(theta, gamma, np.int64(2)).dims == [1, 1, 1]


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


def _with_action(p, t, rho):
    """p with member t acting on the left by the basis images rho."""
    member = copy.copy(p.members[t])
    member.rho = rho
    members = [*p.members[:t], member, *p.members[t + 1:]]
    return ps.DiscreteProductSystem(p.algebra, members, p.tensors, source=p.source)


def test_validate_rejects_a_nan_member_action(inner_system):
    """A NaN entry in the left action of one member used to vanish from every
    worst-case residual, since max(0.0, nan) is 0.0."""
    _, _, _, p = inner_system
    rho = p.members[2].rho.copy()
    rho[0][0, 0] = np.nan
    with pytest.raises(ProductSystemLawError, match="bilinear") as info:
        _with_action(p, 2, rho).validate()
    assert np.isnan(info.value.residuals["bilinear"])


def test_right_dilation_from_unitary(inner_system):
    _, v, _, p = inner_system
    w = ps.right_dilation_from_unitary(p, v)
    worst = w.validate()
    assert all(val < 1e-10 for val in worst.values())
    with pytest.raises(DimensionMismatch):
        ps.right_dilation_from_unitary(p, v[:, :-1])


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
    wc = orc.identity_right_dilation(commutant_of_inner)
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
        orc.identity_right_dilation(p)


def test_commutant_via_dilation_pipeline(inner_system):
    b, v, theta, p = inner_system
    w = ps.right_dilation_from_unitary(p, v)
    cv = ps.commutant_via_dilation(p, w)
    assert [m.carrier_dim for m in cv.system.members] == [4, 4, 4, 4]
    assert corr.find_isomorphism(cv.system.members[1], ps.commutant_system(p).members[1])
    # comparison maps are isometries from the reference carriers
    for up in cv.upsilon:
        assert np.linalg.norm(up.conj().T @ up - np.eye(b.ambient_dim)) < 1e-10
    # in their coordinates member t has the left action of B' on itself and
    # theta^t(B) as its right commutant action; nu[t] is its element basis
    for t, member in enumerate(cv.system.members):
        assert member.rho is p.commutant_algebra.basis
        assert member.rho_prime is p.members[t].rho
        power = endo.power(theta, t)
        assert np.allclose(member.rho_prime, [power(x) for x in b.basis], atol=1e-12)
        assert cv.nu[t] is member.element_space


def test_a_carrier_of_the_wrong_rank_fails_the_carrier_residual(monkeypatch):
    """theta_w(1, xi xi*) grown by one direction of H outside its range: the
    comparison map is still an isometry, but its range is no longer the
    member carrier."""
    gens, _ = alg.block_basis([(2, 1), (1, 2)])
    b = alg.from_generators(4, gens)

    def rep_image(x):
        out = np.zeros((5, 5), dtype=complex)
        out[:4, :4] = x
        out[4, 4] = x[2, 2]
        return out

    v = unitary_in(b, 5)
    p = ps.from_endomorphism(endo.from_unitary(b, v), horizon=2)
    w = ps.right_dilation_from_unitary(p, rep_image(v),
                                       rho_images=np.array([rep_image(x) for x in b.basis]))
    theta_w = w.theta_w
    ranks = []

    def grown(t, op):
        out = theta_w(t, op)
        if t == 1 and np.ndim(op) == 2:
            rest = np.eye(5) - out
            g = rest[:, np.argmax(np.linalg.norm(rest, axis=0))]
            g = g / np.linalg.norm(g)
            out = out + np.outer(g, g.conj())
            ranks.append(np.linalg.matrix_rank(out, tol=1e-8))
        return out

    rep_from_dilation = ps.representation_from_right_dilation

    def then_grow(p, w, tol):
        rep = rep_from_dilation(p, w, tol)
        w.theta_w = grown  # after the commutant relation has been checked
        return rep

    monkeypatch.setattr(ps, "representation_from_right_dilation", then_grow)
    with pytest.raises(ProductSystemLawError, match=r"not unitary onto theta_w\(1,"):
        ps.commutant_via_dilation(p, w)
    assert ranks == [5]  # one more than the ambient dimension of B


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


def test_range_basis_requires_a_projection():
    """The 0.5 cutoff keeps an eigenvalue 0.7; p q = q then fails, with the
    error class the caller names."""
    p = np.diag([1.0, 0.0, 0.0]).astype(complex)
    assert nk.range_basis(p, nk.DEFAULT_TOL, ProductSystemLawError, "p").shape == (3, 1)
    with pytest.raises(ProductSystemLawError, match="q is not a projection"):
        nk.range_basis(np.diag([1.0, 0.7, 0.2]).astype(complex), nk.DEFAULT_TOL,
                       ProductSystemLawError, "q")


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


def _bhat_instance(n, seed):
    rng = np.random.default_rng([n, seed])
    theta = endo.from_unitary(alg.full_matrix_algebra(n), nk.random_unitary(n, rng))
    gamma = nk.random_complex(n, rng)
    return theta, gamma / np.linalg.norm(gamma)


@pytest.mark.parametrize("n,horizon", [(2, 1), (3, 4), (4, 6), (6, 4)])
def test_compression_system_matches_the_kron_oracle_bit_for_bit(n, horizon):
    """Spaces, phases and dilations are those of the general-width
    construction with Kronecker laws, entry for entry."""
    for seed in range(2):
        theta, gamma = _bhat_instance(n, seed)
        bh = ps.bhat_system(theta, gamma, horizon)
        spaces, products, dilations = orc.kron_compression(theta, gamma, horizon)
        assert bh.dims == [1] * (horizon + 1)
        for new, old in zip([*bh.spaces, *bh.dilations], [*spaces, *dilations]):
            assert new.shape == old.shape and np.array_equal(new, old)
        assert bh.products.keys() == products.keys()
        for key, u in products.items():
            assert bh.products[key].shape == u.shape == (1, 1)
            assert np.array_equal(bh.products[key], u)


def test_compression_rank_must_be_one(monkeypatch):
    """A space with a second column is refused, naming iterate and rank."""
    theta, gamma = _bhat_instance(3, 0)
    real = nk.range_basis
    monkeypatch.setattr(nk, "range_basis",
                        lambda p, *args: np.repeat(real(p, *args), 2, axis=1))
    with pytest.raises(ProductSystemLawError, match="iterate 0 of the projection has rank 2"):
        ps.bhat_system(theta, gamma, 2)


def test_a_perturbed_phase_fails_associativity_where_the_kron_oracle_does():
    """P(1,1) turned by the phase 1e-3 breaks the triples that read it on one
    side only; the check names the first of them, with the oracle's residual."""
    horizon = 4
    theta, gamma = _bhat_instance(3, 1)
    bh = ps.bhat_system(theta, gamma, horizon)
    bad = {**bh.products, (1, 1): bh.products[(1, 1)] * np.exp(1e-3j)}
    dims = [1] * (horizon + 1)
    triples = [(r, s, t) for r in range(horizon + 1) for s in range(horizon + 1 - r)
               for t in range(horizon + 1 - r - s)]
    bound = nk.DEFAULT_TOL.bound(1.0)
    assert all(orc.kron_associativity(bh.products, dims, *k) <= bound for k in triples)
    failing = [k for k in triples if orc.kron_associativity(bad, dims, *k) > bound]
    assert failing == [(1, 1, 2), (2, 1, 1)]
    ps._check_associativity(bh.products, horizon, nk.DEFAULT_TOL)
    with pytest.raises(ProductSystemLawError, match=r"associative at \(1,1,2\)") as info:
        ps._check_associativity(bad, horizon, nk.DEFAULT_TOL)
    assert str(info.value).endswith(f"{orc.kron_associativity(bad, dims, 1, 1, 2):.3e}")


# ---------------------------------------------------------------------------
# Per-element oracle: the same laws as loops over element basis vectors (or
# pairs of them), one at a time, for the stacked checks to be compared
# against. They return the residual dicts without judging them.


def _oracle_associativity(p, r, s, t):
    ys = p.members[s].element_space
    basis = p.members[r + s].element_space
    flat = basis.reshape(basis.shape[0], -1)
    first = p.tensors[(r, s)]._phi3
    inner = p.tensors[(r + s, t)]._phi3
    outer_x = p.tensors[(r, s + t)]._phi3
    outer_y = p.tensors[(s, t)]._phi3
    worst = 0.0
    for k in range(first.shape[1]):
        prods = np.einsum("ac,lcn->lan", first[:, k, :], ys)
        coeffs = prods.reshape(prods.shape[0], -1) @ flat.conj().T
        lhs = np.tensordot(coeffs, inner, axes=(1, 1))
        rhs = np.einsum("ac,clb->lab", outer_x[:, k, :], outer_y)
        res = np.linalg.norm((lhs - rhs).reshape(lhs.shape[0], -1), axis=1)
        if res.size:
            worst = nk.worst(worst, float(res.max()))
    return worst


def _oracle_system(p):
    worst = {"unit_member": 0.0, "unitary": 0.0, "bilinear": 0.0,
             "left_marginal": 0.0, "right_marginal": 0.0,
             "associative": 0.0, "product_closure": 0.0}
    e0 = p.members[0]
    worst["unit_member"] = nk.worst(
        float(np.linalg.norm(e0.rho - p.algebra.basis)),
        float(np.linalg.norm(e0.rho_prime - p.commutant_algebra.basis)))
    for (s, t), u in p.products.items():
        tp = p.tensors[(s, t)]
        target = p.members[s + t]
        res = nk.unitarity_residual(u)
        if u.shape[0] != u.shape[1]:
            res = max(res, 1.0)
        worst["unitary"] = nk.worst(worst["unitary"], res)
        for img_t, img_m in [*zip(tp.corr.rho, target.rho),
                             *zip(tp.corr.rho_prime, target.rho_prime)]:
            worst["bilinear"] = nk.worst(worst["bilinear"], float(
                np.linalg.norm(u @ img_t - img_m @ u)))
    for t in range(p.horizon + 1):
        member = p.members[t]
        for x in p.members[0].element_space:
            res = float(np.linalg.norm(p.prod_matrix(0, t, x) - member.rho_of(x)))
            worst["left_marginal"] = nk.worst(worst["left_marginal"], res)
        for x in member.element_space:
            res = float(np.linalg.norm(p.prod_matrix(t, 0, x) - x))
            worst["right_marginal"] = nk.worst(worst["right_marginal"], res)
    for r in range(p.horizon + 1):
        for s in range(p.horizon + 1 - r):
            for t in range(p.horizon + 1 - r - s):
                worst["associative"] = nk.worst(
                    worst["associative"], _oracle_associativity(p, r, s, t))
    for (s, t) in p.products:
        basis = p.members[s + t].element_space
        flat = basis.reshape(basis.shape[0], -1)
        ys = p.members[t].element_space
        stack = p.tensors[(s, t)]._phi3
        for k in range(stack.shape[1]):
            prods = np.einsum("ac,lcn->lan", stack[:, k, :], ys)
            worst["product_closure"] = nk.worst(worst["product_closure"],
                                                nk.span_residual(prods, flat))
    return worst


def _oracle_eta(rep, t, x):
    coeff = rep.system.members[t].element_coefficients(x)
    return np.tensordot(coeff, rep.images[t], axes=(0, 0))


def _oracle_representation(rep):
    sysm = rep.system
    worst = {"multiplicative": 0.0, "inner": 0.0}
    for s in range(sysm.horizon + 1):
        for t in range(sysm.horizon + 1 - s):
            for x in sysm.members[s].element_space:
                ex = _oracle_eta(rep, s, x)
                for y in sysm.members[t].element_space:
                    lhs = ex @ _oracle_eta(rep, t, y)
                    rhs = _oracle_eta(rep, s + t, sysm.multiply(s, t, x, y))
                    worst["multiplicative"] = nk.worst(
                        worst["multiplicative"], float(np.linalg.norm(lhs - rhs)))
    for t in range(sysm.horizon + 1):
        elts = sysm.members[t].element_space
        for x in elts:
            ex = _oracle_eta(rep, t, x)
            for y in elts:
                lhs = ex.conj().T @ _oracle_eta(rep, t, y)
                rhs = _oracle_eta(rep, 0, x.conj().T @ y)
                worst["inner"] = nk.worst(worst["inner"],
                                          float(np.linalg.norm(lhs - rhs)))
    return worst


def _oracle_dilation(w):
    worst = {"unitary": 0.0, "bilinear": 0.0, "unit_map": 0.0}
    for t in range(w.system.horizon + 1):
        m = w.maps[t]
        tp = w.tensors[t]
        res = nk.unitarity_residual(m)
        if m.shape[0] != tp.carrier_dim:
            res = max(res, 1.0)
        worst["unitary"] = nk.worst(worst["unitary"], res)
        for img_t, b in zip(tp.corr.rho, w.system.algebra.basis):
            worst["bilinear"] = nk.worst(worst["bilinear"], float(
                np.linalg.norm(m @ img_t - w.rho_of(b) @ m)))
    for x in w.system.members[0].element_space:
        res = float(np.linalg.norm(
            w.maps[0] @ w.tensors[0].embed_matrix(x) - w.rho_of(x)))
        worst["unit_map"] = nk.worst(worst["unit_map"], res)
    return worst


def _oracle_tensor(tp):
    """Gram matrix and lifted actions, one einsum per element or operator."""
    x = tp.e.element_space
    de, hf = x.shape[0], tp.f.carrier_dim
    inner = np.einsum("iab,kac->ikbc", x.conj(), x)
    coeffs = np.einsum("dbc,ikbc->ikd", tp.f.left.basis.conj(), inner)
    gram = np.einsum("ikd,djl->ijkl", coeffs, tp.f.rho).reshape(de * hf, de * hf)
    phi3 = tp.phi.reshape(tp.carrier_dim, de, hf)

    def lift_left(op):
        moved = np.einsum("ij,bjk->bik", op, x)
        m = np.einsum("aij,bij->ab", x.conj(), moved)
        raw = np.einsum("piv,ik->pkv", phi3, m)
        return raw.reshape(tp.carrier_dim, -1) @ tp.phi_pinv

    def lift_right(op):
        raw = np.einsum("piu,uv->piv", phi3, op)
        return raw.reshape(tp.carrier_dim, -1) @ tp.phi_pinv

    return (gram, np.array([lift_left(a) for a in tp.e.rho]),
            np.array([lift_right(r) for r in tp.f.rho_prime]))


@pytest.fixture(scope="module")
def parity_cases():
    """(system, right dilation or None): endomorphism systems, commutant
    systems and dilation-side systems, built from their per-pair actions,
    over n in {4, 6, 8}."""
    out = []
    for n, blocks, horizon, seed in [(4, [(2, 1), (1, 2)], 5, 3),
                                     (6, [(1, 2), (2, 2)], 4, 5),
                                     (8, [(2, 2), (2, 2)], 3, 7)]:
        b = alg.random_algebra(n, blocks, seed=seed)
        v = unitary_in(b, seed + 10)
        p = ps.from_endomorphism(endo.from_unitary(b, v), horizon=horizon)
        w = ps.right_dilation_from_unitary(p, v)
        out.append((p, w))
        if n < 8:
            out.append((ps.commutant_system(p), None))
        if n != 6:
            out.append((orc.dilation_side_system(p, w)[0], None))
    return out


def _same(new, old):
    assert list(new) == list(old)
    for key in old:
        assert abs(new[key] - old[key]) <= 1e-12, key


def test_stacked_laws_match_the_per_element_oracle(parity_cases):
    assert len(parity_cases) >= 5
    for p, w in parity_cases:
        _same(p.validate(), _oracle_system(p))
        if w is not None:
            _same(w.validate(), _oracle_dilation(w))
            rep = ps.representation_from_right_dilation(p, w)
            _same(rep.validate(), _oracle_representation(rep))


def test_commutant_via_dilation_returns_the_dilation_side_system(parity_cases):
    """The system on the dilation space, built from the action
    upsilon_{s+t}* theta_w(t, upsilon_s x xi*) upsilon_t of every pair, is
    the returned commutant system: the products solved from those actions are
    its identity products within 1e-12, and the residual keys and element bases
    are the same."""
    cases = [(p, w) for p, w in parity_cases if w is not None]
    assert len(cases) == 3
    for p, w in cases:
        cv = ps.commutant_via_dilation(p, w)
        side, solved = orc.dilation_side_system(p, w)
        assert list(cv.system.products) == list(solved)
        for key, u in solved.items():
            assert np.linalg.norm(cv.system.products[key] - u) <= 1e-12, key
        assert list(cv.system.residuals) == list(side.residuals)
        for nu_t, member in zip(cv.nu, side.members, strict=True):
            assert np.array_equal(nu_t, member.element_space)


def test_tensor_products_match_the_per_element_oracle(parity_cases):
    for p, w in parity_cases:
        tps = [p.tensors[key] for key in [(1, 1), (0, 2), (2, 1)]]
        tps += [w.tensors[1]] if w is not None else []
        for tp in tps:
            gram, rho, rho_prime = _oracle_tensor(tp)
            assert np.linalg.norm(tp.phi.conj().T @ tp.phi - gram) < 1e-12
            assert np.linalg.norm(tp.corr.rho - rho) < 1e-12
            assert np.linalg.norm(tp.corr.rho_prime - rho_prime) < 1e-12
            # one operator lifts as its slice of the stack
            assert np.linalg.norm(tp.lift_left(tp.e.rho[1]) - rho[1]) < 1e-12
            assert np.linalg.norm(tp.lift_right(tp.f.rho_prime[0]) - rho_prime[0]) < 1e-12


def _assert_same_failures(error, oracle):
    """The laws named in the error are the oracle's failing ones, with the
    oracle's residuals."""
    failing = {k: v for k, v in oracle.items() if not v <= 1e-9}
    assert failing
    _same(ast.literal_eval(str(error).split(": ", 1)[1]), failing)


def test_a_perturbed_member_action_fails_the_same_laws(inner_system):
    _, _, _, p = inner_system
    rho = p.members[3].rho.copy()
    rho[1] += 1e-3
    q = _with_action(p, 3, rho)
    with pytest.raises(ProductSystemLawError) as info:
        q.validate()
    _assert_same_failures(info.value, _oracle_system(q))


def test_a_perturbed_eta_image_fails_the_same_laws(inner_system):
    _, v, _, p = inner_system
    rep = ps.representation_from_right_dilation(
        p, ps.right_dilation_from_unitary(p, v))
    images = [img.copy() for img in rep.images]
    images[2][1] += 1e-3
    bad = ps.SystemRepresentation(p, images)
    with pytest.raises(ProductSystemLawError) as info:
        bad.validate()
    _assert_same_failures(info.value, _oracle_representation(bad))


def test_a_perturbed_dilation_map_fails_the_same_laws(inner_system):
    _, v, _, p = inner_system
    w = ps.right_dilation_from_unitary(p, v)
    maps = {**w.maps, 0: w.maps[0] + 1e-3}
    bad = ps.RightDilation(p, w.space, w.tensors, maps)
    with pytest.raises(ProductSystemLawError) as info:
        bad.validate()
    _assert_same_failures(info.value, _oracle_dilation(bad))


def test_nan_in_an_eta_image_or_a_dilation_map_fails(inner_system):
    _, v, _, p = inner_system
    w = ps.right_dilation_from_unitary(p, v)
    rep = ps.representation_from_right_dilation(p, w)
    images = [img.copy() for img in rep.images]
    images[1][0, 0, 0] = np.nan
    with pytest.raises(ProductSystemLawError):
        ps.SystemRepresentation(p, images).validate()
    maps = dict(w.maps)
    maps[2] = maps[2].copy()
    maps[2][1, 1] = np.nan
    with pytest.raises(ProductSystemLawError):
        ps.RightDilation(p, w.space, w.tensors, maps).validate()


def test_representation_validate_makes_no_per_element_calls(inner_system, monkeypatch):
    _, v, _, p = inner_system
    rep = ps.representation_from_right_dilation(
        p, ps.right_dilation_from_unitary(p, v))
    calls = []
    original = ps.SystemRepresentation.eta_of

    def counted(self, t, x):
        calls.append(t)
        return original(self, t, x)

    monkeypatch.setattr(ps.SystemRepresentation, "eta_of", counted)
    rep.validate()
    assert calls == []
    rep.eta_of(1, p.members[1].element_space[0])  # the accessor itself still counts
    assert calls == [1]


def test_commutant_via_dilation_builds_one_system(inner_system, monkeypatch):
    """One commutant system, which the comparison maps are checked against
    and which is returned, and no second law check of the source."""
    _, v, _, p = inner_system
    w = ps.right_dilation_from_unitary(p, v)
    calls = []

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ps, "commutant_system",
                        counting("commutant_system", ps.commutant_system))
    monkeypatch.setattr(endo, "make", counting("make", endo.make))
    cv = ps.commutant_via_dilation(p, w)
    assert calls == ["commutant_system"]
    assert not hasattr(cv, "reference")
    assert [m.carrier_dim for m in cv.system.members] == [4, 4, 4, 4]


@pytest.mark.parametrize("phase, match", [("lifted", "fail to intertwine"),
                                          ("compatible", "not product compatible")])
def test_a_perturbed_theta_w_fails_its_comparison(inner_system, monkeypatch, phase, match):
    """theta_w off by a 1e-3 phase in the lifted B' calls alone or in the
    product compatibility calls alone. After the commutant relation of the
    representation, theta_w lifts xi xi* per t, then the stack xi B' xi* per
    t and then the stack upsilon_s F_s xi* per index pair."""
    _, v, _, p = inner_system
    w = ps.right_dilation_from_unitary(p, v)
    theta_w = w.theta_w
    stacks = []

    def perturbed(t, op):
        out = theta_w(t, op)
        if np.ndim(op) == 3:
            stacks.append(t)
            if (len(stacks) <= p.horizon + 1) == (phase == "lifted"):
                out = out * np.exp(1e-3j)
        return out

    rep_from_dilation = ps.representation_from_right_dilation

    def then_perturb(p, w, tol):
        rep = rep_from_dilation(p, w, tol)
        w.theta_w = perturbed  # after the commutant relation has been checked
        return rep

    monkeypatch.setattr(ps, "representation_from_right_dilation", then_perturb)
    with pytest.raises(ProductSystemLawError, match=match):
        ps.commutant_via_dilation(p, w)
    pairs = (p.horizon + 1) * (p.horizon + 2) // 2
    assert len(stacks) == p.horizon + 1 + (pairs if phase == "compatible" else 0)


def test_commutant_via_dilation_rejects_a_non_faithful_source():
    """theta(x) = x[0, 0] 1 on the diagonal algebra is a valid endomorphism
    with a valid one-dimensional dilation; the source check comes first."""
    d2 = diag_algebra_2()
    theta = endo.make(d2, np.array([b[0, 0] * np.eye(2) for b in d2.basis]))
    p = ps.from_endomorphism(theta, horizon=2)
    rho = np.array([[[b[0, 0]]] for b in d2.basis])
    w = ps.right_dilation_from_unitary(p, np.eye(1), rho_images=rho)
    with pytest.raises(NotFaithful):
        ps.commutant_via_dilation(p, w)


# ---------------------------------------------------------------------------
# one tensor quotient per distinct (element basis, right-factor action)


@pytest.mark.parametrize("horizon", [4, 6])
def test_builds_compute_each_quotient_and_element_space_once(monkeypatch, horizon):
    """Iterate members share one element space and, per right index t, one
    quotient and one lifted B' action, and associativity is evaluated once
    per (s, t); commutant members share a quotient and the lifted B' action
    per left index, with associativity once per (r, s); the dilation of an
    iterate system needs a single quotient and lifted H action. Every
    quotient is read off one SVD of its root Phi
    (``correspondence._root_spectrum``), none through the intertwiners of a
    general left action (``_stinespring``, case (c)); every carrier is the
    rows of Phi, so no map is
    solved for (``numkernel.lstsq_map``, a product with ``phi_pinv``) and
    every left action lifts in closed form (``TensorProduct.full``)."""
    b = alg.random_algebra(6, [(1, 2), (2, 2)], seed=5)
    alg.commutant(b)  # the algebra's own commutant is not counted
    v = unitary_in(b, 15)
    theta = endo.from_unitary(b, v)
    counts = {}

    def counting(key, original):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)
        return wrapper

    for module, name, key in [
            (corr, "tensor_quotient", "quotients"), (alg, "intertwiners", "kernels"),
            (nk, "lstsq_map", "solves"), (corr.TensorProduct, "lift_right", "right_lifts"),
            (ps, "_associativity", "associativity"), (corr, "_root_spectrum", "factored"),
            (corr, "_stinespring", "stinespring")]:
        monkeypatch.setattr(module, name, counting(key, getattr(module, name)))
    lift_left = corr.TensorProduct.lift_left

    def counted_lift(self, op):
        counts["left_lifts"] += 1
        counts["closed"] += self.full
        return lift_left(self, op)

    monkeypatch.setattr(corr.TensorProduct, "lift_left", counted_lift)
    n = horizon
    pairs = (n + 1) * (n + 2) // 2

    def counted(build):
        counts.update(dict.fromkeys(("quotients", "kernels", "solves", "left_lifts", "closed",
                                     "right_lifts", "associativity", "factored",
                                     "stinespring"), 0))
        out = build()
        assert counts.pop("factored") == counts["quotients"]
        assert counts.pop("stinespring") == 0
        assert counts.pop("closed") == counts["left_lifts"]
        return out, dict(counts)

    p, c = counted(lambda: ps.from_endomorphism(theta, horizon))
    assert c == {"quotients": n + 1, "kernels": 1, "solves": 0,
                 "left_lifts": pairs, "right_lifts": n + 1, "associativity": pairs}
    assert len(p.tensors) == pairs
    _, c = counted(lambda: ps.commutant_system(p))
    assert c == {"quotients": n + 1, "kernels": n + 1, "solves": 0,
                 "left_lifts": n + 1, "right_lifts": pairs, "associativity": pairs}
    w, c = counted(lambda: ps.right_dilation_from_unitary(p, v))
    assert c == {"quotients": 1, "kernels": 0, "solves": 0,
                 "left_lifts": n + 1, "right_lifts": 1, "associativity": 0}
    # the commutant system once, with xi and the commutant of the action on
    # H on top; theta_w lifts 3 (n + 1) + pairs operators on H
    _, c = counted(lambda: ps.commutant_via_dilation(p, w))
    assert c == {"quotients": n + 1, "kernels": n + 3, "solves": 0,
                 "left_lifts": n + 1, "right_lifts": 2 * pairs + 3 * (n + 1),
                 "associativity": pairs}


def test_commutant_via_dilation_moves_each_element_basis_once(monkeypatch):
    """theta_w(t, upsilon_s x xi*) over the element basis of F_s is computed
    once per index pair for the product compatibility: at horizon 4, 15
    pairs and 3 * 5 calls for the representation, the carrier check and the
    lifted B'."""
    b = alg.random_algebra(6, [(1, 2), (2, 2)], seed=5)
    v = unitary_in(b, 15)
    p = ps.from_endomorphism(endo.from_unitary(b, v), 4)
    w = ps.right_dilation_from_unitary(p, v)
    calls = []
    theta_w = ps.RightDilation.theta_w

    def counted(self, t, op):
        calls.append(t)
        return theta_w(self, t, op)

    monkeypatch.setattr(ps.RightDilation, "theta_w", counted)
    ps.commutant_via_dilation(p, w)
    assert len(calls) == 30


@pytest.mark.parametrize("build, lift, shared", [
    ("from_endomorphism", "lift_right", True), ("from_endomorphism", "lift_left", False),
    ("commutant_system", "lift_left", True), ("commutant_system", "lift_right", False)])
def test_a_perturbed_lifted_slice_fails_the_light_check(monkeypatch, inner_system,
                                                          build, lift, shared):
    """One slice of one lifted action off by 1e-3 fails the build's
    ``bilinear`` law, which implies the unitality and commutation of the
    tensor's actions that no construction check repeats, whether the stack
    is shared by the pairs of a quotient or belongs to one pair."""
    _, _, theta, p = inner_system
    original = getattr(corr.TensorProduct, lift)
    calls = []

    def perturbed(self, op):
        out = original(self, op)
        calls.append(1)
        if len(calls) == 2:
            out = out.copy()
            out[1] += 1e-3 * nk.random_complex(out.shape[1:], np.random.default_rng(0))
        return out

    monkeypatch.setattr(corr.TensorProduct, lift, perturbed)
    with pytest.raises(ProductSystemLawError) as info:
        if build == "from_endomorphism":
            ps.from_endomorphism(theta, p.horizon)
        else:
            ps.commutant_system(p)
    assert "bilinear" in info.value.residuals
    assert info.value.residuals["bilinear"] > info.value.bound
    assert len(calls) == (p.horizon + 1 if shared else
                          (p.horizon + 1) * (p.horizon + 2) // 2)


def test_builds_run_no_construction_check(monkeypatch, inner_system):
    """The laws each build validates imply what ``_check_light`` would
    check on its members and tensors, so no build runs it."""
    _, v, theta, p = inner_system
    calls = []
    monkeypatch.setattr(corr, "_check_light", lambda e, tol: calls.append(e))
    pc = ps.from_endomorphism(theta, p.horizon)
    ps.commutant_system(pc)
    ps.right_dilation_from_unitary(pc, v)
    assert calls == []


def test_a_non_unital_dilation_space_is_rejected_first(inner_system):
    """H's action is checked for unitality before any quotient is formed."""
    b, v, _, p = inner_system
    for rho in (0.5 * b.basis, np.where(np.arange(b.dim)[:, None, None] == 1,
                                        np.nan, b.basis)):
        with pytest.raises(InvalidCorrespondence) as info:
            ps.right_dilation_from_unitary(p, v, rho_images=rho)
        assert info.value.law == "unital_left"


def _built_alone(monkeypatch, build):
    """build() with every TensorProduct of ``prodsys._build`` computing its
    own quotient and lifted actions: the build's memo does not reach them."""
    class Alone(corr.TensorProduct):
        def __init__(self, e, f, tol, memo=None, check=True):
            super().__init__(e, f, tol, check=check)

    with monkeypatch.context() as m:
        m.setattr(corr, "TensorProduct", Alone)
        return build()


def _assert_same_tensors(shared, alone):
    assert list(shared) == list(alone)
    for key, tp in shared.items():
        ref = alone[key]
        assert np.array_equal(tp.phi, ref.phi), key
        assert np.array_equal(tp.phi_pinv, ref.phi_pinv), key
        assert np.array_equal(tp.corr.rho, ref.corr.rho), key
        assert np.array_equal(tp.corr.rho_prime, ref.corr.rho_prime), key


@pytest.mark.parametrize("n, blocks, horizon, seed", [
    (4, [(2, 1), (1, 2)], 4, 3), (4, [(1, 2), (1, 2)], 4, 4),
    (6, [(1, 2), (2, 2)], 3, 5), (6, [(1, 2), (2, 1), (1, 2)], 3, 6),
    (8, [(2, 2), (2, 2)], 2, 7)])
def test_shared_quotients_equal_tensor_products_built_alone(monkeypatch, n, blocks,
                                                            horizon, seed):
    b = alg.random_algebra(n, blocks, seed=seed)
    v = unitary_in(b, seed + 10)
    theta = endo.from_unitary(b, v)
    p = ps.from_endomorphism(theta, horizon)
    pc = ps.commutant_system(p)
    w = ps.right_dilation_from_unitary(p, v)
    p_alone = _built_alone(monkeypatch, lambda: ps.from_endomorphism(theta, horizon))
    pc_alone = _built_alone(monkeypatch, lambda: ps.commutant_system(p_alone))
    w_alone = _built_alone(monkeypatch, lambda: ps.right_dilation_from_unitary(p_alone, v))
    cv = ps.commutant_via_dilation(p, w).system
    cv_alone = _built_alone(monkeypatch,
                            lambda: ps.commutant_via_dilation(p_alone, w_alone).system)
    for shared, alone in ((p, p_alone), (pc, pc_alone), (cv, cv_alone)):
        _assert_same_tensors(shared.tensors, alone.tensors)
        for key, u in shared.products.items():
            assert np.array_equal(u, alone.products[key]), key
        assert shared.residuals == alone.residuals
        _same(shared.residuals, _oracle_system(shared))
    _assert_same_tensors(w.tensors, w_alone.tensors)
    for t, u in w.maps.items():
        assert np.array_equal(u, w_alone.maps[t]), t
    assert w.residuals == w_alone.residuals
    _same(w.residuals, _oracle_dilation(w))
    # the one shared member element space is the one each member computes
    for member in p.members:
        own = corr.Correspondence(member.left, member.right, member.left_commutant,
                                  member.right_commutant, member.rho, member.rho_prime,
                                  member.carrier_dim, member.tol).element_space
        assert np.array_equal(member.element_space, own)


# ---------------------------------------------------------------------------
# each object built once per call


def _inner_map():
    b = alg.random_algebra(6, [(1, 2), (2, 2)], seed=5)
    v = unitary_in(b, 15)
    return b, v, endo.from_unitary(b, v)


def test_order_reversal_is_evaluated_once_per_right_index(monkeypatch):
    """The identification of tensor(F_t, F_s) with tensor(E_s, E_t) is the
    identity of their one carrier. Its spanning identity reads the arrays of t
    alone: at horizon 4 it is evaluated 5 times for the 15 pairs, as is its
    intertwining of the lifted B' actions, while that of the pair's own lifts
    of theta^s(B) is checked for each pair; nothing is solved for. The
    residuals equal those evaluated pair by pair."""
    p = ps.from_endomorphism(_inner_map()[2], 4)
    q = ps.commutant_system(p)
    pairs = [(s, t) for s in range(5) for t in range(5 - s)]
    fresh = [corr._identification(q.tensors[(t, s)], p.tensors[(s, t)], nk.DEFAULT_TOL)[1]
             for s, t in pairs]
    spans, checks, solves = [], [], []
    ident, check, lstsq = corr._identification, corr._check_intertwining, nk.lstsq_map
    monkeypatch.setattr(corr, "_identification",
                        lambda *args: spans.append(args[0]) or ident(*args))
    monkeypatch.setattr(corr, "_check_intertwining",
                        lambda *args: checks.append(args[-1]) or check(*args))
    monkeypatch.setattr(nk, "lstsq_map", lambda *args: solves.append(1) or lstsq(*args))
    shared = [ps.commutant_order_residual(p, q, s, t) for s, t in pairs]
    assert shared == fresh and solves == []
    assert spans == [q.tensors[(t, 0)] for t in range(5)]
    assert checks.count("left-algebra") == 5 and checks.count("commutant") == 15


# (blocks, horizon) of the from_endomorphism and commutant_system slots of the
# prodsys-horizon benchmark: fe-a4 and cs-a4, cs-d6 and cs-d6b, fe-c6 and
# cs-c6, fe-e8, fe-b4
ORDER_SHAPES = [([(1, 2), (1, 2)], 6), ([(1, 2), (2, 1), (1, 2)], 4),
                ([(1, 2), (2, 2)], 5), ([(2, 2), (2, 2)], 4), ([(2, 1), (1, 2)], 5)]


@pytest.mark.parametrize("blocks, horizon", ORDER_SHAPES)
def test_the_solved_order_identification_is_the_identity(blocks, horizon):
    """On an automorphism that may permute equal blocks, the least-squares
    identification of tensor(F_t, F_s) with tensor(E_s, E_t) is the identity
    within 1e-13 for every pair, which ``commutant_order_residual`` takes."""
    rng = np.random.default_rng(horizon)
    frame = nk.random_unitary(sum(a * m for a, m in blocks), rng)
    sample = st.AlgebraSample(tuple(blocks), frame, alg.block_model(blocks, frame))
    theta = endo.from_unitary(sample.algebra, st.normalizing_unitary(sample, rng))
    p = ps.from_endomorphism(theta, horizon)
    q = ps.commutant_system(p)
    for s in range(horizon + 1):
        for t in range(horizon + 1 - s):
            w = orc.order_identification(p, q, s, t)
            assert np.linalg.norm(w - np.eye(len(w))) <= 1e-13, (s, t)


def test_a_perturbed_commutant_element_fails_the_spanning_identity(inner_system,
                                                                   commutant_of_inner):
    """An element basis of F_1 moved off the intertwiners of theta: x y' g and
    theta(y') x g part, and the order reversal raises NotIsometric, law
    ``spanning_identity``."""
    _, _, _, p = inner_system
    pc = commutant_of_inner
    tp = copy.copy(pc.tensors[(1, 1)])
    tp.e = copy.copy(tp.e)
    tp.e.element_space = tp.e.element_space.copy()
    tp.e.element_space[0, 0, 0] += 1e-3
    q = ps.DiscreteProductSystem(pc.algebra, pc.members, {**pc.tensors, (1, 1): tp})
    with pytest.raises(NotIsometric, match="spanning identity") as info:
        ps.commutant_order_residual(p, q, 1, 1)
    assert info.value.law == "spanning_identity"
    assert not info.value.residual <= info.value.bound


def test_a_dilation_forms_rho_of_the_basis_once(monkeypatch):
    """rho_H(B) is formed when the dilation is built; validate, the
    representation and commutant_via_dilation read it, so validating again
    computes no law term and the dilation's memo stays as built."""
    b, v, theta = _inner_map()
    p = ps.from_endomorphism(theta, 4)
    formed, bilinear = [], []
    rho_of, real_bilinear = corr.Correspondence.rho_of, ps._bilinear
    monkeypatch.setattr(corr.Correspondence, "rho_of",
                        lambda self, a: formed.append(a is b.basis) or rho_of(self, a))
    monkeypatch.setattr(ps, "_bilinear", lambda *args: bilinear.append(1) or real_bilinear(*args))
    w = ps.right_dilation_from_unitary(p, v)
    ps.commutant_via_dilation(p, w)
    assert sum(formed) == 1
    built = len(bilinear)
    for _ in range(20):
        assert w.validate() == w.residuals
    assert len(bilinear) == built


def test_each_build_factors_its_quotients_and_forms_no_gram_factor(monkeypatch):
    """Every quotient of a build is read off one SVD of Phi, N + 1 for the
    iterate system, one for its dilation, N + 1 for the commutant system, so
    no build forms x_i* x_k; the representation forms the one of the iterate
    system's shared element basis for itself."""
    _, v, theta = _inner_map()
    seen, roots = [], []
    real, real_root = corr.inner_products, corr._gram_root
    monkeypatch.setattr(corr, "inner_products", lambda x: seen.append(x) or real(x))
    monkeypatch.setattr(corr, "_gram_root",
                        lambda e, f, tol: roots.append(e.element_space) or real_root(e, f, tol))
    p = ps.from_endomorphism(theta, 4)
    x0 = p.members[0].element_space
    assert seen == [] and [x is x0 for x in roots] == [True] * 5
    w = ps.right_dilation_from_unitary(p, v)
    assert seen == [] and [x is x0 for x in roots] == [True] * 6
    roots.clear()
    out = ps.commutant_via_dilation(p, w)
    assert list(map(id, roots)) == [id(m.element_space) for m in out.system.members]
    assert list(map(id, seen)) == [id(x0)]


def test_validate_rejects_a_tensor_of_the_wrong_carrier(inner_system):
    """A quotient carrier with one direction more than its target member's (a
    zero row appended to phi) is refused by name, before a law reads it."""
    _, _, _, p = inner_system
    tp = copy.copy(p.tensors[(1, 1)])
    tp.phi = np.vstack([tp.phi, np.zeros((1, tp.phi.shape[1]))])
    tp.carrier_dim += 1
    tp._phi3 = tp.phi.reshape(tp.carrier_dim, *tp._phi3.shape[1:])
    bad = ps.DiscreteProductSystem(p.algebra, p.members, {**p.tensors, (1, 1): tp},
                                   source=p.source)
    with pytest.raises(ProductSystemLawError,
                       match=r"tensor \(1,1\) has carrier dimension 5, member 2 4"):
        bad.validate()


def test_bhat_requires_an_automorphism():
    """x -> tr(x)/2 on M_2, a raw map of rank one, is refused before any law
    check runs."""
    b = alg.full_matrix_algebra(2)
    trace = endo.Endomorphism(b, np.array([np.trace(x) / 2 * np.eye(2) for x in b.basis]))
    with pytest.raises(NotFaithful, match="automorphism"):
        ps.bhat_system(trace, np.array([1.0, 0.0]), 2)


def test_iterate_members_are_built_without_their_span_check(monkeypatch):
    """theta is validated once; its iterates are valid as composites, so no
    span residual of any theta^t is computed, and every member is built
    unchecked over the one commutant B'."""
    b = alg.random_algebra(4, [(2, 1), (1, 2)], seed=3)
    theta = endo.Endomorphism(b, endo.from_unitary(b, unitary_in(b, 11)).basis_images)
    rows = []
    real = nk.span_residual
    monkeypatch.setattr(nk, "span_residual", lambda r, f: rows.append(r) or real(r, f))
    p = ps.from_endomorphism(theta, horizon=4)
    powers = endo.iterates(theta, 4)
    assert sum(r is theta.basis_images for r in rows) == 1  # theta's own law
    assert not any(r is q.basis_images for r in rows for q in powers)
    assert len({id(m.right_commutant) for m in p.members}) == 1


# ---------------------------------------------------------------------------
# factored tensor quotients against the Gram route (``oracles.gram_route``)

# (build, blocks, horizon) of the 17 shapes of the prodsys-horizon bench
# workload; its compression shapes (M_n, blocks [(n, 1)]) form no quotient
# there, so the commutant system of their iterate system stands in
HORIZON_SHAPES = [
    ("from_endomorphism", [(1, 2), (1, 2)], 6),
    ("commutant_via_dilation", [(1, 2), (1, 2)], 4),
    ("commutant_system", [(1, 2), (2, 1), (1, 2)], 4),
    ("commutant_system", [(3, 1)], 6),
    ("right_dilation_from_unitary", [(1, 2), (2, 2)], 5),
    ("from_endomorphism", [(1, 2), (2, 2)], 5),
    ("commutant_via_dilation", [(1, 2), (2, 2)], 4),
    ("commutant_system", [(1, 2), (1, 2)], 6),
    ("commutant_system", [(5, 1)], 5),
    ("right_dilation_from_unitary", [(2, 2), (2, 2)], 4),
    ("from_endomorphism", [(2, 2), (2, 2)], 4),
    ("commutant_via_dilation", [(1, 2), (2, 2)], 4),
    ("commutant_system", [(1, 2), (2, 2)], 5),
    ("commutant_system", [(6, 1)], 4),
    ("right_dilation_from_unitary", [(1, 2), (1, 2)], 6),
    ("from_endomorphism", [(2, 1), (1, 2)], 5),
    ("commutant_system", [(1, 2), (2, 1), (1, 2)], 4),
]


def _horizon_case(index):
    """The iterate system of shape index (an automorphism that may permute
    equal blocks, or a unitary of B where a dilation is built), with the
    commutant system or the dilation that its build adds, and the unitary."""
    build, blocks, horizon = HORIZON_SHAPES[index]
    rng = np.random.default_rng(100 + index)
    frame = nk.random_unitary(sum(a * m for a, m in blocks), rng)
    sample = st.AlgebraSample(tuple(blocks), frame, alg.block_model(blocks, frame))
    dilated = build in ("right_dilation_from_unitary", "commutant_via_dilation")
    u = st.unitary_inside(sample.algebra, rng) if dilated else st.normalizing_unitary(sample, rng)
    p = ps.from_endomorphism(endo.from_unitary(sample.algebra, u), horizon)
    built = {"system": p}
    if build in ("commutant_system", "commutant_via_dilation"):
        built["commutant"] = ps.commutant_system(p)
    if dilated:
        built["dilation"] = ps.right_dilation_from_unitary(p, u)
    return built, u


@pytest.mark.parametrize("index", range(len(HORIZON_SHAPES)))
def test_factored_quotients_match_the_gram_route(index):
    """Every quotient of each build is read off Phi: Phi* Phi is the Gram
    matrix within rounding, the kept rank is the Gram route's, and the
    carrier and both lifted actions are that route's up to one unitary."""
    built, _ = _horizon_case(index)
    tensors = {id(tp.phi): tp for obj in built.values() for tp in obj.tensors.values()}
    for tp in tensors.values():
        assert corr._factors(tp.e, tp.f)
        res = orc.factored_against_gram(tp)
        assert res.pop("rank") == 0
        assert max(res.values()) <= 1e-12, res


@pytest.mark.parametrize("index", range(len(HORIZON_SHAPES)))
def test_canonical_carriers_give_identity_products_and_powers_of_u(index):
    """At full row rank the carrier is the rows of Phi, so each product of an
    iterate or commutant system is the identity and the dilation maps of
    ``right_dilation_from_unitary`` are the powers of u."""
    built, u = _horizon_case(index)
    for key in ("system", "commutant"):
        for product in (built[key].products.values() if key in built else ()):
            assert np.array_equal(product, np.eye(len(product)))
    if "dilation" in built:
        power = np.eye(len(u), dtype=complex)
        for w_t in built["dilation"].maps.values():
            assert np.array_equal(w_t, power)
            power = u @ power


@pytest.mark.parametrize("index", range(len(HORIZON_SHAPES)))
def test_closed_form_left_lift_matches_the_element_basis_formula(index):
    """At full row rank of Phi the lifted left action is op (case (a)) or
    rho_f(op) (case (b)); the lift read off <x_i, op x_k> over the element
    basis of e gives the same stack within 1e-13."""
    built, _ = _horizon_case(index)
    tensors = {id(tp.phi): tp for obj in built.values() for tp in obj.tensors.values()}
    for tp in tensors.values():
        assert tp.full
        x = tp.e.element_space
        moved = np.einsum("aij,bjk->abik", tp.e.rho, x)
        m = np.einsum("cij,abij->acb", x.conj(), moved)  # m[a, i, k] = <x_i, op_a x_k>
        raw = np.einsum("piv,aik->apkv", tp._phi3, m)
        formula = raw.reshape(len(m), tp.carrier_dim, -1) @ tp.phi_pinv
        assert nk.worst_norm(tp.lift_left(tp.e.rho) - formula) <= 1e-13


def test_a_non_multiplicative_representation_is_rejected_before_any_quotient(monkeypatch):
    """The pinching rho(b) = diag(b) on M_2 is unital and keeps adjoints but
    is not multiplicative: with theta = id and u = 1 it raises NotMultiplicative,
    law ``multiplicative``, before a tensor quotient is formed."""
    m2 = alg.full_matrix_algebra(2)
    p = ps.from_endomorphism(endo.identity(m2), horizon=2)
    quotients = []
    real = corr.tensor_quotient
    monkeypatch.setattr(corr, "tensor_quotient",
                        lambda *args, **kw: quotients.append(1) or real(*args, **kw))
    pinching = np.array([np.diag(np.diag(b)) for b in m2.basis])
    with pytest.raises(NotMultiplicative) as info:
        ps.right_dilation_from_unitary(p, np.eye(2), rho_images=pinching)
    assert info.value.law == "multiplicative"
    assert info.value.residual > info.value.bound == nk.DEFAULT_TOL.bound(1.0)
    assert quotients == []


def test_a_quotient_that_drops_a_direction_raises_at_its_pair():
    """B = [(1, 2), (1, 1)] has Phi Phi* with spectrum {1/2, 1/2, 1}; at eps
    0.6 the quotient of the first pair keeps one of the three directions, so
    the identity is no map on its carrier: law ``factors`` at product (0,0),
    the cutoff 0.6 as residual and the float below the dropped 1/2 as bound."""
    tol = nk.Tolerance(0.6)
    b = alg.random_algebra(3, [(1, 2), (1, 1)], seed=2, tol=tol)
    with pytest.raises(ProductSystemLawError, match=r"product \(0,0\).* keeps 1 of the 3") as info:
        ps.from_endomorphism(endo.identity(b), 2, tol)
    err = info.value
    assert err.law == "factors" and err.residual == pytest.approx(0.6, abs=1e-12)
    assert err.bound == pytest.approx(0.5, abs=1e-12) and err.bound < err.residual


def test_a_dilation_off_the_factored_route_names_its_law():
    """The commutant system of theta = id with a given rho_H = b' (+) b': its
    members are not twisted, so the quotient with H would be read off the rows
    (q, .) of case (c) (``correspondence._gram_root``), on which u^t is not
    given; the build raises law ``factors`` before forming it."""
    b = alg.random_algebra(4, [(2, 1), (1, 2)], seed=3)
    pc = ps.commutant_system(ps.from_endomorphism(endo.identity(b), 2))
    rho = np.array([np.kron(np.eye(2), x) for x in pc.algebra.basis])
    with pytest.raises(ProductSystemLawError, match="not read off Phi") as info:
        ps.right_dilation_from_unitary(pc, np.eye(8), rho_images=rho)
    assert info.value.law == "factors"
