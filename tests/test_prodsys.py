import ast

import numpy as np
import pytest

import oracles as orc
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
    b, v, _, p = inner_system
    w = ps.right_dilation_from_unitary(p, v)
    cv = ps.commutant_via_dilation(p, w)
    assert [m.carrier_dim for m in cv.system.members] == [4, 4, 4, 4]
    assert corr.find_isomorphism(cv.system.members[1], ps.commutant_system(p).members[1])
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


# ---------------------------------------------------------------------------
# Per-element oracle: the same laws as loops over element basis vectors (or
# pairs of them), one at a time, for the stacked checks to be compared
# against. They return the residual dicts without judging them.


def _oracle_associativity(p, r, s, t):
    ys = p.members[s].element_space
    basis = p.members[r + s].element_space
    flat = basis.reshape(basis.shape[0], -1)
    first = p.action_stack(r, s)
    inner = p.action_stack(r + s, t)
    outer_x = p.action_stack(r, s + t)
    outer_y = p.action_stack(s, t)
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
        stack = p.action_stack(s, t)
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
    systems and dilation-side systems over n in {4, 6, 8}."""
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
            out.append((ps.commutant_via_dilation(p, w).system, None))
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


def test_a_perturbed_product_fails_the_same_laws(inner_system):
    _, _, _, p = inner_system
    u = p.products[(1, 2)].copy()
    u[:, 1] += 1e-3
    q = ps.DiscreteProductSystem(p.algebra, p.members, p.tensors,
                                 {**p.products, (1, 2): u}, source=p.source)
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
    """No operator-commutant system and no second law check of the source:
    the comparison reads the commutant member spaces and the member actions."""
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
    assert calls == []
    assert not hasattr(cv, "reference")
    assert [m.carrier_dim for m in cv.system.members] == [4, 4, 4, 4]


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
    quotient; commutant members share one per left index; the dilation of
    an iterate system needs a single quotient."""
    b = alg.random_algebra(6, [(1, 2), (2, 2)], seed=5)
    alg.commutant(b)  # the algebra's own commutant is not counted
    v = unitary_in(b, 15)
    theta = endo.from_unitary(b, v)
    counts = {"quotients": 0, "kernels": 0}

    def counting(key, original):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(corr, "tensor_quotient",
                        counting("quotients", corr.tensor_quotient))
    monkeypatch.setattr(nk, "intertwiners", counting("kernels", nk.intertwiners))
    n = horizon

    def counted(build):
        counts.update(quotients=0, kernels=0)
        out = build()
        return out, dict(counts)

    p, c = counted(lambda: ps.from_endomorphism(theta, horizon))
    assert c == {"quotients": n + 1, "kernels": 1}
    assert len(p.tensors) == (n + 1) * (n + 2) // 2
    _, c = counted(lambda: ps.commutant_system(p))
    assert c == {"quotients": n + 1, "kernels": n + 1}
    _, c = counted(lambda: ps.right_dilation_from_unitary(p, v))
    assert c == {"quotients": 1, "kernels": 0}


def _built_alone(monkeypatch, build):
    """build() with every TensorProduct computing its own quotient."""
    with monkeypatch.context() as m:
        m.setattr(ps, "_tensor_builder",
                  lambda tol: lambda e, f: corr.TensorProduct(e, f, tol))
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
    for shared, alone in ((p, p_alone), (pc, pc_alone)):
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
        own = nk.intertwiners(member.rho_prime, member.right_commutant.basis,
                              (n, n), member.tol)
        assert np.array_equal(member.element_space, own)
