import inspect

import numpy as np
import pytest

import oracles as orc
from vnpair import algebra as alg
from vnpair import correspondence as corr
from vnpair import endo
from vnpair import numkernel as nk
from vnpair import pairing as pr
from vnpair import prodsys as ps
from vnpair import selftest as st
from vnpair.errors import (CocycleResidual, DimensionMismatch, DomainMismatch,
                           DomainsNotCommutant, ImageOutsideAlgebra, InvalidCorrespondence,
                           NonIntegralRank, NotFaithful, NotMultiplicative, NotPairedInput,
                           NotUnitary, NotUnitaryImage, PairingCheckFailed, RelationB,
                           RelationBPrime, VnpairError)

SWAP = np.array([[0, 1], [1, 0]], dtype=complex)


def diag_algebra_2():
    gens = [np.diag([1.0, 0.0]).astype(complex),
            np.diag([0.0, 1.0]).astype(complex)]
    return alg.from_generators(2, gens)


def unitary_in(b, seed):
    rng = np.random.default_rng(seed)
    x = np.tensordot(nk.random_complex(b.dim, rng), b.basis, axes=(0, 0))
    h = (x + x.conj().T) / 2.0
    lam, vec = np.linalg.eigh(h)
    return (vec * np.exp(1j * lam)) @ vec.conj().T


@pytest.fixture(scope="module")
def two_block():
    b = alg.random_algebra(4, [(2, 1), (1, 2)], seed=11)
    bp = alg.commutant(b)
    return b, bp


def test_swap_pairs_with_itself():
    """The swap matrix implements the swap on both the algebra and commutant."""
    d2 = diag_algebra_2()
    theta = endo.from_unitary(d2, SWAP)
    cert = pr.check_pairing(SWAP, theta, theta)
    assert cert.paired
    assert bool(cert)
    assert set(cert.residuals) == {"relation_b", "relation_b_prime", "powers"}
    assert all(v < 1e-12 for v in cert.residuals.values())


def test_swap_against_identity_fails_on_the_commutant():
    d2 = diag_algebra_2()
    theta = endo.from_unitary(d2, SWAP)
    with pytest.raises(RelationBPrime):
        pr.check_pairing(SWAP, theta, endo.identity(d2))


def test_no_unitary_pairs_swap_with_identity():
    """Exhaustive scan: diagonal candidates fail on B, swaps fail on B'.

    Any unitary fixing the diagonal masa pointwise is itself diagonal, so it
    cannot swap the two projections; any unitary that does swap them moves
    the commutant. The two families cover every normalizing unitary of the
    masa up to phases.
    """
    d2 = diag_algebra_2()
    theta = endo.from_unitary(d2, SWAP)
    ident = endo.identity(d2)
    grid = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
    for a in grid:
        for c in grid:
            u = np.diag([np.exp(1j * a), np.exp(1j * c)])
            with pytest.raises(RelationB):
                pr.check_pairing(u, theta, ident)
            with pytest.raises(RelationBPrime):
                pr.check_pairing(u @ SWAP, theta, ident)


def test_can_pair_swap_with_identity_is_negative():
    d2 = diag_algebra_2()
    theta = endo.from_unitary(d2, SWAP)
    decision = pr.can_pair(theta, endo.identity(d2))
    assert not decision.paired
    assert decision.unitary is None
    tables = {decision.table_left.counts, decision.table_right.counts}
    assert tables == {((1, 0), (0, 1)), ((0, 1), (1, 0))}


def test_full_algebra_pairing_round_trip():
    """Ad(u) on M_3 pairs with the identity on scalars through u itself."""
    m3 = alg.full_matrix_algebra(3)
    u = nk.random_unitary(3, seed=5)
    theta = endo.from_unitary(m3, u)
    theta_prime = endo.identity(alg.trivial_algebra(3))
    cert = pr.check_pairing(u, theta, theta_prime)
    assert cert.paired

    decision = pr.can_pair(theta, theta_prime)
    assert decision.paired
    assert pr.check_pairing(decision.unitary, theta, theta_prime).paired

    iso = pr.isomorphism_from_pairing(u, theta, theta_prime)
    assert all(v < 1e-10 for v in iso.residuals.values())
    back = pr.pairing_from_isomorphism(iso, theta, theta_prime)
    assert back.paired
    u_back = iso.apply(np.eye(3, dtype=complex))
    assert np.linalg.norm(u_back - u) < 1e-9
    assert back.residuals["eq33_match"] < 1e-9


def test_pairing_from_raw_matrix():
    m2 = alg.full_matrix_algebra(2)
    u = nk.random_unitary(2, seed=2)
    theta = endo.from_unitary(m2, u)
    theta_prime = endo.identity(alg.trivial_algebra(2))
    cert = pr.pairing_from_isomorphism(u, theta, theta_prime)
    assert cert.paired


def test_pairing_from_isomorphism_rejects_wrong_unitary():
    m2 = alg.full_matrix_algebra(2)
    u = nk.random_unitary(2, seed=2)
    theta = endo.from_unitary(m2, u)
    theta_prime = endo.identity(alg.trivial_algebra(2))
    wrong = nk.random_unitary(2, seed=55)
    with pytest.raises(PairingCheckFailed):
        pr.pairing_from_isomorphism(wrong, theta, theta_prime)
    with pytest.raises(NotUnitaryImage):
        pr.pairing_from_isomorphism(np.diag([1.0, 2.0]), theta, theta_prime)
    with pytest.raises(NotUnitaryImage):
        pr.pairing_from_isomorphism(np.eye(3), theta, theta_prime)


@pytest.mark.parametrize("carrier", [np.array([1.0, 0.0]), np.ones((2, 2, 2)),
                                     np.ones((2, 3))])
def test_a_carrier_of_the_wrong_shape_is_not_a_unitary_image(carrier):
    """The shape rule runs before the residual, which reads two axes."""
    theta = endo.from_unitary(alg.full_matrix_algebra(2), nk.random_unitary(2, seed=2))
    theta_prime = endo.identity(alg.trivial_algebra(2))
    with pytest.raises(NotUnitaryImage, match="residual inf"):
        pr.pairing_from_isomorphism(carrier, theta, theta_prime)


def test_check_pairing_rejects_nonunitary():
    d2 = diag_algebra_2()
    theta = endo.from_unitary(d2, SWAP)
    with pytest.raises(NotUnitary):
        pr.check_pairing(np.diag([1.0, 2.0]), theta, theta)


def test_domains_must_be_commutants():
    m2 = alg.full_matrix_algebra(2)
    u = nk.random_unitary(2, seed=1)
    theta = endo.from_unitary(m2, u)
    with pytest.raises(DomainsNotCommutant):
        pr.check_pairing(u, theta, theta)
    with pytest.raises(DomainsNotCommutant):
        pr.can_pair(theta, theta)


def test_can_pair_requires_faithful_maps():
    d2 = diag_algebra_2()
    images = [np.diag([b[0, 0], b[0, 0]]).astype(complex) for b in d2.basis]
    collapse = endo.make(d2, np.array(images))
    with pytest.raises(NotFaithful, match="first map"):
        pr.can_pair(collapse, endo.identity(d2))
    # the masa is its own commutant, so the collapse can be the partner too
    with pytest.raises(NotFaithful, match="second map"):
        pr.can_pair(endo.identity(d2), collapse)


def test_nonfactor_can_pair(two_block):
    b, bp = two_block
    theta = endo.from_unitary(b, unitary_in(b, 23))
    decision = pr.can_pair(theta, endo.identity(bp))
    assert decision.paired
    assert all(v < 1e-8 for v in decision.residuals.values())


def test_restriction_symmetry_inside_and_outside(two_block):
    b, bp = two_block
    # inner unitaries normalize; so do unitaries of the commutant
    assert pr.restriction_symmetry(unitary_in(b, 23), b) == (True, True)
    assert pr.restriction_symmetry(unitary_in(bp, 9), b) == (True, True)
    generic = nk.random_unitary(4, seed=7)
    down, up = pr.restriction_symmetry(generic, b)
    assert (down, up) == (False, False)


def test_restriction_symmetry_verdicts_agree(two_block):
    b, _ = two_block
    for s in range(20):
        w = nk.random_unitary(4, seed=100 + s)
        down, up = pr.restriction_symmetry(w, b)
        assert down == up


@pytest.mark.parametrize("horizon", [0, -1, True, 2.5])
def test_library_horizons_are_validated(two_block, horizon):
    """A horizon below 1, a bool or a non-integer is refused by check_pairing
    and cocycle_link, not read as an empty range or as 1."""
    d2 = diag_algebra_2()
    swap = endo.from_unitary(d2, SWAP)
    b, bp = two_block
    theta1 = endo.from_unitary(b, unitary_in(b, 31))
    theta2 = endo.from_unitary(b, unitary_in(b, 37))
    with pytest.raises(DimensionMismatch, match="horizon"):
        pr.check_pairing(SWAP, swap, swap, horizon=horizon)
    with pytest.raises(DimensionMismatch, match="horizon"):
        pr.cocycle_link(theta1, theta2, endo.identity(bp), horizon)
    assert pr.check_pairing(SWAP, swap, swap, horizon=np.int64(2)).paired
    assert len(pr.cocycle_link(theta1, theta2, endo.identity(bp), np.int64(2))) == 2


def test_cocycle_link_conjugates_iterates(two_block):
    b, bp = two_block
    theta1 = endo.from_unitary(b, unitary_in(b, 31))
    theta2 = endo.from_unitary(b, unitary_in(b, 37))
    theta_prime = endo.identity(bp)
    family = pr.cocycle_link(theta1, theta2, theta_prime, horizon=5)
    assert len(family) == 5
    assert b.contains(family[0])
    for k, c in enumerate(family, start=1):
        pk = endo.power(theta1, k)
        qk = endo.power(theta2, k)
        res = max(float(np.linalg.norm(qk(x) - c @ pk(x) @ c.conj().T))
                  for x in b.basis)
        assert res < 1e-8
    # recursion c_{s+t} = c_s theta1^s(c_t)
    for s in range(1, 5):
        for t in range(1, 5 - s + 1):
            lhs = family[s + t - 1]
            rhs = family[s - 1] @ endo.power(theta1, s)(family[t - 1])
            assert np.linalg.norm(lhs - rhs) < 1e-8


def _count_law_checks(monkeypatch) -> list:
    calls = []
    real = endo.hom_residuals

    def counted(domain, images):
        calls.append(domain)
        return real(domain, images)
    monkeypatch.setattr(endo, "hom_residuals", counted)
    return calls


def _unchecked(b, seed):
    """Ad u* for a unitary u in b, built without computing its law residuals."""
    return endo.Endomorphism(b, endo.from_unitary(b, unitary_in(b, seed)).basis_images)


def test_pairing_computes_the_laws_of_each_map_once(two_block, monkeypatch):
    """A verified pairing unitary proves both maps' homomorphism laws off its
    relation stacks, so neither can_pair nor the check_pairing after it
    evaluates them; a NotPaired outcome validates both maps, once each."""
    b, bp = two_block
    theta, theta_prime = _unchecked(b, 31), endo.identity(bp)
    calls = _count_law_checks(monkeypatch)
    cert = pr.can_pair(theta, theta_prime)
    assert cert.paired
    assert pr.check_pairing(cert.unitary, theta, theta_prime).paired
    assert calls == []
    frame = nk.random_unitary(6, seed=3)
    swap = _summand_swap(alg.block_model([(2, 1), (2, 2)], frame), frame)
    ident = endo.identity(alg.commutant(swap.domain))
    assert not pr.can_pair(swap, ident).paired
    assert calls == [swap.domain, ident.domain]


def test_cocycle_link_computes_the_laws_of_each_map_once(two_block, monkeypatch):
    """Both decisions of cocycle_link prove the laws of their maps off the
    relation stacks: no homomorphism law is evaluated."""
    b, bp = two_block
    theta1, theta2, theta_prime = _unchecked(b, 31), _unchecked(b, 37), endo.identity(bp)
    calls = _count_law_checks(monkeypatch)
    pr.cocycle_link(theta1, theta2, theta_prime, horizon=2)
    assert calls == []


def _count_iterates(monkeypatch) -> list:
    calls, real = [], endo.iterates
    monkeypatch.setattr(endo, "iterates", lambda f, k: calls.append(f) or real(f, k))
    return calls


def test_the_paired_path_forms_no_iterate(two_block, monkeypatch):
    """can_pair and check_pairing bound the powers off the relation stacks and
    compose no iterate; cocycle_link composes those of theta1 and theta2 once
    each, for its family, and none of theta_prime."""
    b, bp = two_block
    theta1, theta2, theta_prime = _unchecked(b, 31), _unchecked(b, 37), endo.identity(bp)
    calls = _count_iterates(monkeypatch)
    cert = pr.can_pair(theta1, theta_prime)
    assert pr.check_pairing(cert.unitary, theta1, theta_prime, horizon=6).paired
    assert calls == []
    pr.cocycle_link(theta1, theta2, theta_prime, horizon=3)
    assert calls == [theta1, theta2]


def test_can_pair_checks_no_unitary_twice(two_block, monkeypatch):
    """find_isomorphism has checked the unitary against the bound of
    _check_unitary, so the paired decision does not call it again."""
    b, bp = two_block
    calls = []
    real = pr._check_unitary
    monkeypatch.setattr(pr, "_check_unitary", lambda *args: calls.append(args) or real(*args))
    assert pr.can_pair(_unchecked(b, 31), endo.identity(bp)).paired
    assert calls == []


def _count_domain_comparisons(monkeypatch) -> list:
    """Calls of alg.equals on two distinct algebras; equals of an object
    with itself compares nothing."""
    calls = []
    real = alg.equals

    def counted(a, b, tol=nk.DEFAULT_TOL):
        if a is not b:
            calls.append((a, b))
        return real(a, b, tol)
    monkeypatch.setattr(alg, "equals", counted)
    return calls


def _count_frame_distances(monkeypatch) -> list:
    """The B' of each comparison with the commutant (``_frame_distance``)."""
    calls = []
    real = corr._frame_distance
    monkeypatch.setattr(corr, "_frame_distance",
                        lambda sig, bp: calls.append(bp) or real(sig, bp))
    return calls


def test_can_pair_compares_the_domains_once(two_block, monkeypatch):
    """theta_prime lives on a copy of the commutant with its basis reversed,
    so that the comparison with the commutant is not an identity check: one
    frame distance per decision, none in the check_pairing that follows, as
    the copy then holds the commutant's frame, and one for both decisions of
    cocycle_link. No two algebras are compared by ``equals``."""
    b, bp = two_block
    theta1, theta2 = _unchecked(b, 31), _unchecked(b, 37)
    copies = [alg.VnAlgebra(bp.ambient_dim, bp.basis[::-1]) for _ in range(2)]
    distances, compared = _count_frame_distances(monkeypatch), \
        _count_domain_comparisons(monkeypatch)
    cert = pr.can_pair(theta1, endo.identity(copies[0]))
    assert cert.paired and distances == [copies[0]]
    assert pr.check_pairing(cert.unitary, theta1, endo.identity(copies[0])).paired
    assert distances == [copies[0]]
    pr.cocycle_link(theta1, theta2, endo.identity(copies[1]), horizon=2)
    assert distances == copies and compared == []


def _count_frame_builds(monkeypatch) -> list:
    """Algebras whose block frame is built: each build is one ``_frame`` call."""
    builds = []
    real = alg._frame
    monkeypatch.setattr(alg, "_frame", lambda a, *args: builds.append(a) or real(a, *args))
    return builds


def _fresh_domains(seed):
    """A copy b of a random algebra with summands of equal shape, and an
    algebra bp built on its own with the span of the commutant of b (basis
    reversed); neither holds a frame. Also the model of b, for building maps."""
    model = alg.random_algebra(6, [(1, 2), (1, 2), (2, 1)], seed=seed)
    b = alg.VnAlgebra(6, model.basis, generators=model.generators)
    bp = alg.VnAlgebra(6, alg.commutant(model).basis[::-1])
    return model, b, bp


def _inner(model, b, seed):
    """Ad u* on b for a unitary u in b, built on the model without law checks on b."""
    return endo.Endomorphism(b, endo.from_unitary(model, unitary_in(model, seed)).basis_images)


def test_pairing_builds_one_frame_for_both_domains(monkeypatch):
    """B' takes over the frame of B that the commutant of B holds, transposed:
    one frame build per can_pair and per cocycle_link on fresh domains."""
    model, b, bp = _fresh_domains(5)
    theta = _inner(model, b, 31)
    builds = _count_frame_builds(monkeypatch)
    cert = pr.can_pair(theta, endo.identity(bp))
    assert cert.paired and builds == [b]
    assert pr.check_pairing(cert.unitary, theta, endo.identity(bp)).paired
    assert builds == [b]
    sig = alg.block_decompose(bp)
    assert sig is alg.block_decompose(alg.commutant(b))
    fresh = alg.block_decompose(alg.VnAlgebra(6, bp.basis))
    assert sig.blocks == fresh.blocks == ((2, 1), (2, 1), (1, 2))
    assert np.abs(sig.central_projections - fresh.central_projections).max() <= 1e-10
    model, b, bp = _fresh_domains(6)
    builds.clear()
    family = pr.cocycle_link(_inner(model, b, 31), _inner(model, b, 37),
                             endo.identity(bp), horizon=3)
    assert len(family) == 3 and builds == [b]


def test_a_frame_built_first_is_kept():
    model, b, bp = _fresh_domains(5)
    sig = alg.block_decompose(bp)
    assert pr.can_pair(_inner(model, b, 31), endo.identity(bp)).paired
    assert alg.block_decompose(bp) is sig
    assert alg.block_decompose(alg.commutant(b)) is not sig


def test_a_domain_that_is_not_the_commutant_takes_no_frame(two_block):
    b, _ = two_block
    wrong = alg.VnAlgebra(b.ambient_dim, b.basis[::-1])
    with pytest.raises(DomainsNotCommutant):
        corr.require_commutant(b, wrong, nk.DEFAULT_TOL)
    assert wrong._frames == {}


def test_cocycle_link_checks_membership_at_the_given_tolerance(two_block, monkeypatch):
    b, bp = two_block
    seen = []
    real = alg.VnAlgebra.contains

    def spy(self, x, tol=nk.DEFAULT_TOL):
        seen.append(tol)
        return real(self, x, tol)
    monkeypatch.setattr(alg.VnAlgebra, "contains", spy)
    tol = nk.Tolerance(1e-8)
    pr.cocycle_link(_unchecked(b, 31), _unchecked(b, 37), endo.identity(bp),
                    horizon=2, tol=tol)
    assert seen and all(t == tol for t in seen)


def test_cocycle_link_rejects_unpaired_input():
    d2 = diag_algebra_2()
    theta_swap = endo.from_unitary(d2, SWAP)
    ident = endo.identity(d2)
    with pytest.raises(NotPairedInput, match="first map"):
        pr.cocycle_link(theta_swap, ident, ident, horizon=3)
    with pytest.raises(NotPairedInput, match="second map"):
        pr.cocycle_link(ident, theta_swap, ident, horizon=3)


def eq33_via_dilation(u, theta, theta_prime, tol=nk.DEFAULT_TOL):
    """The eq33 residuals through the dilation-level construction.

    Builds the horizon-1 system of theta, the commutant system of the one of
    theta_prime and its identity right dilation, then solves for the map
    that sends x (tensor) y (tensor) h through the product on one side and
    through x acting on the dilated u y on the other.
    """
    p = ps.from_endomorphism(theta, 1, tol)
    pf = ps.commutant_system(ps.from_endomorphism(theta_prime, 1, tol), tol)
    wf = orc.identity_right_dilation(pf, tol)
    v1 = p.products[(0, 1)]
    t01 = p.tensors[(0, 1)]
    src, dst = [], []
    for xi in p.members[0].element_space:
        left = v1 @ t01.embed_matrix(xi)
        for xj in p.members[1].element_space:
            src.append(left @ xj)
            dst.append(xi @ (wf.maps[1] @ wf.tensors[1].embed_matrix(u @ xj)))
    src = np.concatenate(src, axis=1)
    dst = np.concatenate(dst, axis=1)
    u33 = nk.lstsq_map(src, dst)
    return {"eq33_solve": float(np.linalg.norm(u33 @ src - dst)),
            "eq33_match": float(np.linalg.norm(u33 - u))}


def paired_sample(blocks, seed):
    """theta = Ad u* on B and theta' = Ad u on B' for a normalizing u."""
    n = sum(a * m for a, m in blocks)
    frame = nk.random_unitary(n, seed)
    gens, _ = alg.block_basis(blocks)
    b = alg.from_generators(
        n, np.einsum("ij,bjk,kl->bil", frame, gens, frame.conj().T))
    rng = np.random.default_rng(seed)
    u = st.normalizing_unitary(st.AlgebraSample(tuple(blocks), frame, b), rng)
    bp = alg.commutant(b)
    return (b, u, endo.from_unitary(b, u, "adjoint"),
            endo.from_unitary(bp, u, "direct"), rng)


# every B is noncommutative, so a unitary of B can move the map on B
EQ33_CASES = [
    ([(2, 1), (1, 1), (1, 1)], 41),
    ([(2, 1), (1, 2)], 42),
    ([(1, 2), (1, 2), (2, 1)], 43),
    ([(2, 1), (2, 1), (1, 2)], 44),
    ([(2, 2), (2, 2)], 45),
]


@pytest.mark.parametrize("blocks, seed", EQ33_CASES)
def test_eq33_agrees_with_dilation_construction(blocks, seed):
    """The closed-form residuals match the dilation-level ones on paired
    inputs, near 0, and bound them from above where they are far from zero:
    for w = c u with c a unitary of B, w still implements theta' (so both
    constructions see the same spanning family) but not theta, and the map
    solved for is not w. theta is Ad u* exactly, so s_min(src) = min a_i / m_i
    and eq33_match bounds |u33 - w| with no first-order term."""
    tol = nk.DEFAULT_TOL
    b, u, theta, theta_prime, rng = paired_sample(blocks, seed)
    n = b.ambient_dim
    cert = pr.pairing_from_isomorphism(u, theta, theta_prime)
    oracle = eq33_via_dilation(u, theta, theta_prime)
    for key in ("eq33_solve", "eq33_match"):
        assert abs(cert.residuals[key] - oracle[key]) <= tol.bound(np.sqrt(n))
    w = st.unitary_inside(b, rng) @ u
    direct = pr._eq33_residuals(w, theta, tol)
    oracle = eq33_via_dilation(w, theta, theta_prime)
    assert direct["eq33_solve"] > 1e-3
    for key in ("eq33_solve", "eq33_match"):
        assert oracle[key] <= direct[key] * (1.0 + 1e-9)


@pytest.mark.parametrize("blocks, seed", EQ33_CASES)
def test_eq33_reduced_family_matches_the_spanning_family(blocks, seed):
    """Same least-squares solution and residual norm on d n columns as on
    d^2 n, at the pairing unitary (residuals near 0) and at w = c u (O(1));
    the closed form bounds both from above."""
    tol = nk.DEFAULT_TOL
    b, u, theta, _, rng = paired_sample(blocks, seed)
    w = st.unitary_inside(b, rng) @ u
    for v in (u, w):
        reduced, full = orc.eq33_reduced_family(v, theta), orc.eq33_spanning_family(v, theta)
        for key in ("eq33_solve", "eq33_match"):
            assert abs(reduced[key] - full[key]) <= 1e-12 * max(1.0, full[key])
        closed = pr._eq33_residuals(v, theta, tol)
        for key in ("eq33_solve", "eq33_match"):
            assert full[key] <= closed[key] * (1.0 + 1e-9) + 1e-14


def test_check_pairing_rejects_map_leaving_the_algebra():
    """Ad u* with u* B u outside B passes both relations by construction;
    the law check on the maps has to catch it at every horizon, and
    can_pair raises the map's law error before reading any table."""
    b = alg.random_algebra(4, [(1, 2), (1, 2)], seed=3)
    bp = alg.commutant(b)
    u = nk.random_unitary(4, 5)
    theta = endo.Endomorphism(
        b, np.einsum("ij,bjk,kl->bil", u.conj().T, b.basis, u))
    theta_prime = endo.Endomorphism(
        bp, np.einsum("ij,bjk,kl->bil", u, bp.basis, u.conj().T))
    for horizon in (1, 4):
        with pytest.raises(ImageOutsideAlgebra):
            pr.check_pairing(u, theta, theta_prime, horizon=horizon)
    with pytest.raises(ImageOutsideAlgebra):
        pr.can_pair(theta, theta_prime)


def _transpose_swap(b):
    """theta(x (+) y) = y^T (+) x^T on M_2 (+) M_2, unital, *-preserving and
    linear but anti-multiplicative, as a raw Endomorphism."""
    images = np.zeros_like(b.basis)
    images[:, :2, :2] = b.basis[:, 2:, 2:].transpose(0, 2, 1)
    images[:, 2:, 2:] = b.basis[:, :2, :2].transpose(0, 2, 1)
    return endo.Endomorphism(b, images)


def test_a_map_that_is_not_multiplicative_raises_instead_of_not_paired():
    """The transpose-swap on M_2 (+) M_2 against the identity on B' has
    multiplicity tables that differ, so it came back NotPaired; the maps
    are now validated before the tables, in can_pair and in cocycle_link."""
    b = alg.block_model([(2, 1), (2, 1)], np.eye(4))
    theta, ident = _transpose_swap(b), endo.identity(alg.commutant(b))
    res = theta.law_residuals
    assert res["multiplicative"] == pytest.approx(4.0)
    assert max(res["span"], res["unital"], res["star"]) <= 1e-12
    with pytest.raises(NotMultiplicative, match="4.000e"):
        pr.can_pair(theta, ident)
    with pytest.raises(NotMultiplicative, match="4.000e"):
        pr.cocycle_link(endo.identity(b), theta, ident, horizon=2)
    assert pr.can_pair(endo.identity(b), ident)


def test_check_pairing_rejects_a_nan_map():
    """A map built directly with a NaN basis image used to pass as paired,
    with relation_b reported as nan."""
    d2 = diag_algebra_2()
    d2p = alg.commutant(d2)
    images = d2.basis.copy()
    images[0][0, 0] = np.nan
    theta = endo.Endomorphism(d2, images)
    for horizon in (1, 4):
        with pytest.raises(RelationB):
            pr.check_pairing(np.eye(2), theta, endo.identity(d2p), horizon=horizon)


def test_can_pair_rejects_a_nan_map():
    """The faithfulness check used to raise numpy's LinAlgError on a NaN image."""
    d2 = diag_algebra_2()
    images = d2.basis.copy()
    images[0][0, 0] = np.nan
    theta = endo.Endomorphism(d2, images)
    with pytest.raises(ImageOutsideAlgebra):
        pr.can_pair(theta, endo.identity(alg.commutant(d2)))


@pytest.mark.parametrize("fn", [alg.block_decompose, corr.find_isomorphism, pr.can_pair,
                                pr.cocycle_link, ps.commutant_via_dilation,
                                ps.representation_from_right_dilation],
                         ids=lambda fn: fn.__name__)
def test_structure_answers_take_no_seed(fn):
    """Block frames make these answers deterministic: no seed to pass."""
    assert "seed" not in inspect.signature(fn).parameters


def test_cocycle_link_needs_one_domain_basis(two_block):
    """theta2 lives on a copy of B whose basis is turned by a real orthogonal
    matrix: the same span, another basis. Comparing its basis images with
    c theta1(b) c* over the basis of B used to raise a wrong CocycleResidual."""
    b, bp = two_block
    turn = np.linalg.qr(np.random.default_rng(5).standard_normal((b.dim, b.dim)))[0]
    copy = alg.VnAlgebra(b.ambient_dim, np.tensordot(turn, b.basis, axes=(1, 0)))
    assert alg.equals(copy, b).residual < 1e-12
    theta1 = endo.from_unitary(b, unitary_in(b, 31))
    theta2 = endo.from_unitary(copy, unitary_in(b, 37))
    with pytest.raises(DomainMismatch):
        pr.cocycle_link(theta1, theta2, endo.identity(bp), horizon=3)


def test_cocycle_link_builds_the_partner_side_once(two_block, monkeypatch):
    """Both pairings are decided against one side of theta_prime: one
    faithfulness check of theta_prime, one domain comparison, and one reading
    of the unit images with its table (``_form``) per map, theta_prime first;
    no twisted correspondence is built and no isomorphism searched."""
    b, bp = two_block
    theta1, theta2, theta_prime = _unchecked(b, 31), _unchecked(b, 37), endo.identity(bp)
    calls = {}
    for module, name in ((corr, "_twisted"), (corr, "find_isomorphism"),
                         (endo, "is_faithful"), (corr, "require_commutant"),
                         (pr, "_form")):
        seen = calls.setdefault(name, [])
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda first, *args, real=real, seen=seen, **kw:
                            seen.append(first) or real(first, *args, **kw))
    family = pr.cocycle_link(theta1, theta2, theta_prime, horizon=2)
    assert len(family) == 2
    assert calls["_twisted"] == calls["find_isomorphism"] == []
    assert calls["is_faithful"] == [theta1, theta_prime, theta2]
    assert calls["require_commutant"] == [b]
    assert calls["_form"] == [theta_prime, theta1, theta2]


def test_one_generator_law_per_decision(monkeypatch):
    """[B, B'] = 0 is evaluated once per pair of fresh domains, by
    ``require_commutant``: once for can_pair and once for both decisions of
    cocycle_link. A B' that then holds the dual of B's frame took it after
    that law passed, so a later decision on the same domains runs none."""
    bases = []
    real = nk.law_residual
    monkeypatch.setattr(nk, "law_residual", lambda lefts, rights, basis: bases.append(
        basis) or real(lefts, rights, basis))
    model, b, bp = _fresh_domains(5)

    def generator_laws():
        return sum(x is b.basis or x is bp.basis for x in bases)
    assert pr.can_pair(_inner(model, b, 31), endo.identity(bp)).paired
    assert generator_laws() == 1
    bases.clear()
    pr.cocycle_link(_inner(model, b, 31), _inner(model, b, 37), endo.identity(bp), horizon=2)
    assert generator_laws() == 0
    model, b, bp = _fresh_domains(6)
    pr.cocycle_link(_inner(model, b, 31), _inner(model, b, 37), endo.identity(bp), horizon=2)
    assert generator_laws() == 1


def test_check_pairing_after_can_pair_runs_no_law_residual(monkeypatch):
    """On fresh domains can_pair runs the generator law, on the basis of B or
    B'; the check_pairing of its unitary after it runs no law_residual at all."""
    model, b, bp = _fresh_domains(7)
    theta, theta_prime = _inner(model, b, 31), endo.identity(bp)
    calls = []
    real = nk.law_residual
    monkeypatch.setattr(nk, "law_residual", lambda *args: calls.append(args) or real(*args))
    cert = pr.can_pair(theta, theta_prime)
    assert cert.paired and [args[2] is b.basis or args[2] is bp.basis
                            for args in calls].count(True) == 1
    calls.clear()
    assert pr.check_pairing(cert.unitary, theta, theta_prime).paired
    assert calls == []


def test_can_pair_checks_each_identity_once(monkeypatch):
    """Construction checks the identity of an algebra at its own tolerance,
    so the frame that can_pair builds for B does not check it again; a frame
    at another tolerance does."""
    checked = []
    real = alg.VnAlgebra._check_unit
    monkeypatch.setattr(alg.VnAlgebra, "_check_unit",
                        lambda self, tol: checked.append(self) or real(self, tol))
    b = alg.random_algebra(6, [(2, 1), (1, 2), (1, 2)], seed=8)
    bp = alg.commutant(b)
    u = unitary_in(b, 3)
    assert pr.can_pair(endo.from_unitary(b, u), endo.from_unitary(bp, u, "direct"))
    assert len(checked) == len(set(map(id, checked))) == 2
    assert checked[0] is b and checked[1] is bp
    alg.block_decompose(b, nk.Tolerance(1e-6))
    assert checked[2:] == [b]


def _sample(blocks, seed):
    """The block model of blocks turned by a Haar frame, with its sample record."""
    rng = np.random.default_rng(seed)
    frame = nk.random_unitary(sum(a * m for a, m in blocks), rng)
    return st.AlgebraSample(tuple(blocks), frame, alg.block_model(blocks, frame)), rng


def _swap_unitary(sample, rng):
    """A normalizing unitary that swaps the first two summands of one shape,
    with a local unitary on each summand; the bench's NotPaired construction
    against the identity on B'."""
    shapes = list(sample.blocks)
    i = next(k for k, shape in enumerate(shapes) if shapes.count(shape) > 1)
    j = shapes.index(shapes[i], i + 1)
    offsets, n = sample.offsets, sample.ambient_dim
    target = list(range(len(shapes)))
    target[i], target[j] = j, i
    u = np.zeros((n, n), dtype=complex)
    for k, (a, m) in enumerate(shapes):
        t = target[k]
        u[offsets[t]:offsets[t] + a * m, offsets[k]:offsets[k] + a * m] = np.kron(
            nk.random_unitary(a, rng), nk.random_unitary(m, rng))
    return sample.frame @ u @ sample.frame.conj().T


def _bench_style(blocks, seed, paired):
    """theta = Ad u* on B and theta' = Ad u on B' (paired), or theta swapping
    two summands and theta' the identity on B' (not paired), over a B' built
    on its own with the span of the commutant."""
    sample, rng = _sample(blocks, seed)
    b = sample.algebra
    bp = alg.VnAlgebra(b.ambient_dim, alg.commutant(b).basis[::-1])
    if paired:
        u = st.normalizing_unitary(sample, rng)
        return endo.from_unitary(b, u), endo.from_unitary(bp, u, "direct")
    return endo.from_unitary(b, _swap_unitary(sample, rng)), endo.identity(bp)


BENCH_SHAPES = [[(1, 2), (1, 2), (2, 1)], [(2, 2), (2, 2)], [(2, 1), (2, 1), (1, 2)],
                [(2, 3), (2, 3)], [(1, 2), (1, 2), (2, 1), (2, 1)], [(1, 2), (1, 2), (1, 2)],
                [(2, 1), (2, 1), (2, 1)], [(2, 2), (2, 2), (1, 2), (1, 2)]]


def _decision_cases():
    """(theta, theta') of the selftest's paired sampler and of the bench's
    shapes, paired and not."""
    for seed in range(12):
        _, _, theta, theta_prime, _ = st._paired_instance(np.random.default_rng(seed),
                                                          nk.DEFAULT_TOL)
        yield theta, theta_prime
    for k, blocks in enumerate(BENCH_SHAPES):
        for paired in (True, False):
            yield _bench_style(blocks, 100 + k, paired)


def test_can_pair_agrees_with_find_isomorphism_on_the_twisted_pair():
    """The decision read off the automorphism form has the verdict and the
    tables of ``find_isomorphism`` on the two twisted correspondences, and
    its unitary differs from that route's by a unitary of the center of B,
    the freedom a pairing unitary of an automorphism has."""
    verdicts = set()
    for theta, theta_prime in _decision_cases():
        cert = pr.can_pair(theta, theta_prime)
        old = orc.twisted_decision(theta, theta_prime)
        assert (cert.table_left, cert.table_right) == (old.table_left, old.table_right)
        assert cert.paired == old.isomorphic
        verdicts.add(cert.paired)
        if cert.paired:
            z = cert.unitary.conj().T @ old.unitary
            assert alg.center(theta.domain).contains(z, nk.Tolerance(1e-12))
    assert verdicts == {True, False}


def _summand_swap(b, frame):
    """theta(x (+) y (x) 1_2) = y (+) x (x) 1_2 on B = M_2 (+) (M_2 (x) 1_2),
    B turned by frame: a valid automorphism of B."""
    model = frame.conj().T @ b.basis @ frame
    x, y = model[:, :2, :2], model[:, 2::2, 2::2]
    images = np.zeros_like(model)
    images[:, :2, :2] = y
    images[:, 2:, 2:] = np.einsum("bkl,pq->bkplq", x, np.eye(2)).reshape(-1, 4, 4)
    return endo.Endomorphism(b, frame @ images @ frame.conj().T)


def test_a_swap_of_summands_with_unequal_multiplicities_is_not_paired():
    """On B = M_2 (+) (M_2 (x) 1_2) on C^6 the swap of the two M_2 summands is
    a valid automorphism, sigma with a_i equal and m_i not, that no unitary
    implements: against the identity on B' the tables differ, those of
    ``find_isomorphism`` on the twisted pair."""
    frame = nk.random_unitary(6, seed=3)
    b = alg.block_model([(2, 1), (2, 2)], frame)
    theta, ident = _summand_swap(b, frame), endo.identity(alg.commutant(b))
    assert max(theta.validate().values()) <= 1e-12 and endo.is_faithful(theta)
    cert = pr.can_pair(theta, ident)
    assert not cert.paired and cert.unitary is None
    assert cert.table_left.counts == ((0, 1), (1, 0))
    assert cert.table_right.counts == ((1, 0), (0, 1))
    old = orc.twisted_decision(theta, ident)
    assert (cert.table_left, cert.table_right) == (old.table_left, old.table_right)


def test_equal_tables_that_are_no_permutation_raise(two_block, monkeypatch):
    """No automorphism has such a table (every trace read as 1 here); there is
    no other route to try."""
    b, bp = two_block
    monkeypatch.setattr(nk, "integral_trace", lambda trace, bound, dim: 1)
    with pytest.raises(PairingCheckFailed, match="not the permutation"):
        pr.can_pair(_unchecked(b, 31), endo.identity(bp))


def test_closed_form_powers_bound_the_dense_powers():
    """The powers residual of check_pairing, read off the relation stacks, is
    at least the dense comparison of u^k with the iterates of both maps
    (``oracles.dense_powers``) on the selftest's paired draws and the bench's
    paired shapes, at horizons 2, 4 and 6; at horizon 1 no power is compared."""
    seen = 0
    for theta, theta_prime in _decision_cases():
        cert = pr.can_pair(theta, theta_prime)
        if not cert.paired:
            continue
        seen += 1
        for horizon in (2, 4, 6):
            got = pr.check_pairing(cert.unitary, theta, theta_prime, horizon).residuals
            assert got["powers"] >= orc.dense_powers(cert.unitary, theta, theta_prime,
                                                     horizon) > 0.0
        assert pr.check_pairing(cert.unitary, theta, theta_prime, 1).residuals["powers"] == 0.0
    assert seen == 20


def _direction(b, seed):
    """A linear map x -> sum_j G_ij b_j on the basis of b, |G| = 1: images of
    Frobenius norm 1 over the whole stack, inside b."""
    rng = np.random.default_rng(seed)
    g = nk.random_complex((b.dim, b.dim), rng)
    return np.tensordot(g / np.linalg.norm(g), b.basis, axes=(1, 0))


def _verdict(call):
    """Whether call paired (a returned residual dict counts as paired), or the
    type of the error it raised."""
    try:
        out = call()
    except VnpairError as exc:
        return type(exc).__name__
    return getattr(out, "paired", True)


@pytest.mark.parametrize("side", [0.9, 1.1])
def test_an_implied_law_bound_at_the_law_bound_keeps_the_verdict(two_block, monkeypatch,
                                                                 side):
    """theta = Ad w* - rho D, D a unit direction inside B, has relation stack
    rho D against w, so the implied multiplicative bound is about 6 sqrt(n) rho:
    at rho = side * 1e-9 / (6 sqrt(n)) it proves the laws (0.9) or does not
    (1.1), and validate runs. Either way check_pairing and can_pair give the
    verdict of the dense check, which validates both maps and compares the
    dense powers (``oracles.dense_relations``)."""
    b, bp = two_block
    w = unitary_in(b, 31)
    rho = side * 1e-9 / (6.0 * np.sqrt(b.ambient_dim))
    images = w.conj().T @ b.basis @ w - rho * _direction(b, 5)
    fresh = [endo.Endomorphism(b, images) for _ in range(3)]
    ident = endo.identity(bp)
    r = w.conj().T @ b.basis @ w - images
    assert np.isclose(nk.frobenius(r), rho)
    calls = _count_law_checks(monkeypatch)
    dense = _verdict(lambda: orc.dense_relations(w, fresh[0], ident, 4))
    assert dense is True
    calls.clear()
    assert _verdict(lambda: pr.check_pairing(w, fresh[1], ident)) == dense
    assert len(calls) == (side > 1)
    assert _verdict(lambda: pr.can_pair(fresh[2], ident)) == dense


def _non_multiplicative(b, w, t):
    """Ad w* + t (x - tr(x) 1 / n) on b: unital, *-preserving, faithful for
    small t, and not multiplicative."""
    n = b.ambient_dim
    traces = np.trace(b.basis, axis1=1, axis2=2)
    return endo.Endomorphism(b, w.conj().T @ b.basis @ w + t * (
        b.basis - traces[:, None, None] * np.eye(n) / n))


@pytest.mark.parametrize("t", [0.1, 0.9e-9])
def test_a_faithful_non_multiplicative_map_raises_not_multiplicative(two_block, t):
    """At t = 0.1 the form of theta fails first (its traces are not ranks); at
    t = 0.9e-9 its relations with w pass and its laws are not proven. can_pair
    and cocycle_link, with theta first or second, raise NotMultiplicative, as
    when both maps were validated before their tables; so does check_pairing
    where the relations pass, as the dense check does (``oracles.dense_relations``)."""
    b, bp = two_block
    w = unitary_in(b, 31)
    ident = endo.identity(bp)

    def theta():
        return _non_multiplicative(b, w, t)
    assert endo.is_faithful(theta())
    if t > 1e-3:
        sig = alg.block_decompose(b)
        with pytest.raises(NonIntegralRank):
            pr._form(theta(), sig, sig._dual)
    with pytest.raises(NotMultiplicative):
        pr.can_pair(theta(), ident)
    with pytest.raises(NotMultiplicative):
        pr.cocycle_link(theta(), _unchecked(b, 37), ident, horizon=2)
    with pytest.raises(NotMultiplicative):
        pr.cocycle_link(_unchecked(b, 37), theta(), ident, horizon=2)
    if t < 1e-3:
        with pytest.raises(NotMultiplicative):
            orc.dense_relations(w, theta(), ident, 4)
        with pytest.raises(NotMultiplicative):
            pr.check_pairing(w, theta(), ident)


def test_a_relation_below_rounding_keeps_its_law_through_the_wrapper():
    """The identity pair on C^8 [(2,2),(2,2)] at eps 1e-14: the frame-built
    unitary fails relation_b by rounding (1.04e-14), and the PairingCheckFailed
    that wraps it carries that law, residual and bound."""
    tol = nk.Tolerance(1e-14)
    b = alg.random_algebra(8, [(2, 2), (2, 2)], seed=1, tol=tol)
    bp = alg.commutant(b, tol)
    with pytest.raises(PairingCheckFailed) as info:
        pr.can_pair(endo.identity(b), endo.identity(bp), tol)
    err, cause = info.value, info.value.__cause__
    assert isinstance(cause, RelationB) and err.law == cause.law == "relation_b"
    assert (err.residual, err.bound) == (cause.residual, cause.bound)
    assert err.residual > err.bound == 1e-14
