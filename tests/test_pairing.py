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
from vnpair.errors import (CocycleResidual, DomainsNotCommutant,
                           ImageOutsideAlgebra, InvalidCorrespondence,
                           NotFaithful, NotPairedInput, NotUnitary,
                           NotUnitaryImage, PairingCheckFailed, RelationB,
                           RelationBPrime)

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
    with pytest.raises(NotFaithful):
        pr.can_pair(collapse, endo.identity(d2))


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


def test_cocycle_link_rejects_unpaired_input():
    d2 = diag_algebra_2()
    theta_swap = endo.from_unitary(d2, SWAP)
    ident = endo.identity(d2)
    with pytest.raises(NotPairedInput):
        pr.cocycle_link(theta_swap, ident, ident, horizon=3)


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
    """The direct residuals match the dilation-level ones on paired inputs,
    and also where they are far from zero: for w = c u with c a unitary of
    B, w still implements theta' (so both constructions see the same
    spanning family) but not theta, and the map solved for is not w."""
    tol = nk.DEFAULT_TOL
    b, u, theta, theta_prime, rng = paired_sample(blocks, seed)
    n = b.ambient_dim
    cert = pr.pairing_from_isomorphism(u, theta, theta_prime)
    oracle = eq33_via_dilation(u, theta, theta_prime)
    for key in ("eq33_solve", "eq33_match"):
        assert abs(cert.residuals[key] - oracle[key]) <= tol.bound(np.sqrt(n))
    w = st.unitary_inside(b, rng) @ u
    direct = pr._eq33_residuals(w, theta)
    oracle = eq33_via_dilation(w, theta, theta_prime)
    assert direct["eq33_solve"] > 1e-3
    for key in ("eq33_solve", "eq33_match"):
        assert abs(direct[key] - oracle[key]) <= tol.bound(np.sqrt(n))


@pytest.mark.parametrize("blocks, seed", EQ33_CASES)
def test_eq33_reduced_family_matches_the_spanning_family(blocks, seed):
    """Same least-squares solution and residual norm on d n columns as on
    d^2 n, at the pairing unitary (residuals near 0) and at w = c u (O(1))."""
    b, u, theta, _, rng = paired_sample(blocks, seed)
    w = st.unitary_inside(b, rng) @ u
    for v in (u, w):
        reduced, full = pr._eq33_residuals(v, theta), orc.eq33_spanning_family(v, theta)
        for key in ("eq33_solve", "eq33_match"):
            assert abs(reduced[key] - full[key]) <= 1e-12 * max(1.0, full[key])


def test_check_pairing_rejects_map_leaving_the_algebra():
    """Ad u* with u* B u outside B passes both relations by construction;
    the law check on the maps has to catch it at every horizon."""
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
    with pytest.raises(InvalidCorrespondence):
        pr.can_pair(theta, theta_prime)


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
