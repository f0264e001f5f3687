import ast
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles as orc
from vnpair import algebra as alg
from vnpair import correspondence as corr
from vnpair import numkernel as nk
from vnpair import selftest
from vnpair.errors import (CocycleResidual, DimensionMismatch, NonIntegralRank,
                           NotIntertwining, NotUnitary, SingularInput)


def test_tolerance_bound_hybrid():
    tol = nk.Tolerance(eps=1e-9)
    assert tol.bound(1.0) == pytest.approx(1e-9)
    # small norms do not shrink the bound below the absolute floor
    assert tol.bound(1e-6) == pytest.approx(1e-9)
    assert tol.bound(3.0, 7.0) == pytest.approx(7e-9)


def test_frobenius_and_inner():
    e01 = np.array([[0, 1], [0, 0]], dtype=complex)
    assert nk.frobenius(e01) == 1.0
    assert np.vdot(e01, e01) == pytest.approx(1.0)
    assert np.vdot(e01, e01.T) == pytest.approx(0.0)


def test_approx_equal_reports_residual():
    a = np.eye(2, dtype=complex)
    rep = nk.approx_equal(a, a + 1e-12)
    assert rep.ok and rep.residual < 1e-11
    rep = nk.approx_equal(a, 2 * a)
    assert not rep.ok


def test_mul_constraint_frozen():
    # x -> L x - x R for L = e01, R = diag(1, 2); worked out entrywise
    left = np.array([[0, 1], [0, 0]], dtype=complex)
    right = np.diag([1.0, 2.0]).astype(complex)
    expected = np.array([
        [-1, 0, 1, 0],
        [0, -2, 0, 1],
        [0, 0, -1, 0],
        [0, 0, 0, -2],
    ], dtype=complex)
    assert np.allclose(orc.mul_constraint(left, right), expected)


def test_mul_constraint_rejects_nonsquare():
    with pytest.raises(DimensionMismatch):
        orc.mul_constraint(np.zeros((2, 3)), np.eye(3))


def test_null_space_diagonal_commutant():
    # matrices commuting with diag(1, 2) are exactly the diagonal ones
    d = np.diag([1.0, 2.0]).astype(complex)
    basis = orc.null_space([orc.mul_constraint(d, d)], (2, 2))
    assert basis.shape[0] == 2
    for x in basis:
        assert np.allclose(d @ x, x @ d)
        assert abs(x[0, 1]) < 1e-12 and abs(x[1, 0]) < 1e-12


def test_null_space_orthonormal_and_annihilated():
    rng = np.random.default_rng(0)
    mats = [nk.random_complex((3, 3), rng) for _ in range(2)]
    constraints = [orc.mul_constraint(m, m) for m in mats]
    basis = orc.null_space(constraints, (3, 3))
    flat = basis.reshape(basis.shape[0], -1)
    assert np.allclose(flat @ flat.conj().T, np.eye(basis.shape[0]))
    for c in constraints:
        assert np.linalg.norm(c @ flat.T) < 1e-9


def test_null_space_all_noise_is_zero_constraint():
    # subtracting two copies of the same operator leaves pure float dust;
    # the kernel must still be everything
    rng = np.random.default_rng(1)
    x = nk.random_complex((2, 2), rng)
    noise = orc.mul_constraint(x, x) - orc.mul_constraint(x.copy(), x.copy())
    assert np.abs(noise).max() < 1e-14
    basis = orc.null_space([noise + 1e-17], (2, 2))
    assert basis.shape[0] == 4


@pytest.mark.parametrize("seed", range(6))
def test_commuting_null_space_matches_stacked_route(seed):
    # pairs (L, S^-1 L S) share the kernel element S, so both routes must
    # find the same nontrivial solution space
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    s_mat = nk.random_complex((n, n), rng) + 2 * np.eye(n)
    s_inv = np.linalg.inv(s_mat)
    pairs = []
    for _ in range(int(rng.integers(1, 4))):
        left = nk.random_complex((n, n), rng)
        pairs.append((left, s_inv @ left @ s_mat))
    fast = nk.commuting_null_space(pairs, (n, n))
    slow = orc.null_space([orc.mul_constraint(l, r) for l, r in pairs],
                         (n, n))
    assert fast.shape[0] >= 1
    assert fast.shape == slow.shape
    f = fast.reshape(fast.shape[0], -1)
    s = slow.reshape(slow.shape[0], -1)
    assert np.linalg.norm(f - (f @ s.conj().T) @ s) < 1e-8


def test_commuting_null_space_empty_for_generic_pair():
    rng = np.random.default_rng(12)
    pairs = [(nk.random_complex((3, 3), rng), nk.random_complex((2, 2), rng))]
    assert nk.commuting_null_space(pairs, (3, 2)).shape[0] == 0


def test_commuting_null_space_exact_zero_pair():
    eye = np.eye(3, dtype=complex)
    basis = nk.commuting_null_space([(eye, eye)], (3, 3))
    assert basis.shape[0] == 9


def test_commuting_null_space_shape_check():
    with pytest.raises(DimensionMismatch):
        nk.commuting_null_space([(np.eye(2), np.eye(3))], (2, 2))


@pytest.mark.parametrize("seed", range(6))
def test_commutant_space_matches_complex_route(seed):
    # a generic element of a block algebra M_k (+) C, rotated: the commutant
    # has dimension 2 for the scalar parts plus (n - k)^2 - 1 for the corner
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    k = int(rng.integers(1, n + 1))
    d = np.zeros((n, n), dtype=complex)
    d[:k, :k] = nk.random_complex((k, k), rng)
    d[k:, k:] = 3.0 * np.eye(n - k)
    u = nk.random_unitary(n, seed=seed)
    gens = [u @ d @ u.conj().T]
    if seed % 2:
        gens.append(np.eye(n, dtype=complex))
    real = orc.commutant_space(gens, n)
    mats = gens + [g.conj().T for g in gens]
    cplx = nk.commuting_null_space([(g, g) for g in mats], (n, n))
    assert real.shape == cplx.shape
    f = real.reshape(real.shape[0], -1)
    c = cplx.reshape(cplx.shape[0], -1)
    assert np.linalg.norm(f @ f.conj().T - np.eye(f.shape[0])) < 1e-12
    assert np.linalg.norm(f - (f @ c.conj().T) @ c) < 1e-10
    assert np.linalg.norm(real - real.conj().transpose(0, 2, 1)) < 1e-12


def test_commutant_space_of_nothing_is_everything():
    basis = orc.commutant_space([], 3)
    flat = basis.reshape(basis.shape[0], -1)
    assert basis.shape[0] == 9
    assert np.linalg.norm(flat @ flat.conj().T - np.eye(9)) < 1e-12


def test_commutant_space_shape_check():
    with pytest.raises(DimensionMismatch):
        orc.commutant_space([np.eye(3)], 2)


def test_orthonormalize_drops_dependent():
    e11 = np.diag([1.0, 0.0]).astype(complex)
    basis = nk.orthonormalize([e11, 2 * e11, np.eye(2, dtype=complex)])
    assert basis.shape[0] == 2


def test_numeric_rank():
    m = np.diag([1.0, 1e-3, 0.0]).astype(complex)
    assert nk.numeric_rank(m) == 2


def test_polar_unitary_frozen():
    swapish = np.array([[0, 2], [1, 0]], dtype=complex)
    u = nk.polar_unitary(swapish)
    assert np.allclose(u, np.array([[0, 1], [1, 0]]))
    with pytest.raises(SingularInput):
        nk.polar_unitary(np.zeros((2, 2), dtype=complex))


def test_polar_isometry():
    rng = np.random.default_rng(3)
    tall = nk.random_complex((4, 2), rng)
    v = nk.polar_isometry(tall)
    assert np.allclose(v.conj().T @ v, np.eye(2))


def test_random_unitary_seeded():
    u1 = nk.random_unitary(3, seed=9)
    u2 = nk.random_unitary(3, seed=9)
    assert np.array_equal(u1, u2)
    assert np.linalg.norm(u1.conj().T @ u1 - np.eye(3)) < 1e-12


def test_lstsq_map_recovers_operator():
    rng = np.random.default_rng(4)
    a = nk.random_complex((3, 3), rng)
    x = nk.random_complex((3, 5), rng)
    assert np.allclose(nk.lstsq_map(x, a @ x), a)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=4), st.integers(min_value=0, max_value=10**6))
def test_commuting_null_space_contains_identity(n, seed):
    # a unitary always commutes with itself, so the kernel of the
    # commutation pair holds at least the polynomials in it
    u = nk.random_unitary(n, seed=seed)
    basis = nk.commuting_null_space([(u, u)], (n, n))
    flat = basis.reshape(basis.shape[0], -1)
    eye = np.eye(n, dtype=complex).reshape(-1)
    assert np.linalg.norm(eye - flat.T @ (flat.conj() @ eye)) < 1e-8


def test_require_passes_at_the_bound_and_fails_above_or_on_nan():
    assert nk.require(1e-9, 1e-9, NotUnitary, "residual {:.3e}") == 1e-9
    with pytest.raises(NotUnitary, match="residual 2.000e-09"):
        nk.require(2e-9, 1e-9, NotUnitary, "residual {:.3e}")
    for bad in (float("nan"), float("inf")):
        with pytest.raises(NotUnitary):
            nk.require(bad, 1e-9, NotUnitary, "residual {:.3e}")
    with pytest.raises(NotUnitary):
        nk.require(0.0, float("nan"), NotUnitary, "residual {:.3e}")


def test_require_formats_only_on_failure_and_passes_attributes():
    # a template that cannot be formatted is never formatted on success
    nk.require(0.0, 1.0, NotUnitary, "{missing}")
    with pytest.raises(CocycleResidual) as info:
        nk.require(3.0, 1.0, CocycleResidual, "step {1}, residual {0:.1f}", 2,
                   step=2, residual=3.0)
    assert str(info.value) == "step 2, residual 3.0"
    assert (info.value.step, info.value.residual) == (2, 3.0)


def test_require_laws_names_the_failing_laws():
    worst = {"a": 0.0, "b": float("nan"), "c": 2.0}
    with pytest.raises(NotUnitary) as info:
        nk.require_laws(worst, 1.0, NotUnitary, "violated: {}")
    assert str(info.value) == "violated: {'b': nan, 'c': 2.0}"
    assert nk.require_laws({"a": 1.0}, 1.0, NotUnitary, "{}") == {"a": 1.0}


def test_worst_keeps_nan_wherever_it_comes():
    nan = float("nan")
    assert nk.worst(1.0, 3.0, 2.0) == 3.0 and nk.worst(0.0) == 0.0
    for values in [(nan, 2.0), (2.0, nan), (0.0, nan, 5.0)]:
        assert np.isnan(nk.worst(*values))
    assert max(0.0, nan) == 0.0  # the builtin drops it


def test_worst_norm_over_stacks():
    stack = np.zeros((2, 3, 2, 2), dtype=complex)
    stack[1, 2] = [[3.0, 0.0], [0.0, 4.0j]]
    assert nk.worst_norm(stack) == 5.0
    assert nk.worst_norm(stack[0, 0]) == 0.0  # a single matrix
    assert nk.worst_norm(np.zeros((0, 3, 3))) == 0.0
    assert nk.worst_norm(np.zeros((4, 0, 0))) == 0.0
    stack[0, 1, 0, 1] = np.nan
    assert np.isnan(nk.worst_norm(stack))


def test_unitarity_and_span_residuals():
    u = nk.random_unitary(4, seed=2)
    assert nk.unitarity_residual(u) < 1e-12
    assert nk.unitarity_residual(2 * u) == pytest.approx(3 * 2.0)
    # an isometry passes, its adjoint (a co-isometry) does not
    assert nk.unitarity_residual(u[:, :2]) < 1e-12
    assert nk.unitarity_residual(u[:, :2].conj().T) == pytest.approx(np.sqrt(2))
    basis = np.eye(4, dtype=complex)[:2]  # e_0, e_1 as rows
    assert nk.span_residual([[1.0, 2.0, 0.0, 0.0]], basis) == 0.0
    assert nk.span_residual([[0.0, 0.0, 3.0, 4.0]], basis) == pytest.approx(5.0)
    assert nk.span_residual(np.zeros((0, 4)), basis) == 0.0


@pytest.mark.parametrize("n", [1, 3, 7])
def test_random_unitary_from_a_generator(n):
    """Drawing from a Generator is the QR-with-phase-fix recipe on one
    complex Gaussian draw, bit for bit, and advances the Generator alike."""
    rng, ref = np.random.default_rng([5, n]), np.random.default_rng([5, n])
    u = nk.random_unitary(n, rng)
    q, r = np.linalg.qr(nk.random_complex((n, n), ref))
    d = np.diagonal(r)
    assert np.array_equal(u, q * (d / np.abs(d)))
    assert rng.bit_generator.state == ref.bit_generator.state


# the averaging kernel against the dense oracles

SIGNATURES = [
    [(1, 6)],                      # trivial: the commutant is everything
    [(6, 1)],                      # full: the commutant is the scalars
    [(1, 1)] * 8,                  # MASA
    [(3, 1), (1, 5)],              # unbalanced
    [(2, 3), (1, 1), (3, 2)],
    [(4, 1), (1, 4), (2, 2)],
    [(1, 24)],
    [(12, 1)],
    [(1, 1)] * 24,
    [(12, 1), (1, 12)],
    [(3, 4), (4, 3)],
]


@pytest.mark.parametrize("blocks", SIGNATURES, ids=str)
def test_intertwiners_commutant_matches_the_dense_oracle(blocks):
    n = sum(a * m for a, m in blocks)
    b = alg.random_algebra(n, blocks, seed=n)
    fast = nk.intertwiners(b.basis, b.basis, (n, n))
    assert orc.span_distance(fast, orc.commutant_space(b.generators, n)) <= 1e-10
    assert fast.shape[0] == sum(m * m for _, m in blocks)
    flat = fast.reshape(fast.shape[0], -1)
    assert np.linalg.norm(flat @ flat.conj().T - np.eye(len(flat))) < 1e-12
    assert np.linalg.norm(fast - fast.conj().transpose(0, 2, 1)) < 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_intertwiners_element_space_is_rectangular(seed):
    """Carrier h and right ambient n differ; the one-group kernel agrees
    with the dense route on {x: rho'(b') x = x b'}."""
    rng = np.random.default_rng([seed, 61])
    sa = selftest.sample_algebra(rng, 5, max_dim=8)
    sb = selftest.sample_algebra(rng, 5, max_dim=8)
    e = selftest.random_correspondence(sa, sb, rng, carrier_cap=9)
    shape = (e.carrier_dim, e.right.ambient_dim)
    dense = nk.commuting_null_space(list(zip(e.rho_prime, e.right_commutant.basis)), shape)
    assert e.element_space.shape[1:] == shape
    assert orc.span_distance(e.element_space, dense) <= 1e-10


@pytest.mark.parametrize("seed", range(4))
def test_find_isomorphism_unitary_lies_in_the_dense_intertwiner_space(seed):
    """Both actions of a correspondence against those of a unitarily
    scrambled copy: the unitary read off the block frames is unitary and
    lies in the joint intertwiner space of the dense route."""
    rng = np.random.default_rng([seed, 67])
    sa = selftest.sample_algebra(rng, 5, max_dim=8)
    sb = selftest.sample_algebra(rng, 5, max_dim=8)
    e = selftest.random_correspondence(sa, sb, rng, carrier_cap=9)
    v = nk.random_unitary(e.carrier_dim, rng)
    f = corr.Correspondence(e.left, e.right, e.left_commutant, e.right_commutant,
                            v @ e.rho @ v.conj().T, v @ e.rho_prime @ v.conj().T,
                            e.carrier_dim)
    u = corr.find_isomorphism(e, f).unitary
    assert nk.unitarity_residual(u) <= 1e-10
    pairs = list(zip(f.rho, e.rho)) + list(zip(f.rho_prime, e.rho_prime))
    dense = nk.commuting_null_space(pairs, (f.carrier_dim, e.carrier_dim))
    assert nk.span_residual(u, dense.reshape(len(dense), -1)) <= 1e-10


def test_intertwiners_commutant_at_n48_is_the_block_model():
    """n = 48, blocks (4, 6) and (6, 4): the commutant of the rotated model
    is the rotated 1_a (x) M_m, with no (n^2)^2 problem anywhere."""
    blocks = [(4, 6), (6, 4)]
    n = 48
    b = alg.random_algebra(n, blocks, seed=48)
    u = nk.random_unitary(n, 48)  # the rotation random_algebra applies
    model, offset = [], 0
    for a, m in blocks:
        for l in range(m):
            for l2 in range(m):
                x = np.zeros((n, n), dtype=complex)
                for k in range(a):
                    x[offset + k * m + l, offset + k * m + l2] = 1.0 / np.sqrt(a)
                model.append(u @ x @ u.conj().T)
        offset += a * m
    c = alg.commutant(b)
    assert c.dim == 36 + 16
    assert orc.span_distance(c.basis, np.array(model)) <= 1e-10


def test_intertwiners_reject_a_span_not_closed_under_products():
    """span{1, X, Z} on C^2 is *-closed and unital but XZ is outside it:
    the averaging trace is 4/3, and no span is returned."""
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.diag([1.0, -1.0]).astype(complex)
    b = alg.VnAlgebra(2, np.array([np.eye(2), x, z], dtype=complex) / np.sqrt(2))
    with pytest.raises(NonIntegralRank) as info:
        alg.commutant(b)
    err = info.value
    assert err.trace == pytest.approx(4.0 / 3.0)
    assert err.rank == 1
    assert err.bound <= nk.MAX_RANK_SLACK


def test_intertwiners_reject_a_non_multiplicative_representation():
    """rho'(b) = b^T on M_2 is linear, unital and *-preserving but reverses
    products. Its averaging trace is an integer, so only the law check on
    the averaged range can catch it."""
    m2 = alg.full_matrix_algebra(2)
    e = corr.Correspondence(m2, m2, m2, m2, m2.basis,
                            m2.basis.transpose(0, 2, 1), 2, check=False)
    with pytest.raises(NotIntertwining) as info:
        e.element_space
    assert not info.value.residual <= info.value.bound


def test_intertwiners_rank_bound_never_reaches_one_half():
    """At a loose tolerance the bound is capped, so a trace half-way between
    two integers is an error, not a rounding."""
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.diag([1.0, -1.0]).astype(complex)
    basis = np.array([np.eye(2), x, z], dtype=complex) / np.sqrt(2)
    with pytest.raises(NonIntegralRank):
        nk.intertwiners(basis, basis, (2, 2), nk.Tolerance(0.9))


def test_intertwiners_shape_checks():
    with pytest.raises(DimensionMismatch):
        nk.intertwiners(np.eye(2)[None], np.eye(3)[None], (2, 2))
    with pytest.raises(DimensionMismatch):
        nk.intertwiners(np.eye(2), np.eye(2), (2, 2))
    with pytest.raises(DimensionMismatch):
        nk.intertwiners(np.full((1, 2, 2), np.nan), np.eye(2)[None], (2, 2))


def test_the_package_solves_no_dense_kernel_problem():
    """No module of the package names the dense (rows*cols)^2 routes; the
    one left in numkernel is kept for the benchmark's tracing and as an
    oracle, the other lives in the tests' oracles."""
    root = pathlib.Path(nk.__file__).parent
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text())
        names = {getattr(node, "attr", getattr(node, "id", None)) for node in ast.walk(tree)}
        assert not names & {"commuting_null_space", "commutant_space"}, path.name
