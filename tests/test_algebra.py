import numpy as np
import pytest

from vnpair import algebra as alg
from vnpair import numkernel as nk
from vnpair.errors import DimensionMismatch, InvalidAlgebra


def diag_algebra_2():
    gens = [np.diag([1.0, 0.0]).astype(complex),
            np.diag([0.0, 1.0]).astype(complex)]
    return alg.from_generators(2, gens)


def test_diagonal_algebra_is_masa():
    """Diagonals commute exactly with diagonals, so the commutant is itself."""
    d2 = diag_algebra_2()
    assert d2.dim == 2
    c = alg.commutant(d2)
    assert c.dim == 2
    assert alg.equals(c, d2).ok
    # maximal abelian: bicommutant closes the loop
    assert alg.equals(alg.commutant(c), d2).ok


def test_full_algebra_commutant_is_scalars():
    m3 = alg.full_matrix_algebra(3)
    assert m3.dim == 9
    c = alg.commutant(m3)
    assert c.dim == 1
    scalar = np.trace(c.basis[0]) / 3.0
    assert np.allclose(c.basis[0], scalar * np.eye(3))
    assert alg.equals(c, alg.trivial_algebra(3)).ok


def test_trivial_algebra_commutant_is_everything():
    c = alg.commutant(alg.trivial_algebra(3))
    assert c.dim == 9
    assert alg.equals(c, alg.full_matrix_algebra(3)).ok


def test_commutant_is_stored_per_tolerance():
    """The commutant is computed once per algebra and tolerance, and the
    bicommutant is a fresh computation, never the original object."""
    a = alg.random_algebra(6, [(2, 1), (1, 2), (1, 2)], seed=4)
    tol = nk.Tolerance(1e-9)
    c = alg.commutant(a, tol)
    assert alg.commutant(a, tol) is c
    assert alg.commutant(a, nk.Tolerance(1e-9)) is c
    loose = alg.commutant(a, nk.Tolerance(1e-7))
    assert loose is not c
    assert alg.equals(loose, c).ok
    cc = alg.commutant(c, tol)
    assert cc is not a
    assert alg.equals(cc, a).ok
    assert alg.commutant(cc, tol) is not c
    assert alg.equals(alg.commutant(cc, tol), c).ok


def test_contains_and_project():
    d2 = diag_algebra_2()
    assert d2.contains(np.diag([2.0, 3.0]))
    off = np.array([[0, 1], [0, 0]], dtype=complex)
    assert not d2.contains(off)
    assert np.linalg.norm(d2.project(off)) < 1e-12


def test_from_generators_closes_words():
    # the shift e01 generates all of M_2 through adjoints and products
    e01 = np.array([[0, 1], [0, 0]], dtype=complex)
    a = alg.from_generators(2, [e01])
    assert a.dim == 4


def test_invalid_span_rejected():
    # the span of e01 alone has no unit and is not closed under products
    e01 = np.array([[0, 1], [0, 0]], dtype=complex)
    with pytest.raises(InvalidAlgebra):
        alg.VnAlgebra(2, e01[None, :, :])


def test_block_decompose_two_blocks():
    """M_2 with multiplicity 1 plus scalars with multiplicity 1 on C^3."""
    gens, sizes = alg.block_basis([(2, 1), (1, 1)])
    a = alg.from_generators(3, gens)
    assert a.dim == 5
    sig = alg.block_decompose(a)
    assert sig.blocks == ((2, 1), (1, 1))
    # units of the two summands: ranks 2 and 1
    ranks = sorted(int(round(np.trace(z).real)) for z in sig.central_projections)
    assert ranks == [1, 2]


def test_commutant_signature_is_transposed():
    gens, _ = alg.block_basis([(2, 1), (1, 1)])
    a = alg.from_generators(3, gens)
    c = alg.commutant(a)
    assert c.dim == 1 + 1
    sig = alg.block_decompose(c)
    assert sig.blocks == ((1, 2), (1, 1))


def test_center_of_two_block_algebra():
    gens, _ = alg.block_basis([(2, 1), (1, 2)])
    a = alg.from_generators(4, gens)
    z = alg.center(a)
    assert z.dim == 2


def test_random_algebra_round_trips_signature():
    blocks = [(2, 1), (1, 2)]
    a = alg.random_algebra(4, blocks, seed=11)
    assert a.ambient_dim == 4
    assert a.dim == 5
    sig = alg.block_decompose(a)
    assert sig.blocks == ((2, 1), (1, 2))
    c = alg.commutant(a)
    assert c.dim == 1 + 4
    assert alg.equals(alg.commutant(c), a).ok


def test_random_algebra_requires_exact_fill():
    with pytest.raises(DimensionMismatch):
        alg.random_algebra(5, [(2, 1), (1, 2)], seed=0)


def test_random_algebra_seeded_determinism():
    a = alg.random_algebra(4, [(2, 2)], seed=5)
    b = alg.random_algebra(4, [(2, 2)], seed=5)
    assert np.array_equal(a.basis, b.basis)


def test_equals_distinguishes_conjugated_copies():
    a = alg.random_algebra(4, [(2, 1), (1, 2)], seed=1)
    b = alg.random_algebra(4, [(2, 1), (1, 2)], seed=2)
    assert not alg.equals(a, b).ok


def test_block_basis_generates_expected_dimensions():
    for blocks in [[(1, 1)], [(3, 1)], [(2, 2)], [(2, 1), (1, 3)]]:
        ambient = sum(a * m for a, m in blocks)
        gens, _ = alg.block_basis(blocks)
        algebra = alg.from_generators(ambient, gens)
        assert algebra.dim == sum(a * a for a, m in blocks)


def test_validate_returns_residuals():
    d2 = diag_algebra_2()
    worst = d2.validate()
    assert set(worst) >= {"product_closure"}
    assert all(v < 1e-12 for v in worst.values())


@pytest.mark.parametrize("seed", range(8))
def test_bicommutant_property_random(seed):
    rng = np.random.default_rng(seed)
    shapes = [[(1, 1)], [(2, 1)], [(1, 2)], [(2, 1), (1, 1)],
              [(2, 1), (1, 2)], [(1, 1), (1, 1), (1, 1)]]
    blocks = shapes[int(rng.integers(0, len(shapes)))]
    ambient = sum(a * m for a, m in blocks)
    a = alg.random_algebra(ambient, blocks, seed=seed)
    c = alg.commutant(a)
    assert c.dim == sum(m * m for _, m in blocks)
    assert alg.equals(alg.commutant(c), a).ok


@pytest.mark.parametrize("blocks, seed", [([(1, 1), (1, 1), (2, 1)], 0),
                                          ([(1, 2), (1, 2)], 0),
                                          ([(2, 1), (2, 1), (1, 1)], 1),
                                          ([(1, 1)] * 4, 2)])
def test_equal_shape_summands_keep_their_order_under_a_basis_rotation(blocks, seed):
    """The same algebra from its basis and from that basis rotated by a
    random d x d unitary lists its central projections in one order."""
    n = sum(a * m for a, m in blocks)
    a = alg.random_algebra(n, blocks, seed=seed)
    u = nk.random_unitary(a.dim, seed + 100)
    rotated = alg.VnAlgebra(n, (u @ a.flat).reshape(a.dim, n, n))
    sa, sr = alg.block_decompose(a), alg.block_decompose(rotated)
    assert sa.blocks == sr.blocks
    assert np.abs(sa.central_projections - sr.central_projections).max() <= 1e-12
    place = [float(np.diagonal(p).real @ np.arange(n)) for p in sa.central_projections]
    for i in range(len(place) - 1):
        if sa.blocks[i] == sa.blocks[i + 1]:
            assert place[i] < place[i + 1]


@pytest.mark.parametrize("seed", range(10))
def test_tied_summands_keep_their_order_under_a_basis_rotation(seed):
    """diag(1,0,0,1) and diag(0,1,1,0) both score 3 under tr(p diag(0..3));
    their diagonals, compared entry by entry, still order them the same way
    whatever basis of the algebra the decomposition starts from."""
    a = alg.from_generators(4, [np.diag([1.0, 0.0, 0.0, 1.0]).astype(complex)])
    u = nk.random_unitary(2, seed)
    rotated = alg.VnAlgebra(4, (u @ a.flat).reshape(2, 4, 4))
    for b in (a, rotated):
        sig = alg.block_decompose(b)
        assert sig.blocks == ((1, 2), (1, 2))
        assert np.abs(sig.central_projections - np.array(
            [np.diag([0.0, 1, 1, 0]), np.diag([1.0, 0, 0, 1])])).max() <= 1e-12


@pytest.mark.parametrize("blocks", [[(2, 2), (1, 4)], [(1, 1)] * 8,
                                    [(2, 2), (2, 2), (3, 2), (1, 2)],
                                    [(3, 4), (3, 4)], [(4, 6), (6, 4)]], ids=str)
def test_block_frame_exhibits_the_block_model(blocks):
    """W, the columns of the frame's isometries in order, is unitary,
    W* A W is the block model of the signature, and every T_k T_l* lies in
    the algebra."""
    n = sum(a * m for a, m in blocks)
    a = alg.random_algebra(n, blocks, seed=n + 1)
    sig = alg.block_decompose(a)
    assert sorted(sig.blocks, reverse=True) == list(sig.blocks)
    assert sorted(sig.blocks) == sorted(blocks)
    assert [t.shape for t in sig.units] == [(ai, n, mi) for ai, mi in sig.blocks]
    w = np.concatenate([t.transpose(1, 0, 2).reshape(n, -1) for t in sig.units], axis=1)
    assert np.linalg.norm(w.conj().T @ w - np.eye(n)) <= 1e-12
    # the block model: e_kl (x) 1_m / sqrt(m) in the slot of each summand
    model, offset = [], 0
    for ai, mi in sig.blocks:
        for k in range(ai):
            for l in range(ai):
                x = np.zeros((n, n), dtype=complex)
                x[offset + k * mi + np.arange(mi), offset + l * mi + np.arange(mi)] = mi ** -0.5
                model.append(x.reshape(-1))
        offset += ai * mi
    assert len(model) == a.dim
    assert nk.span_residual(w.conj().T @ a.basis @ w, np.array(model)) <= 1e-10
    units = np.concatenate([(t[:, None] @ t.conj().transpose(0, 2, 1)[None]).reshape(-1, n, n)
                            for t in sig.units])
    assert nk.span_residual(units, a.flat) <= 1e-10
    for t, p in zip(sig.units, sig.central_projections):
        assert np.linalg.norm(np.einsum("kam,kbm->ab", t, t.conj()) - p) <= 1e-10
