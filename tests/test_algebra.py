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
