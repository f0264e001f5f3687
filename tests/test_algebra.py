import tracemalloc

import numpy as np
import pytest

import oracles as orc
from vnpair import algebra as alg
from vnpair import correspondence as corr
from vnpair import endo
from vnpair import numkernel as nk
from vnpair.errors import (AmbiguousRank, DegenerateCenterElement, DimensionMismatch,
                           InvalidAlgebra, NotIntertwining)


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


def test_block_decompose_takes_no_commutant(monkeypatch):
    """The frame starts from the center, which is read off the algebra
    itself: block_decompose computes no commutant."""
    calls = []
    real = alg.commutant
    monkeypatch.setattr(alg, "commutant",
                        lambda a, tol=nk.DEFAULT_TOL: calls.append(a) or real(a, tol))
    a = alg.random_algebra(8, [(2, 2), (1, 4)], seed=9)
    assert alg.block_decompose(a).blocks == ((2, 2), (1, 4))
    assert alg.center(a).dim == 2
    assert calls == []


def test_one_frame_per_algebra_and_tolerance(monkeypatch):
    """block_decompose, the commutant, the element spaces over an algebra
    and over its commutant, and find_isomorphism share one frame build (one
    ``_frame`` call) per algebra and tolerance: the commutant takes the
    frame over, transposed, and it is a frame of the commutant."""
    builds = []
    real = alg._frame
    monkeypatch.setattr(alg, "_frame", lambda a, *args: builds.append(a) or real(a, *args))
    tol = nk.Tolerance(1e-9)
    b = alg.random_algebra(8, [(2, 2), (1, 4)], seed=9)
    sig = alg.block_decompose(b, tol)
    bp = alg.commutant(b, tol)
    assert alg.block_decompose(b, nk.Tolerance(1e-9)) is sig
    e = corr.of_endomorphism(endo.identity(b), right_commutant=bp, tol=tol)
    f = corr.commutant(e)
    assert e.right_commutant is bp and f.right_commutant is b
    e.element_space, f.element_space
    assert corr.find_isomorphism(e, e, tol) and corr.find_isomorphism(f, f, tol)
    assert builds == [b]
    sig_p = alg.block_decompose(bp, tol)
    assert sig_p.blocks == ((4, 1), (2, 2))
    n = b.ambient_dim
    w = np.concatenate([t.transpose(1, 0, 2).reshape(n, -1) for t in sig_p.units], axis=1)
    assert np.linalg.norm(w.conj().T @ w - np.eye(n)) <= 1e-12
    units = np.concatenate([(t[:, None] @ t.conj().transpose(0, 2, 1)[None]).reshape(-1, n, n)
                            for t in sig_p.units])
    assert nk.span_residual(units, bp.flat) <= 1e-10
    alg.block_decompose(b, nk.Tolerance(1e-7))
    assert builds == [b, b]


def test_adopt_frame_takes_only_a_frame_of_the_span():
    """A frame is taken over only where its matrix units lie in the span; a
    conjugate of the algebra, with the same dimensions, keeps no frame, and an
    algebra that holds a frame keeps it. The frame commutant(b) holds is the
    dual of b's, built once per frame."""
    tol = nk.DEFAULT_TOL
    b = alg.random_algebra(6, [(1, 2), (1, 2), (2, 1)], seed=4)
    bp = alg.commutant(b, tol)
    sig = alg.block_decompose(bp, tol)
    assert sig is alg.block_decompose(b, tol)._dual
    w = nk.random_unitary(6, seed=2)
    for other in (alg.VnAlgebra(6, w @ bp.basis @ w.conj().T), b):
        alg.adopt_frame(other, sig, tol)
        assert tol not in other._frames or other._frames[tol] is not sig
    same = alg.VnAlgebra(6, bp.basis[::-1])
    alg.adopt_frame(same, sig, tol)
    assert alg.block_decompose(same, tol) is sig
    alg.adopt_frame(same, alg.block_decompose(b, tol), tol)
    assert alg.block_decompose(same, tol) is sig


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


def _rebased(a, seed):
    """The same span as a, on an orthonormal basis mixed by a real
    orthogonal matrix, so that the new basis is Hermitian again."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(a.dim, a.dim)))
    return alg.VnAlgebra(a.ambient_dim, np.tensordot(q, a.basis, axes=(1, 0)))


def _turned(a, angle, seed):
    """u* a u for u = exp(i angle h), h a seeded Hermitian matrix of norm 1."""
    x = nk.random_complex((a.ambient_dim, a.ambient_dim), np.random.default_rng(seed))
    lam, vec = np.linalg.eigh((x + x.conj().T) / np.linalg.norm(x + x.conj().T))
    u = (vec * np.exp(1j * angle * lam)) @ vec.conj().T
    return alg.VnAlgebra(a.ambient_dim, u.conj().T @ a.basis @ u)


def _equals_pairs():
    pairs = []
    for n, blocks in [(4, [(1, 2), (2, 1)]), (8, [(2, 2), (1, 4)]),
                      (16, [(2, 4), (4, 2)])]:
        a = alg.random_algebra(n, blocks, seed=n)
        pairs += [pytest.param(a, a, id=f"n{n}-same-object"),
                  pytest.param(a, _rebased(a, n + 1), id=f"n{n}-other-basis"),
                  pytest.param(a, alg.commutant(a), id=f"n{n}-commutant"),
                  pytest.param(alg.center(a), a, id=f"n{n}-center"),
                  pytest.param(a, _turned(a, 1e-7, n + 2), id=f"n{n}-turned-1e-7"),
                  pytest.param(_turned(a, 1e-3, n + 3), a, id=f"n{n}-turned-1e-3")]
    return pairs


@pytest.mark.parametrize("a,b", _equals_pairs())
def test_equals_matches_the_dense_projection_distance(a, b):
    """Same residual as the dense (n^2)^2 projection difference to 1e-12,
    same verdict at every tolerance: equal spans in other bases, unequal
    dimensions, turned spans and the same object."""
    assert alg.equals(a, b).residual == pytest.approx(
        orc.projection_distance(a, b).residual, abs=1e-12)
    for eps in (1e-9, 1e-6, 0.5):
        tol = nk.Tolerance(eps)
        assert alg.equals(a, b, tol).ok == orc.projection_distance(a, b, tol).ok
    if a is b:
        assert alg.equals(a, b).residual == 0.0


def test_equals_forms_no_span_projection():
    """At n = 32 a span projection is one (n^2)^2 complex array (16 MB);
    equals works on dim x n^2 rows and stays far below that."""
    n = 32
    a = alg.random_algebra(n, [(2, 8), (4, 4)], seed=1)
    b = alg.random_algebra(n, [(2, 8), (4, 4)], seed=2)
    tracemalloc.start()
    try:
        rep = alg.equals(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not rep.ok
    assert peak < (n * n) ** 2 * 16


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


RELATION_SIGNATURES = [[(2, 8), (2, 8)], [(3, 2)], [(2, 1), (1, 3)], [(4, 6), (6, 4)]]


@pytest.mark.parametrize("blocks", RELATION_SIGNATURES, ids=str)
def test_validate_reads_product_closure_off_the_frame(blocks):
    """A closed span passes; a span with one basis element moved by delta
    out of the algebra has a basis-pair closure residual of at most
    3 sqrt(dim) times the frame's, or no frame at all (InvalidAlgebra)."""
    a = alg.random_algebra(sum(s * m for s, m in blocks), blocks, seed=3)
    n, d = a.ambient_dim, a.dim
    assert a.validate()["product_closure"] <= 1e-12
    rng = np.random.default_rng(d)
    for delta in (1e-9, 1e-6, 1e-3):
        x = nk.random_complex((n, n), rng)
        basis = a.basis.copy()
        basis[-1] += delta * (x + x.conj().T) / np.linalg.norm(x + x.conj().T)
        flat = np.linalg.qr(basis.reshape(d, -1).T)[0].T
        moved = alg.VnAlgebra(n, flat.reshape(d, n, n), tol=nk.Tolerance(1e-2))
        old = orc.basis_pair_closure(moved)
        try:
            r = moved.validate(nk.Tolerance(0.9))["product_closure"]
        except InvalidAlgebra:
            continue
        assert old <= 3 * np.sqrt(d) * r


def test_validate_rejects_a_span_not_closed_under_products():
    """span{1, X, Z} on C^2 has no matrix-unit frame."""
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.diag([1.0, -1.0]).astype(complex)
    b = alg.VnAlgebra(2, np.array([np.eye(2), x, z], dtype=complex) / np.sqrt(2))
    with pytest.raises(InvalidAlgebra, match="no matrix-unit frame"):
        b.validate()
    assert orc.basis_pair_closure(b) > 0.5


@pytest.mark.parametrize("blocks", RELATION_SIGNATURES, ids=str)
def test_commutant_law_on_generating_units_bounds_every_unit(blocks):
    """Units read off the frame turned by a unitary exp(i delta h): the
    commutation residual on the 2 m_i - 1 units x_p1, x_1q is at most the
    one over every unit and at least half of it, so ``commutant``, which
    compares it with half the bound, rejects whatever the full bound on
    every unit rejects."""
    a = alg.random_algebra(sum(s * m for s, m in blocks), blocks, seed=7)
    n = a.ambient_dim
    sig = alg.block_decompose(a)
    bound = nk.DEFAULT_TOL.bound(nk.worst_norm(a.generators))
    rng = np.random.default_rng(n)
    for delta in (0.0, 1e-9, 1e-6, 1e-3):
        x = nk.random_complex((n, n), rng)
        lam, vec = np.linalg.eigh(x + x.conj().T)
        v = (vec * np.exp(1j * delta * lam)) @ vec.conj().T
        turned = alg.VnAlgebra(n, a.basis, generators=a.generators)
        turned._frames[nk.DEFAULT_TOL] = alg.BlockSignature(
            sig.blocks, sig.central_projections, tuple(v @ t for t in sig.units))
        parts = orc.commutant_units(turned._frames[nk.DEFAULT_TOL])
        every = orc.all_units_commutation(a.generators, parts)
        generating = nk.law_residual(a.generators, a.generators, np.concatenate(
            [np.concatenate([x[:, 0], x[0, 1:]]) for x in parts]))
        assert generating <= every + 1e-14 and every <= 2 * generating + 1e-14
        if generating <= bound / 2:
            assert alg.commutant(turned).dim == sum(m * m for _, m in blocks)
            assert every <= bound
        else:
            with pytest.raises(NotIntertwining) as info:
                alg.commutant(turned)
            assert info.value.residual == pytest.approx(generating, rel=1e-6)
            assert info.value.bound == bound / 2


@pytest.mark.parametrize("case", ["empty", "outside", "nan"])
def test_a_supplied_generator_list_is_validated(case):
    """An empty, non-finite or out-of-span generator list would make the
    commutant's law check vacuous or fail later; it is refused at
    construction. An in-span list that does not generate passes."""
    a = alg.random_algebra(6, [(1, 2), (2, 2)], 3)
    gens = {"empty": np.zeros((0, 6, 6)),
            "outside": nk.random_complex((1, 6, 6), np.random.default_rng(0)),
            "nan": np.where(np.eye(6) == 1, np.nan, a.generators)}[case]
    with pytest.raises(InvalidAlgebra):
        alg.VnAlgebra(6, a.basis, generators=gens)
    weak = alg.VnAlgebra(6, a.basis, generators=[np.eye(6)])
    assert alg.commutant(weak).dim == 2 * 2 + 2 * 2


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


@pytest.mark.parametrize("blocks", [[(2, 2), (2, 2), (3, 2), (1, 2)], [(2, 4), (2, 4)],
                                    [(3, 4), (3, 4)], [(2, 8), (2, 8)]])
def test_hermitian_adjoint_residual_from_the_gram(blocks):
    """The adjoint-closure residual of an exactly Hermitian basis read off
    its Gram matrix is the residual of the second basis product, on the
    commutants of these signatures as they are and under Hermitian
    perturbations; a NaN still fails."""
    c = alg.commutant(alg.random_algebra(sum(a * m for a, m in blocks), blocks, seed=1))
    rng = np.random.default_rng(0)
    for delta in (0.0, 1e-9, 1e-6, 1e-3):
        z = nk.random_complex(c.basis.shape, rng)
        basis = c.basis + delta * (z + z.conj().transpose(0, 2, 1)) / 2
        flat = basis.reshape(len(basis), -1)
        new = alg._adjoint_residual(basis, flat @ flat.conj().T)
        old = orc.gram_product_adjoint_residual(basis)
        assert abs(new - old) <= 1e-13 + 1e-8 * old, delta
    gram = c.flat @ c.flat.conj().T
    gram[0, 1] = np.nan
    assert np.isnan(alg._adjoint_residual(c.basis, gram))


@pytest.mark.parametrize("m, n", [(8, 32), (4, 16), (12, 96), (1, 3)])
def test_hermitian_basis_matches_the_where_form(m, n):
    """The commutant basis from the two triangles alone is bit for bit the
    one np.where selected over the whole stack."""
    x = nk.random_complex((m, m, n, n), np.random.default_rng(m * n))
    assert np.array_equal(alg._hermitian_basis([x]), orc.where_hermitian_basis(x))


#: the signatures of the structure-large and pair-decide benchmark workloads
WORKLOAD_SIGNATURES = [
    [(2, 2), (2, 2), (3, 2), (1, 2)], [(2, 4), (2, 4)], [(3, 4), (3, 4)], [(2, 8), (2, 8)],
    [(1, 2), (1, 2), (2, 1)], [(2, 2), (2, 2)], [(2, 1), (2, 1), (1, 2)], [(2, 3), (2, 3)],
    [(1, 2), (1, 2), (2, 1), (2, 1)], [(1, 2), (1, 2), (1, 2)], [(2, 1), (2, 1), (2, 1)],
    [(2, 2), (2, 2), (1, 2), (1, 2)]]


@pytest.mark.parametrize("blocks", WORKLOAD_SIGNATURES, ids=str)
def test_frame_matches_the_averaging_projection_oracle(blocks):
    """The frame read off one averaged probe has the signature, summand
    order, central projections (to 1e-10) and center of the d x d averaging
    projection, on the algebra and on a fresh copy of its commutant; at the
    loose tolerance 0.5 the capped cut splits off the same central
    projections (equal shapes may come in another order there, as keys
    within 0.5 of each other tie)."""
    n = sum(a * m for a, m in blocks)
    a = alg.random_algebra(n, blocks, seed=n)
    for b in (a, alg.VnAlgebra(n, alg.commutant(a).basis)):
        sig = alg.block_decompose(b)
        oracle_blocks, oracle_projections = orc.averaging_projections(b)
        assert sig.blocks == oracle_blocks
        assert np.abs(sig.central_projections - oracle_projections).max() <= 1e-10
        assert alg.equals(alg.center(b), orc.averaging_center(b))
        loose = alg.block_decompose(b, nk.Tolerance(0.5))
        assert loose.blocks == sig.blocks
        apart = np.linalg.norm(loose.central_projections[:, None] - sig.central_projections,
                               axis=(2, 3))
        assert apart.min(axis=1).max() <= 1e-10


def _probe(a, seed):
    x = np.tensordot(nk.random_complex(a.dim, np.random.default_rng(seed)), a.basis,
                     axes=(0, 0))
    return x + x.conj().T


def _averaged(a, h):
    """sum_j b_j h b_j* over the orthonormal basis of a."""
    return (a.basis @ h @ a.basis.conj().transpose(0, 2, 1)).sum(axis=0)


def test_a_probe_with_a_scalar_average_is_refused():
    """[(2,2),(1,1)] has S = sum b b* = 1, so the probe h = 1 averages to a
    scalar and merges both summands: the corner check refuses the merged
    projection rather than returning a one-summand frame."""
    a = alg.random_algebra(5, [(2, 2), (1, 1)], seed=2)
    eye = np.eye(5, dtype=complex)
    assert np.abs(_averaged(a, eye) - eye).max() <= 1e-12
    with pytest.raises(DegenerateCenterElement, match="corner dimension"):
        alg._frame(a, _averaged(a, eye), eye, _probe(a, 1), nk.DEFAULT_TOL)


def test_a_merge_that_fits_a_summand_fails_the_links():
    """[(3,5),(4,5)]: h = p_1/3 + p_2/4 averages to 1/5, and the merged
    corner has dimension 9 + 16 = 25 and rank 35, the shape of M_5 (x) 1_7;
    the eigen-grouping of h on it then mixes the summands, and the links
    check refuses the frame."""
    a = alg.random_algebra(35, [(3, 5), (4, 5)], seed=3)
    p = alg.block_decompose(a).central_projections  # (4, 5) first
    h = p[1] / 3 + p[0] / 4
    with pytest.raises(DegenerateCenterElement, match="not multiples of unitaries"):
        alg._frame(a, _averaged(a, h), h, _probe(a, 1), nk.DEFAULT_TOL)


def test_a_non_central_element_fails_the_commutation_check():
    """The spectral projections of a generic Hermitian h in A lie in A but
    split its summands: handed to the cluster step in place of its average,
    h is refused by the commutation check alone."""
    a = alg.random_algebra(8, [(2, 2), (1, 4)], seed=5)
    h = _probe(a, 2)
    with pytest.raises(DegenerateCenterElement, match="does not commute"):
        alg._frame(a, h, h, _probe(a, 3), nk.DEFAULT_TOL)


def test_a_cluster_outside_the_span_fails_the_span_check():
    """span{1, D}, D = diag(1, -1, 0), is unital and *-closed but D^2 is
    outside it: the average of a probe is diagonal with three values, and
    its spectral projections commute with the span but leave it."""
    d = np.diag([1.0, -1.0, 0.0]).astype(complex)
    b = alg.VnAlgebra(3, np.array([np.eye(3) / np.sqrt(3), d / np.sqrt(2)]))
    with pytest.raises(DegenerateCenterElement, match="leaves the algebra"):
        alg.block_decompose(b)


def test_a_gap_inside_the_window_is_ambiguous(monkeypatch):
    """A central element whose two values lie 5e-8 apart, between the cut
    1e-9 and 100 times it at the default tolerance, has no reliable split:
    AmbiguousRank carries the gap, the cut and the window, and validate
    reports a span without a frame."""
    a = alg.random_algebra(4, [(1, 2), (2, 1)], seed=4)
    p = alg.block_decompose(a).central_projections
    z = p[0] + (1 + 5e-8) * p[1]
    with pytest.raises(AmbiguousRank) as info:
        alg._frame(a, z, _probe(a, 1), _probe(a, 2), nk.DEFAULT_TOL)
    err = info.value
    assert err.gap == pytest.approx(5e-8, rel=1e-6)
    assert err.cut == pytest.approx(1e-9 * (1 + 5e-8))
    assert err.window == nk.SPLIT_WINDOW
    real = alg._frame
    monkeypatch.setattr(alg, "_frame", lambda b, _, h, g, tol: real(b, z, h, g, tol))
    with pytest.raises(InvalidAlgebra, match="no matrix-unit frame"):
        alg.VnAlgebra(4, a.basis).validate()


def test_commutant_at_n64_forms_no_n2_by_n2_map():
    """The commutant of [(4,8),(8,4)] at n = 64 stays far under the n^2 x n^2
    averaging map (4096^2 complex entries, 256 MiB) that the center was
    once read off: with that map the traced peak was 276 MiB, without it
    22 MiB (tracemalloc, numpy 2.4)."""
    a = alg.random_algebra(64, [(4, 8), (8, 4)], seed=1)
    tracemalloc.start()
    try:
        c = alg.commutant(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert c.dim == 64 + 16
    assert peak < 48 * 2 ** 20


# ---------------------------------------------------------------------------
# the commutant's laws in the coordinates of its frame

#: the structure-large signatures, the two one-summand extremes and a ragged pair
FRAME_SIGNATURES = WORKLOAD_SIGNATURES[:4] + [[(1, 4)], [(4, 1)], [(2, 1), (1, 3)]]


def _turned(a, units):
    """A fresh copy of a whose block frame is the given units."""
    sig = alg.block_decompose(a)
    turned = alg.VnAlgebra(a.ambient_dim, a.basis, generators=a.generators)
    turned._frames[nk.DEFAULT_TOL] = alg.BlockSignature(
        sig.blocks, sig.central_projections, tuple(units))
    return turned, turned._frames[nk.DEFAULT_TOL]


def _close(new, old):
    return abs(new - old) <= 1e-13 + 1e-6 * old


@pytest.mark.parametrize("blocks", FRAME_SIGNATURES, ids=str)
def test_frame_coordinate_checks_match_the_dense_oracles(blocks):
    """On frames moved off unitarity by delta T_ik + delta Z_ik, the
    orthonormality and adjoint-closure residuals read off W* W and the
    commutation residual of the factored generating units are those of the
    d' x n^2 Gram product, the Gram-product adjoint form and law_residual
    on the dense units, within 1e-13 + 1e-6 of the value."""
    a = alg.random_algebra(sum(s * m for s, m in blocks), blocks, seed=5)
    sig = alg.block_decompose(a)
    rng = np.random.default_rng(len(blocks))
    for delta in (0.0, 1e-9, 1e-6, 1e-3):
        _, moved = _turned(a, [t + delta * nk.random_complex(t.shape, rng) for t in sig.units])
        parts = orc.commutant_units(moved)
        basis = alg._hermitian_basis(parts)
        gram = alg._unit_gram(moved)
        new = (float(np.linalg.norm(gram - np.eye(len(gram)))),
               alg._hermitian_adjoint_residual(gram),
               alg._generating_residual(moved, a.generators, a.generators))
        old = (orc.dense_gram_residual(basis), orc.gram_product_adjoint_residual(basis),
               orc.generating_units_commutation(a.generators, parts))
        for x, y in zip(new, old):
            assert _close(x, y), (delta, new, old)


@pytest.mark.parametrize("blocks", FRAME_SIGNATURES, ids=str)
def test_a_non_unitary_frame_fails_orthonormality_with_the_oracle_residual(blocks):
    """T_ik -> T_ik R with one non-unitary R for every k keeps every unit in
    the commutant, so the commutation check passes and orthonormality
    fails: InvalidAlgebra names the law, with the d' x n^2 Gram residual
    of the basis the frame gives and the bound tol.bound(sqrt(d'))."""
    a = alg.random_algebra(sum(s * m for s, m in blocks), blocks, seed=6)
    rng = np.random.default_rng(7)
    units = []
    for t in alg.block_decompose(a).units:
        h = nk.random_complex((t.shape[2], t.shape[2]), rng)
        units.append(t @ (np.eye(t.shape[2]) + 1e-3 * (h + h.conj().T)))
    turned, moved = _turned(a, units)
    basis = alg._hermitian_basis(orc.commutant_units(moved))
    with pytest.raises(InvalidAlgebra) as info:
        alg.commutant(turned)
    err = info.value
    assert err.law == "orthonormality"
    assert _close(err.residual, orc.dense_gram_residual(basis))
    assert err.bound == nk.DEFAULT_TOL.bound(np.sqrt(len(basis)))


def test_commutant_at_n32_forms_no_dense_gram_and_no_n3_commutation(monkeypatch):
    """Once the frame is built, the [(2,8),(2,8)] commutant reads its
    Gram off the frame and its commutation law off the factors of the
    generating units: no law_residual, no _adjoint_residual."""
    a = alg.random_algebra(32, [(2, 8), (2, 8)], seed=1)
    alg.block_decompose(a)
    calls = []

    def refuse(name):
        return lambda *args: pytest.fail(f"commutant called {name}")

    def counted(fn):
        return lambda *args: calls.append(fn.__name__) or fn(*args)
    monkeypatch.setattr(nk, "law_residual", refuse("law_residual"))
    monkeypatch.setattr(alg, "_adjoint_residual", refuse("_adjoint_residual"))
    for fn in (nk.factored_law_residual, nk.column_pair_gram):
        monkeypatch.setattr(nk, fn.__name__, counted(fn))
    assert alg.commutant(a).dim == 128
    assert sorted(calls) == ["column_pair_gram", "factored_law_residual"]


#: tracemalloc peaks of the commutant, frame included, before its laws were
#: checked in frame coordinates (numpy 2.4, MiB)
DENSE_CHECK_PEAKS = {32: ([(2, 8), (2, 8)], 8.3), 64: ([(4, 8), (8, 4)], 21.7),
                     96: ([(4, 12), (12, 4)], 90.8), 128: ([(4, 16), (16, 4)], 273.9)}


@pytest.mark.parametrize("n", sorted(DENSE_CHECK_PEAKS))
def test_commutant_peak_stays_at_or_below_the_dense_checks(n):
    """The frame-coordinate checks add no transient beyond what the dense
    Gram product and the dense law check held: the traced peak of the
    commutant stays at or below theirs."""
    blocks, peak_before = DENSE_CHECK_PEAKS[n]
    a = alg.random_algebra(n, blocks, seed=1)
    tracemalloc.start()
    try:
        c = alg.commutant(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert c.dim == sum(m * m for _, m in blocks)
    assert peak <= peak_before * 2 ** 20


@pytest.mark.parametrize("blocks", WORKLOAD_SIGNATURES + [[(1, 4)], [(4, 1)], [(2, 1), (1, 3)],
                                                          [(4, 6), (6, 4)]], ids=str)
def test_commutant_basis_is_the_x_stack_construction_bit_for_bit(blocks):
    """The checks moved, the basis did not: it is the x-stack product of
    the frame turned Hermitian over the whole stack, bit for bit."""
    a = alg.random_algebra(sum(s * m for s, m in blocks), blocks, seed=2)
    assert np.array_equal(alg.commutant(a).basis,
                          orc.x_stack_commutant_basis(alg.block_decompose(a)))


def test_invalid_algebra_carries_the_law_residual_and_bound():
    """Each check of a basis names its law and carries the residual and
    the bound it failed."""
    e = np.eye(2, dtype=complex)
    e12 = np.array([[0, 1], [0, 0]], dtype=complex)
    e11 = np.diag([1.0, 0.0]).astype(complex)
    cases = {"orthonormality": (np.array([e, e]) / np.sqrt(2), None),
             "identity": (e11[None], None),
             "adjoint_closure": (np.array([e / np.sqrt(2), e12]), None),
             "generators": (e[None] / np.sqrt(2), [e12])}
    for law, (basis, gens) in cases.items():
        with pytest.raises(InvalidAlgebra) as info:
            alg.VnAlgebra(2, basis, generators=gens)
        err = info.value
        assert err.law == law and not err.residual <= err.bound
        assert f"{err.residual:.3e}" in str(err)


def test_unit_coefficients_copy_no_basis():
    """The identity's coefficients conjugate the identity, not the basis:
    the n = 64 commutant forms them within a tenth of one basis copy."""
    bp = alg.commutant(alg.random_algebra(64, [(4, 8), (8, 4)], seed=1))
    tracemalloc.start()
    try:
        coeffs = type(bp).unit_coefficients.func(bp)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(coeffs, bp.unit_coefficients)
    assert peak < bp.basis.nbytes / 10, (peak, bp.basis.nbytes)


# ---------------------------------------------------------------------------
# coordinates in one place: VnAlgebra.coefficients and VnAlgebra.apply


@pytest.mark.parametrize("n, blocks", [
    (2, [(2, 1)]), (3, [(1, 1), (2, 1)]), (4, [(2, 2)]), (5, [(2, 1), (1, 3)]),
    (6, [(1, 2), (2, 2)]), (12, [(3, 2), (2, 3)]), (48, [(4, 6), (2, 12)])])
def test_coordinates_match_the_forms_they_replace_bit_for_bit(n, blocks):
    """coefficients, apply and element_coefficients give the bits of the
    products that rep_apply, hom_residuals, _legs, tensor_quotient and
    lift_left formed inline, on one matrix, a 3-d and a 4-d stack."""
    a = alg.random_algebra(n, blocks, seed=n)
    rng = np.random.default_rng(n)
    images = nk.random_complex((a.dim, 3, 3), rng)
    e = corr.of_endomorphism(endo.identity(a))
    flat, elements = a.flat, e.element_space.reshape(len(e.element_space), -1)
    x = nk.random_complex((n, n), rng)
    assert np.array_equal(a.coefficients(x), flat.conj() @ x.reshape(-1))
    assert np.array_equal(a.apply(images, x), orc.basis_image_apply(a, images, x))
    assert np.array_equal(a.project(x), ((flat.conj() @ x.reshape(-1)) @ flat).reshape(n, n))
    for shape in [(4,), (2, 3)]:
        xs = nk.random_complex(shape + (n, n), rng)
        coeffs = a.coefficients(xs)
        assert np.array_equal(coeffs, orc.inline_coefficients(flat, xs))
        assert np.array_equal(coeffs.reshape(-1, a.dim),
                              orc.inline_coefficients(flat, xs.reshape(-1, n, n)))
        out = a.apply(images, xs)
        assert np.array_equal(out, orc.basis_image_apply(a, images, xs))
        assert np.array_equal(out, orc.tensordot_images(a, images, xs))
        assert np.array_equal(e.element_coefficients(xs), orc.inline_coefficients(elements, xs))


def test_coefficients_reject_a_wrong_shape_or_a_non_finite_matrix():
    a = alg.random_algebra(4, [(2, 2)], seed=1)
    for bad in [np.zeros(16), np.zeros((2, 8)), np.zeros((3, 2, 8)), np.zeros((3, 16, 1))]:
        with pytest.raises(DimensionMismatch):
            a.coefficients(bad)
    with pytest.raises(DimensionMismatch, match="finite"):
        a.coefficients(np.full((4, 4), np.nan))


def test_every_map_given_by_basis_images_is_applied_by_the_algebra(monkeypatch):
    """Endomorphism.__call__, hom_residuals, intertwiners with a
    representation, rho_of and tensor_quotient reach VnAlgebra.apply and
    VnAlgebra.coefficients."""
    b = alg.random_algebra(4, [(1, 2), (1, 2)], seed=3)
    theta = endo.identity(b)
    e = corr.of_endomorphism(theta)
    x = e.element_space  # caches the frames the calls below read
    calls = []

    def counted(name):
        real = getattr(alg.VnAlgebra, name)
        return lambda self, *args: calls.append(name) or real(self, *args)

    for name in ("apply", "coefficients"):
        monkeypatch.setattr(alg.VnAlgebra, name, counted(name))
    for call in [lambda: theta(b.basis[1]), lambda: endo.hom_residuals(b, theta.basis_images),
                 lambda: alg.intertwiners(b, theta.basis_images, None),
                 lambda: e.rho_of(b.basis[1]),
                 lambda: corr.tensor_quotient(corr.inner_products(x), e)]:
        calls.clear()
        call()
        assert set(calls) == {"apply", "coefficients"}
