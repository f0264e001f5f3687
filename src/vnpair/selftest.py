"""Seeded property suite: random instances for every library-level law.

Each property draws its instances from the generators below, measures the
worst residual with checks written independently of the code under test,
and reports one line per property. A failing case is serialized (matrices
in the scene encoding) so it can be replayed in isolation.

All randomness flows through numpy Generators keyed as [seed, property
index, case index]; two runs with the same seed produce identical reports
up to timing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import algebra as alg
from . import correspondence as corr
from . import endo as endo_mod
from . import errors
from . import multiplier as mult
from . import numkernel as nk
from . import pairing
from . import prodsys as ps
from . import scenes


# ---------------------------------------------------------------------------
# instance generators


def random_blocks(rng, max_ambient: int, max_dim: int | None = None,
                  max_codim: int | None = None, max_size: int = 3):
    """Block signature [(size, multiplicity)] with capped footprints.

    max_ambient bounds the sum of size * multiplicity, max_dim the sum of
    size squared (the algebra dimension), max_codim the sum of multiplicity
    squared (the commutant dimension).
    """
    if max_dim is None:
        max_dim = max_ambient * max_ambient
    if max_codim is None:
        max_codim = max_ambient * max_ambient
    blocks, ambient, dim, codim = [], 0, 0, 0
    for _ in range(16):
        a = int(rng.integers(1, max_size + 1))
        m = int(rng.integers(1, max_size + 1))
        if (ambient + a * m <= max_ambient and dim + a * a <= max_dim
                and codim + m * m <= max_codim):
            blocks.append((a, m))
            ambient += a * m
            dim += a * a
            codim += m * m
            if rng.random() < 0.35:
                break
    if not blocks:
        blocks = [(1, 1)]
    return blocks


@dataclass
class AlgebraSample:
    """Algebra with known signature and the frame that hides it."""

    blocks: tuple[tuple[int, int], ...]
    frame: np.ndarray
    algebra: alg.VnAlgebra

    @property
    def ambient_dim(self) -> int:
        return self.algebra.ambient_dim

    @property
    def offsets(self) -> list[int]:
        out, pos = [], 0
        for a, m in self.blocks:
            out.append(pos)
            pos += a * m
        return out


def sample_algebra(rng, max_ambient: int, max_dim: int | None = None,
                   max_codim: int | None = None, max_size: int = 3) -> AlgebraSample:
    blocks = random_blocks(rng, max_ambient, max_dim, max_codim, max_size)
    n = sum(a * m for a, m in blocks)
    frame = nk.random_unitary(n, rng)
    gens, _ = alg.block_basis(blocks)
    conjugated = np.einsum("ij,bjk,kl->bil", frame, gens, frame.conj().T)
    return AlgebraSample(tuple(blocks), frame,
                         alg.from_generators(n, conjugated))


def unitary_inside(b: alg.VnAlgebra, rng) -> np.ndarray:
    """Haar-ish unitary element of the algebra via a Hermitian exponential."""
    x = np.tensordot(nk.random_complex(b.dim, rng), b.basis, axes=(0, 0))
    h = (x + x.conj().T) / 2.0
    lam, vec = np.linalg.eigh(h)
    return (vec * np.exp(1j * lam)) @ vec.conj().T


def normalizing_unitary(sample: AlgebraSample, rng) -> np.ndarray:
    """Unitary whose conjugation maps the sampled algebra onto itself.

    Block-local rotations u (tensor) w composed with a permutation of the
    blocks that share a shape, conjugated back through the hiding frame.
    """
    blocks = sample.blocks
    offsets = sample.offsets
    n = sample.ambient_dim
    target = list(range(len(blocks)))
    by_shape: dict = {}
    for i, shape in enumerate(blocks):
        by_shape.setdefault(shape, []).append(i)
    for members in by_shape.values():
        img = [members[k] for k in rng.permutation(len(members))]
        for src, dst in zip(members, img):
            target[src] = dst
    u = np.zeros((n, n), dtype=complex)
    for i, (a, m) in enumerate(blocks):
        piece = np.kron(nk.random_unitary(a, rng), nk.random_unitary(m, rng))
        j = target[i]
        u[offsets[j]:offsets[j] + a * m, offsets[i]:offsets[i] + a * m] = piece
    return sample.frame @ u @ sample.frame.conj().T


def _block_diag(mats) -> np.ndarray:
    n = sum(m.shape[0] for m in mats)
    out = np.zeros((n, n), dtype=complex)
    pos = 0
    for m in mats:
        k = m.shape[0]
        out[pos:pos + k, pos:pos + k] = m
        pos += k
    return out


def _irrep_component(z: np.ndarray, offset: int, size: int, mul: int) -> np.ndarray:
    idx = offset + np.arange(size) * mul
    return z[np.ix_(idx, idx)]


def random_joint_multiplicities(rng, sa: AlgebraSample, sb: AlgebraSample,
                                carrier_cap: int, rows=None) -> np.ndarray:
    """Nonnegative multiplicity grid with at least one nonzero entry.

    The first entry is the cheapest one in the given rows (all rows by
    default), so a grid drawn with rows = the blocks another grid reaches
    composes with it to a nonzero tensor product.
    """
    costs = np.array([[a * nj for (_, nj) in sb.blocks] for (a, _) in sa.blocks])
    k = np.zeros_like(costs)
    rows = np.arange(len(costs)) if rows is None else np.asarray(rows)
    i, j0 = np.unravel_index(np.argmin(costs[rows]), (len(rows), costs.shape[1]))
    i0 = rows[i]
    k[i0, j0] = 1
    budget = carrier_cap - costs[i0, j0]
    for _ in range(6):
        i = int(rng.integers(len(sa.blocks)))
        j = int(rng.integers(len(sb.blocks)))
        if costs[i, j] <= budget and k[i, j] < 3:
            k[i, j] += 1
            budget -= costs[i, j]
    return k


def random_correspondence(sa: AlgebraSample, sb: AlgebraSample, rng,
                          carrier_cap: int = 12,
                          mults: np.ndarray | None = None,
                          tol: nk.Tolerance = nk.DEFAULT_TOL) -> corr.Correspondence:
    """Commuting pair with prescribed joint block multiplicities.

    The carrier is assembled block by block in the two hidden canonical
    frames, then scrambled by a fresh unitary, so nothing about the joint
    structure is visible from the matrices.
    """
    if mults is None:
        mults = random_joint_multiplicities(rng, sa, sb, carrier_cap)
    a_off = sa.offsets
    b_off = sb.offsets
    bprime = alg.commutant(sb.algebra, tol)
    h = sum(int(mults[i, j]) * a * nj
            for i, (a, _) in enumerate(sa.blocks)
            for j, (_, nj) in enumerate(sb.blocks))
    scramble = nk.random_unitary(h, rng)

    def rho_image(x):
        z = sa.frame.conj().T @ x @ sa.frame
        pieces = []
        for i, (a, m) in enumerate(sa.blocks):
            xi = _irrep_component(z, a_off[i], a, m)
            for j, (_, nj) in enumerate(sb.blocks):
                if mults[i, j]:
                    pieces.append(np.kron(xi, np.eye(nj * int(mults[i, j]))))
        return scramble @ _block_diag(pieces) @ scramble.conj().T

    def rho_prime_image(y):
        z = sb.frame.conj().T @ y @ sb.frame
        pieces = []
        for i, (a, _) in enumerate(sa.blocks):
            for j, (_, nj) in enumerate(sb.blocks):
                if mults[i, j]:
                    yj = z[b_off[j]:b_off[j] + nj, b_off[j]:b_off[j] + nj]
                    pieces.append(np.kron(np.eye(a),
                                          np.kron(yj, np.eye(int(mults[i, j])))))
        return scramble @ _block_diag(pieces) @ scramble.conj().T

    rho = np.array([rho_image(x) for x in sa.algebra.basis])
    rho_prime = np.array([rho_prime_image(y) for y in bprime.basis])
    return corr.Correspondence(
        left=sa.algebra, right=sb.algebra,
        left_commutant=alg.commutant(sa.algebra, tol), right_commutant=bprime,
        rho=rho, rho_prime=rho_prime, carrier_dim=h, tol=tol)


def _algebra_scene(sample: AlgebraSample, extra=None, commutant=None) -> dict:
    """A valid scene: the sampled algebra as "a", the name the CLI's algebra
    commands read, its commutant as "a_commutant" when given, and the extra
    sections, so ``vnpair <command> --input`` replays the instance."""
    algebras = {"a": sample.algebra}
    if commutant is not None:
        algebras["a_commutant"] = commutant
    scene = {"ambient_dim": sample.ambient_dim, "algebras": {
        name: {"generators": [scenes.encode_matrix(g) for g in a.generators]}
        for name, a in algebras.items()}}
    if extra:
        scene.update(extra)
    return scene


# ---------------------------------------------------------------------------
# property cases: each takes (rng, tol, case_index, salt), salt being the
# run seed, and returns (scene, measure) where measure() gives the worst
# residual of the case


def _case_bicommutant(rng, tol, case_index, salt):
    sample = sample_algebra(rng, max_ambient=12)
    scene = _algebra_scene(sample)

    def measure():
        a = sample.algebra
        ap = alg.commutant(a, tol)
        app = alg.commutant(ap, tol)
        residual = float(alg.equals(a, app, tol).residual)
        expected = sum(m * m for _, m in sample.blocks)
        if ap.dim != expected:
            raise errors.InvalidAlgebra(
                f"commutant dimension {ap.dim}, expected {expected}")
        sig = alg.block_decompose(ap, tol)
        want = tuple(sorted(((m, a_) for a_, m in sample.blocks), reverse=True))
        if sig.blocks != want:
            raise errors.InvalidAlgebra(
                f"commutant signature {sig.blocks}, expected {want}")
        return residual

    return scene, measure


def _case_corr_involution(rng, tol, case_index, salt):
    sa = sample_algebra(rng, 6, max_dim=10)
    sb = sample_algebra(rng, 6, max_dim=10)
    mults = random_joint_multiplicities(rng, sa, sb, 10)
    scene = {"left_blocks": [list(b) for b in sa.blocks],
             "right_blocks": [list(b) for b in sb.blocks],
             "multiplicities": mults.tolist()}

    def measure():
        e = random_correspondence(sa, sb, rng, mults=mults, tol=tol)
        ee = corr.commutant(corr.commutant(e))
        same = (ee.left is e.left and ee.right is e.right
                and ee.left_commutant is e.left_commutant
                and ee.right_commutant is e.right_commutant
                and np.array_equal(ee.rho, e.rho)
                and np.array_equal(ee.rho_prime, e.rho_prime)
                and ee.carrier_dim == e.carrier_dim)
        if not same:
            raise errors.InvalidCorrespondence(
                "double commutant changed a field")
        return 0.0

    return scene, measure


def _case_tensor_commutant(rng, tol, case_index, salt):
    sa = sample_algebra(rng, 6, max_dim=10)
    sb = sample_algebra(rng, 6, max_dim=10)
    sc = sample_algebra(rng, 6, max_dim=10)
    scene = {"left_blocks": [list(b) for b in sa.blocks],
             "middle_blocks": [list(b) for b in sb.blocks],
             "right_blocks": [list(b) for b in sc.blocks]}

    def measure():
        mults_e = random_joint_multiplicities(rng, sa, sb, 10)
        e = random_correspondence(sa, sb, rng, mults=mults_e, tol=tol)
        # f starts in a middle block that e reaches, else e (x) f = 0
        mults_f = random_joint_multiplicities(rng, sb, sc, 10,
                                              rows=np.flatnonzero(mults_e.any(axis=0)))
        f = random_correspondence(sb, sc, rng, mults=mults_f, tol=tol)
        w = corr.tensor_commutant_iso(e, f, tol)
        eye = np.eye(w.shape[0])
        return max(float(np.linalg.norm(w.conj().T @ w - eye)),
                   float(np.linalg.norm(w @ w.conj().T - eye)))

    return scene, measure


def _paired_instance(rng, tol):
    sample = sample_algebra(rng, 8, max_dim=10, max_codim=10)
    b = sample.algebra
    u = normalizing_unitary(sample, rng)
    theta = endo_mod.from_unitary(b, u, "adjoint", tol)
    bp = alg.commutant(b, tol)
    theta_prime = endo_mod.from_unitary(bp, u, "direct", tol)
    scene = _algebra_scene(sample, {
        "unitaries": {"u": scenes.encode_matrix(u)},
        "endomorphisms": {
            "theta": {"domain": "a", "unitary": "u", "direction": "adjoint"},
            "theta_prime": {"domain": "a_commutant", "unitary": "u",
                            "direction": "direct"}}}, commutant=bp)
    return sample, u, theta, theta_prime, scene


def _case_pair_roundtrip(rng, tol, case_index, salt):
    _, u, theta, theta_prime, scene = _paired_instance(rng, tol)

    def measure():
        cert = pairing.can_pair(theta, theta_prime, tol)
        if not cert:
            raise errors.PairingCheckFailed(
                "normalizing-unitary instance reported unpairable")
        worst = max(cert.residuals.values())
        again = pairing.check_pairing(cert.unitary, theta, theta_prime, tol=tol)
        worst = max(worst, max(again.residuals.values()))
        iso = pairing.isomorphism_from_pairing(cert.unitary, theta,
                                               theta_prime, tol)
        cert2 = pairing.pairing_from_isomorphism(iso, theta, theta_prime, tol)
        worst = max(worst, max(cert2.residuals.values()))
        worst = max(worst, float(np.linalg.norm(cert2.unitary - cert.unitary)))
        return worst

    return scene, measure


def _case_masa_negative(rng, tol, case_index, salt):
    d2 = alg.from_generators(2, [np.diag([1.0 + 0j, 0.0]),
                                 np.diag([0.0, 1.0 + 0j])])
    flip = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    # the masa is its own commutant; theta swaps its minimal projections
    scene = _algebra_scene(AlgebraSample(((1, 1), (1, 1)), np.eye(2), d2), {
        "unitaries": {"flip": scenes.encode_matrix(flip),
                      "identity": scenes.encode_matrix(np.eye(2))},
        "endomorphisms": {"theta": {"domain": "a", "unitary": "flip", "direction": "adjoint"},
                          "theta_prime": {"domain": "a_commutant", "unitary": "identity",
                                          "direction": "direct"}}}, commutant=d2)

    def measure():
        theta = endo_mod.from_unitary(d2, flip, "adjoint", tol)
        theta_prime = endo_mod.identity(d2)
        cert = pairing.can_pair(theta, theta_prime, tol)
        if cert.paired:
            raise errors.PairingCheckFailed("swap vs identity reported paired")
        if cert.table_left.counts == cert.table_right.counts:
            raise errors.PairingCheckFailed(
                "multiplicity tables agree on an unpairable instance")
        # brute force over diagonal unitaries: any pairing unitary must
        # commute with the diagonal, hence be diagonal, and no diagonal
        # conjugation swaps the two minimal projections
        best = np.inf
        for a in np.linspace(0.0, 2.0 * np.pi, 17):
            for s in np.linspace(0.0, 2.0 * np.pi, 17):
                u = np.diag([np.exp(1j * a), np.exp(1j * s)])
                worst = max(float(np.linalg.norm(
                    u.conj().T @ x @ u - theta(x))) for x in d2.basis)
                best = min(best, worst)
        if best < 0.9:
            raise errors.PairingCheckFailed(
                f"a diagonal unitary nearly implements the swap ({best:.3e})")
        return 0.0

    return scene, measure


def _case_trivialize(rng, tol, case_index, salt):
    n = 64
    if case_index % 2 == 0:
        f = np.exp(2j * np.pi * rng.random(2 * n + 1))
        m = mult.coboundary(f, tol)
        scene = {"construction": "coboundary",
                 "f": scenes.encode_vector(f)}
    else:
        d = int(rng.integers(2, 4))
        v = nk.random_unitary(d, rng)
        phases = np.exp(2j * np.pi * rng.random(2 * n + 1))
        family = mult.family_from_phases(phases, v, tol)
        m = mult.extract(family, tol)
        scene = {"construction": "projective family",
                 "base": scenes.encode_matrix(v),
                 "phases": scenes.encode_vector(phases)}

    def measure():
        f = mult.trivialize(m)
        idx = np.arange(n + 1)
        mask = np.add.outer(idx, idx) <= n
        sums = np.minimum(np.add.outer(idx, idx), n)
        lhs = m.values * f[sums]
        rhs = np.outer(f, f)
        return float(np.abs((lhs - rhs)[mask]).max())

    return scene, measure


def _case_power_family(rng, tol, case_index, salt):
    _, u, theta, theta_prime, scene = _paired_instance(rng, tol)

    def measure():
        cert = pairing.can_pair(theta, theta_prime, tol)
        if not cert:
            raise errors.PairingCheckFailed(
                "normalizing-unitary instance reported unpairable")
        worst = float(cert.residuals["eq33_match"])
        horizon = 8
        u1 = cert.unitary
        powers = [np.eye(u1.shape[0], dtype=complex)]
        for _ in range(horizon):
            powers.append(u1 @ powers[-1])
        for s in range(horizon + 1):
            for t in range(horizon + 1 - s):
                worst = max(worst, float(np.linalg.norm(
                    powers[s + t] - powers[s] @ powers[t])))
        family = mult.ProjectiveUnitaryFamily(powers, tol)
        grid = mult.extract(family, tol)
        worst = max(worst, grid.distance(mult.trivial(horizon // 2)))
        return worst

    return scene, measure


def _case_dilation_commutant(rng, tol, case_index, salt):
    sample = sample_algebra(rng, 8, max_dim=10, max_codim=10)
    b = sample.algebra
    u = unitary_inside(b, rng)
    scene = _algebra_scene(sample, {
        "unitaries": {"u": scenes.encode_matrix(u)},
        "endomorphisms": {"theta": {"domain": "a", "unitary": "u",
                                    "direction": "adjoint"}}})

    def measure():
        theta = endo_mod.from_unitary(b, u, "adjoint", tol)
        p = ps.from_endomorphism(theta, 4, tol)
        w = ps.right_dilation_from_unitary(p, u, tol=tol)
        out = ps.commutant_via_dilation(p, w, tol=tol)
        ref = ps.commutant_system(p, tol)
        worst = 0.0
        for t, nu_t in enumerate(out.nu):
            flat = nu_t.reshape(nu_t.shape[0], -1)
            gram = flat @ flat.conj().T
            worst = max(worst, float(np.linalg.norm(
                gram - np.eye(nu_t.shape[0]))))
        bp = p.commutant_algebra

        def push(t, x):
            coeffs = ref.members[t].element_coefficients(x)
            return np.tensordot(coeffs, out.nu[t], axes=(0, 0))

        for s in range(p.horizon + 1):
            for t in range(p.horizon + 1 - s):
                xs = ref.members[s].element_space
                ys = ref.members[t].element_space
                picks = [(int(rng.integers(xs.shape[0])),
                          int(rng.integers(ys.shape[0]))) for _ in range(2)]
                for ix, iy in picks:
                    x, y = xs[ix], ys[iy]
                    lhs = push(s + t, ref.multiply(s, t, x, y))
                    rhs = out.system.multiply(s, t, push(s, x), push(t, y))
                    worst = max(worst, float(np.linalg.norm(lhs - rhs)))
        for t in range(p.horizon + 1):
            x = ref.members[t].element_space[0]
            bq = bp.basis[int(rng.integers(bp.dim))]
            lhs = push(t, ref.members[t].rho_of(bq) @ x)
            rhs = out.system.members[t].rho_of(bq) @ push(t, x)
            worst = max(worst, float(np.linalg.norm(lhs - rhs)))
        return worst

    return scene, measure


def _case_cocycle_link(rng, tol, case_index, salt):
    sample = sample_algebra(rng, 8, max_dim=10, max_codim=10)
    b = sample.algebra
    u1 = normalizing_unitary(sample, rng)
    twist = unitary_inside(b, rng)
    u2 = u1 @ twist.conj().T
    scene = _algebra_scene(sample, {
        "unitaries": {"u1": scenes.encode_matrix(u1),
                      "u2": scenes.encode_matrix(u2)},
        "endomorphisms": {
            "theta1": {"domain": "a", "unitary": "u1", "direction": "adjoint"},
            "theta2": {"domain": "a", "unitary": "u2", "direction": "adjoint"},
            "theta_prime": {"domain": "a_commutant", "unitary": "u1",
                            "direction": "direct"}}}, commutant=alg.commutant(b, tol))

    def measure():
        theta1 = endo_mod.from_unitary(b, u1, "adjoint", tol)
        theta2 = endo_mod.from_unitary(b, u2, "adjoint", tol)
        bp = alg.commutant(b, tol)
        theta_prime = endo_mod.from_unitary(bp, u1, "direct", tol)
        horizon = 6
        family = pairing.cocycle_link(theta1, theta2, theta_prime, horizon, tol)
        worst = 0.0
        for k, c in enumerate(family, start=1):
            worst = max(worst, float(b.contains(c, tol).residual))
            pk = endo_mod.power(theta1, k, tol)
            qk = endo_mod.power(theta2, k, tol)
            worst = max(worst, max(float(np.linalg.norm(
                qk(x) - c @ pk(x) @ c.conj().T)) for x in b.basis))
        for s in range(1, horizon):
            for t in range(1, horizon - s + 1):
                ps_ = endo_mod.power(theta1, s, tol)
                worst = max(worst, float(np.linalg.norm(
                    family[s + t - 1] - family[s - 1] @ ps_(family[t - 1]))))
        return worst

    return scene, measure


def _case_compression(rng, tol, case_index, salt):
    n = 2 + case_index % 5
    u = nk.random_unitary(n, rng)
    gamma = nk.random_complex(n, rng)
    gamma = gamma / np.linalg.norm(gamma)
    scene = {"ambient_dim": n,
             "unitaries": {"u": scenes.encode_matrix(u)},
             "vectors": {"gamma": scenes.encode_vector(gamma)}}

    def measure():
        b = alg.full_matrix_algebra(n)
        theta = endo_mod.from_unitary(b, u, "adjoint", tol)
        horizon = 4
        sys = ps.bhat_system(theta, gamma, horizon, tol)
        if sys.dims != [1] * (horizon + 1):
            raise errors.ProductSystemLawError(
                f"compressed spaces have dimensions {sys.dims}")
        worst = 0.0
        for s in range(horizon + 1):
            for t in range(horizon + 1 - s):
                prod = sys.products[(s, t)]
                worst = max(worst, float(np.linalg.norm(
                    prod.conj().T @ prod - np.eye(prod.shape[0]))))
        for r in range(horizon + 1):
            for s in range(horizon + 1 - r):
                for t in range(horizon + 1 - r - s):
                    lhs = sys.products[(r + s, t)] @ np.kron(
                        sys.products[(r, s)], np.eye(sys.dims[t]))
                    rhs = sys.products[(r, s + t)] @ np.kron(
                        np.eye(sys.dims[r]), sys.products[(s, t)])
                    worst = max(worst, float(np.linalg.norm(lhs - rhs)))
        for t in range(horizon + 1):
            v = sys.dilations[t]
            worst = max(worst, float(np.linalg.norm(
                v.conj().T @ v - np.eye(v.shape[1]))))
            pk = endo_mod.power(theta, t, tol)
            for base in b.basis:
                lifted = v @ np.kron(base, np.eye(sys.dims[t])) @ v.conj().T
                worst = max(worst, float(np.linalg.norm(lifted - pk(base))))
        return worst

    return scene, measure


def _case_symmetry(rng, tol, case_index, salt):
    sample = sample_algebra(rng, 8)
    normalizing = case_index % 2 == 0
    if normalizing:
        u = normalizing_unitary(sample, rng)
    else:
        u = nk.random_unitary(sample.ambient_dim, rng)
    scene = _algebra_scene(sample, {"unitaries": {"u": scenes.encode_matrix(u)}})

    def measure():
        down, up = pairing.restriction_symmetry(u, sample.algebra, tol)
        if down != up:
            raise errors.PairingCheckFailed(
                f"restriction verdicts disagree: {down} vs {up}")
        if normalizing and not down:
            raise errors.PairingCheckFailed(
                "normalizing unitary judged non-normalizing")
        return 0.0

    return scene, measure


def _case_multiplier_group(rng, tol, case_index, salt):
    n = 32
    fs = [np.exp(2j * np.pi * rng.random(2 * n + 1)) for _ in range(3)]
    scene = {"construction": "three coboundary grids",
             "f": [scenes.encode_vector(f) for f in fs]}

    def measure():
        m1, m2, m3 = (mult.coboundary(f, tol) for f in fs)
        unit = mult.trivial(n)
        worst = mult.pointwise_product(
            mult.pointwise_product(m1, m2), m3).distance(
            mult.pointwise_product(m1, mult.pointwise_product(m2, m3)))
        worst = max(worst, mult.pointwise_product(m1, unit).distance(m1))
        worst = max(worst, mult.pointwise_product(unit, m1).distance(m1))
        worst = max(worst, mult.pointwise_product(
            m1, mult.inverse(m1)).distance(unit))
        worst = max(worst, mult.transpose(
            mult.pointwise_product(m1, m2)).distance(
            mult.pointwise_product(mult.transpose(m1), mult.transpose(m2))))
        worst = max(worst, mult.transpose(mult.transpose(m1)).distance(m1))
        return worst

    return scene, measure


# ---------------------------------------------------------------------------
# harness


@dataclass
class Property:
    name: str
    cases: int
    threshold: float
    build: object  # (rng, tol, case_index, salt) -> (scene, measure)


PROPERTIES: list[Property] = [
    Property("algebra-bicommutant", 200, 1e-8, _case_bicommutant),
    Property("correspondence-double-commutant", 100, 0.0, _case_corr_involution),
    Property("tensor-commutant-order", 100, 1e-8, _case_tensor_commutant),
    Property("pairing-round-trip", 100, 1e-8, _case_pair_roundtrip),
    Property("masa-unpairable", 1, 1e-8, _case_masa_negative),
    Property("multiplier-trivialize", 100, 1e-10, _case_trivialize),
    Property("pairing-power-family", 50, 1e-8, _case_power_family),
    Property("dilation-commutant", 50, 1e-8, _case_dilation_commutant),
    Property("cocycle-link", 50, 1e-8, _case_cocycle_link),
    Property("compression-system", 50, 1e-10, _case_compression),
    Property("restriction-symmetry", 200, 1e-8, _case_symmetry),
    Property("multiplier-group", 1, 1e-12, _case_multiplier_group),
]


@dataclass
class PropertyResult:
    name: str
    cases: int
    worst: float
    threshold: float
    ok: bool
    seconds: float
    failure: dict | None = None

    def line(self) -> str:
        tag = "ok" if self.ok else "FAIL"
        return (f"{self.name}: {self.cases} cases, worst residual "
                f"{self.worst:.3e} (threshold {self.threshold:.0e}), "
                f"{self.seconds:.2f}s, {tag}")

    def as_payload(self) -> dict:
        out = {"name": self.name, "cases": self.cases, "worst": self.worst,
               "threshold": self.threshold, "ok": self.ok}
        if self.failure is not None:
            out["failure"] = self.failure
        return out


def run_property(prop: Property, index: int, seed: int, count: int,
                 tol: nk.Tolerance) -> PropertyResult:
    worst = 0.0
    failure = None
    start = time.perf_counter()
    done = 0
    for case in range(count):
        rng = np.random.default_rng([seed, index, case])
        scene = None
        try:
            scene, measure = prop.build(rng, tol, case, seed)
            residual = float(measure())
        except errors.VnpairError as exc:
            failure = {"property": prop.name, "case": case, "seed": seed,
                       "error": f"{type(exc).__name__}: {exc}",
                       "instance": scene}
            worst = float("inf")
            done = case + 1
            break
        done = case + 1
        # written so that a NaN residual becomes the worst value and fails
        if not residual <= worst:
            worst = residual
        if not residual <= prop.threshold:
            failure = {"property": prop.name, "case": case, "seed": seed,
                       "residual": residual, "instance": scene}
            break
    seconds = time.perf_counter() - start
    return PropertyResult(prop.name, done, worst, prop.threshold,
                          failure is None, seconds, failure)


def run_all(seed: int = 0, cap: int | None = None,
            tol: nk.Tolerance = nk.DEFAULT_TOL,
            log=None) -> list[PropertyResult]:
    """Run every property at its stated scale (or capped) and report.

    cap None keeps the stated case counts; cap 0 runs nothing and reports
    every property as trivially passing with zero cases.
    """
    results = []
    for index, prop in enumerate(PROPERTIES):
        count = prop.cases if cap is None else min(prop.cases, cap)
        result = run_property(prop, index, seed, count, tol)
        results.append(result)
        if log is not None:
            print(result.line(), file=log, flush=True)
    return results


def replay(failure: dict, tol: nk.Tolerance = nk.DEFAULT_TOL) -> dict:
    """Re-run one serialized failing case and report what it does now."""
    names = {prop.name: (i, prop) for i, prop in enumerate(PROPERTIES)}
    if failure.get("property") not in names:
        raise errors.ParseError(f"unknown property {failure.get('property')!r}")
    index, prop = names[failure["property"]]
    case = int(failure["case"])
    seed = int(failure["seed"])
    rng = np.random.default_rng([seed, index, case])
    out = {"property": prop.name, "case": case, "seed": seed}
    try:
        _, measure = prop.build(rng, tol, case, seed)
        out["residual"] = float(measure())
        out["ok"] = out["residual"] <= prop.threshold
    except errors.VnpairError as exc:
        out["error"] = f"{type(exc).__name__}: {exc}"
        out["ok"] = False
    return out
