"""Seeded input generators for the benchmark, written with numpy only.

Nothing here imports vnpair: the inputs stay the same when the package's
own sampling helpers change. Every matrix comes from a numpy Generator
keyed by the run seed plus a fixed label, so one seed gives one set of
inputs.

Block models follow the usual layout: a block (a, m) occupies an a*m slot
with index i*m + l, where the algebra acts as M_a (x) 1_m and the
commutant as 1_a (x) M_m. A Haar frame W hides the layout.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np


def rng_for(seed: int, *label) -> np.random.Generator:
    """Generator keyed by the run seed and a label of small integers/strings."""
    key = [int(seed)] + [int(hashlib.sha256(str(p).encode()).hexdigest()[:8], 16)
                         if isinstance(p, str) else int(p) for p in label]
    return np.random.default_rng(key)


def haar_unitary(n: int, rng) -> np.ndarray:
    """Haar unitary via QR of a complex Gaussian with the R-diagonal phase fix."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def unit_vector(n: int, rng) -> np.ndarray:
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def _unit(n: int, i: int, j: int) -> np.ndarray:
    e = np.zeros((n, n), dtype=complex)
    e[i, j] = 1.0
    return e


class BlockModel:
    """The algebra (+) M_a (x) 1_m and its commutant, seen through a frame."""

    def __init__(self, blocks, frame: np.ndarray):
        self.blocks = tuple((int(a), int(m)) for a, m in blocks)
        self.n = sum(a * m for a, m in self.blocks)
        self.frame = frame
        self.offsets = list(np.cumsum([0] + [a * m for a, m in self.blocks])[:-1])

    @property
    def dim(self) -> int:
        return sum(a * a for a, _ in self.blocks)

    @property
    def commutant_dim(self) -> int:
        return sum(m * m for _, m in self.blocks)

    @property
    def signature(self) -> tuple:
        """Blocks sorted largest first, as the block decomposition reports them."""
        return tuple(sorted(self.blocks, reverse=True))

    def _place(self, k: int, piece: np.ndarray) -> np.ndarray:
        out = np.zeros((self.n, self.n), dtype=complex)
        o = self.offsets[k]
        out[o:o + piece.shape[0], o:o + piece.shape[1]] = piece
        return out

    def _conj(self, mats) -> np.ndarray:
        w = self.frame
        return w @ np.asarray(mats) @ w.conj().T

    def basis(self) -> np.ndarray:
        """Hilbert-Schmidt orthonormal basis of the algebra."""
        out = []
        for k, (a, m) in enumerate(self.blocks):
            for i in range(a):
                for j in range(a):
                    out.append(self._place(k, np.kron(_unit(a, i, j), np.eye(m)) / np.sqrt(m)))
        return self._conj(out)

    def generators(self) -> np.ndarray:
        """First row of matrix units of every block: generates the algebra."""
        out = [self._place(k, np.kron(_unit(a, 0, j), np.eye(m)))
               for k, (a, m) in enumerate(self.blocks) for j in range(a)]
        return self._conj(out)

    def commutant_basis(self) -> np.ndarray:
        out = []
        for k, (a, m) in enumerate(self.blocks):
            for i in range(m):
                for j in range(m):
                    out.append(self._place(k, np.kron(np.eye(a), _unit(m, i, j)) / np.sqrt(a)))
        return self._conj(out)

    def commutant_generators(self) -> np.ndarray:
        out = [self._place(k, np.kron(np.eye(a), _unit(m, 0, j)))
               for k, (a, m) in enumerate(self.blocks) for j in range(m)]
        return self._conj(out)

    def central_projections(self) -> np.ndarray:
        return self._conj([self._place(k, np.eye(a * m))
                           for k, (a, m) in enumerate(self.blocks)])

    def normalizing_unitary(self, rng, permutation=None) -> np.ndarray:
        """Unitary mapping the algebra onto itself: block-local rotations
        u_a (x) u_m, moving block i to block permutation[i].

        permutation may only exchange blocks of equal shape; the default is
        a random such permutation.
        """
        if permutation is None:
            permutation = list(range(len(self.blocks)))
            by_shape: dict = {}
            for i, shape in enumerate(self.blocks):
                by_shape.setdefault(shape, []).append(i)
            for members in by_shape.values():
                for src, dst in zip(members, rng.permutation(members)):
                    permutation[src] = int(dst)
        u = np.zeros((self.n, self.n), dtype=complex)
        for i, (a, m) in enumerate(self.blocks):
            j = permutation[i]
            if self.blocks[j] != (a, m):
                raise ValueError(f"block {i} {(a, m)} cannot move onto {self.blocks[j]}")
            piece = np.kron(haar_unitary(a, rng), haar_unitary(m, rng))
            oi, oj = self.offsets[i], self.offsets[j]
            u[oj:oj + a * m, oi:oi + a * m] = piece
        return self.frame @ u @ self.frame.conj().T

    def swap_unitary(self, rng) -> np.ndarray:
        """Normalizing unitary that exchanges the first two equal-shape blocks."""
        perm = list(range(len(self.blocks)))
        for i in range(len(self.blocks)):
            for j in range(i + 1, len(self.blocks)):
                if self.blocks[i] == self.blocks[j]:
                    perm[i], perm[j] = j, i
                    return self.normalizing_unitary(rng, perm)
        raise ValueError(f"signature {self.blocks} has no two blocks of equal shape")

    def inner_unitary(self, rng) -> np.ndarray:
        """Unitary element of the algebra: (+) v_a (x) 1_m."""
        u = np.zeros((self.n, self.n), dtype=complex)
        for k, (a, m) in enumerate(self.blocks):
            o = self.offsets[k]
            u[o:o + a * m, o:o + a * m] = np.kron(haar_unitary(a, rng), np.eye(m))
        return self.frame @ u @ self.frame.conj().T


def block_model(blocks, rng) -> BlockModel:
    n = sum(a * m for a, m in blocks)
    return BlockModel(blocks, haar_unitary(n, rng))


def conj_adjoint(u: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """u* x u for every x in the stack."""
    return u.conj().T @ mats @ u


def conj_direct(u: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """u x u* for every x in the stack."""
    return u @ mats @ u.conj().T


# ---------------------------------------------------------------------------
# cocycle grids and projective families for the multiplier commands


def coboundary_grid(horizon: int, rng) -> np.ndarray:
    """m(s, t) = f(s) f(t) / f(s + t) from random phases f(0..2N)."""
    f = np.exp(2j * np.pi * rng.random(2 * horizon + 1))
    idx = np.arange(horizon + 1)
    return np.multiply.outer(f[:horizon + 1], f[:horizon + 1]) / f[np.add.outer(idx, idx)]


def projective_family(length: int, dim: int, rng) -> list[np.ndarray]:
    """U_t = phase_t v^t for a Haar unitary v: closes up to scalars."""
    v = haar_unitary(dim, rng)
    phases = np.exp(2j * np.pi * rng.random(length))
    out, power = [], np.eye(dim, dtype=complex)
    for t in range(length):
        out.append(phases[t] * power)
        power = v @ power
    return out


# ---------------------------------------------------------------------------
# scene encoding (the package's documented JSON form)


def enc_matrix(m) -> list:
    m = np.asarray(m, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def enc_vector(v) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(v, dtype=complex).reshape(-1)]


# ---------------------------------------------------------------------------
# digest


def digest(obj) -> str:
    """sha256 over every array and scalar reachable from obj, in order."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, np.ndarray):
            h.update(str((x.dtype.str, x.shape)).encode())
            h.update(np.ascontiguousarray(x).tobytes())
        elif isinstance(x, dict):
            for k in sorted(x):
                h.update(str(k).encode())
                feed(x[k])
        elif isinstance(x, (list, tuple)):
            try:  # plain JSON data, such as an encoded scene, in one go
                h.update(json.dumps(x).encode())
            except TypeError:
                h.update(b"[")
                for v in x:
                    feed(v)
                h.update(b"]")
        elif isinstance(x, (bytes, bytearray)):
            h.update(bytes(x))
        else:
            h.update(json.dumps(x, sort_keys=True, default=str).encode())

    feed(obj)
    return h.hexdigest()
