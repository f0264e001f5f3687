"""Independent output checks, written with numpy only.

Every expected value comes from the construction in gen.py (the frame, the
block signature, the implementing unitary), never from vnpair itself.
"""

from __future__ import annotations

import numpy as np

from harness import check

#: residual bound per unit of operand norm; the package default tolerance
EPS = 1e-9


def bound(*norms: float) -> float:
    return EPS * max(1.0, *norms)


def fro(x) -> float:
    return float(np.linalg.norm(x))


def unitary(u, n: int, what: str) -> None:
    u = np.asarray(u)
    check(u.shape == (n, n), f"{what}: shape {u.shape}, expected {(n, n)}")
    res = fro(u.conj().T @ u - np.eye(n))
    check(res <= bound(np.sqrt(n)), f"{what}: not unitary, residual {res:.3e}")


def isometry(v, rows: int, cols: int, what: str) -> None:
    v = np.asarray(v)
    check(v.shape == (rows, cols), f"{what}: shape {v.shape}, expected {(rows, cols)}")
    res = fro(v.conj().T @ v - np.eye(cols))
    check(res <= bound(np.sqrt(cols)), f"{what}: not an isometry, residual {res:.3e}")


def implements(v, u, mats, direction: str, what: str) -> None:
    """v conjugates every matrix like u does: v* x v = u* x u ("adjoint")
    or v x v* = u x u* ("direct")."""
    if direction == "adjoint":
        lhs, rhs = v.conj().T @ mats @ v, u.conj().T @ mats @ u
    else:
        lhs, rhs = v @ mats @ v.conj().T, u @ mats @ u.conj().T
    res = fro(lhs - rhs)
    check(res <= bound(fro(mats)), f"{what}: residual {res:.3e}")


def commute(xs, gens, what: str) -> None:
    """Every x commutes with every generator."""
    xs = np.asarray(xs)
    if xs.size == 0:
        return
    xg = xs[:, None] @ gens[None, :]
    gx = gens[None, :] @ xs[:, None]
    res = fro(xg - gx)
    check(res <= bound(fro(xs), fro(gens)), f"{what}: commutator residual {res:.3e}")


def orthonormal(basis, what: str) -> None:
    flat = np.asarray(basis).reshape(len(basis), -1)
    res = fro(flat @ flat.conj().T - np.eye(flat.shape[0]))
    check(res <= bound(np.sqrt(flat.shape[0])), f"{what}: not orthonormal, residual {res:.3e}")


def inside_span(xs, basis, what: str) -> None:
    """Every x lies in the span of the orthonormal basis."""
    flat = np.asarray(xs).reshape(len(xs), -1)
    ref = np.asarray(basis).reshape(len(basis), -1)
    res = fro(flat - (flat @ ref.conj().T) @ ref)
    check(res <= bound(fro(flat)), f"{what}: leaves the expected span, residual {res:.3e}")


def unit_span(projections) -> np.ndarray:
    """Orthonormal basis of the span of mutually orthogonal projections."""
    p = np.asarray(projections)
    ranks = np.einsum("bii->b", p).real
    return p / np.sqrt(ranks)[:, None, None]


def splits(grid, f, what: str) -> None:
    """m(s, t) f(s + t) = f(s) f(t) wherever s + t <= N."""
    grid = np.asarray(grid)
    f = np.asarray(f)
    n = grid.shape[0] - 1
    check(f.shape == (n + 1,), f"{what}: {f.shape[0]} scalars for horizon {n}")
    idx = np.arange(n + 1)
    sums = np.add.outer(idx, idx)
    lhs = grid * f[np.minimum(sums, n)]
    worst = float(np.where(sums <= n, np.abs(lhs - np.multiply.outer(f, f)), 0.0).max())
    check(worst <= 1e-9, f"{what}: splitting residual {worst:.3e}")


def decode_matrix(obj) -> np.ndarray:
    """Matrix from the [re, im] JSON encoding."""
    a = np.asarray(obj, dtype=float)
    return a[..., 0] + 1j * a[..., 1]
