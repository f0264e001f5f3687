"""Numerical toolkit for pairing endomorphism semigroups of matrix algebras.

Finite-dimensional von Neumann algebras and their commutants, commuting
pairs of representations with interior tensor products, discrete product
systems with their dilations, unimodular two-cocycles on a grid, and the
pairing calculus that links an endomorphism of an algebra with one of its
commutant through a single unitary.

Submodules load on first use, so a program pays only for those it reaches.
"""

import importlib

from .numkernel import DEFAULT_TOL, Tolerance

_SUBMODULES = ("algebra", "correspondence", "endo", "errors", "multiplier",
               "numkernel", "pairing", "prodsys", "scenes", "selftest")

__all__ = [*_SUBMODULES, "DEFAULT_TOL", "Tolerance"]

__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
