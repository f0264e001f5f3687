"""JSON scene files shared by the command line and the selftest harness.

A scene is a plain JSON object naming the inputs of one computation:
algebras (by generator matrices), endomorphisms (domain name plus basis
images, generator images, or a conjugating unitary), unitaries, multiplier
grids, vectors, and families of unitaries. Complex entries are two-element
[re, im] arrays; matrices are row-major nested arrays.

Malformed structure raises ParseError. Mathematical defects in a well-formed
scene (a generator list that does not close, a non-unitary matrix) surface
later, when the named object is built or used: a map's homomorphism laws,
once, in the library call that reads it. Objects are built at the tolerance
that ``resolve_tolerance`` picks, the same one the commands then use.
"""

from __future__ import annotations

import json
import os
from itertools import chain
from typing import TYPE_CHECKING

import numpy as np

from . import numkernel as nk
from .errors import ParseError

if TYPE_CHECKING:  # imported where the objects are built: a grid needs neither
    from . import algebra as alg, endo as endo_mod

_SCENE_KEYS = {"ambient_dim", "algebras", "endomorphisms", "unitaries",
               "grids", "vectors", "families", "tolerance", "seed"}
# each endomorphism form, found by the keys that mark it, with the keys it reads
_ENDO_FORMS = (({"generators", "images"}, {"generators", "images"}),
               ({"basis_images"}, {"domain", "basis_images"}),
               ({"unitary"}, {"domain", "unitary", "direction"}))


def encode_matrix(m) -> list:
    """Nested [re, im] lists; a stack of matrices gives the list of their encodings."""
    m = np.asarray(m, dtype=complex)
    return np.stack((m.real, m.imag), axis=-1).tolist()


def encode_vector(v) -> list:
    v = np.asarray(v, dtype=complex).reshape(-1)
    return np.stack((v.real, v.imag), axis=-1).tolist()


def _is_number(obj) -> bool:
    # bool is a subclass of int, but true and false are not numbers here
    return isinstance(obj, (int, float)) and not isinstance(obj, bool)


def _is_int(obj) -> bool:
    return isinstance(obj, int) and not isinstance(obj, bool)


def decode_complex(obj, where: str) -> complex:
    parts = obj if isinstance(obj, list) and len(obj) == 2 else [obj, 0.0]
    if not all(map(_is_number, parts)):
        raise ParseError(f"{where}: expected a number or [re, im], got {obj!r}")
    try:
        return complex(*parts)
    except OverflowError:
        raise ParseError(f"{where}: number too large for a float") from None


def decode_vector(obj, where: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise ParseError(f"{where}: expected a non-empty array")
    return np.array([decode_complex(z, f"{where}[{i}]")
                     for i, z in enumerate(obj)])


def _decode_uniform(obj):
    """One np.array over a matrix whose non-empty rows of equal length hold
    only [re, im] pairs or only plain numbers; None for any other input."""
    if not (type(obj) is list and obj and all(type(row) is list for row in obj)
            and obj[0] and all(len(row) == len(obj[0]) for row in obj)):
        return None
    entries = list(chain.from_iterable(obj))
    kinds = set(map(type, entries))
    if kinds == {list} and all(len(z) == 2 for z in entries):
        kinds = set(map(type, chain.from_iterable(entries)))
    if not kinds <= {float, int}:  # bool and str are types of their own
        return None
    try:
        parts = np.array(obj, dtype=float)
    except OverflowError:
        return None
    return parts.astype(complex) if parts.ndim == 2 else parts.view(complex)[..., 0]


def decode_matrix(obj, where: str) -> np.ndarray:
    if (fast := _decode_uniform(obj)) is not None:
        return fast
    if not isinstance(obj, list) or not obj:
        raise ParseError(f"{where}: expected a non-empty array of rows")
    rows = [decode_vector(row, f"{where}[{i}]") for i, row in enumerate(obj)]
    width = rows[0].shape[0]
    for i, row in enumerate(rows):
        if row.shape[0] != width:
            raise ParseError(f"{where}[{i}]: row length {row.shape[0]} differs "
                             f"from {width}")
    return np.array(rows)


def _ambient_matrices(objs, where: str, ambient: int) -> list:
    """The decoded matrices of objs, each of shape (ambient, ambient), else ParseError."""
    mats = [decode_matrix(m, f"{where}[{i}]") for i, m in enumerate(objs)]
    for i, m in enumerate(mats):
        if m.shape != (ambient, ambient):
            raise ParseError(f"{where}[{i}]: shape {m.shape} does not match ambient_dim {ambient}")
    return mats


def _only_keys(obj: dict, keys: set, where: str) -> None:
    """ParseError naming the keys of obj outside keys, the keys its form reads."""
    if unknown := set(obj) - keys:
        raise ParseError(f"{where}: unknown keys {sorted(unknown)}")


def _decode_named(section, where: str, item_fn) -> dict:
    if section is None:
        return {}
    if not isinstance(section, dict):
        raise ParseError(f"{where}: expected an object of named entries")
    out = {}
    for name, obj in section.items():
        out[str(name)] = item_fn(obj, f"{where}.{name}")
    return out


def resolve_tolerance(flag, scene_value) -> nk.Tolerance:
    """The tolerance policy: the flag, else the scene's tolerance field,
    else the VNPAIR_TOL environment variable, else the default."""
    if flag is not None:
        eps = flag
    elif scene_value is not None:
        eps = scene_value
    elif os.environ.get("VNPAIR_TOL"):
        raw = os.environ["VNPAIR_TOL"]
        try:
            eps = float(raw)
        except ValueError:
            raise ParseError(f"VNPAIR_TOL is not a number: {raw!r}")
    else:
        return nk.DEFAULT_TOL
    if not 0.0 < eps < 1.0:
        raise ParseError(
            f"tolerance must lie strictly between 0 and 1, got {eps}")
    return nk.Tolerance(eps=eps)


class Scene:
    """Parsed scene: named objects ready for the command handlers.

    tol is the resolved tolerance every object was built with.
    """

    def __init__(self, ambient_dim, algebras, endomorphisms, unitaries,
                 grids, vectors, families, tol):
        self.ambient_dim = ambient_dim
        self.algebras = algebras
        self.endomorphisms = endomorphisms
        self.unitaries = unitaries
        self.grids = grids
        self.vectors = vectors
        self.families = families
        self.tol = tol

    def _entry(self, section: dict, kind: str, name: str):
        if name not in section:
            raise ParseError(f"scene has no {kind} named {name!r}")
        return section[name]

    def algebra(self, name: str) -> alg.VnAlgebra:
        return self._entry(self.algebras, "algebra", name)

    def endomorphism(self, name: str) -> endo_mod.Endomorphism:
        return self._entry(self.endomorphisms, "endomorphism", name)

    def unitary(self, name: str) -> np.ndarray:
        return self._entry(self.unitaries, "unitary", name)

    def grid(self, name: str) -> np.ndarray:
        return self._entry(self.grids, "grid", name)

    def vector(self, name: str) -> np.ndarray:
        return self._entry(self.vectors, "vector", name)

    def family(self, name: str) -> list[np.ndarray]:
        return self._entry(self.families, "family", name)


def _build_endomorphism(spec_obj, where: str, ambient: int, algebras: dict,
                        unitaries: dict, tol: nk.Tolerance, built: dict):
    from . import endo as endo_mod
    if not isinstance(spec_obj, dict):
        raise ParseError(f"{where}: expected an object")
    for marks, keys in _ENDO_FORMS:
        if marks <= spec_obj.keys():
            _only_keys(spec_obj, keys, f"{where} ({', '.join(sorted(keys))})")
            break
    domain_name = spec_obj.get("domain")
    if "generators" in spec_obj and "images" in spec_obj:
        gens = [decode_matrix(g, f"{where}.generators[{i}]")
                for i, g in enumerate(spec_obj["generators"])]
        imgs = [decode_matrix(g, f"{where}.images[{i}]")
                for i, g in enumerate(spec_obj["images"])]
        _, theta = endo_mod.from_generator_images(ambient, gens, imgs, tol)
        return theta
    if not isinstance(domain_name, str):
        raise ParseError(f"{where}: missing domain name")
    if domain_name not in algebras:
        raise ParseError(f"{where}: domain {domain_name!r} is not a named algebra")
    domain = algebras[domain_name]
    if "basis_images" in spec_obj:
        imgs = _ambient_matrices(spec_obj["basis_images"], f"{where}.basis_images", ambient)
        return endo_mod.Endomorphism(domain, np.array(imgs))
    if "unitary" in spec_obj:
        uname = spec_obj["unitary"]
        if uname not in unitaries:
            raise ParseError(f"{where}: unitary {uname!r} is not named in the scene")
        direction = spec_obj.get("direction", "adjoint")
        if direction not in ("adjoint", "direct"):
            raise ParseError(f"{where}: direction must be adjoint or direct")
        if (key := (domain_name, uname, direction)) not in built:
            built[key] = endo_mod.from_unitary(domain, unitaries[uname], direction, tol)
        return built[key]
    raise ParseError(f"{where}: needs basis_images, generators+images, or unitary")


def parse_scene(data, tol_flag: float | None = None) -> Scene:
    """Build the named objects of a scene from its JSON form.

    tol_flag, when given, beats the scene's tolerance field (see
    ``resolve_tolerance``).
    """
    if not isinstance(data, dict):
        raise ParseError("scene: expected a JSON object at the top level")
    _only_keys(data, _SCENE_KEYS, "scene")
    ambient = data.get("ambient_dim")
    if not _is_int(ambient) or ambient < 1:
        raise ParseError("scene.ambient_dim: expected a positive integer")
    tolerance = data.get("tolerance")
    if tolerance is not None and (not _is_number(tolerance)
                                  or not tolerance > 0):
        raise ParseError("scene.tolerance: expected a positive number")
    seed = data.get("seed")  # validated, then ignored
    if seed is not None and (not _is_int(seed) or seed < 0):
        raise ParseError("scene.seed: expected a nonnegative integer")
    tol = resolve_tolerance(tol_flag, tolerance)

    def algebra_item(obj, where):
        if not isinstance(obj, dict) or "generators" not in obj:
            raise ParseError(f"{where}: expected an object with generators")
        _only_keys(obj, {"generators"}, where)
        gens = _ambient_matrices(obj["generators"], f"{where}.generators", ambient)
        from . import algebra as alg
        return alg.from_generators(ambient, gens, tol)

    def unitary_item(obj, where):
        u = decode_matrix(obj, where)
        if u.shape != (ambient, ambient):
            raise ParseError(f"{where}: shape {u.shape} does not match "
                             f"ambient_dim {ambient}")
        return u

    def grid_item(obj, where):
        g = decode_matrix(obj, where)
        if g.shape[0] != g.shape[1]:
            raise ParseError(f"{where}: multiplier grid must be square, "
                             f"got {g.shape}")
        return g

    def vector_item(obj, where):
        v = decode_vector(obj, where)
        if v.shape[0] != ambient:
            raise ParseError(f"{where}: length {v.shape[0]} does not match "
                             f"ambient_dim {ambient}")
        return v

    def family_item(obj, where):
        if not isinstance(obj, list) or not obj:
            raise ParseError(f"{where}: expected a non-empty array of matrices")
        mats = [decode_matrix(m, f"{where}[{i}]") for i, m in enumerate(obj)]
        dim = mats[0].shape[0]
        for i, m in enumerate(mats):
            if m.shape != (dim, dim):
                raise ParseError(f"{where}[{i}]: shape {m.shape} differs from "
                                 f"({dim}, {dim})")
        return mats

    algebras = _decode_named(data.get("algebras"), "scene.algebras", algebra_item)
    unitaries = _decode_named(data.get("unitaries"), "scene.unitaries", unitary_item)
    grids = _decode_named(data.get("grids"), "scene.grids", grid_item)
    vectors = _decode_named(data.get("vectors"), "scene.vectors", vector_item)
    families = _decode_named(data.get("families"), "scene.families", family_item)
    built = {}  # unitary-form maps by (domain, unitary, direction)
    endomorphisms = _decode_named(
        data.get("endomorphisms"), "scene.endomorphisms",
        lambda obj, where: _build_endomorphism(obj, where, ambient, algebras,
                                               unitaries, tol, built))
    return Scene(ambient, algebras, endomorphisms, unitaries, grids, vectors,
                 families, tol)


def load_scene(path: str, tol_flag: float | None = None) -> Scene:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read scene file {path}: {exc}") from exc
    except ValueError as exc:  # bad JSON, bad UTF-8, an int of too many digits
        raise ParseError(f"scene file {path} is not valid JSON: {exc}") from exc
    return parse_scene(data, tol_flag)
