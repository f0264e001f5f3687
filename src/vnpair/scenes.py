"""JSON scene files shared by the command line and the selftest harness.

A scene is a plain JSON object naming the inputs of one computation:
algebras (by generator matrices), endomorphisms (domain name plus basis
images, generator images, or a conjugating unitary), unitaries, multiplier
grids, vectors, and families of unitaries. Complex entries are two-element
[re, im] arrays; matrices are row-major nested arrays.

Malformed structure raises ParseError. Mathematical defects in a
well-formed scene (a generator list that does not close, a non-unitary
matrix) surface later, when the named object is built or used. Objects are
built at the tolerance that ``resolve_tolerance`` picks, the same one the
commands then use.
"""

from __future__ import annotations

import json
import os

import numpy as np

from . import algebra as alg
from . import endo as endo_mod
from . import numkernel as nk
from .errors import ParseError

_SCENE_KEYS = {"ambient_dim", "algebras", "endomorphisms", "unitaries",
               "grids", "vectors", "families", "tolerance", "seed"}


def encode_complex(z) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def encode_matrix(m) -> list:
    m = np.asarray(m, dtype=complex)
    return [[encode_complex(z) for z in row] for row in m]


def encode_vector(v) -> list:
    return [encode_complex(z) for z in np.asarray(v, dtype=complex).reshape(-1)]


def _is_number(obj) -> bool:
    # bool is a subclass of int, but true and false are not numbers here
    return isinstance(obj, (int, float)) and not isinstance(obj, bool)


def _is_int(obj) -> bool:
    return isinstance(obj, int) and not isinstance(obj, bool)


def decode_complex(obj, where: str) -> complex:
    if _is_number(obj):
        return complex(obj)
    if (isinstance(obj, list) and len(obj) == 2
            and all(_is_number(p) for p in obj)):
        return complex(obj[0], obj[1])
    raise ParseError(f"{where}: expected a number or [re, im], got {obj!r}")


def decode_vector(obj, where: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise ParseError(f"{where}: expected a non-empty array")
    return np.array([decode_complex(z, f"{where}[{i}]")
                     for i, z in enumerate(obj)])


def decode_matrix(obj, where: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise ParseError(f"{where}: expected a non-empty array of rows")
    rows = [decode_vector(row, f"{where}[{i}]") for i, row in enumerate(obj)]
    width = rows[0].shape[0]
    for i, row in enumerate(rows):
        if row.shape[0] != width:
            raise ParseError(f"{where}[{i}]: row length {row.shape[0]} differs "
                             f"from {width}")
    return np.array(rows)


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

    data holds the canonical JSON form (every entry normalized to [re, im]),
    so serializing and re-parsing gives an equal scene. tol is the resolved
    tolerance every object was built with.
    """

    def __init__(self, ambient_dim, algebras, endomorphisms, unitaries,
                 grids, vectors, families, tolerance, seed, data, tol):
        self.ambient_dim = ambient_dim
        self.algebras = algebras
        self.endomorphisms = endomorphisms
        self.unitaries = unitaries
        self.grids = grids
        self.vectors = vectors
        self.families = families
        self.tolerance = tolerance
        self.seed = seed
        self.data = data
        self.tol = tol

    def __eq__(self, other) -> bool:
        return isinstance(other, Scene) and self.data == other.data

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
                        unitaries: dict, tol: nk.Tolerance):
    """Returns the endomorphism together with its canonical JSON form."""
    if not isinstance(spec_obj, dict):
        raise ParseError(f"{where}: expected an object")
    domain_name = spec_obj.get("domain")
    if "generators" in spec_obj and "images" in spec_obj:
        gens = [decode_matrix(g, f"{where}.generators[{i}]")
                for i, g in enumerate(spec_obj["generators"])]
        imgs = [decode_matrix(g, f"{where}.images[{i}]")
                for i, g in enumerate(spec_obj["images"])]
        canonical = {"generators": [encode_matrix(g) for g in gens],
                     "images": [encode_matrix(g) for g in imgs]}
        _, theta = endo_mod.from_generator_images(ambient, gens, imgs, tol)
        return theta, canonical
    if not isinstance(domain_name, str):
        raise ParseError(f"{where}: missing domain name")
    if domain_name not in algebras:
        raise ParseError(f"{where}: domain {domain_name!r} is not a named algebra")
    domain = algebras[domain_name]
    if "basis_images" in spec_obj:
        imgs = [decode_matrix(g, f"{where}.basis_images[{i}]")
                for i, g in enumerate(spec_obj["basis_images"])]
        canonical = {"domain": domain_name,
                     "basis_images": [encode_matrix(g) for g in imgs]}
        return endo_mod.make(domain, np.array(imgs), tol), canonical
    if "unitary" in spec_obj:
        uname = spec_obj["unitary"]
        if uname not in unitaries:
            raise ParseError(f"{where}: unitary {uname!r} is not named in the scene")
        direction = spec_obj.get("direction", "adjoint")
        if direction not in ("adjoint", "direct"):
            raise ParseError(f"{where}: direction must be adjoint or direct")
        canonical = {"domain": domain_name, "unitary": str(uname),
                     "direction": direction}
        theta = endo_mod.from_unitary(domain, unitaries[uname], direction, tol)
        return theta, canonical
    raise ParseError(f"{where}: needs basis_images, generators+images, or unitary")


def parse_scene(data, tol_flag: float | None = None) -> Scene:
    """Build the named objects of a scene from its JSON form.

    tol_flag, when given, beats the scene's tolerance field (see
    ``resolve_tolerance``).
    """
    if not isinstance(data, dict):
        raise ParseError("scene: expected a JSON object at the top level")
    unknown = set(data) - _SCENE_KEYS
    if unknown:
        raise ParseError(f"scene: unknown keys {sorted(unknown)}")
    ambient = data.get("ambient_dim")
    if not _is_int(ambient) or ambient < 1:
        raise ParseError("scene.ambient_dim: expected a positive integer")
    tolerance = data.get("tolerance")
    if tolerance is not None and (not _is_number(tolerance)
                                  or not tolerance > 0):
        raise ParseError("scene.tolerance: expected a positive number")
    seed = data.get("seed")
    if seed is not None and (not _is_int(seed) or seed < 0):
        raise ParseError("scene.seed: expected a nonnegative integer")
    tol = resolve_tolerance(tol_flag, tolerance)

    def algebra_item(obj, where):
        if not isinstance(obj, dict) or "generators" not in obj:
            raise ParseError(f"{where}: expected an object with generators")
        gens = [decode_matrix(g, f"{where}.generators[{i}]")
                for i, g in enumerate(obj["generators"])]
        for i, g in enumerate(gens):
            if g.shape != (ambient, ambient):
                raise ParseError(f"{where}.generators[{i}]: shape {g.shape} "
                                 f"does not match ambient_dim {ambient}")
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
    built = _decode_named(
        data.get("endomorphisms"), "scene.endomorphisms",
        lambda obj, where: _build_endomorphism(obj, where, ambient, algebras,
                                               unitaries, tol))
    endomorphisms = {name: pair[0] for name, pair in built.items()}

    # canonical form rebuilt from the decoded objects, so every entry ends
    # up in the [re, im] encoding regardless of how the input spelled it
    canonical = {"ambient_dim": ambient}
    if tolerance is not None:
        canonical["tolerance"] = float(tolerance)
    if seed is not None:
        canonical["seed"] = seed
    for key, section, encode in (
            ("algebras", algebras,
             lambda a: {"generators": [encode_matrix(g) for g in a.generators]}),
            ("endomorphisms", built, lambda pair: pair[1]),
            ("unitaries", unitaries, encode_matrix),
            ("grids", grids, encode_matrix),
            ("vectors", vectors, encode_vector),
            ("families", families, lambda mats: [encode_matrix(m) for m in mats])):
        if section:
            canonical[key] = {name: encode(v) for name, v in sorted(section.items())}
    return Scene(ambient, algebras, endomorphisms, unitaries, grids, vectors,
                 families, tolerance, seed, canonical, tol)


def load_scene(path: str, tol_flag: float | None = None) -> Scene:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read scene file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"scene file {path} is not valid JSON: {exc}") from exc
    return parse_scene(data, tol_flag)
