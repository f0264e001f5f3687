import json

import numpy as np
import pytest

import oracles as orc
from vnpair import numkernel as nk
from vnpair import scenes
from vnpair.errors import ParseError

E00 = [[1.0, 0.0], [0.0, 0.0]]
E11 = [[0.0, 0.0], [0.0, 1.0]]
SWAP = [[0.0, 1.0], [1.0, 0.0]]


def full_scene_data():
    return {
        "ambient_dim": 2,
        "tolerance": 1e-9,
        "seed": 3,
        "algebras": {"a": {"generators": [E00, E11]}},
        "unitaries": {"u": SWAP},
        "endomorphisms": {"theta": {"domain": "a", "unitary": "u"}},
        "grids": {"m": [[1.0, 1.0], [1.0, [0.0, 1.0]]]},
        "vectors": {"gamma": [1.0, 0.0]},
        "families": {"f": [[[1.0, 0.0], [0.0, 1.0]], SWAP]},
    }


def test_parse_full_scene():
    scene = scenes.parse_scene(full_scene_data())
    assert scene.ambient_dim == 2
    assert scene.tol == nk.Tolerance(1e-9)
    assert scene.algebra("a").dim == 2
    assert np.array_equal(scene.unitary("u"), np.array(SWAP, dtype=complex))
    assert scene.grid("m")[1, 1] == 1j
    assert np.array_equal(scene.vector("gamma"), np.array([1.0, 0.0]))
    assert len(scene.family("f")) == 2
    theta = scene.endomorphism("theta")
    assert np.allclose(theta(np.diag([1.0, 2.0])), np.diag([2.0, 1.0]))
    # the scene parsed carries a seed key, which is validated, then ignored
    assert full_scene_data()["seed"] == 3


def test_plain_reals_normalize_to_pairs():
    """A plain real and an [re, im] pair decode to the same complex entries."""
    scene = scenes.parse_scene(full_scene_data())
    assert scene.unitary("u")[0, 1] == 1
    assert scene.grid("m")[1, 1] == 1j


def test_unitary_entries_with_one_key_share_a_map():
    """Entries naming one (domain, unitary, direction) build one map, the
    omitted direction reading as adjoint; another direction builds another."""
    data = full_scene_data()
    data["endomorphisms"].update({"eta": {"domain": "a", "unitary": "u", "direction": "adjoint"},
                                  "zeta": {"domain": "a", "unitary": "u", "direction": "direct"}})
    scene = scenes.parse_scene(data)
    assert scene.endomorphism("theta") is scene.endomorphism("eta")
    assert scene.endomorphism("zeta") is not scene.endomorphism("theta")


def test_endomorphism_spec_forms_agree():
    """Unitary, basis-image, and generator-image forms build the same map."""
    base = full_scene_data()
    by_unitary = scenes.parse_scene(base)
    theta_u = by_unitary.endomorphism("theta")
    algebra = by_unitary.algebra("a")
    swap = np.array(SWAP, dtype=complex)

    images = [swap @ b @ swap for b in algebra.basis]
    with_images = dict(base)
    with_images["endomorphisms"] = {
        "theta": {"domain": "a",
                  "basis_images": [scenes.encode_matrix(m) for m in images]}}
    theta_b = scenes.parse_scene(with_images).endomorphism("theta")

    with_gens = dict(base)
    with_gens["endomorphisms"] = {
        "theta": {"generators": [E00, E11], "images": [E11, E00]}}
    theta_g = scenes.parse_scene(with_gens).endomorphism("theta")

    # the three forms store different orthonormal bases, so compare actions
    assert np.allclose(theta_u.coefficient_matrix, theta_b.coefficient_matrix)
    for x in (np.diag([1.0, 2.0]), np.diag([3.0, -1.0])):
        assert np.allclose(theta_u(x), theta_g(x), atol=1e-12)


def test_decode_complex_forms():
    assert scenes.decode_complex(2, "x") == 2.0 + 0.0j
    assert scenes.decode_complex(1.5, "x") == 1.5 + 0.0j
    assert scenes.decode_complex([1.0, -2.0], "x") == 1.0 - 2.0j
    for bad in ("1", [1.0], [1.0, 2.0, 3.0], None, {"re": 1}):
        with pytest.raises(ParseError):
            scenes.decode_complex(bad, "x")


@pytest.mark.parametrize("field", ["ambient_dim", "tolerance", "seed"])
@pytest.mark.parametrize("flag", [True, False])
def test_booleans_are_not_numbers(field, flag):
    """JSON true/false decode to bool, a subclass of int; they must not pass."""
    data = full_scene_data()
    data[field] = flag
    with pytest.raises(ParseError, match=f"scene.{field}"):
        scenes.parse_scene(data)


def test_boolean_matrix_entries_rejected():
    for bad in (True, [True, 0.0], [0.0, False]):
        with pytest.raises(ParseError):
            scenes.decode_complex(bad, "x")


def test_nan_tolerance_rejected():
    data = full_scene_data()
    data["tolerance"] = float("nan")
    with pytest.raises(ParseError, match="scene.tolerance"):
        scenes.parse_scene(data)


def test_decode_matrix_rejects_ragged_rows():
    with pytest.raises(ParseError):
        scenes.decode_matrix([[1.0, 2.0], [3.0]], "m")
    with pytest.raises(ParseError):
        scenes.decode_matrix([], "m")
    with pytest.raises(ParseError):
        scenes.decode_vector([], "v")


@pytest.mark.parametrize("mutate,field", [
    (lambda d: d.update(nonsense=1), "unknown key"),
    (lambda d: d.pop("ambient_dim"), "missing ambient"),
    (lambda d: d.update(ambient_dim=0), "bad ambient"),
    (lambda d: d.update(ambient_dim="two"), "ambient type"),
    (lambda d: d.update(tolerance=-1.0), "bad tolerance"),
    (lambda d: d.update(seed=-2), "bad seed"),
    (lambda d: d.update(seed=1.5), "seed type"),
    (lambda d: d.update(algebras={"a": {"generators": [[[1.0]]]}}), "shape"),
    (lambda d: d.update(algebras={"a": [E00]}), "algebra form"),
    (lambda d: d.update(unitaries={"u": [[1.0]]}), "unitary shape"),
    (lambda d: d.update(grids={"m": [[1.0, 2.0]]}), "grid square"),
    (lambda d: d.update(vectors={"gamma": [1.0]}), "vector length"),
    (lambda d: d.update(families={"f": []}), "family empty"),
    (lambda d: d.update(families={"f": [[[1.0]], SWAP]}), "family shapes"),
    (lambda d: d.update(algebras="nope"), "section type"),
])
def test_parse_errors(mutate, field):
    data = full_scene_data()
    mutate(data)
    with pytest.raises(ParseError):
        scenes.parse_scene(data)


@pytest.mark.parametrize("spec", [
    {"domain": "a"},
    {"domain": "missing", "unitary": "u"},
    {"domain": "a", "unitary": "missing"},
    {"domain": "a", "unitary": "u", "direction": "sideways"},
    {"unitary": "u"},
    "not an object",
])
def test_endomorphism_spec_errors(spec):
    data = full_scene_data()
    data["endomorphisms"] = {"theta": spec}
    with pytest.raises(ParseError):
        scenes.parse_scene(data)


@pytest.mark.parametrize("section, name, entry, key", [
    ("endomorphisms", "theta", {"domain": "a", "unitary": "u", "directon": "direct"},
     "directon"),
    ("algebras", "a", {"generators": [E00, E11], "weights": [1, 2]}, "weights"),
    ("endomorphisms", "theta", {"domain": "a", "unitary": "u", "basis_images": [E11, E00]},
     "unitary"),
    ("endomorphisms", "theta", {"domain": "a", "generators": [E00], "images": [E11]}, "domain"),
    ("endomorphisms", "theta", {"ambient_dim": 2, "generators": [E00], "images": [E11]},
     "ambient_dim"),
])
def test_an_entry_key_its_form_does_not_read_is_named(section, name, entry, key):
    """Each entry form accepts exactly the keys it reads: a misspelt key, a
    key of another form or an extra key raises ParseError naming both."""
    data = full_scene_data()
    data[section] = {name: entry}
    with pytest.raises(ParseError, match=rf"scene\.{section}\.{name}\b.*"
                                         rf"unknown keys \['{key}'\]"):
        scenes.parse_scene(data)


def test_top_level_must_be_object():
    with pytest.raises(ParseError):
        scenes.parse_scene([1, 2, 3])


def test_accessors_raise_on_missing_names():
    scene = scenes.parse_scene(full_scene_data())
    for get in (scene.algebra, scene.endomorphism, scene.unitary,
                scene.grid, scene.vector, scene.family):
        with pytest.raises(ParseError):
            get("absent")


def test_load_scene_from_file(tmp_path):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(full_scene_data()))
    scene = scenes.load_scene(str(path))
    assert scene.algebra("a").ambient_dim == 2

    with pytest.raises(ParseError):
        scenes.load_scene(str(tmp_path / "missing.json"))

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError):
        scenes.load_scene(str(bad))


def test_encoding_matches_the_elementwise_form():
    """The stacked [re, im] encoding serializes byte for byte as the
    per-entry one, NaN, infinities and signed zeros included."""
    rng = np.random.default_rng(19)
    m = rng.standard_normal((7, 5)) + 1j * rng.standard_normal((7, 5))
    m[0, :4] = [complex(np.nan, -0.0), complex(-np.inf, np.inf), complex(-0.0, 0.0),
                complex(1e-300, -1e300)]
    mats = [m, m.T, m[::2, 1:], m.real, np.zeros((0, 3)), [[1, 2], [3, 4]], np.eye(129)]
    for mat in mats:
        assert json.dumps(scenes.encode_matrix(mat)) == json.dumps(orc.elementwise_matrix(mat))
    for vec in [m[0], m, m.real[:, 0], [True, 2, 3.5], 1j, np.zeros(0)]:
        assert json.dumps(scenes.encode_vector(vec)) == json.dumps(orc.elementwise_vector(vec))


_NAN = float("nan")


@pytest.mark.parametrize("obj, uniform", [
    ([[[0.5, -1.0], [2.0, 0.0]], [[-0.0, 3.5], [1e-300, -1e300]]], True),
    ([[0.5, -1.0, 2.0], [-0.0, 3.5, 1e-300]], True),
    ([[1, 2.5], [2 ** 53 + 1, -0.0]], True),
    ([[[1, 0], [0.5, 2 ** 63]], [[-3, 7], [0, -0.0]]], True),
    ([[_NAN, 1.0], [2.0, 3.0]], True),
    ([[[1.0, _NAN]], [[_NAN, -0.0]]], True),
    ([[1.0, [0.0, 1.0]], [[2.0, 0.0], 3]], False),
    ([[1.0, 2.0], [[0.0, 1.0], [3.0, 0.0]]], False),
    ([[True, 1.0], [0.0, 1.0]], False),
    ([[[1.0, False]]], False),
    ([["1", 2.0]], False),
    ([[[1.0, "0"]]], False),
    ([[], []], False),
    ([[1.0], []], False),
    ([[[1.0, 2.0, 3.0]]], False),
    ([[[[1.0, 0.0], [0.0, 0.0]]]], False),
    ([[1.0, 2.0], [3.0]], False),
    ([[[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0]]], False),
    ([[1, 10 ** 400], [1, 1]], False),
    ([[[1, 10 ** 400]]], False),
    ([[1.0, None]], False),
    ([(1.0, 2.0)], False),
    ([], False),
    ("[[1.0]]", False),
])
def test_uniform_matrices_decode_as_the_entry_walk_does(monkeypatch, obj, uniform):
    """The one-array path takes exactly the uniform matrices, and gives the
    walk's array bit for bit; every other input gets the walk's answer."""
    assert (scenes._decode_uniform(obj) is not None) == uniform

    def decode():
        try:
            return scenes.decode_matrix(obj, "m")
        except ParseError as exc:
            return str(exc)
    fast = decode()
    monkeypatch.setattr(scenes, "_decode_uniform", lambda obj: None)
    walk = decode()
    if isinstance(walk, str):
        assert fast == walk
        return
    assert fast.dtype == walk.dtype == complex and fast.shape == walk.shape
    assert np.array_equal(fast.view(float), walk.view(float), equal_nan=True)
    assert fast.tobytes() == walk.tobytes()


@pytest.mark.parametrize("obj", [10 ** 400, [1.0, -(10 ** 400)]])
def test_a_huge_integer_entry_is_named(obj):
    with pytest.raises(ParseError, match=r"^m\[0\]\[1\]: number too large"):
        scenes.decode_matrix([[1.0, obj]], "m")
