import contextlib
import io
import json

import numpy as np
import pytest

from vnpair import algebra as alg
from vnpair import cli
from vnpair import numkernel as nk
from vnpair import pairing
from vnpair import scenes
from vnpair import selftest
from vnpair.errors import InvalidAlgebra, ParseError

EXPECTED_ORDER = [
    "algebra-bicommutant",
    "correspondence-double-commutant",
    "tensor-commutant-order",
    "pairing-round-trip",
    "masa-unpairable",
    "multiplier-trivialize",
    "pairing-power-family",
    "dilation-commutant",
    "cocycle-link",
    "compression-system",
    "restriction-symmetry",
    "multiplier-group",
]


def test_property_catalog_names_and_scales():
    assert [p.name for p in selftest.PROPERTIES] == EXPECTED_ORDER
    scales = {p.name: p.cases for p in selftest.PROPERTIES}
    assert scales["algebra-bicommutant"] == 200
    assert scales["restriction-symmetry"] == 200
    assert scales["masa-unpairable"] == 1
    assert scales["multiplier-group"] == 1


def test_capped_run_is_green():
    log = io.StringIO()
    results = selftest.run_all(seed=0, cap=2, log=log)
    assert len(results) == len(selftest.PROPERTIES)
    assert all(r.ok for r in results)
    assert all(r.cases <= 2 for r in results)
    lines = log.getvalue().strip().splitlines()
    assert len(lines) == len(results)
    assert all(line.endswith("ok") for line in lines)


def test_runs_are_deterministic():
    first = selftest.run_all(seed=7, cap=1)
    second = selftest.run_all(seed=7, cap=1)
    assert [r.worst for r in first] == [r.worst for r in second]
    assert [r.ok for r in first] == [r.ok for r in second]


def test_cap_zero_runs_nothing():
    results = selftest.run_all(seed=0, cap=0)
    assert all(r.cases == 0 for r in results)
    assert all(r.ok for r in results)
    assert all(r.worst == 0.0 for r in results)


def test_result_line_and_payload():
    prop = selftest.PROPERTIES[0]
    result = selftest.run_property(prop, 0, seed=0, count=2, tol=nk.DEFAULT_TOL)
    assert result.ok
    line = result.line()
    assert line.startswith("algebra-bicommutant:")
    assert "worst residual" in line and line.endswith("ok")
    payload = result.as_payload()
    assert payload["name"] == "algebra-bicommutant"
    assert payload["cases"] == 2
    assert "failure" not in payload


def test_threshold_breach_is_reported_with_recipe():
    def build(rng, tol, case_index, salt):
        scene = {"case": case_index}
        return scene, lambda: 1.0 if case_index == 1 else 0.0

    prop = selftest.Property("synthetic", 5, 0.5, build)
    result = selftest.run_property(prop, 3, seed=9, count=5, tol=nk.DEFAULT_TOL)
    assert not result.ok
    assert result.cases == 2  # stopped at the first breach
    assert result.failure == {"property": "synthetic", "case": 1, "seed": 9,
                              "residual": 1.0, "instance": {"case": 1}}
    assert result.line().endswith("FAIL")
    assert "failure" in result.as_payload()


def test_library_errors_become_failures():
    def build(rng, tol, case_index, salt):
        def measure():
            raise InvalidAlgebra("synthetic breakage")
        return {"case": case_index}, measure

    prop = selftest.Property("synthetic", 3, 1e-8, build)
    result = selftest.run_property(prop, 0, seed=0, count=3, tol=nk.DEFAULT_TOL)
    assert not result.ok
    assert result.worst == float("inf")
    assert "InvalidAlgebra" in result.failure["error"]


def test_replay_reruns_the_recorded_case():
    out = selftest.replay({"property": "algebra-bicommutant",
                           "case": 2, "seed": 0})
    assert out["ok"]
    assert out["residual"] <= 1e-8
    with pytest.raises(ParseError):
        selftest.replay({"property": "no-such-property", "case": 0, "seed": 0})


def _nan_property():
    def build(rng, tol, case_index, salt):
        return {"case": case_index}, lambda: float("nan") if case_index == 1 else 0.0

    return selftest.Property("nan-measure", 3, 1e-8, build)


def test_nan_residual_is_a_failure():
    result = selftest.run_property(_nan_property(), 0, 0, 3, nk.DEFAULT_TOL)
    assert not result.ok
    assert result.cases == 2
    assert np.isnan(result.worst)
    assert result.failure["case"] == 1 and np.isnan(result.failure["residual"])
    assert result.line().endswith("FAIL")


def test_replay_of_a_nan_case_is_not_ok(monkeypatch):
    monkeypatch.setattr(selftest, "PROPERTIES", [_nan_property()])
    out = selftest.replay({"property": "nan-measure", "case": 1, "seed": 0})
    assert np.isnan(out["residual"]) and out["ok"] is False
    assert selftest.replay({"property": "nan-measure", "case": 0, "seed": 0})["ok"]


def test_haar_unitary_is_unitary():
    rng = np.random.default_rng(0)
    u = nk.random_unitary(5, rng)
    assert np.linalg.norm(u.conj().T @ u - np.eye(5)) < 1e-12


@pytest.mark.parametrize("seed", range(6))
def test_sample_algebra_respects_caps(seed):
    rng = np.random.default_rng(seed)
    sample = selftest.sample_algebra(rng, max_ambient=8, max_dim=10,
                                     max_codim=10)
    assert sample.ambient_dim == sum(a * m for a, m in sample.blocks)
    assert sample.ambient_dim <= 8
    assert sample.algebra.dim == sum(a * a for a, m in sample.blocks)
    assert sample.algebra.dim <= 10
    assert sum(m * m for _, m in sample.blocks) <= 10


@pytest.mark.parametrize("seed", range(4))
def test_normalizing_unitary_normalizes(seed):
    rng = np.random.default_rng(seed)
    sample = selftest.sample_algebra(rng, max_ambient=6)
    u = selftest.normalizing_unitary(sample, rng)
    n = sample.ambient_dim
    assert np.linalg.norm(u.conj().T @ u - np.eye(n)) < 1e-12
    assert pairing.restriction_symmetry(u, sample.algebra) == (True, True)


def test_random_correspondence_has_prescribed_carrier():
    rng = np.random.default_rng(3)
    sa = selftest.sample_algebra(rng, 6, max_dim=10)
    sb = selftest.sample_algebra(rng, 6, max_dim=10)
    mults = selftest.random_joint_multiplicities(rng, sa, sb, 10)
    e = selftest.random_correspondence(sa, sb, rng, mults=mults)
    expected = sum(int(mults[i, j]) * a * nj
                   for i, (a, _) in enumerate(sa.blocks)
                   for j, (_, nj) in enumerate(sb.blocks))
    assert e.carrier_dim == expected
    e.validate()


ALGEBRA_PROPERTIES = ["algebra-bicommutant", "pairing-round-trip", "masa-unpairable",
                      "pairing-power-family", "dilation-commutant", "cocycle-link",
                      "restriction-symmetry"]


def _instance(name, case=0, seed=0):
    """The serialized instance of one case, as a failure report would carry it."""
    index = EXPECTED_ORDER.index(name)
    prop = selftest.PROPERTIES[index]
    scene, _ = prop.build(np.random.default_rng([seed, index, case]), nk.DEFAULT_TOL,
                          case, seed)
    return scene


def _replay_cli(command, scene, tmp_path):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(scene))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([command, "--input", str(path)])
    return code, json.loads(out.getvalue())


@pytest.mark.parametrize("name", ALGEBRA_PROPERTIES)
def test_algebra_instances_are_scenes(name):
    scene = scenes.parse_scene(_instance(name))
    assert scene.algebra("a").ambient_dim == scene.ambient_dim


def test_pairing_instance_replays_through_the_cli(tmp_path):
    code, report = _replay_cli("pair", _instance("pairing-round-trip"), tmp_path)
    assert code == 0
    assert report["payload"]["outcome"] == "Paired"


def test_masa_instance_replays_as_not_paired(tmp_path):
    code, report = _replay_cli("pair", _instance("masa-unpairable"), tmp_path)
    assert code == 0
    assert report["payload"]["outcome"] == "NotPaired"
    assert report["payload"]["table_left"]["counts"] != \
        report["payload"]["table_right"]["counts"]


def test_bicommutant_instance_recovers_its_blocks(tmp_path):
    """The instance no longer spells out its blocks; algebra-blocks finds them."""
    sample = selftest.sample_algebra(np.random.default_rng([0, 0, 0]), max_ambient=12)
    code, report = _replay_cli("algebra-blocks", _instance("algebra-bicommutant"), tmp_path)
    assert code == 0
    assert report["payload"]["blocks"] == [list(b) for b in sorted(sample.blocks, reverse=True)]


@pytest.mark.parametrize("name, command", [("dilation-commutant", "dilation-commutant"),
                                           ("cocycle-link", "cocycle-link"),
                                           ("restriction-symmetry", "symmetry-check")])
def test_instances_replay_their_command(name, command, tmp_path):
    code, report = _replay_cli(command, _instance(name), tmp_path)
    assert code == 0 and report["status"] == "ok"


@pytest.mark.parametrize("seed", range(9))
def test_tensor_commutant_order_passes_at_every_seed(seed):
    """f's grid starts in a middle block that e reaches, so e (x) f is never
    the zero correspondence; seeds 1-4 and 6 used to draw disjoint grids
    and fail with EmptyTensorProduct."""
    index = EXPECTED_ORDER.index("tensor-commutant-order")
    prop = selftest.PROPERTIES[index]
    result = selftest.run_property(prop, index, seed, prop.cases, nk.DEFAULT_TOL)
    assert result.ok, result.failure
    assert result.cases == prop.cases

