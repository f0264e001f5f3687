import contextlib
import io
import json
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from vnpair import algebra as alg
from vnpair import cli
from vnpair import multiplier as mult
from vnpair import numkernel as nk
from vnpair import scenes
from vnpair import selftest as st


def run_cli(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(args)
    return code, out.getvalue(), err.getvalue()


def run_json(args, expect_code=0):
    code, out, err = run_cli(args)
    assert code == expect_code, err
    return json.loads(out), err


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("VNPAIR_TOL", raising=False)


def enc(m):
    return scenes.encode_matrix(m)


@pytest.fixture(scope="session")
def scene_dir(tmp_path_factory):
    """One scene file per shape of input the commands consume."""
    root = tmp_path_factory.mktemp("scenes")

    def dump(name, scene):
        path = root / f"{name}.json"
        path.write_text(json.dumps(scene))
        return path

    swap = np.array([[0, 1], [1, 0]], dtype=complex)
    d2_gens = [np.diag([1.0, 0.0]).astype(complex),
               np.diag([0.0, 1.0]).astype(complex)]
    dump("d2", {
        "ambient_dim": 2,
        "algebras": {"a": {"generators": [enc(g) for g in d2_gens]},
                     "b": {"generators": [enc(g) for g in d2_gens]}},
        "unitaries": {"u": enc(swap), "v": enc(np.eye(2, dtype=complex))},
        "endomorphisms": {
            "theta": {"domain": "a", "unitary": "u", "direction": "adjoint"},
            "theta_prime": {"domain": "b", "unitary": "v",
                            "direction": "direct"},
            "eta": {"domain": "a", "unitary": "v", "direction": "adjoint"},
        },
    })

    # two-block algebra on a 4-dim ambient space with a normalizing unitary
    rng = np.random.default_rng(7)
    sample = st.sample_algebra(rng, max_ambient=4)
    while sum(a * m for a, m in sample.blocks) != 4 or len(sample.blocks) < 2:
        sample = st.sample_algebra(rng, max_ambient=4)
    u = st.normalizing_unitary(sample, rng)
    b = sample.algebra
    bp = alg.commutant(b)
    dump("paired", {
        "ambient_dim": 4,
        "seed": 3,
        "algebras": {"a": {"generators": [enc(g) for g in b.generators]},
                     "b_comm": {"generators": [enc(g) for g in bp.generators]}},
        "unitaries": {"u": enc(u)},
        "endomorphisms": {
            "theta": {"domain": "a", "unitary": "u", "direction": "adjoint"},
            "theta_prime": {"domain": "b_comm", "unitary": "u",
                            "direction": "direct"},
            "eta": {"domain": "a", "unitary": "u", "direction": "adjoint"},
        },
    })

    # theta2 differs from theta1 by conjugation with a unitary inside b
    c = st.unitary_inside(b, rng)
    dump("linked", {
        "ambient_dim": 4,
        "algebras": {"a": {"generators": [enc(g) for g in b.generators]},
                     "b_comm": {"generators": [enc(g) for g in bp.generators]}},
        "unitaries": {"u1": enc(u), "u2": enc(u @ c.conj().T)},
        "endomorphisms": {
            "theta1": {"domain": "a", "unitary": "u1", "direction": "adjoint"},
            "theta2": {"domain": "a", "unitary": "u2", "direction": "adjoint"},
            "theta_prime": {"domain": "b_comm", "unitary": "u1",
                            "direction": "direct"},
        },
    })

    full = alg.full_matrix_algebra(3)
    w = nk.random_unitary(3, rng)
    gamma = rng.normal(size=3) + 1j * rng.normal(size=3)
    gamma = gamma / np.linalg.norm(gamma)
    dump("bhat", {
        "ambient_dim": 3,
        "algebras": {"full": {"generators": [enc(g) for g in full.generators]}},
        "unitaries": {"u": enc(w)},
        "vectors": {"gamma": scenes.encode_vector(gamma)},
        "endomorphisms": {
            "theta": {"domain": "full", "unitary": "u",
                      "direction": "adjoint"},
        },
    })

    idx = np.arange(9)
    grid = np.exp(1j * np.outer(idx, idx) / 9.0)
    dump("mult", {"ambient_dim": 2, "grids": {"m": enc(grid)}})

    bad = grid.copy()
    bad[1, 1] *= np.exp(5e-3j)  # breaks the cocycle identity at ~5e-3
    dump("multbad", {"ambient_dim": 2, "grids": {"m": enc(bad)}})
    dump("multbad_scene_tol", {"ambient_dim": 2, "tolerance": 1e-9,
                               "grids": {"m": enc(bad)}})

    phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=17))
    fam = mult.family_from_phases(phases, nk.random_unitary(2, rng))
    dump("family", {"ambient_dim": 2,
                    "families": {"u": [enc(m) for m in fam.maps]}})

    dump("broken", {
        "ambient_dim": 2,
        "algebras": {"a": {"generators": [enc(g) for g in d2_gens]}},
        "unitaries": {"u": enc(np.array([[1, 1], [0, 1]], dtype=complex))},
    })
    dump("badkeys", {"ambient_dim": 2, "nonsense": 1})
    dump("bool_ambient", {"ambient_dim": True, "grids": {"m": enc(grid)}})
    dump("bool_tol", {"ambient_dim": 2, "tolerance": True,
                      "grids": {"m": enc(grid)}})
    nan_grid = scenes.encode_matrix(grid)
    nan_grid[2][3] = [float("nan"), 0.0]
    dump("multnan", {"ambient_dim": 2, "grids": {"m": nan_grid}})
    (root / "notjson.json").write_text("{this is not json")
    return root


def path(scene_dir, name):
    return str(scene_dir / f"{name}.json")


def test_report_shape_and_stderr_line(scene_dir):
    code, out, err = run_cli(["algebra-commutant", "--input",
                              path(scene_dir, "d2")])
    assert code == 0
    report = json.loads(out)
    assert set(report) == {"command", "status", "payload", "diagnostics",
                           "timing"}
    assert report["command"] == "algebra-commutant"
    assert report["status"] == "ok"
    assert report["timing"] >= 0.0
    assert "algebra-commutant: ok (dim 2)" in err


def test_algebra_commutant_payload(scene_dir):
    report, _ = run_json(["algebra-commutant", "--input",
                          path(scene_dir, "d2")])
    assert report["payload"]["dim"] == 2
    assert len(report["payload"]["basis"]) == 2
    assert report["diagnostics"]["bicommutant_distance"] < 1e-10


def test_algebra_blocks(scene_dir):
    report, _ = run_json(["algebra-blocks", "--input", path(scene_dir, "d2")])
    assert report["payload"]["blocks"] == [[1, 1], [1, 1]]
    assert len(report["payload"]["central_projections"]) == 2


def test_endo_validate(scene_dir):
    report, _ = run_json(["endo-validate", "--input", path(scene_dir, "d2")])
    assert report["payload"]["faithful"] is True
    assert report["payload"]["automorphism"] is True


def test_corr_of_endo(scene_dir):
    report, _ = run_json(["corr-of-endo", "--input", path(scene_dir, "d2")])
    assert report["payload"]["carrier_dim"] == 2
    assert report["payload"]["element_dim"] == 2


def test_corr_intertwiners(scene_dir):
    report, _ = run_json(["corr-intertwiners", "--input",
                          path(scene_dir, "d2")])
    # x diag(a,b) = diag(b,a) x forces zero diagonal, two free corners
    assert report["payload"]["element_dim"] == 2


def test_corr_commutant(scene_dir):
    report, _ = run_json(["corr-commutant", "--input", path(scene_dir, "d2")])
    assert report["payload"]["carrier_dim"] == 2
    assert max(report["diagnostics"].values()) < 1e-8


def test_corr_tensor(scene_dir):
    report, _ = run_json(["corr-tensor", "--input", path(scene_dir, "d2")])
    assert report["payload"]["carrier_dim"] == 2
    assert "phi" in report["payload"]


def test_corr_iso_negative(scene_dir):
    report, _ = run_json(["corr-iso", "--input", path(scene_dir, "d2")])
    payload = report["payload"]
    assert payload["isomorphic"] is False
    assert "unitary" not in payload
    tables = {tuple(map(tuple, payload[k]["counts"]))
              for k in ("table_left", "table_right")}
    assert tables == {((1, 0), (0, 1)), ((0, 1), (1, 0))}


def test_corr_iso_positive(scene_dir):
    report, _ = run_json(["corr-iso", "--input", path(scene_dir, "paired")])
    assert report["payload"]["isomorphic"] is True
    assert "unitary" in report["payload"]


def test_prodsys_build(scene_dir):
    report, _ = run_json(["prodsys-build", "--input", path(scene_dir, "d2")])
    payload = report["payload"]
    assert payload["horizon"] == 4
    assert payload["carriers"] == [2, 2, 2, 2, 2]
    assert "1,1" in payload["products"]


def test_prodsys_commutant(scene_dir):
    report, _ = run_json(["prodsys-commutant", "--input",
                          path(scene_dir, "d2"), "--horizon", "3"])
    assert report["payload"]["horizon"] == 3
    assert report["diagnostics"]["order_reversal"] < 1e-8


def test_bhat(scene_dir):
    report, _ = run_json(["bhat", "--input", path(scene_dir, "bhat")])
    payload = report["payload"]
    assert payload["dims"] == [1, 1, 1, 1, 1]
    assert len(payload["dilations"]) == 5


def test_dilation_commutant(scene_dir):
    report, _ = run_json(["dilation-commutant", "--input",
                          path(scene_dir, "paired"), "--horizon", "3"])
    payload = report["payload"]
    assert payload["carriers"] == [4, 4, 4, 4]
    assert "xi" in payload
    assert set(payload["nu"]) == {"0", "1", "2", "3"}
    assert max(report["diagnostics"].values()) < 1e-8


def test_mult_check(scene_dir):
    report, _ = run_json(["mult-check", "--input", path(scene_dir, "mult")])
    assert report["payload"]["horizon"] == 8
    assert max(report["diagnostics"].values()) < 1e-12


def test_mult_trivialize(scene_dir):
    report, _ = run_json(["mult-trivialize", "--input",
                          path(scene_dir, "mult")])
    assert len(report["payload"]["f"]) == 9
    assert report["diagnostics"]["splitting"] < 1e-10


def test_mult_extract(scene_dir):
    report, _ = run_json(["mult-extract", "--input",
                          path(scene_dir, "family")])
    assert report["payload"]["horizon"] == 8


def test_pair_positive(scene_dir):
    report, err = run_json(["pair", "--input", path(scene_dir, "paired")])
    assert report["payload"]["outcome"] == "Paired"
    assert "unitary" in report["payload"]
    assert "(Paired)" in err


def test_pair_negative_is_still_ok(scene_dir):
    report, err = run_json(["pair", "--input", path(scene_dir, "d2")])
    assert report["status"] == "ok"
    assert report["payload"]["outcome"] == "NotPaired"
    assert "unitary" not in report["payload"]
    assert "(NotPaired)" in err


def test_pair_check_positive(scene_dir):
    report, _ = run_json(["pair-check", "--input", path(scene_dir, "paired")])
    assert report["payload"]["outcome"] == "Paired"
    keys = set(report["diagnostics"])
    assert {"relation_b", "relation_b_prime", "powers"} <= keys


def test_pair_check_failure_exits_one(scene_dir):
    code, out, err = run_cli(["pair-check", "--input", path(scene_dir, "d2")])
    assert code == 1
    report = json.loads(out)
    assert report["status"] == "fail"
    assert report["error"]["type"] in {"RelationB", "RelationBPrime"}
    assert "fail" in err


def test_cocycle_link(scene_dir):
    report, _ = run_json(["cocycle-link", "--input",
                          path(scene_dir, "linked")])
    assert len(report["payload"]["cocycle"]) == 6  # c_1..c_6, horizon 6


def test_symmetry_check(scene_dir):
    report, _ = run_json(["symmetry-check", "--input",
                          path(scene_dir, "paired")])
    assert report["payload"] == {"down": True, "up": True, "agree": True}


def test_validation_failure_exits_one(scene_dir):
    code, out, _ = run_cli(["symmetry-check", "--input",
                            path(scene_dir, "broken")])
    assert code == 1
    report = json.loads(out)
    assert report["error"]["type"] == "NotUnitary"
    assert report["error"]["location"].endswith("broken.json")


@pytest.mark.parametrize("args, fragment", [
    (["algebra-commutant"], "--input is required"),
    (["algebra-commutant", "--input", "/nonexistent/scene.json"], "scene"),
    (["algebra-commutant", "--input", "{badkeys}"], "nonsense"),
    (["algebra-commutant", "--input", "{notjson}"], ""),
    (["algebra-commutant", "--input", "{mult}"], "a"),
    (["prodsys-build", "--input", "{d2}", "--horizon", "0"], "--horizon"),
    (["algebra-commutant", "--input", "{d2}", "--tol", "10"], "tolerance"),
    (["algebra-commutant", "--input", "{d2}", "--tol", "-1"], "tolerance"),
])
def test_parse_errors_exit_two(scene_dir, args, fragment):
    args = [a.format(**{n: path(scene_dir, n)
                        for n in ("badkeys", "notjson", "mult", "d2")})
            if a.startswith("{") else a for a in args]
    code, out, _ = run_cli(args)
    assert code == 2
    report = json.loads(out)
    assert report["status"] == "fail"
    assert report["error"]["type"] == "ParseError"
    assert fragment in report["error"]["message"]


@pytest.mark.parametrize("name, field", [("bool_ambient", "ambient_dim"),
                                         ("bool_tol", "tolerance")])
@pytest.mark.parametrize("extra", [[], ["--tol", "1e-9"]])
def test_boolean_scene_fields_exit_two(scene_dir, name, field, extra):
    code, out, _ = run_cli(["mult-check", "--input", path(scene_dir, name)]
                           + extra)
    assert code == 2
    report = json.loads(out)
    assert report["error"]["type"] == "ParseError"
    assert f"scene.{field}" in report["error"]["message"]


@pytest.mark.parametrize("command", ["mult-check", "mult-trivialize"])
def test_nan_grid_is_rejected(scene_dir, command):
    code, out, _ = run_cli([command, "--input", path(scene_dir, "multnan")])
    assert code == 1
    report = json.loads(out)
    assert report["status"] == "fail"
    assert report["error"]["type"] == "NotUnimodular"


def test_unknown_command_rejected():
    with pytest.raises(SystemExit) as info:
        run_cli(["no-such-command"])
    assert info.value.code == 2


def test_env_tolerance_loosens_default(scene_dir, monkeypatch):
    code, _, _ = run_cli(["mult-check", "--input", path(scene_dir, "multbad")])
    assert code == 1
    monkeypatch.setenv("VNPAIR_TOL", "0.5")
    report, _ = run_json(["mult-check", "--input", path(scene_dir, "multbad")])
    assert report["status"] == "ok"


def test_scene_tolerance_beats_env(scene_dir, monkeypatch):
    monkeypatch.setenv("VNPAIR_TOL", "0.5")
    code, _, _ = run_cli(["mult-check", "--input",
                          path(scene_dir, "multbad_scene_tol")])
    assert code == 1


def test_flag_tolerance_beats_scene(scene_dir, monkeypatch):
    monkeypatch.setenv("VNPAIR_TOL", "0.5")
    report, _ = run_json(["mult-check", "--input",
                          path(scene_dir, "multbad_scene_tol"),
                          "--tol", "0.5"])
    assert report["status"] == "ok"


def test_env_tolerance_must_be_numeric(scene_dir, monkeypatch):
    monkeypatch.setenv("VNPAIR_TOL", "loose")
    code, out, _ = run_cli(["mult-check", "--input",
                            path(scene_dir, "mult")])
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ParseError"


def test_out_file_matches_stdout(scene_dir, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(["algebra-commutant", "--input",
                            path(scene_dir, "d2"), "--out", str(target)])
    assert code == 0
    assert target.read_text() == out


def test_selftest_cap_zero():
    code, out, err = run_cli(["selftest", "--cap", "0"])
    assert code == 0
    report = json.loads(out)
    props = report["payload"]["properties"]
    assert len(props) == 12
    assert all(p["cases"] == 0 and p["ok"] for p in props)
    assert "selftest: ok, 0 cases" in err


def test_selftest_reports_are_deterministic_modulo_timing():
    first = json.loads(run_cli(["selftest", "--cap", "1", "--seed", "5"])[1])
    second = json.loads(run_cli(["selftest", "--cap", "1", "--seed", "5"])[1])
    del first["timing"], second["timing"]
    assert first == second


def test_selftest_subprocess_cap_one():
    proc = subprocess.run(
        [sys.executable, "-m", "vnpair.cli", "selftest", "--cap", "1"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["command"] == "selftest"
    assert report["status"] == "ok"
    assert len(report["diagnostics"]) == 12


def test_scene_tolerance_reaches_construction(tmp_path):
    """A unitary whose u* u - I residual is 3e-6 passes at tolerance 1e-5
    (bound 1.4e-5) whether the tolerance comes from the flag or the scene
    field; the objects used to be built at the default tolerance."""
    gens = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    u = np.diag([1.0 + 1.5e-6, 1.0])
    scene = {"ambient_dim": 2,
             "algebras": {"a": {"generators": [enc(g) for g in gens]}},
             "unitaries": {"u": enc(u)},
             "endomorphisms": {"theta": {"domain": "a", "unitary": "u",
                                         "direction": "adjoint"}}}
    plain = tmp_path / "plain.json"
    plain.write_text(json.dumps(scene))
    loose = tmp_path / "loose.json"
    loose.write_text(json.dumps(dict(scene, tolerance=1e-5)))
    report, _ = run_json(["endo-validate", "--input", str(plain), "--tol", "1e-5"])
    assert report["payload"]["automorphism"] is True
    run_json(["endo-validate", "--input", str(loose)])
    code, out, _ = run_cli(["endo-validate", "--input", str(plain)])
    assert code == 1
    assert json.loads(out)["error"]["type"] == "NotUnitary"


def test_readme_command_table_matches_the_cli():
    """The README lists exactly the CLI commands plus selftest, with the
    scene entries and --horizon defaults the command table declares."""
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = {}
    for line in readme.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 3 and cells[0].startswith("`") and cells[0].endswith("`"):
            rows[cells[0].strip("`")] = (cells[1], cells[2])
    assert set(rows) == set(cli._COMMANDS) | {"selftest"}
    for name, (_, horizon, entries) in cli._COMMANDS.items():
        assert rows[name][0].replace("`", '"') == entries, name
        assert rows[name][1] == ("" if horizon is None else str(horizon)), name
    help_text = cli._command_table()
    assert all(name in help_text for name in rows)
