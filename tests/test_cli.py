import argparse
import contextlib
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import cli_sweep
import oracles as orc
from vnpair import algebra as alg
from vnpair import cli
from vnpair import correspondence as corr
from vnpair import endo
from vnpair import numkernel as nk
from vnpair import pairing
from vnpair import prodsys
from vnpair import scenes
from vnpair.errors import ProductSystemLawError, VnpairError


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
    return cli_sweep.write_scenes(tmp_path_factory.mktemp("scenes"))


def path(scene_dir, name):
    return str(scene_dir / f"{name}.json")


def test_scene_frames_match_the_averaging_projection_oracle(scene_dir):
    """Every algebra of the scenes, and a fresh copy of its commutant, has
    the signature, summand order, central projections (to 1e-10) and
    center of the d x d averaging projection, at the scene's tolerance."""
    compared = 0
    for scene_path in sorted(scene_dir.glob("*.json")):
        try:
            scene = scenes.load_scene(str(scene_path))
        except VnpairError:
            continue
        for a in scene.algebras.values():
            bp = alg.commutant(a, scene.tol)
            for b in (a, alg.VnAlgebra(a.ambient_dim, bp.basis, tol=scene.tol)):
                sig = alg.block_decompose(b, scene.tol)
                blocks, projections = orc.averaging_projections(b, scene.tol)
                assert sig.blocks == blocks, scene_path.name
                assert np.abs(sig.central_projections - projections).max() <= 1e-10
                assert alg.equals(alg.center(b, scene.tol),
                                  orc.averaging_center(b, scene.tol), scene.tol)
                compared += 1
    assert compared == 2 * 8  # the 8 algebras of 5 scenes, and their commutants


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
    # the residuals validate returned, within their bounds
    tol, diag = nk.DEFAULT_TOL, report["diagnostics"]
    bounds = {"span": tol.bound(1.0), "unital": tol.bound(np.sqrt(2)),
              "multiplicative": tol.bound(1.0), "star": tol.bound(1.0)}
    assert set(bounds) <= set(diag)
    assert all(np.isfinite(diag[k]) and diag[k] <= bound for k, bound in bounds.items())


def test_endo_validate_checks_faithfulness_once(scene_dir, monkeypatch):
    """The automorphism key is the faithfulness verdict: injective maps are
    onto in finite dimension, so one SVD answers both."""
    from vnpair import endo
    calls = []
    real = endo.is_faithful
    monkeypatch.setattr(endo, "is_faithful", lambda f, tol: calls.append(f) or real(f, tol))
    report, _ = run_json(["endo-validate", "--input", path(scene_dir, "paired")])
    assert len(calls) == 1
    assert report["payload"]["faithful"] is report["payload"]["automorphism"] is True


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


def test_a_nan_order_residual_reads_nan(scene_dir, monkeypatch):
    """Builtin max drops a NaN that follows a number; one NaN term makes the
    whole order_reversal residual NaN, which fails its bound."""
    order = prodsys.commutant_order_residual

    def nan_at_1_1(p, q, s, t, tol):
        return float("nan") if (s, t) == (1, 1) else order(p, q, s, t, tol)

    monkeypatch.setattr(prodsys, "commutant_order_residual", nan_at_1_1)
    report, _ = run_json(["prodsys-commutant", "--input",
                          path(scene_dir, "d2"), "--horizon", "3"], expect_code=1)
    assert report["status"] == "fail"
    assert report["error"]["type"] == "ProductSystemLawError"
    scene = scenes.load_scene(path(scene_dir, "d2"))
    opts = argparse.Namespace(tol=scene.tol, horizon=3)
    with pytest.raises(ProductSystemLawError) as info:
        cli._cmd_prodsys_commutant(scene, opts)
    assert np.isnan(info.value.residual)
    assert info.value.bound == scene.tol.bound(1.0)


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
    (["selftest", "--cap", "-1"], "--cap"),
    (["selftest", "--seed", "-1"], "--seed"),
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


def test_an_unread_entry_key_exits_two(tmp_path):
    """A misspelt direction no longer parses as the default adjoint map."""
    scene = {"ambient_dim": 2, "algebras": {"a": {"generators": [enc(np.eye(2))]}},
             "unitaries": {"u": enc(np.eye(2)[::-1])},
             "endomorphisms": {"theta": {"domain": "a", "unitary": "u", "directon": "direct"}}}
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(scene))
    code, out, _ = run_cli(["endo-validate", "--input", str(path)])
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "ParseError"
    assert "scene.endomorphisms.theta" in error["message"] and "'directon'" in error["message"]


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


@pytest.mark.parametrize("command", ["prodsys-commutant", "dilation-commutant"])
def test_empty_tensor_quotient_is_a_json_error(scene_dir, command):
    """At --tol 0.5 the commutant members of the full M_3 scene have a Gram
    quotient that keeps nothing; that is a typed error with a JSON report,
    not a traceback."""
    code, out, _ = run_cli([command, "--input", path(scene_dir, "bhat"),
                            "--tol", "0.5"])
    assert code == 1
    report = json.loads(out)
    assert report["status"] == "fail"
    assert report["error"]["type"] == "EmptyTensorProduct"


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


SCENE_NAMES = ("d2", "paired", "linked", "bhat", "mult", "multbad",
               "multbad_scene_tol", "family", "broken", "badkeys",
               "bool_ambient", "bool_tol", "multnan", "notjson")


@pytest.fixture
def emitted(monkeypatch):
    """The report of every CLI run, as handed to the emitter."""
    reports = []
    emit = cli._emit

    def spy(report, *args):
        reports.append(report)
        emit(report, *args)
    monkeypatch.setattr(cli, "_emit", spy)
    return reports


def assert_oracle_text(emitted, args):
    """The printed report is the one json.dumps(indent=2) gives for the
    report's strict-JSON copy, byte for byte."""
    _, out, _ = run_cli(args)
    assert out == orc.json_report(emitted[-1]) + "\n", args
    return emitted[-1]["status"]


@pytest.mark.parametrize("extra", [[], ["--tol", "0.5"]])
def test_reports_match_the_json_oracle_byte_for_byte(scene_dir, emitted, extra):
    assert {p.stem for p in scene_dir.glob("*.json")} == set(SCENE_NAMES)
    statuses = {assert_oracle_text(emitted, [command, "--input", path(scene_dir, name)] + extra)
                for name in SCENE_NAMES for command in cli._COMMANDS}
    assert len(emitted) == len(SCENE_NAMES) * len(cli._COMMANDS)
    assert statuses == {"ok", "fail"}


def test_selftest_and_error_reports_match_the_json_oracle(emitted):
    assert assert_oracle_text(emitted, ["selftest", "--cap", "1"]) == "ok"
    assert assert_oracle_text(emitted, ["pair"]) == "fail"
    assert assert_oracle_text(emitted, ["mult-check", "--input", "/nonexistent.json"]) == "fail"


def test_array_layout_matches_the_json_oracle():
    """Non-finite and signed-zero entries, vectors, stacks, empty arrays and
    arrays inside lists, next to the scalar and container forms."""
    inf, nan = float("inf"), float("nan")
    grid = np.array([[nan, complex(1.5, -inf)], [complex(-0.0, inf), complex(0.0, -0.0)]])
    payload = {
        "grid": grid,
        "real": np.array([[1.0, -inf], [nan, 2.0]]),
        "vector": np.arange(3) * (1 - 2j),
        "stack": np.arange(12.0).reshape(3, 2, 2) * 1j,
        "scalar": np.array(2.5 - 1e-300j),
        "one": np.ones((1, 1)),
        "empty_rows": np.zeros((0, 2), dtype=complex),
        "empty_middle": np.zeros((3, 0, 2), dtype=complex),
        "arrays": [grid[0], np.zeros(0), [np.eye(2)]],
        "values": [1, -2, 0.1, -0.0, 1e300, nan, -inf, True, False, None, (), {}],
        "text": 'quote " backslash \\ é  ',
    }
    report = {"payload": payload, "diagnostics": {"worst": nan, "bound": inf}}
    assert cli._render(report) == orc.json_report(report)


def test_a_huge_integer_is_a_parse_error(tmp_path):
    """10**400 has no float; the entry is named and the run still reports."""
    scene = tmp_path / "huge.json"
    scene.write_text(json.dumps({"ambient_dim": 1,
                                 "grids": {"m": [[1, 10 ** 400], [1, 1]]}}))
    code, out, _ = run_cli(["mult-check", "--input", str(scene)])
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "ParseError"
    assert "scene.grids.m[0][1]" in error["message"]


@pytest.mark.parametrize("content", [b'{"ambient_dim": 1, "seed": 1' + b"0" * 5000 + b"}",
                                     b'{"ambient_dim": \xff}'])
def test_an_unreadable_number_or_byte_is_a_parse_error(tmp_path, content):
    """An integer past the interpreter's digit limit, or bytes that are not
    UTF-8, make the scene file unreadable JSON, not a traceback."""
    scene = tmp_path / "bad.json"
    scene.write_bytes(content)
    code, out, _ = run_cli(["mult-check", "--input", str(scene)])
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ParseError"


_FOOTPRINT = """
import contextlib, io, sys
import vnpair
{run}
print(" ".join(sorted(m for m in sys.modules if m.startswith("vnpair"))))
"""
_CLI_RUN = """
from vnpair import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    assert cli.main({argv!r}) == 0
"""
_BASE = {"vnpair", "vnpair.errors", "vnpair.numkernel"}


@pytest.mark.parametrize("argv, loaded", [
    (None, _BASE),
    (["mult-check", "--input", "{mult}"],
     _BASE | {"vnpair.cli", "vnpair.scenes", "vnpair.multiplier"}),
    (["pair", "--input", "{paired}"],
     _BASE | {"vnpair.cli", "vnpair.scenes", "vnpair.algebra", "vnpair.endo",
              "vnpair.correspondence", "vnpair.pairing"}),
])
def test_a_command_loads_only_the_modules_it_uses(scene_dir, argv, loaded):
    """In a fresh interpreter, import vnpair loads the tolerance and its
    errors only, and a CLI command adds the modules of its own handler."""
    run = "" if argv is None else _CLI_RUN.format(
        argv=[a.format(mult=path(scene_dir, "mult"), paired=path(scene_dir, "paired"))
              for a in argv])
    import vnpair
    src = str(pathlib.Path(vnpair.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _FOOTPRINT.format(run=run)],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stdout.split()) == loaded


LEDGER_COMMANDS = ("corr-commutant", "corr-intertwiners", "corr-iso", "corr-of-endo",
                   "corr-tensor", "prodsys-build", "prodsys-commutant", "dilation-commutant",
                   "pair", "pair-check", "cocycle-link")


def _digest(arg) -> str:
    """sha1 of an argument's arrays: an ndarray, an algebra's basis, or the
    arrays of a list or tuple; other arguments add nothing."""
    if isinstance(arg, alg.VnAlgebra):
        arg = arg.basis
    if isinstance(arg, (list, tuple)):
        return ",".join(_digest(a) for a in arg)
    if isinstance(arg, np.ndarray):
        return hashlib.sha1(np.ascontiguousarray(arg).tobytes() + str(arg.shape).encode()
                            ).hexdigest()
    return ""


@pytest.mark.parametrize("scene", ["paired", "linked"])
def test_each_law_is_evaluated_once_per_command(scene_dir, monkeypatch, scene):
    """The law ledger: from scene load through the command's handler, no
    law kernel (span, commutation, factored commutation, the homomorphism
    laws) and no span comparison runs twice on the same arrays."""
    ledger, recording, repeats = [], [], {}
    for module, name in ((nk, "span_residual"), (nk, "law_residual"),
                         (nk, "factored_law_residual"), (endo, "hom_residuals"),
                         (alg, "equals")):
        real = getattr(module, name)

        def spy(*args, real=real, name=name):
            if recording and not (name == "equals" and args[0] is args[1]):
                ledger.append((name, tuple(_digest(a) for a in args)))
            return real(*args)
        monkeypatch.setattr(module, name, spy)
    load = scenes.load_scene
    monkeypatch.setattr(scenes, "load_scene",
                        lambda *args: recording.append(True) or load(*args))
    for command in LEDGER_COMMANDS:
        ledger.clear()
        run_cli([command, "--input", path(scene_dir, scene)])
        recording.clear()
        for key in set(ledger):
            if ledger.count(key) > 1:
                repeats[command, key[0]] = repeats.get((command, key[0]), 0) + 1
    assert repeats == {}


def test_a_decision_builds_one_frame_and_the_library_unitary(scene_dir, monkeypatch):
    """B' takes the frame of B on the command line as in the library: pair,
    pair-check and cocycle-link build one block frame per call, and the pair
    unitary is, bit for bit, that of can_pair on raw maps over freshly
    parsed algebras, the inputs the benchmark gives it."""
    frames, real = [], alg._frame
    monkeypatch.setattr(alg, "_frame", lambda *args: frames.append(args[0]) or real(*args))
    for command, scene in (("pair-check", "paired"), ("cocycle-link", "linked"),
                           ("pair", "paired")):
        frames.clear()
        report, _ = run_json([command, "--input", path(scene_dir, scene)])
        assert len(frames) == 1, command
    fresh = scenes.load_scene(path(scene_dir, "paired"))
    u, b, bp = fresh.unitary("u"), fresh.algebra("a"), fresh.algebra("b_comm")
    cert = pairing.can_pair(endo.Endomorphism(b, u.conj().T @ b.basis @ u),
                            endo.Endomorphism(bp, u @ bp.basis @ u.conj().T))
    assert np.array_equal(scenes.decode_matrix(report["payload"]["unitary"], "u"),
                          cert.unitary)


def test_a_transpose_map_fails_the_commands_that_read_it(tmp_path):
    """theta(x) = x^T on M_2 is unital, *-preserving and faithful, but not
    multiplicative. Its laws are checked where it is read: the commands
    that read it fail with NotMultiplicative, pair-check with RelationB, as
    check_pairing compares the relations first, and the commands that never
    read it succeed."""
    gens = [enc(g) for g in alg.full_matrix_algebra(2).generators]
    scene = {"ambient_dim": 2,
             "algebras": {"a": {"generators": gens},
                          "b_comm": {"generators": [enc(np.eye(2))]}},
             "unitaries": {"u": enc(np.eye(2))}}
    basis = scenes.parse_scene(scene).algebra("a").basis
    scene["endomorphisms"] = {
        "theta": {"domain": "a", "basis_images": [enc(x.T) for x in basis]},
        "eta": {"domain": "a", "unitary": "u"},
        "theta_prime": {"domain": "b_comm", "unitary": "u", "direction": "direct"}}
    file = tmp_path / "transpose.json"
    file.write_text(json.dumps(scene))
    verdicts = {}
    for command in ("endo-validate", "corr-of-endo", "prodsys-build", "corr-iso", "pair",
                    "pair-check", "algebra-commutant", "symmetry-check"):
        code, out, _ = run_cli([command, "--input", str(file)])
        verdicts[command] = (code, (json.loads(out).get("error") or {}).get("type"))
    assert verdicts == {**dict.fromkeys(("endo-validate", "corr-of-endo", "prodsys-build",
                                         "corr-iso", "pair"), (1, "NotMultiplicative")),
                        "pair-check": (1, "RelationB"),
                        "algebra-commutant": (0, None), "symmetry-check": (0, None)}


def test_the_sweep_records_a_run_and_diffs_it(scene_dir):
    """One run of ``cli_sweep``: the report without timing and with the scene
    directory blanked, which diffs against itself with no change; a moved
    residual shows as moved, a changed error type as changed."""
    record = cli_sweep.sweep(scene_dir, ["mult-check"], ["multbad"], {"default": []})
    run = record["runs"]["mult-check multbad default"]
    assert (run["code"], run["status"], run["error"]["type"]) == (1, "fail", "CocycleViolation")
    assert run["error"]["location"] == "<scenes>/multbad.json" and "timing" not in run
    assert cli_sweep.diff(record, record) == ([], [])
    other = json.loads(json.dumps(record))
    other["runs"]["mult-check multbad default"]["error"]["residual"] *= 2
    assert cli_sweep.diff(record, other) == (
        [], [(run["error"]["residual"], "mult-check multbad default", ".error.residual")])
    other["runs"]["mult-check multbad default"]["error"]["type"] = "ParseError"
    assert len(cli_sweep.diff(record, other)[0]) == 1


def test_corr_tensor_scenes_read_their_quotient_off_phi(scene_dir):
    """The two scenes on which ``corr-tensor`` builds (theta and eta twisted
    over one algebra) read the quotient off Phi, which agrees with the Gram
    route (``oracles.factored_against_gram``)."""
    for name in ("d2", "paired"):
        scene = scenes.load_scene(path(scene_dir, name))
        e, f = (corr.of_endomorphism(scene.endomorphism(k)) for k in ("theta", "eta"))
        assert corr._factors(e, f)
        res = orc.factored_against_gram(corr.tensor_product(e, f))
        assert res.pop("rank") == 0 and max(res.values()) <= 1e-12, (name, res)


def test_every_failing_scene_run_names_its_law_residual_and_bound(scene_dir):
    """Each of the 36 exit-1 runs of the sweep (14 scenes, 19 commands, 4 flag
    sets) carries its bound, and the law it failed with its residual, or, for
    a set of laws checked at once (``numkernel.require_laws``), the failing
    residuals keyed by law."""
    runs = cli_sweep.sweep(scene_dir)["runs"]
    failing = {key: run["error"] for key, run in runs.items() if run["code"] == 1}
    assert len(failing) == 36
    assert {key: sorted(error) for key, error in failing.items() if "bound" not in error or not (
        {"law", "residual"} <= set(error) or error.get("residuals"))} == {}


GOLDEN = pathlib.Path(__file__).with_name("cli_golden.json")


def _array_shapes(value, where: str, out: dict) -> dict:
    """Shape of every array in value, keyed by its path."""
    if isinstance(value, np.ndarray):
        out[where] = list(value.shape)
    elif isinstance(value, dict):
        for k, v in value.items():
            _array_shapes(v, f"{where}.{k}", out)
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            _array_shapes(v, f"{where}[{i}]", out)
    return out


def _report_shape(code: int, report: dict) -> dict:
    """What a report promises apart from its numbers: exit code, status,
    error type, payload and diagnostics keys, and every array's shape."""
    return {"code": code, "status": report["status"],
            "error": (report.get("error") or {}).get("type"),
            "payload_keys": sorted(report["payload"]),
            "diagnostics_keys": sorted(report["diagnostics"]),
            "shapes": _array_shapes(report["payload"], "payload", {})}


def _scene_runs(scene_dir, emitted) -> dict:
    """_report_shape of every scene command on every test scene, at the
    default tolerance and at --tol 0.5, keyed "command scene tolerance"."""
    runs = {}
    for tag, extra in (("default", []), ("0.5", ["--tol", "0.5"])):
        for name in SCENE_NAMES:
            for command in cli._COMMANDS:
                code, _, _ = run_cli([command, "--input", path(scene_dir, name)] + extra)
                runs[f"{command} {name} {tag}"] = _report_shape(code, emitted[-1])
    return runs


def test_scene_reports_keep_their_golden_shape(scene_dir, emitted):
    """No change of verdict, key or array shape: each of the 532 scene runs
    matches ``cli_golden.json`` (no float values are stored). A deliberate
    change of a report rewrites that file from ``_scene_runs``."""
    runs = _scene_runs(scene_dir, emitted)
    golden = json.loads(GOLDEN.read_text())
    assert len(runs) == len(SCENE_NAMES) * len(cli._COMMANDS) * 2 == len(golden)
    changed = sorted(k for k in golden if runs.get(k) != golden[k])
    assert not changed, (changed[:5], [runs.get(k) for k in changed[:2]])


def test_failure_report_carries_the_residual_and_bound(scene_dir):
    """multbad breaks the cocycle identity by about 5e-3: CocycleViolation
    names its law, with its residual and bound."""
    report, _ = run_json(["mult-check", "--input", path(scene_dir, "multbad")], 1)
    error = report["error"]
    assert (error["type"], error["law"]) == ("CocycleViolation", "cocycle")
    assert list(error) == ["type", "message", "location", "law", "residual", "bound"]
    assert 1e-3 < error["residual"] and error["bound"] == nk.DEFAULT_TOL.bound(1.0)


def test_failure_report_names_the_law(tmp_path):
    """A map whose images leave the span fails its span law, which the
    report names with its residual and bound."""
    d2 = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    images = [b + 1e-3 * np.array([[0.0, 1.0], [1.0, 0.0]]) for b in d2]
    scene = tmp_path / "perturbed.json"
    scene.write_text(json.dumps({
        "ambient_dim": 2, "algebras": {"a": {"generators": [enc(g) for g in d2]}},
        "endomorphisms": {"theta": {"domain": "a",
                                    "basis_images": [enc(y) for y in images]}}}))
    report, _ = run_json(["endo-validate", "--input", str(scene)], 1)
    error = report["error"]
    assert (error["type"], error["law"]) == ("ImageOutsideAlgebra", "span")
    assert error["bound"] == nk.DEFAULT_TOL.bound(1.0) < 1e-3 < error["residual"]
    assert "residuals" not in error


def test_ragged_basis_images_exit_two_with_a_report(tmp_path):
    """One 2 x 2 and one 3 x 3 image used to escape as numpy's ValueError:
    a traceback, no report, exit 1. Each image is now checked against the
    ambient shape at load."""
    d2 = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    scene = tmp_path / "ragged.json"
    scene.write_text(json.dumps({
        "ambient_dim": 2, "algebras": {"a": {"generators": [enc(g) for g in d2]}},
        "endomorphisms": {"theta": {"domain": "a",
                                    "basis_images": [enc(d2[0]), enc(np.eye(3))]}}}))
    report, _ = run_json(["endo-validate", "--input", str(scene)], 2)
    assert report["status"] == "fail" and report["error"]["type"] == "ParseError"
    assert "basis_images[1]: shape (3, 3)" in report["error"]["message"]


def test_a_wrapped_relation_failure_report_names_the_law(scene_dir):
    """pair on the paired scene at --tol 1e-14 fails a relation by rounding;
    the PairingCheckFailed report carries that relation's law, residual and
    bound."""
    report, _ = run_json(["pair", "--input", path(scene_dir, "paired"), "--tol", "1e-14"], 1)
    error = report["error"]
    assert error["type"] == "PairingCheckFailed"
    assert error["law"] in ("relation_b", "relation_b_prime")
    assert error["residual"] > error["bound"] == 1e-14


def test_a_non_unitary_scene_unitary_report_names_the_law(tmp_path):
    """An endomorphism of a scene conjugating by a u that is not unitary exits
    1 with NotUnitary, law ``unitarity``, its residual and bound."""
    gens = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    scene = {"ambient_dim": 2,
             "algebras": {"a": {"generators": [enc(g) for g in gens]}},
             "unitaries": {"u": enc(np.array([[1.0, 1.0], [0.0, 1.0]]))},
             "endomorphisms": {"theta": {"domain": "a", "unitary": "u"}}}
    scene_path = tmp_path / "shear.json"
    scene_path.write_text(json.dumps(scene))
    report, _ = run_json(["endo-validate", "--input", str(scene_path)], 1)
    error = report["error"]
    assert (error["type"], error["law"]) == ("NotUnitary", "unitarity")
    assert error["residual"] > error["bound"] == nk.DEFAULT_TOL.bound(np.sqrt(2))


def test_a_relation_failure_report_names_the_law(scene_dir):
    """pair-check on d2 fails relation_b_prime, and the report carries its
    law, residual and bound; so does the non-unitary symmetry-check."""
    report, _ = run_json(["pair-check", "--input", path(scene_dir, "d2")], 1)
    error = report["error"]
    assert (error["type"], error["law"]) == ("RelationBPrime", "relation_b_prime")
    assert error["bound"] == nk.DEFAULT_TOL.bound(1.0) < error["residual"]
    report, _ = run_json(["symmetry-check", "--input", path(scene_dir, "broken")], 1)
    error = report["error"]
    assert (error["type"], error["law"]) == ("NotUnitary", "unitarity")
    assert error["bound"] < error["residual"]
