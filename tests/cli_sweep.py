"""The CLI sweep: every scene command on every test scene under four flag sets.

The scenes are those of ``tests/test_cli.py`` (``write_scenes``, 14 files);
the commands are the 19 of ``vnpair.cli._COMMANDS``; the flag sets are the
defaults, ``--tol 0.5``, ``--horizon 3`` and ``--tol 1e-6``: 1,064 runs, in
one process. Each run is written as its exit code, status, error entry,
payload and diagnostics, with ``timing`` dropped and the scene directory
blanked in the error's location and message. The record also
counts, per run and in total, the block frames built (``algebra._frame``),
the homomorphism law evaluations (``endo.hom_residuals``), the iterate lists
composed (``endo.iterates``), the law kernels run (``numkernel.law_residual``)
and the tensor quotients (``correspondence.tensor_quotient``), the SVDs of
their roots Phi (``correspondence._root_spectrum``) and the roots read off
the intertwiners of a general left action (``correspondence._stinespring``),
and the maps solved by least squares (``numkernel.lstsq_map``). The last
kind counts 0 on the sweep: the commands tensor twisted correspondences and
their commutants, cases (a) and (b) of ``correspondence._factors``, and only
``tensor_commutant_iso`` on general ones, which no command calls. A counted
function that the package under test does not define counts 0: before the
factored route, every quotient ran its Gram ``eigh`` inside
``tensor_quotient``.

    PYTHONPATH=src python tests/cli_sweep.py sweep.json
    PYTHONPATH=<other checkout>/src python tests/cli_sweep.py other.json
    PYTHONPATH=src python tests/cli_sweep.py --diff other.json sweep.json

``--diff A B`` lists the runs whose exit code, status, error type, keys or
non-numeric values changed, then the largest moved number of each run whose
numbers moved, largest first; it exits 1 when the first list is not empty.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import pathlib
import sys
import tempfile

import numpy as np

from vnpair import algebra as alg
from vnpair import cli
from vnpair import correspondence as corr
from vnpair import endo
from vnpair import multiplier as mult
from vnpair import numkernel as nk
from vnpair import scenes
from vnpair import selftest as st

FLAG_SETS = {"default": [], "tol0.5": ["--tol", "0.5"], "horizon3": ["--horizon", "3"],
             "tol1e-6": ["--tol", "1e-6"]}
COUNTED = ((alg, "_frame"), (endo, "hom_residuals"), (endo, "iterates"), (nk, "law_residual"),
           (corr, "tensor_quotient"), (corr, "_root_spectrum"), (corr, "_stinespring"),
           (nk, "lstsq_map"))


def write_scenes(root: pathlib.Path) -> pathlib.Path:
    """One scene file per shape of input the commands consume, in root."""
    enc = scenes.encode_matrix

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


def _run(argv, root: str) -> dict:
    """One CLI run in this process: its report without timing, paths blanked."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except Exception as exc:  # an uncaught error is a verdict of its own
        report, code = {"status": "crash", "payload": {}, "diagnostics": {},
                        "error": {"type": type(exc).__name__, "message": str(exc)}}, None
    else:
        report = json.loads(out.getvalue())
    error = report.get("error")
    if error:
        error.update({k: v.replace(root, "<scenes>") for k, v in error.items()
                      if k in ("location", "message")})
    return {"code": code, "status": report["status"], "error": error,
            "payload": report["payload"], "diagnostics": report["diagnostics"]}


def sweep(root, commands=None, scene_names=None, flag_sets=None) -> dict:
    """Run each command on each scene of root under each flag set (all, by
    default) and count the calls of each ``COUNTED`` function in each run."""
    root = pathlib.Path(root)
    paths = {p.stem: p for p in sorted(root.glob("*.json"))
             if scene_names is None or p.stem in scene_names}
    counts = dict.fromkeys((name for _, name in COUNTED), 0)
    saved = [(module, name, getattr(module, name)) for module, name in COUNTED
             if hasattr(module, name)]
    for module, name, real in saved:
        def counted(*args, real=real, name=name, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        setattr(module, name, counted)
    runs, totals = {}, dict.fromkeys(counts, 0)
    try:
        for tag, extra in (flag_sets or FLAG_SETS).items():
            for scene, path in paths.items():
                for command in commands or cli._COMMANDS:
                    counts.update(dict.fromkeys(counts, 0))
                    run = _run([command, "--input", str(path)] + extra, str(root))
                    runs[f"{command} {scene} {tag}"] = dict(run, calls=dict(counts))
                    totals = {k: totals[k] + counts[k] for k in counts}
    finally:
        for module, name, real in saved:
            setattr(module, name, real)
    return {"calls": totals, "runs": runs,
            "scenes": {s: hashlib.sha256(p.read_bytes()).hexdigest() for s, p in paths.items()}}


def _leaves(value, where: str, out: dict) -> dict:
    """Every leaf of a JSON value, keyed by its path; a container records its
    keys or length at its own path."""
    if isinstance(value, dict):
        out[where] = ("keys", sorted(value))
        for k, v in value.items():
            _leaves(v, f"{where}.{k}", out)
    elif isinstance(value, list):
        out[where] = ("len", len(value))
        for i, v in enumerate(value):
            _leaves(v, f"{where}[{i}]", out)
    else:
        out[where] = value
    return out


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def diff(a: dict, b: dict) -> tuple[list, list]:
    """(changed, moved): changed names each run of a or b whose code, status,
    error type, keys or non-numeric values differ, with the first such path;
    moved gives (size, run, path) of the largest moved number of each other
    run whose numbers moved, largest first. Error messages and locations are
    not compared: they print the residuals."""
    changed, moved = [], []
    for key in sorted(set(a["runs"]) | set(b["runs"])):
        ra, rb = a["runs"].get(key), b["runs"].get(key)
        if ra is None or rb is None:
            changed.append(f"{key}: only in {'B' if ra is None else 'A'}")
            continue
        views = []
        for r in (ra, rb):
            error = {k: v for k, v in (r["error"] or {}).items()
                     if k not in ("message", "location")}
            views.append(_leaves({"code": r["code"], "status": r["status"], "error": error,
                                  "payload": r["payload"], "diagnostics": r["diagnostics"]},
                                 "", {}))
        la, lb = views
        paths = sorted(set(la) | set(lb), key=lambda p: (p not in la, p))
        worst = (0.0, "")
        for p in paths:
            x, y = la.get(p), lb.get(p)
            if _is_number(x) and _is_number(y) and not p.startswith((".code", ".status")):
                if abs(x - y) > worst[0]:
                    worst = (abs(x - y), p)
            elif x != y:
                changed.append(f"{key}: {p or '.'} {x!r} -> {y!r}")
                break
        else:
            if worst[0] > 0:
                moved.append((worst[0], key, worst[1]))
    return changed, sorted(moved, reverse=True)


def _print_diff(a: dict, b: dict) -> int:
    if a["scenes"] != b["scenes"]:
        print("scene files differ:", sorted(s for s in set(a["scenes"]) | set(b["scenes"])
                                            if a["scenes"].get(s) != b["scenes"].get(s)))
    print("calls:", ", ".join(f"{k} {a['calls'].get(k)} -> {b['calls'].get(k)}"
                              for k in b["calls"]))
    changed, moved = diff(a, b)
    print(f"{len(changed)} of {len(b['runs'])} runs changed code, status, error type, "
          f"keys or values")
    for line in changed:
        print("  " + line)
    print(f"{len(moved)} runs moved a number; the largest of each:")
    for size, key, where in moved:
        print(f"  {size:.3e}  {key}  {where}")
    return 1 if changed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", nargs="?", help="write the sweep's record here")
    parser.add_argument("--diff", nargs=2, metavar=("A", "B"), help="compare two records")
    args = parser.parse_args(argv)
    if args.diff:
        a, b = (json.loads(pathlib.Path(p).read_text()) for p in args.diff)
        return _print_diff(a, b)
    if not args.out:
        parser.error("give a record to write, or --diff A B")
    with tempfile.TemporaryDirectory() as tmp:
        record = sweep(write_scenes(pathlib.Path(tmp)))
    pathlib.Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(f"{len(record['runs'])} runs, calls {record['calls']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
