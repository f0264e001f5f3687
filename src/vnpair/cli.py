"""Command-line front end: scene files in, JSON reports out.

Every command reads a scene file (``--input``), runs one library
operation, and writes a report object to stdout with a one-line summary
on stderr. Commands look up scene entries by fixed names; ``vnpair -h``
lists them, from the ``_COMMANDS`` table below.

Exit codes: 0 when the report status is ok, which includes negative
mathematical answers such as NotPaired; 1 when a validation check fails;
2 when the scene cannot be read or parsed. The default tolerance can be
overridden by the ``VNPAIR_TOL`` environment variable, the scene's
``tolerance`` field, or ``--tol``, in increasing order of precedence; the
scene's objects are built at that same tolerance.
"""

import argparse
import json
import math
import sys
import time
from dataclasses import asdict

import numpy as np

from . import errors
from . import numkernel as nk
from . import scenes
from .errors import ParseError

# Each handler imports the modules it uses, so a command loads only those.


def _system_payload(p) -> dict:
    return {"horizon": p.horizon,
            "carriers": [m.carrier_dim for m in p.members],
            "element_dims": [m.element_space.shape[0] for m in p.members],
            "products": {f"{s},{t}": u for (s, t), u in sorted(p.products.items())}}


def _cmd_algebra_commutant(scene, opts):
    from . import algebra as alg
    a = scene.algebra("a")
    c = alg.commutant(a, opts.tol)
    diag = c.validate(opts.tol)
    diag["bicommutant_distance"] = float(
        alg.equals(alg.commutant(c, opts.tol), a, opts.tol).residual)
    return {"dim": c.dim, "basis": c.basis}, diag


def _cmd_algebra_blocks(scene, opts):
    from . import algebra as alg
    a = scene.algebra("a")
    sig = alg.block_decompose(a, opts.tol)
    return {"blocks": sig.blocks, "central_projections": sig.central_projections}, {}


def _cmd_endo_validate(scene, opts):
    from . import endo as endo_mod
    theta = scene.endomorphism("theta")
    # is_automorphism is is_faithful: injective maps are onto in finite dimension
    diag, faithful = theta.validate(opts.tol), endo_mod.is_faithful(theta, opts.tol)
    return {"basis_images": theta.basis_images, "faithful": faithful,
            "automorphism": faithful}, diag


def _corr_payload(e) -> dict:
    return {"carrier_dim": e.carrier_dim, "element_dim": e.element_space.shape[0],
            "element_basis": e.element_space}


def _cmd_corr_of_endo(scene, opts):
    from . import correspondence as corr
    e = corr.of_endomorphism(scene.endomorphism("theta"), tol=opts.tol)
    return _corr_payload(e), e.validate(opts.tol)


def _cmd_corr_intertwiners(scene, opts):
    from . import correspondence as corr
    # also corr-commutant: the intertwiner space is the commutant of the
    # twisted correspondence, field for field
    e = corr.intertwiner_space(scene.endomorphism("theta"), tol=opts.tol)
    return _corr_payload(e), e.validate(opts.tol)


def _cmd_corr_tensor(scene, opts):
    from . import correspondence as corr
    e = corr.of_endomorphism(scene.endomorphism("theta"), tol=opts.tol)
    f = corr.of_endomorphism(scene.endomorphism("eta"), tol=opts.tol)
    tp = corr.tensor_product(e, f, opts.tol)
    payload = _corr_payload(tp.corr)
    payload["phi"] = tp.phi
    return payload, tp.corr.validate(opts.tol)


def _cmd_corr_iso(scene, opts):
    from . import correspondence as corr
    e = corr.of_endomorphism(scene.endomorphism("theta"), tol=opts.tol)
    f = corr.of_endomorphism(scene.endomorphism("eta"), tol=opts.tol)
    decision = corr.find_isomorphism(e, f, opts.tol)
    payload = {"isomorphic": decision.isomorphic, "table_left": asdict(decision.table_left),
               "table_right": asdict(decision.table_right)}
    if decision.isomorphic:
        payload["unitary"] = decision.unitary
    return payload, {}


def _cmd_prodsys_build(scene, opts):
    from . import prodsys
    p = prodsys.from_endomorphism(scene.endomorphism("theta"), opts.horizon, opts.tol)
    return _system_payload(p), dict(p.residuals)


def _cmd_prodsys_commutant(scene, opts):
    from . import prodsys
    p = prodsys.from_endomorphism(scene.endomorphism("theta"), opts.horizon, opts.tol)
    q = prodsys.commutant_system(p, opts.tol)
    diag = dict(q.residuals)
    order = nk.worst(*(prodsys.commutant_order_residual(p, q, s, t, opts.tol)
                       for s in range(p.horizon + 1) for t in range(p.horizon + 1 - s)))
    diag["order_reversal"] = nk.require(
        order, opts.tol.bound(1.0), errors.ProductSystemLawError,
        "commutant product does not reverse the order, residual {:.3e}", law="order_reversal")
    return _system_payload(q), diag


def _cmd_bhat(scene, opts):
    from . import prodsys
    theta = scene.endomorphism("theta")
    gamma = scene.vector("gamma")
    system = prodsys.bhat_system(theta, gamma, opts.horizon, opts.tol)
    return {"dims": system.dims, "spaces": system.spaces,
            "products": {f"{s},{t}": u for (s, t), u in sorted(system.products.items())},
            "dilations": system.dilations}, {}


def _cmd_dilation_commutant(scene, opts):
    from . import prodsys
    theta = scene.endomorphism("theta")
    u = scene.unitary("u")
    p = prodsys.from_endomorphism(theta, opts.horizon, opts.tol)
    w = prodsys.right_dilation_from_unitary(p, u, tol=opts.tol)
    diag = {"dilation_" + k: v for k, v in w.residuals.items()}
    result = prodsys.commutant_via_dilation(p, w, tol=opts.tol)
    return {"carriers": [m.carrier_dim for m in result.system.members], "xi": result.xi,
            "nu": {str(t): nu for t, nu in enumerate(result.nu)}}, diag


def _cmd_mult_check(scene, opts):
    from . import multiplier as mult
    m = mult.validate(scene.grid("m"), opts.tol)
    return {"horizon": m.horizon, "values": m.values}, dict(m.residuals)


def _cmd_mult_trivialize(scene, opts):
    from . import multiplier as mult
    m = mult.validate(scene.grid("m"), opts.tol)
    f = mult.trivialize(m)
    return {"f": f}, {"splitting": mult.splitting_residual(m, f)}


def _cmd_mult_extract(scene, opts):
    from . import multiplier as mult
    family = mult.ProjectiveUnitaryFamily(scene.family("u"), opts.tol)
    m = mult.extract(family, opts.tol)
    return {"horizon": m.horizon, "values": m.values}, dict(m.residuals)


def _cmd_pair(scene, opts):
    from . import pairing
    cert = pairing.can_pair(scene.endomorphism("theta"),
                            scene.endomorphism("theta_prime"),
                            opts.tol)
    payload = {"outcome": "Paired" if cert.paired else "NotPaired"}
    if cert.paired:
        payload["unitary"] = cert.unitary
    if cert.table_left is not None:
        payload["table_left"] = asdict(cert.table_left)
        payload["table_right"] = asdict(cert.table_right)
    return payload, dict(cert.residuals)


def _cmd_pair_check(scene, opts):
    from . import pairing
    cert = pairing.check_pairing(scene.unitary("u"),
                                 scene.endomorphism("theta"),
                                 scene.endomorphism("theta_prime"),
                                 horizon=opts.horizon, tol=opts.tol)
    return {"outcome": "Paired", "unitary": cert.unitary}, dict(cert.residuals)


def _cmd_cocycle_link(scene, opts):
    from . import pairing
    family = pairing.cocycle_link(scene.endomorphism("theta1"),
                                  scene.endomorphism("theta2"),
                                  scene.endomorphism("theta_prime"),
                                  opts.horizon, opts.tol)
    return {"cocycle": family}, {}


def _cmd_symmetry_check(scene, opts):
    from . import pairing
    down, up = pairing.restriction_symmetry(scene.unitary("u"),
                                            scene.algebra("a"), opts.tol)
    return {"down": down, "up": up, "agree": down == up}, {}


# command -> (handler, default horizon or None when the flag is unused,
# scene entries the command reads)
_COMMANDS = {
    "algebra-commutant": (_cmd_algebra_commutant, None, 'algebra "a"'),
    "algebra-blocks": (_cmd_algebra_blocks, None, 'algebra "a"'),
    "endo-validate": (_cmd_endo_validate, None, 'endomorphism "theta"'),
    "corr-of-endo": (_cmd_corr_of_endo, None, 'endomorphism "theta"'),
    "corr-intertwiners": (_cmd_corr_intertwiners, None, 'endomorphism "theta"'),
    "corr-commutant": (_cmd_corr_intertwiners, None, 'endomorphism "theta"'),
    "corr-tensor": (_cmd_corr_tensor, None, 'endomorphisms "theta", "eta"'),
    "corr-iso": (_cmd_corr_iso, None, 'endomorphisms "theta", "eta"'),
    "prodsys-build": (_cmd_prodsys_build, 4, 'endomorphism "theta"'),
    "prodsys-commutant": (_cmd_prodsys_commutant, 4, 'endomorphism "theta"'),
    "bhat": (_cmd_bhat, 4, 'endomorphism "theta", vector "gamma"'),
    "dilation-commutant": (_cmd_dilation_commutant, 4,
                           'endomorphism "theta", unitary "u"'),
    "mult-check": (_cmd_mult_check, None, 'grid "m"'),
    "mult-trivialize": (_cmd_mult_trivialize, None, 'grid "m"'),
    "mult-extract": (_cmd_mult_extract, None, 'family "u"'),
    "pair": (_cmd_pair, None, 'endomorphisms "theta", "theta_prime"'),
    "pair-check": (_cmd_pair_check, 4,
                   'unitary "u", endomorphisms "theta", "theta_prime"'),
    "cocycle-link": (_cmd_cocycle_link, 6,
                     'endomorphisms "theta1", "theta2", "theta_prime"'),
    "symmetry-check": (_cmd_symmetry_check, None, 'unitary "u", algebra "a"'),
}


def _command_table() -> str:
    """Help epilog: the scene entries and default horizon of each command."""
    lines = ["commands and the scene entries they read:"]
    for name, (_, horizon, entries) in _COMMANDS.items():
        flag = f"  (--horizon, default {horizon})" if horizon is not None else ""
        lines.append(f"  {name:<20} {entries}{flag}")
    lines.append(f"  {'selftest':<20} no scene; --seed and --cap control the run")
    return "\n".join(lines)


def _array_text(a: np.ndarray, level: int) -> str:
    """The [re, im] lists of a non-empty complex array as json.dumps(indent=2)
    lays them out, in one pass: the text before an entry depends only on
    how many trailing indices roll over there, so numpy picks it per entry."""
    parts = np.stack((a.real, a.imag), axis=-1).astype(float)
    flat = parts.ravel()
    leaves = list(map(float.__repr__, flat.tolist()))
    for i in np.flatnonzero(~np.isfinite(flat)).tolist():
        leaves[i] = f'"{leaves[i]}"'  # strict JSON: non-finite floats as strings
    m = parts.ndim
    ind = ["\n" + "  " * (level + k) for k in range(m + 1)]
    close = ["".join(ind[j] + "]" for j in range(m - 1, m - 1 - k, -1)) for k in range(m + 1)]
    open_ = ["".join("[" + ind[j + 1] for j in range(m - k, m)) for k in range(m + 1)]
    table = [close[k] + "," + ind[m - k] + open_[k] for k in range(m)] + [open_[m]]
    rolls = np.zeros(flat.size, dtype=np.intp)
    for step in np.cumprod(parts.shape[::-1]).tolist():
        rolls[::step] += 1
    seps = np.array(table, dtype=object)[rolls].tolist()
    return "".join(map(str.__add__, seps, leaves)) + close[m]


def _render(obj, level: int = 0) -> str:
    """The text of json.dumps(obj, indent=2), with non-finite floats as
    strings and ndarrays as their [re, im] lists."""
    if isinstance(obj, np.ndarray):
        return _array_text(obj, level) if obj.size else _render(scenes.encode_matrix(obj), level)
    if isinstance(obj, float) and not math.isfinite(obj):
        return f'"{obj!r}"'
    if isinstance(obj, dict):
        items, ends = [json.dumps(k) + ": " + _render(v, level + 1) for k, v in obj.items()], "{}"
    elif isinstance(obj, (list, tuple)):
        items, ends = [_render(v, level + 1) for v in obj], "[]"
    else:
        return json.dumps(obj)  # str, int, float, bool or None; json refuses the rest
    if not items:
        return ends
    inner = "\n" + "  " * (level + 1)
    return ends[0] + inner + ("," + inner).join(items) + "\n" + "  " * level + ends[1]


def _report(command, status, payload, diagnostics, started: float, **error) -> dict:
    """The report object: an error entry on failures only, timing last."""
    return {"command": command, "status": status, "payload": payload,
            "diagnostics": diagnostics, **error,
            "timing": round(time.perf_counter() - started, 6)}


def _emit(report: dict, out_path, stderr_line: str) -> None:
    text = _render(report)
    print(text)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(stderr_line, file=sys.stderr)


def _run_selftest(args, started: float) -> int:
    for flag, value in (("seed", args.seed), ("cap", args.cap)):
        if value is not None and value < 0:
            raise ParseError(f"--{flag} must be non-negative, got {value}")
    from . import selftest as selftest_mod
    tol = scenes.resolve_tolerance(args.tol, None)
    seed = args.seed if args.seed is not None else 0
    results = selftest_mod.run_all(seed=seed, cap=args.cap, tol=tol,
                                   log=sys.stderr)
    ok = all(r.ok for r in results)
    report = _report("selftest", "ok" if ok else "fail",
                     {"seed": seed, "properties": [r.as_payload() for r in results]},
                     {r.name: r.worst for r in results}, started)
    summary = (f"selftest: {'ok' if ok else 'FAIL'}, "
               f"{sum(r.cases for r in results)} cases "
               f"in {report['timing']:.2f}s")
    _emit(report, args.out, summary)
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="vnpair",
        description="Operator-algebra scene processor; see the package "
                    "README for scene file\nstructure and command naming "
                    "conventions.",
        epilog=_command_table(),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", choices=sorted(_COMMANDS) + ["selftest"])
    parser.add_argument("--input", help="scene file (JSON)")
    parser.add_argument("--out", help="also write the report to this file")
    parser.add_argument("--tol", type=float,
                        help="tolerance override (beats scene and VNPAIR_TOL)")
    parser.add_argument("--seed", type=int,
                        help="selftest only: seed of the property draws (default 0)")
    parser.add_argument("--horizon", type=int,
                        help="largest time index for the semigroup commands")
    parser.add_argument("--cap", type=int,
                        help="selftest only: cap each property's case count")
    args = parser.parse_args(argv)
    started = time.perf_counter()

    def fail(exc, code):
        report = _report(args.command, "fail", {}, {}, started, error={
            "type": type(exc).__name__, "message": str(exc),
            "location": args.input or "(no input)",
            **{k: getattr(exc, k) for k in ("law", "residual", "residuals", "bound")
               if getattr(exc, k) is not None}})
        _emit(report, args.out,
              f"{args.command}: fail ({type(exc).__name__}: {exc})")
        return code

    try:
        if args.command == "selftest":
            return _run_selftest(args, started)
        if args.input is None:
            raise ParseError("--input is required for every command "
                             "except selftest")
        scene = scenes.load_scene(args.input, args.tol)
        handler, default_horizon, _ = _COMMANDS[args.command]
        horizon = args.horizon if args.horizon is not None else default_horizon
        if horizon is not None and horizon < 1:
            raise ParseError(f"--horizon must be at least 1, got {horizon}")
        opts = argparse.Namespace(tol=scene.tol, horizon=horizon)
        payload, diagnostics = handler(scene, opts)
    except ParseError as exc:
        return fail(exc, 2)
    except errors.VnpairError as exc:
        return fail(exc, 1)

    report = _report(args.command, "ok", payload,
                     {k: float(v) for k, v in diagnostics.items()}, started)
    hint = ""
    if "outcome" in payload:
        hint = f" ({payload['outcome']})"
    elif "dim" in payload:
        hint = f" (dim {payload['dim']})"
    _emit(report, args.out,
          f"{args.command}: ok{hint} in {report['timing']:.3f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
