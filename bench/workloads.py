"""The four workloads: seeded inputs, op schedules and per-op checks.

generate(seed) builds every input with numpy only (gen.py) and returns
plain arrays and scene dicts, which are digested. ops(inputs, ctx) turns
them into a schedule of Op objects that call vnpair's public functions.

Every op builds fresh program objects from the stored arrays before its
timer starts, so a cache that lives on an algebra or map object can help
within one op but never carries over from one op to the next.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from dataclasses import dataclass

import numpy as np

import checks as ck
import gen
from harness import Op, check

from vnpair import algebra as alg
from vnpair import correspondence as corr
from vnpair import endo
from vnpair import pairing
from vnpair import prodsys as ps


# ---------------------------------------------------------------------------
# shared model arrays


def model_arrays(blocks, rng) -> dict:
    """Every array of a hidden block model that an op or a check needs."""
    bm = gen.block_model(blocks, rng)
    return {"bm": bm, "n": bm.n, "basis": bm.basis(), "gens": bm.generators(),
            "cbasis": bm.commutant_basis(), "cgens": bm.commutant_generators(),
            "central": bm.central_projections()}


def algebra_of(m: dict) -> alg.VnAlgebra:
    return alg.VnAlgebra(m["n"], m["basis"], generators=m["gens"])


def commutant_of(m: dict) -> alg.VnAlgebra:
    return alg.VnAlgebra(m["n"], m["cbasis"], generators=m["cgens"])


def digest_view(inputs: dict) -> dict:
    """The arrays and scenes of an input set, without helper objects
    (the block model and keys starting with an underscore)."""
    def strip(x):
        if isinstance(x, dict):
            return {k: strip(v) for k, v in x.items()
                    if k != "bm" and not k.startswith("_")}
        if isinstance(x, (list, tuple)):
            return [strip(v) for v in x]
        return x
    return strip(inputs)


def late(module, name: str):
    """Call module.name looked up at call time, so that tracing wrappers
    installed after the schedule was built still see the call."""
    def call(*args):
        return getattr(module, name)(*args)
    return call


def transposed(signature) -> list:
    return sorted(((m, a) for a, m in signature), reverse=True)


# ---------------------------------------------------------------------------
# pair-decide


# Each in-process schedule has an odd number of slots (17). With an even number of equally
# repeated slots the median falls between the 8th and the 9th slowest slot,
# i.e. between the slowest sample of one group and the fastest of the other,
# and moves with every outlier. The 17th slot repeats the shape of the 9th
# slowest slot, so that the median lands inside a group of like ops.

# (label, kind, blocks): kind is paired, unpaired or cocycle
PAIR_SLOTS = [
    ("p6a", "paired", [(1, 2), (1, 2), (2, 1)]),
    ("n6", "unpaired", [(1, 2), (1, 2), (2, 1)]),
    ("p8a", "paired", [(2, 2), (2, 2)]),
    ("c6a", "cocycle", [(1, 2), (1, 2), (2, 1)]),
    ("p6b", "paired", [(2, 1), (2, 1), (1, 2)]),
    ("p12a", "paired", [(2, 3), (2, 3)]),
    ("n8", "unpaired", [(2, 2), (2, 2)]),
    ("p8b", "paired", [(1, 2), (1, 2), (2, 1), (2, 1)]),
    ("p6c", "paired", [(1, 2), (1, 2), (1, 2)]),
    ("n12", "unpaired", [(2, 3), (2, 3)]),
    ("p8c", "paired", [(2, 2), (2, 2)]),
    ("c6b", "cocycle", [(2, 1), (2, 1), (1, 2)]),
    ("p6d", "paired", [(2, 1), (2, 1), (2, 1)]),
    ("p12b", "paired", [(2, 2), (2, 2), (1, 2), (1, 2)]),
    ("n8b", "unpaired", [(1, 2), (1, 2), (2, 1), (2, 1)]),
    ("p6e", "paired", [(1, 2), (1, 2), (2, 1)]),
    ("p6f", "paired", [(2, 1), (2, 1), (2, 1)]),
]
PAIR_CHECK_HORIZON = 4
COCYCLE_HORIZON = 6


class PairDecide:
    name = "pair-decide"

    def generate(self, seed: int) -> dict:
        out = {}
        for label, kind, blocks in PAIR_SLOTS:
            rng = gen.rng_for(seed, self.name, label)
            m = model_arrays(blocks, rng)
            bm = m["bm"]
            if kind == "unpaired":
                # theta swaps two blocks of equal shape, theta' is the identity
                u = bm.swap_unitary(rng)
                m["theta"] = gen.conj_adjoint(u, m["basis"])
                m["theta_prime"] = m["cbasis"].copy()
            else:
                u = bm.normalizing_unitary(rng)
                m["theta"] = gen.conj_adjoint(u, m["basis"])
                m["theta_prime"] = gen.conj_direct(u, m["cbasis"])
            m["u"] = u
            if kind == "cocycle":
                # a second map paired with the same theta': u2 = u w*, w in B
                m["u2"] = u @ bm.inner_unitary(rng).conj().T
                m["theta2"] = gen.conj_adjoint(m["u2"], m["basis"])
            out[label] = m
        return out

    def ops(self, inputs: dict, ctx) -> list:
        schedule = []
        for label, kind, blocks in PAIR_SLOTS:
            m = inputs[label]
            if kind == "cocycle":
                schedule.append(Op("cocycle_link", label, _cocycle_prepare(m),
                                   _cocycle_call, _cocycle_verify(m)))
            else:
                schedule.append(Op("can_pair", label, _pair_prepare(m),
                                   _decide, _decide_verify(m, kind == "paired")))
        return schedule


def _pair_prepare(m):
    def prepare():
        b, bp = algebra_of(m), commutant_of(m)
        return endo.Endomorphism(b, m["theta"]), endo.Endomorphism(bp, m["theta_prime"])
    return prepare


def _decide(theta, theta_prime):
    cert = pairing.can_pair(theta, theta_prime)
    again = None
    if cert.paired:
        again = pairing.check_pairing(cert.unitary, theta, theta_prime,
                                      horizon=PAIR_CHECK_HORIZON)
    return cert, again


def _decide_verify(m, expect_paired: bool):
    bm, n, u = m["bm"], m["n"], m["u"]

    def verify(out):
        cert, again = out
        check(cert.paired == expect_paired,
              f"verdict {'Paired' if cert.paired else 'NotPaired'}, construction says "
              f"{'Paired' if expect_paired else 'NotPaired'}")
        check(tuple(cert.table_left.left_blocks) == bm.signature,
              f"block signature {cert.table_left.left_blocks}, expected {bm.signature}")
        check(list(cert.table_left.right_blocks) == transposed(bm.signature),
              f"commutant signature {cert.table_left.right_blocks}")
        if not expect_paired:
            check(cert.table_left.counts != cert.table_right.counts,
                  "NotPaired with equal multiplicity tables")
            return
        v = cert.unitary
        ck.unitary(v, n, "pairing unitary")
        ck.unitary(again.unitary, n, "checked unitary")
        for k in range(1, PAIR_CHECK_HORIZON + 1):
            vk, uk = np.linalg.matrix_power(v, k), np.linalg.matrix_power(u, k)
            ck.implements(vk, uk, m["gens"], "adjoint", f"U^{k}* b U^{k} vs theta^{k}(b)")
            ck.implements(vk, uk, m["cgens"], "direct", f"U^{k} b' U^{k}* vs theta'^{k}(b')")
    return verify


def _cocycle_prepare(m):
    def prepare():
        b, bp = algebra_of(m), commutant_of(m)
        return (endo.Endomorphism(b, m["theta"]), endo.Endomorphism(b, m["theta2"]),
                endo.Endomorphism(bp, m["theta_prime"]))
    return prepare


def _cocycle_call(theta1, theta2, theta_prime):
    return pairing.cocycle_link(theta1, theta2, theta_prime, COCYCLE_HORIZON)


def _cocycle_verify(m):
    n, u1, u2 = m["n"], m["u"], m["u2"]

    def verify(family):
        check(len(family) == COCYCLE_HORIZON,
              f"{len(family)} cocycle terms, expected {COCYCLE_HORIZON}")
        for k, c in enumerate(family, start=1):
            ck.unitary(c, n, f"c_{k}")
            ck.commute([c], m["cgens"], f"c_{k} in B")
            # c_k theta1^k(b) c_k* = theta2^k(b), theta_i^k = Ad (u_i^k)*
            p1, p2 = np.linalg.matrix_power(u1, k), np.linalg.matrix_power(u2, k)
            lhs = c @ gen.conj_adjoint(p1, m["gens"]) @ c.conj().T
            rhs = gen.conj_adjoint(p2, m["gens"])
            res = ck.fro(lhs - rhs)
            check(res <= ck.bound(ck.fro(m["gens"])), f"c_{k} links the iterates, residual {res:.3e}")
    return verify


# ---------------------------------------------------------------------------
# prodsys-horizon


# (label, op, blocks or full-algebra size, horizon)
PRODSYS_SLOTS = [
    ("fe-a4", "from_endomorphism", [(1, 2), (1, 2)], 6),
    ("cvd-a4", "commutant_via_dilation", [(1, 2), (1, 2)], 4),
    ("cs-d6", "commutant_system", [(1, 2), (2, 1), (1, 2)], 4),
    ("bhat-3", "bhat_system", 3, 6),
    ("rd-c6", "right_dilation_from_unitary", [(1, 2), (2, 2)], 5),
    ("fe-c6", "from_endomorphism", [(1, 2), (2, 2)], 5),
    ("cvd-c6b", "commutant_via_dilation", [(1, 2), (2, 2)], 4),
    ("cs-a4", "commutant_system", [(1, 2), (1, 2)], 6),
    ("bhat-5", "bhat_system", 5, 5),
    ("rd-e8", "right_dilation_from_unitary", [(2, 2), (2, 2)], 4),
    ("fe-e8", "from_endomorphism", [(2, 2), (2, 2)], 4),
    ("cvd-c6", "commutant_via_dilation", [(1, 2), (2, 2)], 4),
    ("cs-c6", "commutant_system", [(1, 2), (2, 2)], 5),
    ("bhat-6", "bhat_system", 6, 4),
    ("rd-a4", "right_dilation_from_unitary", [(1, 2), (1, 2)], 6),
    ("fe-b4", "from_endomorphism", [(2, 1), (1, 2)], 5),
    ("cs-d6b", "commutant_system", [(1, 2), (2, 1), (1, 2)], 4),
]


class ProdsysHorizon:
    name = "prodsys-horizon"

    def generate(self, seed: int) -> dict:
        out = {}
        for label, op, shape, horizon in PRODSYS_SLOTS:
            rng = gen.rng_for(seed, self.name, label)
            if op == "bhat_system":
                n = shape
                u = gen.haar_unitary(n, rng)
                units = np.eye(n * n, dtype=complex).reshape(n * n, n, n)
                out[label] = {"n": n, "horizon": horizon, "basis": units,
                              "gens": units[1:n], "u": u,
                              "theta": gen.conj_adjoint(u, units),
                              "gamma": gen.unit_vector(n, rng)}
                continue
            m = model_arrays(shape, rng)
            if op in ("from_endomorphism", "commutant_system"):
                # an automorphism that may also permute equal blocks
                u = m["bm"].normalizing_unitary(rng)
            else:
                # dilations are built from a unitary of B itself
                u = m["bm"].inner_unitary(rng)
            m.update(horizon=horizon, u=u, theta=gen.conj_adjoint(u, m["basis"]))
            out[label] = m
        return out

    def ops(self, inputs: dict, ctx) -> list:
        makers = {"from_endomorphism": _fe_op, "commutant_system": _cs_op,
                  "right_dilation_from_unitary": _rd_op,
                  "commutant_via_dilation": _cvd_op, "bhat_system": _bhat_op}
        return [makers[op](label, inputs[label]) for label, op, _, _ in PRODSYS_SLOTS]


def _theta(m):
    return endo.Endomorphism(algebra_of(m), m["theta"])


def _system(m):
    return ps.from_endomorphism(_theta(m), m["horizon"])


def _members_verify(p, n, horizon, element_dim, what):
    check(len(p.members) == horizon + 1, f"{what}: {len(p.members)} members")
    carriers = [e.carrier_dim for e in p.members]
    check(carriers == [n] * (horizon + 1), f"{what}: carriers {carriers}")
    dims = [e.element_space.shape[0] for e in p.members]
    check(dims == [element_dim] * (horizon + 1), f"{what}: element dimensions {dims}")
    for key in ((1, 1), (0, horizon), (1, horizon - 1)):
        ck.unitary(p.products[key], n, f"{what}: product {key}")


def _fe_op(label, m):
    bm, n, horizon = m["bm"], m["n"], m["horizon"]

    def verify(p):
        _members_verify(p, n, horizon, bm.dim, "from_endomorphism")
    return Op("from_endomorphism", label, lambda: (_theta(m), horizon),
              late(ps, "from_endomorphism"), verify)


def _cs_op(label, m):
    bm, n, horizon = m["bm"], m["n"], m["horizon"]

    def verify(q):
        _members_verify(q, n, horizon, bm.commutant_dim, "commutant_system")
    return Op("commutant_system", label, lambda: (_system(m),),
              late(ps, "commutant_system"), verify)


def _rd_op(label, m):
    n, horizon, u = m["n"], m["horizon"], m["u"]

    def verify(w):
        check(len(w.maps) == horizon + 1, f"{len(w.maps)} dilation maps")
        for t in range(horizon + 1):
            ck.unitary(w.maps[t], n, f"dilation map {t}")
    return Op("right_dilation_from_unitary", label, lambda: (_system(m), u),
              late(ps, "right_dilation_from_unitary"), verify)


def _cvd_op(label, m):
    n, horizon, u = m["n"], m["horizon"], m["u"]

    def prepare():
        p = _system(m)
        return p, ps.right_dilation_from_unitary(p, u)

    def verify(out):
        carriers = [e.carrier_dim for e in out.system.members]
        check(carriers == [n] * (horizon + 1), f"dilation-side carriers {carriers}")
        ck.isometry(out.xi, n, n, "xi")
        check(len(out.nu) == horizon + 1, f"{len(out.nu)} comparison maps")
    return Op("commutant_via_dilation", label, prepare,
              late(ps, "commutant_via_dilation"), verify)


def _bhat_op(label, m):
    n, horizon = m["n"], m["horizon"]

    def prepare():
        full = alg.VnAlgebra(n, m["basis"], generators=m["gens"])
        return endo.Endomorphism(full, m["theta"]), m["gamma"], horizon

    def verify(system):
        check(system.dims == [1] * (horizon + 1), f"compressed dimensions {system.dims}")
        for t, v in enumerate(system.dilations):
            ck.unitary(v, n, f"bhat dilation {t}")
        for key, prod in system.products.items():
            ck.unitary(prod, 1, f"bhat product {key}")
    return Op("bhat_system", label, prepare, late(ps, "bhat_system"), verify)


# ---------------------------------------------------------------------------
# structure-large


STRUCTURE_MODELS = {
    "s16a": [(2, 2), (2, 2), (3, 2), (1, 2)],
    "s16b": [(2, 4), (2, 4)],
    "s24": [(3, 4), (3, 4)],
    "s32": [(2, 8), (2, 8)],
}
# (op, model, expected verdict of the ops that return one)
STRUCTURE_SLOTS = [
    ("commutant", "s16a", None),
    ("find_isomorphism", "s16a", True),
    ("center", "s16b", None),
    ("block_decompose", "s16b", None),
    ("restriction_symmetry", "s16a", True),
    ("commutant", "s32", None),
    ("block_decompose", "s24", None),
    ("find_isomorphism", "s16b", False),
    ("commutant", "s24", None),
    ("center", "s16a", None),
    ("restriction_symmetry", "s16b", False),
    ("block_decompose", "s32", None),
    ("commutant", "s16b", None),
    ("find_isomorphism", "s16a", False),
    ("block_decompose", "s16a", None),
    ("restriction_symmetry", "s16a", False),
    ("block_decompose", "s16a", None),
]


class StructureLarge:
    name = "structure-large"

    def generate(self, seed: int) -> dict:
        out = {}
        for label, blocks in STRUCTURE_MODELS.items():
            rng = gen.rng_for(seed, self.name, label)
            m = model_arrays(blocks, rng)
            bm = m["bm"]
            # isomorphic twists share the block permutation; the others differ
            u1 = bm.swap_unitary(rng)
            u_same = bm.swap_unitary(rng)
            u_other = bm.normalizing_unitary(rng, list(range(len(blocks))))
            m.update(theta1=gen.conj_adjoint(u1, m["basis"]),
                     theta_same=gen.conj_adjoint(u_same, m["basis"]),
                     theta_other=gen.conj_adjoint(u_other, m["basis"]),
                     normalizing=bm.normalizing_unitary(rng),
                     haar=gen.haar_unitary(bm.n, rng))
            out[label] = m
        return out

    def ops(self, inputs: dict, ctx) -> list:
        structural = {"commutant": _commutant_verify, "center": _center_verify,
                      "block_decompose": _blocks_verify}
        out = []
        for i, (op, label, expect) in enumerate(STRUCTURE_SLOTS):
            m = inputs[label]
            tag = f"{label}#{i}"
            if op in structural:
                out.append(Op(op, tag, lambda m=m: (algebra_of(m),), late(alg, op),
                              structural[op](m)))
            elif op == "restriction_symmetry":
                u = m["normalizing"] if expect else m["haar"]
                out.append(Op(op, tag, lambda m=m, u=u: (u, algebra_of(m)),
                              late(pairing, op), _symmetry_verify(expect)))
            else:
                out.append(Op(op, tag, _iso_prepare(m, expect), late(corr, op),
                              _iso_verify(m, expect)))
        return out


def _commutant_verify(m):
    bm = m["bm"]

    def verify(c):
        check(c.dim == bm.commutant_dim, f"commutant dimension {c.dim}, expected {bm.commutant_dim}")
        ck.orthonormal(c.basis, "commutant basis")
        ck.inside_span(c.basis, m["cbasis"], "commutant basis")
    return verify


def _center_verify(m):
    bm = m["bm"]

    def verify(z):
        check(z.dim == len(bm.blocks), f"center dimension {z.dim}, expected {len(bm.blocks)}")
        ck.inside_span(z.basis, ck.unit_span(m["central"]), "center basis")
    return verify


def _blocks_verify(m):
    bm, n = m["bm"], m["n"]

    def verify(sig):
        check(tuple(sig.blocks) == bm.signature, f"signature {sig.blocks}, expected {bm.signature}")
        p = np.asarray(sig.central_projections)
        res = ck.fro(p @ p - p)
        check(res <= ck.bound(ck.fro(p)), f"central projections not idempotent, residual {res:.3e}")
        res = ck.fro(p.sum(axis=0) - np.eye(n))
        check(res <= ck.bound(np.sqrt(n)), f"central projections do not sum to 1, residual {res:.3e}")
        ck.inside_span(p, ck.unit_span(m["central"]), "central projections")
    return verify


def _symmetry_verify(expect: bool):
    def verify(out):
        check(tuple(out) == (expect, expect), f"restriction symmetry {out}, expected {(expect, expect)}")
    return verify


def _iso_prepare(m, expect: bool):
    other = "theta_same" if expect else "theta_other"

    def prepare():
        b, bp = algebra_of(m), commutant_of(m)
        e = corr.of_endomorphism(endo.Endomorphism(b, m["theta1"]), right_commutant=bp)
        f = corr.of_endomorphism(endo.Endomorphism(b, m[other]), right_commutant=bp)
        return e, f
    return prepare


def _iso_verify(m, expect: bool):
    n = m["n"]
    other = "theta_same" if expect else "theta_other"
    # images of the generators under the two maps, for u theta1(g) = theta2(g) u
    coeffs = np.einsum("dij,gij->gd", m["basis"].conj(), m["gens"])

    def verify(decision):
        check(decision.isomorphic == expect, f"isomorphic={decision.isomorphic}, expected {expect}")
        if not expect:
            check(decision.table_left.counts != decision.table_right.counts,
                  "not isomorphic with equal tables")
            return
        u = decision.unitary
        ck.unitary(u, n, "intertwining unitary")
        img1 = np.tensordot(coeffs, m["theta1"], axes=(1, 0))
        img2 = np.tensordot(coeffs, m[other], axes=(1, 0))
        res = ck.fro(u @ img1 - img2 @ u)
        check(res <= ck.bound(ck.fro(img1)), f"u does not intertwine the maps, residual {res:.3e}")
        ck.commute([u], m["cgens"], "u against the commutant")
    return verify


# ---------------------------------------------------------------------------
# cli-scenes


@dataclass
class CliCase:
    label: str
    command: str
    scene: dict
    code: int
    expect: dict


def _alg_scene(m, name="a") -> dict:
    return {name: {"generators": [gen.enc_matrix(g) for g in m["gens"]]}}


def _with_commutant(m) -> dict:
    algebras = _alg_scene(m)
    algebras["a_commutant"] = {"generators": [gen.enc_matrix(g) for g in m["cgens"]]}
    return algebras


def cli_cases(seed: int) -> list:
    """The cycle of CLI cases: all 19 scene commands, two more N = 128
    mult-check grids, and two malformed scenes that must exit 2."""
    def rng(label):
        return gen.rng_for(seed, "cli-scenes", label)

    def model(label, blocks):
        return model_arrays(blocks, rng(label))

    cases = []
    add = cases.append

    m = model("alg", [(1, 2), (2, 1), (1, 2)])
    bm = m["bm"]
    base = {"ambient_dim": m["n"], "algebras": _alg_scene(m)}
    add(CliCase("alg", "algebra-commutant", base, 0, {"dim": bm.commutant_dim}))
    add(CliCase("alg", "algebra-blocks", base, 0,
                {"blocks": [list(b) for b in bm.signature]}))

    m = model("endo", [(1, 2), (1, 2)])
    bm = m["bm"]
    u = bm.normalizing_unitary(rng("endo-u"))
    scene = {"ambient_dim": m["n"], "algebras": _alg_scene(m),
             "unitaries": {"u": gen.enc_matrix(u)},
             "endomorphisms": {"theta": {"domain": "a", "unitary": "u", "direction": "adjoint"}}}
    add(CliCase("endo", "endo-validate", scene, 0, {"faithful": True, "automorphism": True}))
    add(CliCase("endo", "corr-of-endo", scene, 0,
                {"carrier_dim": m["n"], "element_dim": bm.dim}))
    add(CliCase("endo", "corr-intertwiners", scene, 0,
                {"carrier_dim": m["n"], "element_dim": bm.commutant_dim}))
    add(CliCase("endo", "corr-commutant", scene, 0,
                {"carrier_dim": m["n"], "element_dim": bm.commutant_dim}))
    add(CliCase("endo", "prodsys-build", scene, 0,
                {"carriers": [m["n"]] * 5, "element_dims": [bm.dim] * 5}))
    add(CliCase("endo", "prodsys-commutant", scene, 0,
                {"carriers": [m["n"]] * 5, "element_dims": [bm.commutant_dim] * 5}))

    m = model("two", [(2, 1), (2, 1)])
    bm = m["bm"]
    r = rng("two-u")
    u1, u2, u3 = bm.swap_unitary(r), bm.swap_unitary(r), bm.normalizing_unitary(r, [0, 1])
    pair_scene = lambda v, w: {  # noqa: E731
        "ambient_dim": m["n"], "algebras": _alg_scene(m),
        "unitaries": {"u1": gen.enc_matrix(v), "u2": gen.enc_matrix(w)},
        "endomorphisms": {"theta": {"domain": "a", "unitary": "u1", "direction": "adjoint"},
                          "eta": {"domain": "a", "unitary": "u2", "direction": "adjoint"}}}
    add(CliCase("two", "corr-tensor", pair_scene(u1, u3), 0,
                {"carrier_dim": m["n"], "element_dim": bm.dim}))
    add(CliCase("two", "corr-iso", pair_scene(u1, u2), 0, {"isomorphic": True}))

    m = model("inner", [(1, 2), (2, 1)])
    u = m["bm"].inner_unitary(rng("inner-u"))
    add(CliCase("inner", "dilation-commutant",
                {"ambient_dim": m["n"], "algebras": _alg_scene(m),
                 "unitaries": {"u": gen.enc_matrix(u)},
                 "endomorphisms": {"theta": {"domain": "a", "unitary": "u",
                                             "direction": "adjoint"}}},
                0, {"carriers": [m["n"]] * 5}))

    n = 3
    r = rng("bhat")
    frame = gen.haar_unitary(n, r)
    units = np.eye(n * n, dtype=complex).reshape(n * n, n, n)[1:n]
    gens = frame @ units @ frame.conj().T
    add(CliCase("bhat", "bhat",
                {"ambient_dim": n,
                 "algebras": {"a": {"generators": [gen.enc_matrix(g) for g in gens]}},
                 "unitaries": {"u": gen.enc_matrix(gen.haar_unitary(n, r))},
                 "vectors": {"gamma": gen.enc_vector(gen.unit_vector(n, r))},
                 "endomorphisms": {"theta": {"domain": "a", "unitary": "u",
                                             "direction": "adjoint"}}},
                0, {"dims": [1] * 5}))

    # three N = 128 grids: 1 op in 8 is mult-check, and that share sets p90
    for label in ("grid128a", "grid128b", "grid128c"):
        grid = gen.coboundary_grid(128, rng(label))
        add(CliCase(label, "mult-check",
                    {"ambient_dim": 1, "grids": {"m": gen.enc_matrix(grid)}}, 0, {"horizon": 128}))
    grid96 = gen.coboundary_grid(96, rng("grid96"))
    add(CliCase("grid96", "mult-trivialize",
                {"ambient_dim": 1, "grids": {"m": gen.enc_matrix(grid96)}}, 0,
                {"splits": grid96}))
    family = gen.projective_family(129, 2, rng("family"))
    add(CliCase("family", "mult-extract",
                {"ambient_dim": 2, "families": {"u": [gen.enc_matrix(x) for x in family]}},
                0, {"horizon": 64}))

    m = model("pair", [(1, 2), (1, 2), (2, 1)])
    r = rng("pair-u")
    u = m["bm"].normalizing_unitary(r)
    w = m["bm"].inner_unitary(r)
    pair_base = {"ambient_dim": m["n"], "algebras": _with_commutant(m)}
    paired = dict(pair_base, unitaries={"u": gen.enc_matrix(u)}, endomorphisms={
        "theta": {"domain": "a", "unitary": "u", "direction": "adjoint"},
        "theta_prime": {"domain": "a_commutant", "unitary": "u", "direction": "direct"}})
    add(CliCase("pair", "pair", paired, 0, {"outcome": "Paired"}))
    add(CliCase("pair", "pair-check", paired, 0, {"outcome": "Paired"}))
    add(CliCase("pair", "cocycle-link",
                dict(pair_base,
                     unitaries={"u1": gen.enc_matrix(u), "u2": gen.enc_matrix(u @ w.conj().T)},
                     endomorphisms={
                         "theta1": {"domain": "a", "unitary": "u1", "direction": "adjoint"},
                         "theta2": {"domain": "a", "unitary": "u2", "direction": "adjoint"},
                         "theta_prime": {"domain": "a_commutant", "unitary": "u1",
                                         "direction": "direct"}}),
                0, {"cocycle_len": 6}))

    m = model("sym", [(2, 2), (1, 2)])
    add(CliCase("sym", "symmetry-check",
                {"ambient_dim": m["n"], "algebras": _alg_scene(m),
                 "unitaries": {"u": gen.enc_matrix(gen.haar_unitary(m["n"], rng("sym-u")))}},
                0, {"down": False, "up": False, "agree": True}))

    bad = dict(base, colour="blue")
    add(CliCase("bad-key", "algebra-commutant", bad, 2, {"error": "ParseError"}))
    ragged = [row[:] for row in gen.enc_matrix(gen.coboundary_grid(8, rng("ragged")))]
    ragged[3] = ragged[3][:-1]
    add(CliCase("bad-row", "mult-check", {"ambient_dim": 1, "grids": {"m": ragged}}, 2,
                {"error": "ParseError"}))

    # interleave so that a truncated cycle keeps the mix
    order = [0, 12, 2, 17, 8, 21, 3, 15, 10, 13, 18, 5, 1, 16, 11, 6, 19, 14, 4, 22, 9, 20, 7]
    return [cases[i] for i in order]


def verify_report(case: CliCase, code: int, text: str) -> None:
    check(code == case.code, f"exit code {code}, expected {case.code}")
    report = json.loads(text)
    status = "ok" if case.code == 0 else "fail"
    check(report.get("status") == status, f"status {report.get('status')!r}, expected {status!r}")
    if case.code != 0:
        check(report["error"]["type"] == case.expect["error"],
              f"error type {report['error']['type']}")
        return
    payload = report["payload"]
    for key, want in case.expect.items():
        if key == "splits":
            ck.splits(want, ck.decode_matrix(payload["f"]), "mult-trivialize f")
        elif key == "cocycle_len":
            check(len(payload["cocycle"]) == want, f"{len(payload['cocycle'])} cocycle terms")
        else:
            check(payload.get(key) == want, f"{key} = {payload.get(key)!r}, expected {want!r}")


class CliScenes:
    name = "cli-scenes"

    def generate(self, seed: int) -> dict:
        cases = cli_cases(seed)
        return {"cases": [{"label": c.label, "command": c.command, "scene": c.scene,
                           "code": c.code} for c in cases],
                "_cases": cases}

    def ops(self, inputs: dict, ctx) -> list:
        ops = []
        for i, case in enumerate(inputs["_cases"]):
            path = os.path.join(ctx.workdir, f"scene-{i:02d}-{case.label}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(case.scene, fh)
            argv = [case.command, "--input", path]
            if ctx.in_process:
                call = _in_process(argv, ctx)
            else:
                call = _subprocess(argv, ctx)
            ops.append(Op("cli", f"{case.label}:{case.command}", tuple, call,
                          lambda out, case=case: verify_report(case, *out)))
        return ops


def _subprocess(argv, ctx):
    def call():
        proc = subprocess.run([sys.executable, "-m", "vnpair.cli", *argv],
                              cwd=ctx.root, env=ctx.env, capture_output=True,
                              text=True, timeout=120)
        return proc.returncode, proc.stdout
    return call


def _in_process(argv, ctx):
    from vnpair import cli

    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        text = out.getvalue()
        ctx.report_bytes += report_bytes(text)
        return code, text
    return call


_TIMING = re.compile(r'"timing": [0-9.eE+-]+')


def report_bytes(text: str) -> int:
    """Size of a CLI report with its wall-clock field blanked, so it repeats."""
    return len(_TIMING.sub('"timing": 0', text).encode())


WORKLOADS = {w.name: w for w in (PairDecide(), ProdsysHorizon(), StructureLarge(), CliScenes())}
