"""Traced runs: timing wrappers around vnpair's public functions.

The wrappers are installed from the benchmark's own files by patching
module attributes and class attributes; the package itself has no tracing
code. Each wrapped call records a span (name, start, end, parent, op id)
in memory; spans are written out when the run ends. Self time is a span's
duration minus the time its direct children cover.

A name bound with ``from module import f`` before the patch keeps pointing
at the original function, so calls through it are invisible;
``unseen_call_sites`` lists every such binding.
"""

from __future__ import annotations

import functools
import sys
import time
import weakref
from collections import defaultdict

LAYERS = ("numkernel", "algebra", "endo", "correspondence", "prodsys",
          "multiplier", "pairing", "scenes", "cli")

# (metric name, module, class or None, attribute); the layer is the first
# component of the metric name
TARGETS = [
    ("numkernel.commuting_null_space", "numkernel", None, "commuting_null_space"),
    ("numkernel.orthonormalize", "numkernel", None, "orthonormalize"),
    ("numkernel.polar_unitary", "numkernel", None, "polar_unitary"),
    ("numkernel.polar_isometry", "numkernel", None, "polar_isometry"),
    ("numkernel.lstsq_map", "numkernel", None, "lstsq_map"),
    ("numkernel.numeric_rank", "numkernel", None, "numeric_rank"),
    ("algebra.from_generators", "algebra", None, "from_generators"),
    ("algebra.commutant", "algebra", None, "commutant"),
    ("algebra.center", "algebra", None, "center"),
    ("algebra.block_decompose", "algebra", None, "block_decompose"),
    ("algebra.equals", "algebra", None, "equals"),
    ("endo.make", "endo", None, "make"),
    ("endo.compose", "endo", None, "compose"),
    ("endo.from_unitary", "endo", None, "from_unitary"),
    ("endo.is_faithful", "endo", None, "is_faithful"),
    ("correspondence.element_space", "correspondence", "Correspondence", "element_space"),
    ("correspondence.TensorProduct", "correspondence", "TensorProduct", "__init__"),
    ("correspondence.find_isomorphism", "correspondence", None, "find_isomorphism"),
    ("correspondence.tensor_commutant_iso", "correspondence", None, "tensor_commutant_iso"),
    ("correspondence.validate", "correspondence", "Correspondence", "validate"),
    ("prodsys.from_endomorphism", "prodsys", None, "from_endomorphism"),
    ("prodsys.commutant_system", "prodsys", None, "commutant_system"),
    ("prodsys.DiscreteProductSystem.validate", "prodsys", "DiscreteProductSystem", "validate"),
    ("prodsys.right_dilation_from_unitary", "prodsys", None, "right_dilation_from_unitary"),
    ("prodsys.commutant_via_dilation", "prodsys", None, "commutant_via_dilation"),
    ("prodsys.SystemRepresentation.validate", "prodsys", "SystemRepresentation", "validate"),
    ("prodsys.bhat_system", "prodsys", None, "bhat_system"),
    ("multiplier.validate", "multiplier", None, "validate"),
    ("multiplier.coboundary", "multiplier", None, "coboundary"),
    ("multiplier.trivialize", "multiplier", None, "trivialize"),
    ("multiplier.extract", "multiplier", None, "extract"),
    ("pairing.can_pair", "pairing", None, "can_pair"),
    ("pairing.check_pairing", "pairing", None, "check_pairing"),
    ("pairing.isomorphism_from_pairing", "pairing", None, "isomorphism_from_pairing"),
    ("pairing.pairing_from_isomorphism", "pairing", None, "pairing_from_isomorphism"),
    ("pairing.cocycle_link", "pairing", None, "cocycle_link"),
    ("pairing.restriction_symmetry", "pairing", None, "restriction_symmetry"),
    ("scenes.load_scene", "scenes", None, "load_scene"),
    ("scenes.Scene.algebra", "scenes", "Scene", "algebra"),
    ("scenes.Scene.endomorphism", "scenes", "Scene", "endomorphism"),
    ("scenes.encode_matrix", "scenes", None, "encode_matrix"),
    ("cli.main", "cli", None, "main"),
]

# hot accessors that get a call counter but no span
COUNTED = [("prodsys.eta_of", "prodsys", "SystemRepresentation", "eta_of")]


class Tracer:
    """In-memory span recorder plus named counters."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, op id]
        self.stack: list = []
        self.op_id = -1
        self.counters: dict = defaultdict(float)
        self.maxima: dict = defaultdict(float)
        self._serial = weakref.WeakKeyDictionary()
        self._next_serial = 0
        self.commutant_keys: set = set()

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op_id])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        popped = self.stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed while {popped} was open")

    def serial(self, obj) -> int:
        """Stable number for an object while it lives; never reused."""
        if obj not in self._serial:
            self._serial[obj] = self._next_serial
            self._next_serial += 1
        return self._serial[obj]

    def root(self, op_id: int, kind: str, fn, args):
        """Run one op under a root span named after its kind."""
        self.op_id = op_id
        idx = self.open(f"op.{kind}")
        try:
            return fn(*args)
        finally:
            self.close(idx)
            self.op_id = -1


def _spanned(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.op_id < 0:  # outside an op: input preparation, checks
            return fn(*args, **kwargs)
        idx = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(tracer, args, kwargs, out)
        return out
    return wrapper


def _counted(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.op_id >= 0:
            tracer.counters[name + ".calls"] += 1
        return fn(*args, **kwargs)
    return wrapper


# computed counters, evaluated from the arguments and results of a call


def _after_null_space(tracer, args, kwargs, out):
    shape = args[1] if len(args) > 1 else kwargs["shape"]
    dim = int(shape[0]) * int(shape[1])
    base = "numkernel.commuting_null_space"
    tracer.maxima[base + ".unknowns_max"] = max(tracer.maxima[base + ".unknowns_max"], dim)
    tracer.counters[base + ".eigh_flops"] += dim ** 3
    tracer.counters[base + ".matrix_bytes"] += 16 * dim ** 2


def _after_commutant(tracer, args, kwargs, out):
    from vnpair import numkernel as nk

    a = args[0] if args else kwargs["a"]
    tol = args[1] if len(args) > 1 else kwargs.get("tol", nk.DEFAULT_TOL)
    tracer.commutant_keys.add((tracer.serial(a), float(tol.eps)))


def _after_tensor(tracer, args, kwargs, out):
    self = args[0]
    dim = int(self.left_basis.shape[0]) * int(self.f.carrier_dim)
    key = "correspondence.TensorProduct.gram_dim_max"
    tracer.maxima[key] = max(tracer.maxima[key], dim)


def _after_validate_grid(tracer, args, kwargs, out):
    size = out.values.shape[0]
    tracer.counters["multiplier.validate.triple_bytes"] += 16 * size ** 3


def _after_can_pair(tracer, args, kwargs, out):
    tracer.counters["pairing.can_pair.paired"] += bool(out.paired)


AFTER = {
    "numkernel.commuting_null_space": _after_null_space,
    "algebra.commutant": _after_commutant,
    "correspondence.TensorProduct": _after_tensor,
    "multiplier.validate": _after_validate_grid,
    "pairing.can_pair": _after_can_pair,
}


def _module(short: str):
    import importlib

    return importlib.import_module(f"vnpair.{short}")


def install(tracer: Tracer):
    """Patch every target; returns a function that restores the originals."""
    restore = []
    for name, mod_name, cls_name, attr in TARGETS + COUNTED:
        owner = _module(mod_name)
        if cls_name is not None:
            owner = getattr(owner, cls_name)
        original = owner.__dict__[attr] if cls_name else getattr(owner, attr)
        if isinstance(original, functools.cached_property):
            wrapped = functools.cached_property(
                _spanned(tracer, name, original.func, AFTER.get(name)))
            wrapped.__set_name__(owner, attr)
        elif (name, mod_name, cls_name, attr) in COUNTED:
            wrapped = _counted(tracer, name, original)
        else:
            wrapped = _spanned(tracer, name, original, AFTER.get(name))
        setattr(owner, attr, wrapped)
        restore.append((owner, attr, original))

    def uninstall():
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)
    return uninstall


def unseen_call_sites() -> list:
    """Names in vnpair modules bound to a target function by import, which
    the module-attribute patch does not reach."""
    originals = {}
    for name, mod_name, cls_name, attr in TARGETS:
        if cls_name is None:
            originals[id(getattr(_module(mod_name), attr))] = (name, mod_name, attr)
    out = []
    for mod_full, module in sorted(sys.modules.items()):
        if not mod_full.startswith("vnpair.") or module is None:
            continue
        short = mod_full.split(".", 1)[1]
        for var, value in vars(module).items():
            hit = originals.get(id(value))
            if hit and not (short == hit[1] and var == hit[2]):
                out.append(f"vnpair.{short}.{var} -> {hit[0]}")
    return out


# ---------------------------------------------------------------------------
# arithmetic on spans


def self_times(spans) -> list:
    """Duration minus the time covered by direct children, per span."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [(end - start) - c for (_, start, end, _, _), c in zip(spans, covered)]


def aggregate(spans) -> dict:
    """name -> {"calls": int, "self_s": float}."""
    out: dict = {}
    for span, own in zip(spans, self_times(spans)):
        entry = out.setdefault(span[0], {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += own
    return out


def layer_of(name: str) -> str:
    return "other" if name.startswith("op.") else name.split(".", 1)[0]


def per_layer_metrics(tracer: Tracer, import_s: float = 0.0,
                      import_count: int = 0) -> dict:
    """Every per-layer metric of BENCHMARK.json from one traced pass.

    import_s * import_count is added as an "import" share: the fresh
    interpreter each CLI op pays for outside the traced process.
    """
    agg = aggregate(tracer.spans)
    out = {}
    for name, *_ in TARGETS:
        entry = agg.get(name, {"calls": 0, "self_s": 0.0})
        out[name + ".calls"] = entry["calls"]
        out[name + ".self_s"] = entry["self_s"]
    c = tracer.counters
    out["prodsys.eta_of.calls"] = int(c["prodsys.eta_of.calls"])
    for key in ("numkernel.commuting_null_space.eigh_flops",
                "numkernel.commuting_null_space.matrix_bytes",
                "multiplier.validate.triple_bytes"):
        out[key] = int(c[key])
    out["numkernel.commuting_null_space.unknowns_max"] = int(
        tracer.maxima["numkernel.commuting_null_space.unknowns_max"])
    out["correspondence.TensorProduct.gram_dim_max"] = int(
        tracer.maxima["correspondence.TensorProduct.gram_dim_max"])
    calls = out["algebra.commutant.calls"]
    out["algebra.commutant.distinct_ratio"] = len(tracer.commutant_keys) / calls if calls else 0.0
    calls = out["pairing.can_pair.calls"]
    out["pairing.can_pair.paired_ratio"] = c["pairing.can_pair.paired"] / calls if calls else 0.0

    layer_self = defaultdict(float)
    for name, entry in agg.items():
        layer_self[layer_of(name)] += entry["self_s"]
    layer_self["import"] = import_s * import_count
    total = sum(layer_self.values())
    for layer in LAYERS + ("import", "other"):
        out[f"share.{layer}"] = layer_self[layer] / total if total else 0.0
    return out
