"""What a call leaves behind once it returns, traced by ``tracemalloc``.

A call may leave the arrays its result holds, the caches on its inputs that
later calls read (frames, commutants, law residuals: each test fills them
before it measures), and, for a product system or a right dilation, the law
terms its own ``validate`` keeps in ``_terms``. Nothing else: no iterate of
a map, no quotient, lift, product solve or Gram factor of a build. Each test
measures one call and bounds what stays traced after it returns by the
bytes of the new arrays reachable from its result, plus those terms, plus
SLACK for the interpreter's own small allocations.
"""

import copy
import gc
import tracemalloc
import types

import numpy as np
import pytest

from vnpair import algebra as alg
from vnpair import endo
from vnpair import numkernel as nk
from vnpair import pairing
from vnpair import prodsys as ps
from vnpair import selftest

MiB = 2 ** 20
#: what the interpreter may keep besides the arrays: at most 13 KiB measured,
#: and the smallest leak below (a build's Gram factor, 389 KiB) 6 times over
SLACK = 64 * 1024


def _arrays(*roots) -> dict:
    """Every array reachable from roots through attributes and containers,
    keyed by the id of the buffer it views; functions are not entered, so
    a memo's contents are not reached."""
    seen, out, todo = set(), {}, list(roots)
    while todo:
        x = todo.pop()
        if id(x) in seen or isinstance(x, (type, types.ModuleType, types.FunctionType,
                                           types.MethodType)):
            continue
        seen.add(id(x))
        if isinstance(x, np.ndarray):
            while isinstance(x.base, np.ndarray):
                x = x.base
            out[id(x)] = x
        elif isinstance(x, dict):
            todo += [*x.keys(), *x.values()]
        elif isinstance(x, (list, tuple, set, frozenset)):
            todo += x
        elif hasattr(x, "__dict__"):
            todo += vars(x).values()
    return out


def _traced(call):
    """(result, bytes still traced after call returns, peak above the start)."""
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = call()
        gc.collect()
        now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, now - start, peak - start


def _terms_bytes(built) -> int:
    """What ``validate`` keeps: validate run again on a copy with an empty memo."""
    twin = copy.copy(built)
    twin._terms = nk.memo()
    return _traced(twin.validate)[1]


def _assert_leaves_only_its_result(call, inputs, built=lambda result: ()):
    old = _arrays(*inputs)
    result, left, _ = _traced(call)
    reachable = sum(a.nbytes for k, a in _arrays(result).items() if k not in old)
    terms = sum(_terms_bytes(b) for b in built(result))
    assert left <= reachable + terms + SLACK, (left, reachable, terms)
    return result


def _maps(b, bp, v):
    """theta = Ad v* on B and the identity on B', paired by v, as new
    objects with their law residuals and coefficient matrices formed."""
    theta, theta_prime = endo.from_unitary(b, v), endo.from_unitary(bp, v, "direct")
    for f in (theta, theta_prime):
        endo.is_faithful(f)
    return theta, theta_prime


@pytest.fixture(scope="module")
def domains():
    """B on C^12, [(2, 3), (3, 2)], B' and v, with the caches that later
    calls read filled by a first decision on another pair of maps."""
    b = alg.random_algebra(12, [(2, 3), (3, 2)], seed=4)
    bp = alg.commutant(b)
    v = selftest.unitary_inside(b, np.random.default_rng(5))
    pairing.can_pair(*_maps(b, bp, np.eye(12)))
    return b, bp, v


@pytest.fixture(scope="module")
def system(domains):
    b, bp, v = domains
    return v, ps.from_endomorphism(_maps(b, bp, v)[0], 2)


def test_can_pair_keeps_no_iterate(domains):
    theta, theta_prime = _maps(*domains)
    cert = _assert_leaves_only_its_result(lambda: pairing.can_pair(theta, theta_prime),
                                          (theta, theta_prime))
    assert cert.paired


def test_check_pairing_keeps_no_iterate(domains):
    v = domains[2]
    theta, theta_prime = _maps(*domains)
    _assert_leaves_only_its_result(lambda: pairing.check_pairing(v, theta, theta_prime),
                                   (v, theta, theta_prime))


def test_from_endomorphism_keeps_no_build_memo(domains):
    theta = _maps(*domains)[0]
    _assert_leaves_only_its_result(lambda: ps.from_endomorphism(theta, 2), (theta,),
                                   lambda p: (p,))


def test_right_dilation_keeps_no_build_memo(system):
    v, p = system
    _assert_leaves_only_its_result(lambda: ps.right_dilation_from_unitary(p, v), (p, v),
                                   lambda w: (w,))


def test_commutant_system_keeps_no_build_memo(system):
    p = system[1]
    _assert_leaves_only_its_result(lambda: ps.commutant_system(p), (p,), lambda q: (q,))


def test_commutant_via_dilation_keeps_no_build_memo(system):
    v, p = system
    w = ps.right_dilation_from_unitary(p, v)
    _assert_leaves_only_its_result(lambda: ps.commutant_via_dilation(p, w), (p, w),
                                   lambda out: (out.system,))


def test_can_pair_peak_holds_no_iterate():
    """n = 64, [(4, 8), (8, 4)], the identity maps: 56 MiB traced at the peak
    with the iterates of both maps alive (numpy 2.4), 26 MiB with one map's,
    10.4 MiB with none, the powers bounded off the two relation stacks; the
    15 MiB bound fails once one map's iterates are held."""
    b = alg.random_algebra(64, [(4, 8), (8, 4)], seed=1)
    bp = alg.commutant(b)
    theta, theta_prime = endo.from_unitary(b, np.eye(64)), endo.from_unitary(
        bp, np.eye(64), "direct")
    cert, left, peak = _traced(lambda: pairing.can_pair(theta, theta_prime))
    assert cert.paired
    assert peak <= 15 * MiB, peak / MiB
    assert left <= MiB, left / MiB
