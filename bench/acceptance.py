"""One-shot acceptance record: the 12 selftest properties at a fixed small cap.

    python3 bench/acceptance.py

Not a workload and not gated. It times each property of vnpair.selftest
with every case count capped at CAP, from seed SEED, next to the machine facts, so the
acceptance-total trail of the test suite (every property at full scale,
gated at 60 s) can be read beside the workload numbers. Prints one JSON
object and writes it to .bench_out/acceptance.json.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

sys.path.insert(0, HERE)
import harness  # noqa: E402

#: cases per property; fixed so that records stay comparable from run to run
CAP = 3
SEED = 0


def main() -> int:
    if not os.path.isfile(os.path.join(SRC, "vnpair", "__init__.py")):
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    threads = str(harness.blas_threads())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    sys.path.insert(0, SRC)
    from vnpair import numkernel as nk
    from vnpair import selftest

    props = []
    start = time.perf_counter()
    for index, prop in enumerate(selftest.PROPERTIES):
        count = min(prop.cases, CAP)
        result = selftest.run_property(prop, index, SEED, count, nk.DEFAULT_TOL)
        props.append({"name": prop.name, "cases": result.cases, "full_cases": prop.cases,
                      "seconds": result.seconds, "ok": result.ok, "worst": result.worst})
        print(result.line(), file=sys.stderr)
    record = {"cap": CAP, "seed": SEED,
              "total_s": time.perf_counter() - start,
              "properties": props, "machine": harness.machine_facts()}
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_out", "acceptance.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(record))
    return 0 if all(p["ok"] for p in props) else 1


if __name__ == "__main__":
    sys.exit(main())
