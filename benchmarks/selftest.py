"""Smoke test of the traced run at tiny sizes.

    python3 benchmarks/selftest.py

Checks that every wrapper replaces its attribute while installed, that a
traced run reports every per-layer metric named in BENCHMARK.json with a
finite value, and that every wrapped attribute is the original again
afterwards. Exits 0 when all hold; takes about 20 s.
"""

from __future__ import annotations

import math
import sys

import run


def main() -> int:
    spec = run.bootstrap()
    run.OUT_DIR.mkdir(exist_ok=True)
    import tracing

    problems = []
    before = tracing.originals()
    probe = tracing.Tracer()
    probe.install()
    try:
        during = tracing.originals()
    finally:
        probe.restore()
    unwrapped = [f"{m}.{a}" for (m, a), fn in during.items() if fn is before[(m, a)]]
    if unwrapped:
        problems.append(f"not wrapped while installed: {unwrapped}")

    values, _, _, notes, spans = run.traced_run("scan", seed=0, seconds=0, small=True)

    after = tracing.originals()
    changed = [f"{m}.{a}" for (m, a), fn in before.items() if after[(m, a)] is not fn]
    if changed:
        problems.append(f"not restored: {changed}")
    silent = {name for _, _, name, _ in tracing.TARGETS} - {s["name"] for s in spans}
    if silent:
        problems.append(f"wrappers that recorded no span: {sorted(silent)}")
    declared = {m["name"] for m in spec["per_layer"]}
    if set(values) != declared:
        problems.append(
            f"missing {sorted(declared - set(values))}, undeclared {sorted(set(values) - declared)}"
        )
    nonfinite = sorted(k for k, v in values.items() if not math.isfinite(v))
    if nonfinite:
        problems.append(f"non-finite values: {nonfinite}")

    for problem in problems:
        print(f"FAIL {problem}")
    print(f"{'FAIL' if problems else 'ok'}: {len(values)} per-layer metrics, "
          f"{len(spans)} spans, {len(tracing.TARGETS)} wrapped attributes restored")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
