"""Per-layer metrics from the spans of a traced run, plus interpreter
import times from `python -X importtime`.

Counts are per pass of the workload that produced them; times are
medians over calls, or total time over total samples for the per-sample
kernels.
"""

from __future__ import annotations

import statistics
import subprocess
import sys

from workloads import CLI_CALLS, ROOT, SCAN_RANKS, SCAN_SIZES

IMPORT_REPEATS = 3
COMPLEX_BYTES = 16


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


class _Spans:
    def __init__(self, spans: list[dict]):
        self.spans = spans
        self.index = {s["id"]: s for s in spans}

    def ancestor(self, span: dict, name: str) -> dict | None:
        parent = span["parent"]
        while parent is not None:
            up = self.index[parent]
            if up["name"] == name:
                return up
            parent = up["parent"]
        return None

    def named(self, name: str, under: str | None = None, **attrs) -> list[dict]:
        """Spans called `name`, optionally inside an `under` span, whose own
        attributes, or failing that their `under` span's, match `attrs`."""
        out = []
        for s in self.spans:
            if s["name"] != name:
                continue
            outer = self.ancestor(s, under) if under else None
            if under and outer is None:
                continue
            have = dict(outer["attrs"]) if outer else {}
            have.update(s["attrs"])
            if all(have.get(k) == v for k, v in attrs.items()):
                out.append(s)
        return out

    def passes(self, workload: str) -> int:
        return len(self.named(f"{workload}.pass"))


def _median_us(spans: list[dict]) -> float:
    return 1e6 * statistics.median(_dur(s) for s in spans)


def _us_per_sample(spans: list[dict]) -> float:
    return 1e6 * sum(_dur(s) for s in spans) / sum(s["attrs"]["samples"] for s in spans)


def per_layer(spans: list[dict]) -> dict[str, float]:
    t = _Spans(spans)
    m: dict[str, float] = {}

    calls = t.named("cli.call")
    for label in CLI_CALLS:
        m[f"cli.call_ms.{label}"] = 1e-3 * _median_us([s for s in calls if s["attrs"]["call"] == label])
    m["states.system_from_dict_us"] = _median_us(t.named("states.system_from_dict", "cli.call"))
    m["search.collect_samples_us_per_sample"] = _us_per_sample(
        t.named("search.collect_samples", "cli.call")
    )

    scan_passes = t.passes("scan")
    series = t.named("search.fidelity_series", "scan.op")
    for n in SCAN_SIZES:
        for rank in SCAN_RANKS:
            m[f"search.fidelity_series.us_per_sample.n{n}.r{rank}"] = _us_per_sample(
                t.named("search.fidelity_series", "scan.op", n=n, rank=rank)
            )
    evaluated = sum(s["attrs"]["samples"] for s in series) / scan_passes
    useful = sum(s["attrs"]["samples_useful"] for s in t.named("scan.op")) / scan_passes
    m["search.samples_evaluated"] = evaluated
    m["search.samples_useful"] = useful
    m["search.useful_frac"] = useful / evaluated
    m["search.chunks"] = len(series) / scan_passes
    # computed, not measured: one complex128 n x n matrix per sample of a call
    m["search.chunk_bytes_max"] = float(
        max(COMPLEX_BYTES * s["attrs"]["n"] ** 2 * s["attrs"]["samples"] for s in series)
    )
    m["bounds.energy_bounds_us.n32"] = _median_us(t.named("bounds.energy_bounds", "scan.op", n=32))
    m["evolution.make_kernel_us.n32"] = _median_us(t.named("evolution.make_kernel", "scan.op", n=32))
    for n in (2, 32):
        m[f"metrics.fidelity_us.n{n}"] = _median_us(t.named("metrics.fidelity", "scan.check", n=n))

    verify_passes = t.passes("verify")
    for suite in sorted({s["attrs"]["suite"] for s in t.named("verify.op")}):
        m[f"verify.suite_s.{suite}"] = 1e-6 * _median_us(t.named("verify.op", suite=suite))
    rechecks = t.named("mpmath.svd_c", "verify.op")
    m["verify.mp_recheck_count"] = len(rechecks) / verify_passes
    m["verify.mp_recheck_s"] = sum(_dur(s) for s in rechecks) / verify_passes
    m["torus.distance_series_us_per_sample"] = _us_per_sample(
        t.named("torus.distance_series", "verify.op")
    )
    return m


def _import_tree(stderr: str) -> list[tuple[str, int, int, str | None]]:
    """(name, self us, cumulative us, parent name) per `-X importtime` line.

    Children print before their parent, one indent step deeper."""
    rows = []
    for line in stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        name = fields[2].rstrip()
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((name.strip(), int(fields[0]), int(fields[1]), depth))
    out, stack = [], []
    for name, self_us, cumulative_us, depth in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        out.append((name, self_us, cumulative_us, stack[-1][1] if stack else None))
        stack.append((depth, name))
    return out


def _cost_of(tree, package: str) -> int:
    """Cumulative import time of the package's outermost modules: what
    importing it costs, dependencies it pulls in first included."""
    def ours(name):
        return name is not None and name.split(".")[0] == package

    return sum(cum for name, _, cum, parent in tree if ours(name) and not ours(parent))


def import_times(env: dict) -> dict[str, float]:
    """`import qrecur` in fresh interpreters: its total, and the share of it
    spent importing scipy and mpmath (ms, medians)."""
    runs = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import qrecur"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        tree = _import_tree(proc.stderr)
        total = sum(cum for name, _, cum, _ in tree if name == "qrecur")
        runs.append((total, _cost_of(tree, "scipy"), _cost_of(tree, "mpmath")))
    total, scipy, mpmath = (statistics.median(col) / 1e3 for col in zip(*runs))
    return {"cli.import_ms": total, "cli.import_scipy_ms": scipy, "cli.import_mpmath_ms": mpmath}
