"""Command-line front end.

Subcommands: bounds, search, strobe, truncate, verify, geometry.
Structured reports go to JSON, time series to CSV; outputs are
byte-identical across runs with the same configuration and seed.
Each handler imports the modules it runs: `bounds` loads neither
`search`, `torus` nor `truncation`.

Exit codes: 0 success, 1 precondition violation (machine-readable error
JSON on stdout), 2 I/O or parse failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import nullcontext
from itertools import repeat

from . import bounds
from .errors import BadDomain, BadParameter, QrecurError
from .states import system_from_dict

MAX_CSV_SAMPLES = 200_000
_CSV_COLUMNS = ("t", "fidelity", "bures", "trace_dist", "hs_dist", "torus_dist")


def _strict(obj):
    """obj with every non-finite float, at any depth, as the string "inf",
    "-inf" or "nan", which strict JSON parsers accept."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(obj)
    if isinstance(obj, dict):
        return {k: _strict(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(v) for v in obj]
    return obj


def _dump_json(obj, path: str | None):
    text = json.dumps(_strict(obj), indent=2, sort_keys=True, allow_nan=False)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_system(path: str):
    with open(path) as fh:
        return system_from_dict(json.load(fh))


def _cmd_bounds(args) -> int:
    H, rho0 = _load_system(args.input)
    eps = bounds.threshold_to_epsilon(args.threshold)
    report = bounds.energy_bounds(H, rho0, eps)
    out = report.to_dict()
    out["threshold"] = args.threshold
    nu = [float(e) / (2.0 * math.pi * H.hbar) for e in H.energies]
    out["estimates"] = {
        "note": "order-of-magnitude estimates, not bounds",
        "peres": _try_estimate(bounds.peres_estimate, nu, eps),
        "bhattacharyya": _try_estimate(bounds.bhattacharyya_estimate, nu, eps),
    }
    _dump_json(out, args.output)
    return 0


def _try_estimate(fn, nu, eps):
    try:
        return fn(nu, eps)
    except QrecurError as exc:
        return {"error": type(exc).__name__, "message": str(exc)}


def _resolve_grid(args, H, report):
    from .search import MAX_AUTO_SAMPLES, Grid, default_dt

    dt = default_dt(H) if args.dt == "auto" else float(args.dt)
    if args.horizon == "auto":
        # capped before the finiteness check: the bracket's upper edge
        # overflows to inf for large n
        horizon = MAX_AUTO_SAMPLES * dt
        if report:
            horizon = min(horizon, report.upper_product + 2.0 * dt)
    else:
        horizon = float(args.horizon)
    if not (0.0 < dt < math.inf and 0.0 < horizon / dt < math.inf):
        raise BadParameter(
            "need a finite --dt > 0 and a --horizon > 0 of finitely many steps, "
            f"got --dt {args.dt} --horizon {args.horizon}"
        )
    steps = math.ceil(horizon / dt)
    if args.horizon == "auto":
        steps = min(MAX_AUTO_SAMPLES, steps)
    elif steps > MAX_AUTO_SAMPLES:
        raise BadParameter(
            f"--horizon {args.horizon} at --dt {args.dt} is {steps:.15g} grid samples, "
            f"over the limit of MAX_AUTO_SAMPLES = {MAX_AUTO_SAMPLES}"
        )
    return Grid(args.t0, dt, steps)


def _cmd_search(args) -> int:
    from . import search

    H, rho0 = _load_system(args.input)
    eps = bounds.threshold_to_epsilon(args.threshold)
    report = None
    try:
        report = bounds.energy_bounds(H, rho0, eps)
    except QrecurError:
        pass  # bounds unavailable (stationary / precondition); search still runs
    grid = _resolve_grid(args, H, report)
    if args.csv and grid.steps > MAX_CSV_SAMPLES:
        raise BadParameter(
            f"--csv writes one row per grid sample: {grid.steps} samples exceed "
            f"the limit of MAX_CSV_SAMPLES = {MAX_CSV_SAMPLES}"
        )
    result = search.find_recurrence(
        H,
        rho0,
        args.threshold,
        grid,
        allow_coarse=args.allow_coarse,
        refine=args.refine,
        report=report,
    )
    out = result.to_dict()
    out["epsilon"] = eps
    out["epsilon_convention"] = bounds.EPS_BURES_SCALE
    out["hbar"] = H.hbar
    bures = f"sqrt(2 - 2F), the purification distance where 1 - F < {search.NEAR_RETURN!r}"
    out["norms"] = {"bures": bures, "trace_dist": "trace", "hs_dist": "hilbert-schmidt"}
    if report is not None:
        out["bounds"] = report.to_dict()
    # opened before any output: a CSV path that cannot be written prints
    # nothing, and a JSON path that cannot be written leaves no CSV
    with open(args.csv, "w", newline="") if args.csv else nullcontext() as fh:
        try:
            _dump_json(out, args.output)
        except OSError:
            if fh is not None:
                fh.close()
                os.remove(args.csv)
            raise
        if fh is not None:
            _write_csv(fh, search.collect_samples(H, rho0, grid.times()))
    return 0


def _write_csv(fh, blocks):
    """The rows of csv.writer's default dialect, written a chunk at a time:
    no field holds a comma, quote or line break, so none is quoted."""
    fh.write(",".join(_CSV_COLUMNS) + "\r\n")
    for block in blocks:
        columns = [
            repeat("") if block[k] is None else map(repr, block[k].tolist())
            for k in _CSV_COLUMNS
        ]
        fh.write("".join([",".join(row) + "\r\n" for row in zip(*columns)]))


def _cmd_strobe(args) -> int:
    from . import search

    H, rho0 = _load_system(args.input)
    res = search.stroboscopic_recurrence(
        H, rho0, args.epsilon, args.t, jmax_cap=args.jmax_cap
    )
    _dump_json(
        {
            **res._asdict(),
            "epsilon": args.epsilon,
            "epsilon_convention": bounds.EPS_FIDELITY_FLOOR,
            "t": args.t,
            "t_rec": None if res.j_found is None else res.j_found * args.t,
        },
        args.output,
    )
    return 0


def _cmd_truncate(args) -> int:
    from .truncation import choose_N, truncate

    H, rho0 = _load_system(args.input)
    N = args.N if args.N is not None else choose_N(rho0, args.delta_target, order=args.order)
    trunc = truncate(rho0, N, order=args.order)
    out = trunc.to_dict()
    out["norm"] = (
        "delta_N and complement_hs_sq: squared hilbert-schmidt (delta_N excludes"
        " cross blocks; complement_hs_sq includes them); complement_trace_norm and"
        " bounds.distance_ceiling: trace"
    )
    if args.epsilon is not None:
        report = bounds.truncated_bounds(H, trunc, args.epsilon, args.mode)
        out["bounds"] = report.to_dict()
    _dump_json(out, args.output)
    return 0


def _cmd_geometry(args) -> int:
    from . import torus

    out = {}
    if args.ball:
        n, r = int(args.ball[0]), float(args.ball[1])
        out["ball"] = {"n": n, "r": r, "volume": torus.sphere_ball_volume(n, r)}
    if args.tube:
        n, theta, length = int(args.tube[0]), float(args.tube[1]), float(args.tube[2])
        out["tube"] = {
            "n": n,
            "theta": theta,
            "length": length,
            "volume": torus.tube_volume(n, theta, length),
        }
    if args.state:
        _, rho0, dropped = bounds.reduce_to_support(*_load_system(args.state))
        t = torus.torus_from_state(rho0)
        out["torus"] = {
            "radii": [float(r) for r in t.radii],
            "injectivity_radius": torus.injectivity_radius(t),
            "volume": torus.torus_volume(t),
            "support_dropped": list(dropped),
        }
    if args.metric_space:
        with open(args.metric_space) as fh:
            spec = json.load(fh)
        space = torus.FiniteMetricSpace.from_dict(spec)
        if "permutation" not in spec:
            raise BadDomain("permutation is missing from the metric space")
        res = torus.metric_recurrence_oracle(space, spec["permutation"], args.point, args.r)
        out["metric_recurrence"] = {**res._asdict(), "ball_convention": "open, radius r/2"}
    if not out:
        print("nothing to do: pass --ball/--tube/--state/--metric-space", file=sys.stderr)
        return 2
    _dump_json(out, args.output)
    return 0


def _cmd_verify(args) -> int:
    from . import verify  # loaded here only: no other subcommand runs a suite

    names = None if args.suite == "all" else {args.suite}
    results = verify.run_suites(names, seed=args.seed)
    for name, res in results.items():
        if name == "ok":
            continue
        print(f"{name}: {'PASS' if res['ok'] else 'FAIL'}")
    if args.output:
        _dump_json(results, args.output)
    return 0 if results["ok"] else 1


def __getattr__(name):
    """`search`'s MAX_AUTO_SAMPLES, find_recurrence and
    stroboscopic_recurrence, importable from here without loading `search`
    at import. Each is bound here on first access, so that code which
    swaps the attribute and puts it back finds the object it saved."""
    if name not in ("MAX_AUTO_SAMPLES", "find_recurrence", "stroboscopic_recurrence"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import search

    value = globals()[name] = getattr(search, name)
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrecur",
        description="Recurrence-time bounds and measurements for quantum mixed states",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    system = argparse.ArgumentParser(add_help=False)
    system.add_argument("--input", required=True, help="system JSON file")
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--output", help="report JSON path (default stdout)")
    both = [system, report]

    p = sub.add_parser("bounds", parents=both, help="evaluate theoretical recurrence bounds")
    p.add_argument("--threshold", type=float, required=True, help="fidelity threshold in (0, 1)")
    p.set_defaults(fn=_cmd_bounds)

    p = sub.add_parser("search", parents=both, help="measure the recurrence time on a grid")
    p.add_argument("--threshold", type=float, required=True)
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--dt", default="auto", help="grid step or 'auto'")
    p.add_argument("--horizon", default="auto", help="scan horizon (time) or 'auto'")
    p.add_argument("--allow-coarse", action="store_true")
    p.add_argument("--refine", action="store_true", help="first crossings on a dt/1024 grid")
    p.add_argument("--csv", help="time-series CSV path")
    p.set_defaults(fn=_cmd_search)

    p = sub.add_parser("strobe", parents=both, help="stroboscopic recurrence search")
    p.add_argument("--epsilon", type=float, required=True, help="fidelity floor in (0, 1]")
    p.add_argument("--t", type=float, required=True, help="stroboscopic step length")
    p.add_argument("--jmax-cap", type=int, default=100_000)
    p.set_defaults(fn=_cmd_strobe)

    p = sub.add_parser("truncate", parents=both, help="N-relevant-state approximation")
    choice = p.add_mutually_exclusive_group(required=True)
    choice.add_argument("--N", type=int)
    choice.add_argument("--delta-target", type=float)
    p.add_argument("--order", choices=["energy", "population"], default="energy")
    p.add_argument("--epsilon", type=float, help="also evaluate truncated bounds")
    p.add_argument("--mode", choices=["energy", "dimension"], default="energy")
    p.set_defaults(fn=_cmd_truncate)

    p = sub.add_parser("geometry", parents=[report], help="torus/sphere/tube volumes and the metric oracle")
    p.add_argument("--ball", nargs=2, metavar=("N", "R"))
    p.add_argument("--tube", nargs=3, metavar=("N", "THETA", "LENGTH"))
    p.add_argument("--state", help="system JSON; reports the phase-torus geometry of its support")
    p.add_argument("--metric-space", help="JSON {points, dist, measure, permutation}")
    p.add_argument("--point", type=int, default=0)
    p.add_argument("--r", type=float, default=1.0)
    p.set_defaults(fn=_cmd_geometry)

    p = sub.add_parser("verify", help="run the verification suites")
    p.add_argument("--suite", default="all", help="'all' or the name of one suite")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--output", help="results JSON path; stdout carries the PASS/FAIL lines")
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except QrecurError as exc:
        error = {"error": type(exc).__name__, "message": str(exc)}
        if getattr(exc, "max_epsilon", None) is not None:
            error["max_epsilon"] = exc.max_epsilon
        _dump_json(error, None)
        return 1
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
