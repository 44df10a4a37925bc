"""The public export list, the import graph of the package and the
README's library quick start."""

import ast
import importlib
import importlib.util
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qrecur
from qrecur import (
    DensityMatrix,
    FiniteMetricSpace,
    Grid,
    Hamiltonian,
    energy_bounds,
    find_recurrence,
    make_kernel,
    metric_recurrence_oracle,
    random_density,
    stroboscopic_recurrence,
    torus_from_state,
    truncate,
)
from qrecur.errors import BadDomain, BadParameter


def test_every_export_resolves_once():
    names = qrecur.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(qrecur, name)] == []


def test_import_loads_neither_scipy_nor_mpmath():
    """scipy and mpmath are test dependencies only. dataclasses stays out
    too: generating the methods of frozen dataclasses at import cost
    every CLI call about 11-16 ms. So does qrecur.verify, which only
    `qrecur verify` runs."""
    src = str(Path(qrecur.__file__).resolve().parents[1])
    code = (
        "import sys, qrecur, qrecur.cli\n"
        "loaded = {'scipy', 'mpmath', 'dataclasses', 'qrecur.verify'} & sys.modules.keys()\n"
        "assert not loaded, loaded\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_no_call_needs_mpmath(tmp_path):
    """With mpmath made unimportable, every verify suite passes, search
    --csv writes its rows, and the submersion check runs over exact
    revivals, where sqrt(2 - 2F) alone would flag ~3e-8 excesses."""
    (tmp_path / "qubit.json").write_text(
        '{"energies": [0.0, 1.0], "state": '
        '{"pure": [[0.7071067811865476, 0.0], [0.7071067811865476, 0.0]]}}'
    )
    code = (
        "import sys\n"
        "sys.modules['mpmath'] = None  # any import of mpmath raises ImportError\n"
        "import numpy as np, qrecur.cli\n"
        "from qrecur import Hamiltonian, make_kernel, validate_density, verify\n"
        "from qrecur.search import Grid, default_dt, scan\n"
        "assert qrecur.cli.main(['verify', '--suite', 'all', '--seed', '42']) == 0\n"
        "argv = 'search --input qubit.json --threshold 0.999 --horizon 7.0 --csv series.csv'\n"
        "assert qrecur.cli.main(argv.split()) == 0\n"
        "for energies, rho in (\n"
        "    ([0.0, 4.0], np.full((2, 2), 0.5)),\n"
        "    ([0.0, 1.0, 2.0, 3.0], 0.6 * np.full((4, 4), 0.25) + 0.1 * np.eye(4)),\n"
        "):\n"
        "    H = Hamiltonian(np.array(energies))\n"
        "    kernel = make_kernel(H, validate_density(rho.astype(complex)))\n"
        "    check, grid = verify._SubmersionCheck(H, kernel), Grid(0.0, default_dt(H), 4000)\n"
        "    for _ in check.watch(scan(kernel, grid), grid):\n"
        "        pass\n"
        "    assert check.excess <= 1e-13, check.excess\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(qrecur.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert (tmp_path / "series.csv").read_text().startswith("t,fidelity,bures,")


def test_only_the_verify_subcommand_loads_the_verify_suites(tmp_path):
    """Importing qrecur.verify costs a CLI call about 6 ms; every other
    subcommand runs without it."""
    (tmp_path / "qubit.json").write_text(
        '{"energies": [0.0, 1.0], "state": '
        '{"pure": [[0.7071067811865476, 0.0], [0.7071067811865476, 0.0]]}}'
    )
    code = (
        "import sys, qrecur.cli\n"
        "for argv in (\n"
        "    'bounds --input qubit.json --threshold 0.999',\n"
        "    'search --input qubit.json --threshold 0.999 --horizon 7.0 --csv series.csv',\n"
        "    'strobe --input qubit.json --epsilon 0.9 --t 6.283185307179586',\n"
        "    'truncate --input qubit.json --N 1',\n"
        "    'geometry --ball 3 1.5707963267948966 --state qubit.json',\n"
        "):\n"
        "    assert qrecur.cli.main(argv.split()) == 0, argv\n"
        "assert 'qrecur.verify' not in sys.modules\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(qrecur.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "series.csv").read_text().startswith("t,fidelity,bures,")


def _run_fresh(code, cwd=None, extra_path=()):
    """Run `code` in a new interpreter that imports qrecur from this
    checkout; returns its stdout."""
    src = str(Path(qrecur.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, *extra_path])}
    proc = subprocess.run(
        [sys.executable, "-B", "-c", code], cwd=cwd, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


def test_import_loads_no_submodule_and_every_export_resolves():
    """`import qrecur` compiles no submodule; each name in __all__ is
    imported on first access, and dir() lists all of them."""
    code = (
        "import sys, qrecur\n"
        "print(sorted(m for m in sys.modules if m.startswith('qrecur.')))\n"
        "missing = [name for name in qrecur.__all__ if getattr(qrecur, name, None) is None]\n"
        "assert missing == [], missing\n"
        "assert set(qrecur.__all__) <= set(dir(qrecur))\n"
        "assert qrecur.search.find_recurrence is qrecur.find_recurrence\n"
        "assert not hasattr(qrecur, 'nothing_by_this_name')\n"
    )
    assert _run_fresh(code).splitlines()[0] == "[]"


_BASE = {"qrecur.bounds", "qrecur.cli", "qrecur.errors", "qrecur.metrics", "qrecur.states"}


@pytest.mark.parametrize(
    "argv, allowed",
    [
        ("bounds --input qubit.json --threshold 0.999", _BASE),
        ("truncate --input qubit.json --N 2 --epsilon 0.1", _BASE | {"qrecur.truncation"}),
        (
            "geometry --ball 3 1.5 --tube 3 0.3 5.0 --state qubit.json",
            _BASE | {"qrecur.evolution", "qrecur.torus"},
        ),
        (
            "search --input qubit.json --threshold 0.999 --horizon 7.0 --refine",
            _BASE | {"qrecur.evolution", "qrecur.search"},
        ),
        (
            "search --input qubit.json --threshold 0.999 --horizon 7.0 --csv series.csv",
            _BASE | {"qrecur.evolution", "qrecur.search", "qrecur.torus"},
        ),
        (
            "strobe --input qubit.json --epsilon 0.9 --t 6.283185307179586",
            _BASE | {"qrecur.evolution", "qrecur.search"},
        ),
    ],
    ids=["bounds", "truncate", "geometry", "search", "search-csv", "strobe"],
)
def test_each_subcommand_loads_only_the_modules_it_runs(argv, allowed, tmp_path):
    """Where no bytecode is cached, every module loaded is compiled on
    every call: bounds runs without search, torus and truncation, and
    only search --csv, of the search-type calls, reads the phase torus."""
    (tmp_path / "qubit.json").write_text(
        '{"energies": [0.0, 1.0], "state": '
        '{"pure": [[0.7071067811865476, 0.0], [0.7071067811865476, 0.0]]}}'
    )
    code = (
        "import sys, qrecur.cli\n"
        f"assert qrecur.cli.main({argv.split()!r}) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('qrecur.')))\n"
    )
    loaded = set(ast.literal_eval(_run_fresh(code, cwd=tmp_path).splitlines()[-1]))
    assert loaded <= allowed, loaded - allowed
    assert loaded >= _BASE


def test_lazily_imported_names_stay_module_attributes():
    """MAX_AUTO_SAMPLES, find_recurrence and stroboscopic_recurrence are
    still attributes of qrecur.cli, the search module's own objects, and
    torus_distance_series is still one of qrecur.search."""
    code = (
        "import sys, qrecur.cli\n"
        "assert 'qrecur.search' not in sys.modules\n"
        "from qrecur.cli import MAX_AUTO_SAMPLES\n"
        "import qrecur.search as search\n"
        "assert MAX_AUTO_SAMPLES == search.MAX_AUTO_SAMPLES\n"
        "for name in ('MAX_AUTO_SAMPLES', 'find_recurrence', 'stroboscopic_recurrence'):\n"
        "    assert getattr(qrecur.cli, name) is getattr(search, name), name\n"
        "    assert name in vars(qrecur.cli), name\n"
        "assert not hasattr(qrecur.cli, 'collect_samples')\n"
        "assert 'qrecur.torus' not in sys.modules\n"
        "import qrecur.torus as torus\n"
        "assert search.torus_distance_series is torus.torus_distance_series\n"
        "assert 'torus_distance_series' in vars(search)\n"
        "assert not hasattr(search, 'torus_phase_at')\n"
    )
    _run_fresh(code)


def test_tracer_restores_what_it_wrapped_in_a_fresh_interpreter():
    """The benchmark's tracer reads each attribute, wraps it and puts it
    back. A lazily resolved qrecur.cli.find_recurrence (or
    qrecur.search.torus_distance_series) must come back as the object
    that was read first, not as the wrapper of the module's own copy."""
    bench = str(Path(__file__).resolve().parents[1] / "benchmarks")
    code = (
        "import tracing\n"
        "before = tracing.originals()\n"
        "tracer = tracing.Tracer()\n"
        "tracer.install()\n"
        "tracer.restore()\n"
        "after = tracing.originals()\n"
        "changed = [key for key, fn in before.items() if after[key] is not fn]\n"
        "assert changed == [], changed\n"
    )
    _run_fresh(code, extra_path=[bench])


def test_no_module_imports_a_name_it_never_uses():
    """A deletion can leave its imports behind. `# noqa: F401` marks a name
    imported on purpose for others to find; __init__.py only re-exports."""
    unused = []
    for path in sorted(Path(qrecur.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        imported = {}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if getattr(node, "module", None) == "__future__":
                continue
            if "noqa: F401" in "\n".join(lines[node.lineno - 1 : node.end_lineno]):
                continue
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert unused == []


def test_every_traced_attribute_resolves(monkeypatch):
    """The benchmark's tracer wraps these module attributes by name, so a
    rename under src/ breaks its traced runs."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_qrecur_bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave benchmarks/ as it is
    spec.loader.exec_module(tracing)
    missing = [
        (modname, attr)
        for modname, attr, _, _ in tracing.TARGETS
        if not hasattr(importlib.import_module(modname), attr)
    ]
    assert len(tracing.TARGETS) >= 18 and missing == []


def test_readme_library_quick_start_finds_the_recurrence(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    scope = {}
    exec(compile(block, "README.md", "exec"), scope)
    result, dt = scope["result"], scope["dt"]
    assert abs(result.t_rec - 2.0 * math.pi) <= dt
    assert result.bracket_check["lower_ok"] and result.bracket_check["upper_ok"]
    assert capsys.readouterr().out.splitlines()[0] == repr(result.t_rec)


def _records() -> list:
    """One instance of each of the eleven record and value types, built
    the way the library builds them."""
    H = Hamiltonian([0.0, 1.0, 2.5])
    rho = random_density(3, 7)
    space = FiniteMetricSpace((0, 1), [[0.0, 1.0], [1.0, 0.0]], [1.0, 1.0])
    grid = Grid(0.0, 0.1, 200)
    report = energy_bounds(H, rho, 0.1)
    return [
        H,
        rho,
        grid,
        make_kernel(H, rho),
        report,
        find_recurrence(H, rho, 0.9, grid, report=report),
        stroboscopic_recurrence(H, rho, 0.9, 1.0, jmax_cap=10),
        truncate(rho, 2, order="population"),
        torus_from_state(rho),
        space,
        metric_recurrence_oracle(space, [1, 0], 0, 1.0),
    ]


def _same(a, b) -> bool:
    return np.array_equal(a, b) if isinstance(a, np.ndarray) else a is b or a == b


def test_records_are_immutable_and_rebuild_from_their_fields():
    """Each type: no attribute can be assigned, its arrays are read-only,
    it rebuilds from its fields positionally and by keyword, and the
    recurrence dict writes its Grid (a tuple, which the CLI would print as
    a JSON list) as an object."""
    records = _records()
    assert len({type(obj) for obj in records}) == 11
    for obj in records:
        cls = type(obj)
        if cls is DensityMatrix:
            fields = {"matrix": obj.matrix, "_factor": obj.factor}
        else:
            fields = obj._asdict()
        for name, value in fields.items():
            if isinstance(value, np.ndarray):
                assert not value.flags.writeable, (cls.__name__, name)
            if not name.startswith("_"):
                with pytest.raises(AttributeError):
                    setattr(obj, name, value)
        with pytest.raises(AttributeError):
            obj.extra = 1
        for built in (cls(*fields.values()), cls(**fields)):
            assert type(built) is cls
            assert all(_same(getattr(built, k), v) for k, v in fields.items()), cls.__name__
    assert records[5].to_dict()["grid"] == {"t0": 0.0, "dt": 0.1, "steps": 200}


def test_validated_types_check_replace():
    """_replace goes through the validating constructor, as
    dataclasses.replace did."""
    H, rho, grid = _records()[:3]
    with pytest.raises(BadParameter):
        H._replace(hbar=-1.0)
    with pytest.raises(BadParameter):
        grid._replace(steps=2.5)
    with pytest.raises(BadDomain):
        torus_from_state(rho)._replace(radii=[0.0])
    assert grid._replace(steps=3) == Grid(0.0, 0.1, 3)

