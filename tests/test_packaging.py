"""Declared dependencies and version match the package, scipy stays out of
the cold start, and every exported, bench-traced or bench-imported name exists in the package."""

import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]


def _imported_top_level_modules() -> set[str]:
    names = set()
    for path in (ROOT / "src" / "vibronic").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def test_dependencies_equal_third_party_imports():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        declared = {re.split(r"[<>=!~;\[ ]", dep, maxsplit=1)[0] for dep in tomllib.load(fh)["project"]["dependencies"]}
    third_party = _imported_top_level_modules() - set(sys.stdlib_module_names) - {"vibronic"}
    assert declared == third_party


def test_version_declarations_agree():
    # every output header embeds vibronic.__version__
    import vibronic

    with open(ROOT / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == vibronic.__version__


def test_fockspace_all_names_exist():
    fockspace = importlib.import_module("vibronic.fockspace")
    assert [name for name in fockspace.__all__ if not hasattr(fockspace, name)] == []
    # and the converse: every name the package re-exports from fockspace is listed in __all__
    tree = ast.parse((ROOT / "src" / "vibronic" / "__init__.py").read_text(encoding="utf-8"))
    exported = [
        alias.name for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "fockspace"
        for alias in node.names
    ]
    assert "make_vib_vector" in exported
    assert [name for name in exported if name not in fockspace.__all__] == []


def test_dense_oracle_shares_no_drive_code_with_the_engine():
    # the engine is held to build_bichromatic_H, so a fault in the engine's drive blocks must not reach it
    engine = {"_drive_blocks", "_pair_raise", "BichromaticAction", "effective_factors", "carrier_factors"}
    tree = ast.parse((ROOT / "src" / "vibronic" / "dynamics.py").read_text(encoding="utf-8"))
    (builder,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "build_bichromatic_H"]
    named = {node.id for node in ast.walk(builder) if isinstance(node, ast.Name)}
    named |= {node.attr for node in ast.walk(builder) if isinstance(node, ast.Attribute)}
    assert named & engine == set()
    assert {"destroy", "coupling_f_grid"} <= named  # the walk did reach the builder's calls


def _load_time_imports(tree: ast.Module) -> set[str]:
    """Top-level names a module imports when it is loaded: every import outside a function body.

    A relative import keeps its dots: ``from . import m`` and ``from .m import x`` both give ".m".
    """
    names, stack = set(), list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            dots = "." * node.level
            names.update([dots + node.module.split(".")[0]] if node.module else [dots + a.name for a in node.names])
        stack.extend(ast.iter_child_nodes(node))
    return names


def test_no_module_imports_scipy_at_load_time():
    loaders = [
        path.name for path in (ROOT / "src" / "vibronic").rglob("*.py")
        if "scipy" in _load_time_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert loaders == []


def test_no_module_imports_the_retired_stepper():
    # _kernels.propagate_coo stays only as a benchmark trace target; no run path may load it
    assert "._kernels" in _load_time_imports(ast.parse("from . import _kernels"))
    assert "._kernels" in _load_time_imports(ast.parse("from ._kernels import propagate_coo"))
    loaders = [
        path.name for path in (ROOT / "src" / "vibronic").rglob("*.py")
        if "._kernels" in _load_time_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert loaders == []
    # and the stepper imports nothing from the package, so it can be deleted as one file
    tree = ast.parse((ROOT / "src" / "vibronic" / "_kernels.py").read_text(encoding="utf-8"))
    own = [
        ast.unparse(node) for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "vibronic")
        or isinstance(node, ast.Import) and any(alias.name.split(".")[0] == "vibronic" for alias in node.names)
    ]
    assert own == []


BELL_PHI_CFG = """\
mode = bell-phi
[hilbert]
n_max_c = 4
n_max_r = 1
[modes]
eta = 0.1
[drive]
k = 1
delta = 0.1
omega = 0.05
"""

TOMO_INVERT_CFG = """\
mode = tomo-invert
[hilbert]
n_max_c = 6
n_max_r = 2
[modes]
eta = 0.23
[drive]
k = 1
delta = 0.02
omega = 0.05
[state]
kind = fock
n_c = 1
[tomo]
shots = 300
"""


def _loaded_after(module: str, code: str, cwd: Path) -> bool:
    """Runs ``code`` in a fresh interpreter and reports whether ``module`` got imported."""
    path = [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    out = subprocess.run(
        [sys.executable, "-c", f"import sys\n{code}\nprint({module!r} in sys.modules)"],
        cwd=cwd, env=env, capture_output=True, text=True, check=True,
    ).stdout
    return out.splitlines()[-1] == "True"


def test_importing_the_cli_loads_no_scipy(tmp_path):
    assert not _loaded_after("scipy", "import vibronic, vibronic.cli", tmp_path)


def test_importing_the_cli_loads_no_numpy_random(tmp_path):
    # numpy.random (about 6 MB and 15 ms to load) waits for the first shot draw
    assert not _loaded_after("numpy.random", "import vibronic, vibronic.cli", tmp_path)


@pytest.mark.parametrize("text, solves", [(BELL_PHI_CFG, False), (TOMO_INVERT_CFG, True)], ids=["bell-phi", "tomo-invert"])
def test_only_solving_jobs_load_scipy(tmp_path, text, solves):
    (tmp_path / "run.cfg").write_text(text, encoding="utf-8")
    run = "from vibronic.cli import main\nassert main(['--config', 'run.cfg', '--out', 'out', '--quiet']) == 0"
    assert _loaded_after("scipy", run, tmp_path) == solves


def _bench_targets() -> list[tuple[str, str]]:
    """The (module, attribute) pairs bench/tracer.py patches, read from its source."""
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracer.py defines no TARGETS")


def test_bench_traced_names_exist():
    # the bench skips a missing name silently and its smoke test fails only there
    missing = []
    for module, attr in _bench_targets():
        owner = importlib.import_module(f"vibronic.{module}")
        *classes, name = attr.split(".")
        for cls in classes:
            owner = getattr(owner, cls, None)
        if owner is None or name not in vars(owner):
            missing.append(f"{module}.{attr}")
    assert missing == []


def _bench_imports() -> list[tuple[str, str, str]]:
    """Every (file, module, name) of a ``from vibronic... import name`` in bench/, function bodies included."""
    found = []
    for path in sorted((ROOT / "bench").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.partition(".")[0] == "vibronic":
                found += [(path.name, node.module, alias.name) for alias in node.names]
    return found


def test_bench_imported_names_exist():
    # bench/ imports most package names inside functions, so a missing one fails only a bench run
    imports = _bench_imports()
    assert ("run.py", "vibronic.tomography", "protocol_run") in imports
    missing = []
    for path, module, name in imports:
        owner = importlib.import_module(module)
        submodule = hasattr(owner, "__path__") and importlib.util.find_spec(f"{module}.{name}") is not None
        if not (hasattr(owner, name) or submodule):
            missing.append(f"{path}: {module}.{name}")
    assert missing == []
