"""Run the tier-1 suite against a fixed list of source mutants.

    python3 tools/mutants.py [CHECKOUT]

Each mutant is one text replacement in one file of CHECKOUT (default: the
checkout this file sits in).  For each mutant the checkout is copied to a
temporary directory, the replacement is made there, and the tier-1 suite
(``python -m pytest`` from the copy's root, package from ``src``) runs with
one BLAS thread, one pytest process at a time, and with hypothesis on fixed
examples that it does not shrink.  One line per mutant gives its label and
the sorted distinct names of the tests it fails, so a mutant no test sees
reads ``0 failed``.  A mutant whose old text does not occur exactly once in
its file is refused before anything runs (exit 2).  The checkout itself is
never modified.

The three drive-block mutants take 55 s in all on a 2-core x86-64 host
(about 18 s of tier-1 each; with shrinking, a mutant that fails a property
test took over a minute more).
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

DYNAMICS = "src/vibronic/dynamics.py"
STRETCH = "    s = laguerre_seq(config.n_max_r, 0, p.modes.eta_r**2)\n"

# (label, file, old text, new text)
MUTANTS = [
    (
        "lower path takes F_k after a^k",
        DYNAMICS,
        "    g2 = (1j * eta) ** p.k_prime * f_dn[:, None] * dn_k\n",
        "    g2 = (1j * eta) ** p.k_prime * dn_k * f_dn\n",
    ),
    ("stretch factor dropped", DYNAMICS, STRETCH, "    s = np.ones(config.dim_r)\n"),
    ("L(eta_r) for L(eta_r^2)", DYNAMICS, STRETCH, STRETCH.replace("eta_r**2", "eta_r")),
]

# fixed examples, so two runs give the same verdict; and a failing property test
# needs no minimal example here, while hypothesis spends about a minute shrinking one
_PROFILE = """
from hypothesis import Phase, settings
settings.register_profile("mutants", derandomize=True, phases=[Phase.explicit, Phase.generate])
"""

_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_out", ".bench_work")


def _refusals(root: Path) -> list[str]:
    """One message per mutant whose old text does not occur exactly once."""
    out = []
    for label, rel, old, _ in MUTANTS:
        count = (root / rel).read_text(encoding="utf-8").count(old)
        if count != 1:
            out.append(f"refused: {label}: old text occurs {count} times in {rel}")
    return out


def _failing_tests(root: Path, rel: str, old: str, new: str) -> list[str]:
    """Sorted distinct names of the tier-1 tests that fail with ``old`` replaced by ``new`` in ``rel``."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(root, copy, ignore=_IGNORE)
        path = copy / rel
        path.write_text(path.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
        with open(copy / "conftest.py", "a", encoding="utf-8") as fh:
            fh.write(_PROFILE)
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        env.update({var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", "--continue-on-collection-errors",
             "--hypothesis-profile=mutants"],
            cwd=copy, env=env, capture_output=True, text=True,
        )
    if run.returncode not in (0, 1):  # 0: all passed, 1: some failed; anything else ran no verdict
        raise RuntimeError(f"pytest exited {run.returncode}:\n{run.stdout}{run.stderr}")
    # summary lines read "FAILED tests/test_x.py::test_name[case] - message"
    names = re.findall(r"^(?:FAILED|ERROR) \S+?::(\w+)", run.stdout, flags=re.M)
    return sorted(set(names))


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else Path(__file__).resolve().parents[1]).resolve()
    refused = _refusals(root)
    if refused:
        print("\n".join(refused))
        return 2
    for label, rel, old, new in MUTANTS:
        failing = _failing_tests(root, rel, old, new)
        line = f"{label}: {len(failing)} failed"
        print(f"{line}: {', '.join(failing)}" if failing else line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
