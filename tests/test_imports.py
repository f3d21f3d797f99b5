"""`import fluxion` loads numpy only; each run loads only what its engine calls.

scipy.sparse is imported on the first call of the Lindblad generator, the one
layer that needs it; open evolution finds its reachable coordinates with numpy
and steps with sparse matrices alone, so no run loads scipy.integrate,
scipy.optimize, scipy.linalg, scipy.sparse.linalg or scipy.sparse.csgraph.  The
preparation optimizer, the chain engine and the series cross-check (on the
standard library's decimal) need numpy alone, so every CLI run but open-flux is
spared any scipy import.
Checked in fresh interpreters, because the test session itself has long since
imported all of them; mpmath, a test-only dependency, must stay unloaded too.
The third-party modules the package imports anywhere must be exactly its
declared runtime dependencies.
"""

import ast
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import fluxion

SRC = str(Path(fluxion.__file__).resolve().parents[1])
CONFIGS = Path(__file__).resolve().parents[1] / "configs"

PRELUDE = textwrap.dedent(
    """
    import json
    import sys

    def loaded():
        return json.dumps(sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "mpmath")))

    import fluxion
    import fluxion.cli
    """
)


def _probe(body: str) -> list[str]:
    """Output lines of PRELUDE + body, run in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", PRELUDE + textwrap.dedent(body)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    ).stdout.splitlines()


def _cli_run(experiment: str, tmp_path) -> list[str]:
    """scipy and mpmath modules loaded by an in-process `cli.main` run of a shipped config."""
    (line,) = _probe(
        f"""
        import contextlib, io
        with contextlib.redirect_stdout(io.StringIO()):
            code = fluxion.cli.main([{experiment!r}, "--config", {str(CONFIGS / f"{experiment}.ini")!r},
                                     "--out", {str(tmp_path)!r}])
        assert code == 0, code
        print(loaded())
        """
    )
    return json.loads(line)


def test_import_loads_numpy_only():
    assert _probe("print(loaded())") == ["[]"]


@pytest.mark.parametrize(
    "experiment",
    [
        "table1",
        "uqcm-circuit",
        "uqcm-prep-opt",
        "uqcm-chain",
        "universality-scan",
        "transfer-single",
        "perfect-transfer",
        "series-check",
    ],
)
def test_small_runs_load_no_scipy_or_mpmath(experiment, tmp_path):
    assert _cli_run(experiment, tmp_path) == []


def test_scipy_sparse_loads_on_first_use(tmp_path):
    out = _probe(
        """
        print(loaded())
        spec = fluxion.LindbladSpec(0.1, 0.0)
        fluxion.open_flux_tomography(spec, 0.5, 1, fluxion.RegisterState.computational(1, 0), 2)
        print(loaded())
        """
    )
    before, after = map(json.loads, out)
    assert before == []
    for loaded in (after, _cli_run("open-flux", tmp_path)):
        assert "scipy.sparse" in loaded
        assert not {"scipy.integrate", "scipy.optimize", "scipy.sparse.csgraph", "scipy.sparse.linalg",
                    "scipy.linalg"} & set(loaded)


def test_third_party_imports_are_the_declared_dependencies():
    """Top-level modules imported anywhere in src/fluxion, bar the standard library, as declared."""
    tomllib = pytest.importorskip("tomllib")
    package = Path(fluxion.__file__).resolve().parent
    imported = set()
    for path in package.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"fluxion"}
    project = tomllib.loads((package.parents[1] / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group() for req in project["dependencies"]}
    assert third_party == declared
