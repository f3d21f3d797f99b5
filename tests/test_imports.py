"""`import fluxion` leaves scipy.optimize and scipy.integrate unloaded.

Only the preparation optimizer and open evolution need them, so every other
CLI run is spared their import.  Checked in a fresh interpreter, because the
test session itself has long since imported both.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import fluxion

SRC = str(Path(fluxion.__file__).resolve().parents[1])

PROBE = textwrap.dedent(
    """
    import sys

    def loaded():
        return [m for m in ("scipy.optimize", "scipy.integrate") if m in sys.modules]

    import fluxion
    import fluxion.cli

    print(loaded())
    spec = fluxion.LindbladSpec(0.1, 0.0)
    fluxion.open_flux_tomography(spec, 0.5, 1, fluxion.RegisterState.computational(1, 0), 2)
    print(loaded())
    """
)


def test_scipy_optimize_and_integrate_load_on_first_use():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=120, check=True
    ).stdout.splitlines()
    assert out[0] == "[]"
    assert "'scipy.integrate'" in out[1]
