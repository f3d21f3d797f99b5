"""The benchmark's traced run must still find and restore every binding it wraps.

`perfbench/tracing.py` wraps library functions and methods by name, so a
rename or merge in `src/fluxion` that drops one of those names breaks
`perfbench/run.py --trace 1`.  This test loads the module as it is, installs
the wrappers and checks that uninstalling restores the originals.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracing_wraps_and_restores_every_binding():
    tracing = load_tracing()
    names = ["fluxion"] + [f"fluxion.{layer}" for layer in tracing.LAYERS]
    modules = [importlib.import_module(name) for name in names]
    before = {mod.__name__: dict(vars(mod)) for mod in modules}
    experiments = dict(importlib.import_module("fluxion.experiments").EXPERIMENTS)
    entries = [(m, a) for m, a, *_ in tracing.SPANS] + [(m, a) for m, a, _ in tracing.COUNTED]
    entries.append(("dense", "SpinHamiltonian._eigensystem"))

    def binding(module_name, attr):
        owner = importlib.import_module(f"fluxion.{module_name}")
        if "." in attr:
            cls_name, attr = attr.split(".")
            return getattr(owner, cls_name).__dict__[attr]
        return vars(owner)[attr]

    originals = {entry: binding(*entry) for entry in entries}
    installed = tracing.Installed(tracing.Recorder())
    try:
        wrapped = [entry for entry in entries if binding(*entry) is not originals[entry]]
        assert wrapped == entries
    finally:
        installed.uninstall()

    for entry in entries:
        assert binding(*entry) is originals[entry], entry
    for mod in modules:
        now = vars(mod)
        changed = [key for key, value in before[mod.__name__].items() if now.get(key) is not value]
        assert changed == [], (mod.__name__, changed)
    assert importlib.import_module("fluxion.experiments").EXPERIMENTS == experiments
