"""Golden outputs: every shipped config's data files against committed references.

Each config in `configs/`, and each test-only config in `tests/golden/`, runs
through `cli.main` into a directory of its own.  Every data file it writes
(never a `.meta` sidecar) is compared, field by field, with its reference
`tests/golden/<config>/<file>`: a field that reads as a number must lie
within GOLDEN_ATOL of the reference, every other field must match exactly.  `transfer-sweep.csv` (3.5 MB) is compared through its digest, the
rows `sweep_digest` selects.  A file whose SHA-256 differs from the one in
`SHA256SUMS` is reported after the run summary without failing the test, so
byte identity stays visible on another numpy or BLAS.

A change that moves numbers on purpose regenerates the references with

    PYTHONPATH=src python tests/test_golden.py

and records the largest deviation per file as a test-data change.
"""

import configparser
import hashlib
import math
import tempfile
from pathlib import Path

import conftest

from fluxion import cli

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
GOLDEN = Path(__file__).resolve().parent / "golden"
SUMS = "SHA256SUMS"
DIGESTED = {"transfer-sweep/transfer-sweep.csv": "transfer-sweep/transfer-sweep.digest.csv"}
GOLDEN_ATOL = 1e-12


def run_golden_configs(out_dir: Path) -> dict[str, Path]:
    """Runs every golden config into out_dir/<config>; returns "<config>/<file>" -> path."""
    for config in sorted(CONFIGS.glob("*.ini")) + sorted(GOLDEN.glob("*.ini")):
        parser = configparser.ConfigParser()
        parser.read(config)
        out = out_dir / config.stem
        code = cli.main([parser["run"]["experiment"], "--config", str(config), "--out", str(out)])
        if code != 0:
            raise RuntimeError(f"{config.name} exited {code}")
    return {str(p.relative_to(out_dir)): p for p in sorted(out_dir.glob("*/*")) if p.suffix != ".meta"}


def sweep_digest(text: str) -> str:
    """The sweep's argmax row, then per eta the first row at its largest |f|."""
    header, *lines = text.splitlines()
    rows = [line.split(",") for line in lines]
    keep = [row for row in rows if row[3] == "1"]
    best: dict[str, list[str]] = {}
    for row in rows:
        if row[0] not in best or float(row[2]) > float(best[row[0]][2]):
            best[row[0]] = row
    keep.extend(best.values())
    return "\n".join([header, *(",".join(row) for row in keep)]) + "\n"


def _reference_text(name: str, text: str) -> str:
    return sweep_digest(text) if name in DIGESTED else text


def _fields(text: str) -> list[list[str]]:
    """CSV cells, or the key and value of each `key = value` summary line."""
    return [line.split(" = ", 1) if " = " in line else line.split(",") for line in text.splitlines()]


def _as_number(field: str) -> float | None:
    try:
        return float(field)
    except ValueError:
        return None


def compare(actual: str, expected: str) -> list[str]:
    """Differences between two data files: numbers at GOLDEN_ATOL, the rest exactly."""
    got, want = _fields(actual), _fields(expected)
    if len(got) != len(want):
        return [f"{len(got)} lines, expected {len(want)}"]
    out = []
    for line, (a_row, e_row) in enumerate(zip(got, want), start=1):
        if len(a_row) != len(e_row):
            out.append(f"line {line}: {len(a_row)} fields, expected {len(e_row)}")
            continue
        for a, e in zip(a_row, e_row):
            if a == e:
                continue
            x, y = _as_number(a), _as_number(e)
            if x is None or y is None or not math.isfinite(x - y) or abs(x - y) > GOLDEN_ATOL:
                out.append(f"line {line}: {a!r}, expected {e!r}")
    return out


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_sums() -> dict[str, str]:
    lines = (GOLDEN / SUMS).read_text().splitlines()
    return {name: digest for digest, name in (line.split("  ", 1) for line in lines)}


def test_configs_match_golden_outputs(tmp_path):
    produced = run_golden_configs(tmp_path)
    sums = _read_sums()
    assert sorted(produced) == sorted(sums)
    failures = []
    for name, path in produced.items():
        reference = (GOLDEN / DIGESTED.get(name, name)).read_text()
        failures += [f"{name}: {d}" for d in compare(_reference_text(name, path.read_text()), reference)]
        if _sha256(path) != sums[name]:
            conftest.BYTE_MISMATCHES.append(f"{name}: SHA-256 differs from {SUMS}")
    assert not failures, "\n".join(failures[:20])


def regenerate() -> None:
    """Rewrites every reference and SHA256SUMS from the current code."""
    with tempfile.TemporaryDirectory() as tmp:
        produced = run_golden_configs(Path(tmp))
        for name, path in produced.items():
            reference = GOLDEN / DIGESTED.get(name, name)
            reference.parent.mkdir(exist_ok=True)
            reference.write_text(_reference_text(name, path.read_text()))
        (GOLDEN / SUMS).write_text("".join(f"{_sha256(p)}  {n}\n" for n, p in produced.items()))


if __name__ == "__main__":
    regenerate()
