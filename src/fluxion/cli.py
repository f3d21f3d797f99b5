"""Command-line driver: config parsing, validation, and result serialization.

Config files are INI text with a [run] section (experiment, seed) and a
[params] section of experiment-specific keys.  Grid outputs go to CSV and
scalar summaries to key=value text, each value written by its numpy dtype:
floats as `{:.15g}`, integers as integers, labels verbatim.  Data
files are deterministic for a fixed config and seed; timestamps live only in
the metadata sidecars.  All files are written to a temporary name and
renamed into place, so failed runs leave no partial outputs.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
import tempfile
import time
from dataclasses import dataclass, field
from importlib import metadata as importlib_metadata

import numpy as np

from .experiments import EXPERIMENTS, PARAM_SPECS, SummaryOutput, TableOutput, cross_checks

MAX_SEED = 2**64 - 1


class ConfigError(Exception):
    def __init__(self, diagnostics: list[str]):
        super().__init__("; ".join(diagnostics))
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class RunConfig:
    experiment: str
    parameters: dict[str, str] = field(default_factory=dict)
    seed: int = 0


def load_config(path: str, experiment: str, seed_override: int | None = None) -> RunConfig:
    parser = configparser.ConfigParser()
    parser.optionxform = str  # parameter names are case-sensitive (Jt, J)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError([f"cannot read config file {path}: {exc}"]) from exc
    except configparser.Error as exc:
        raise ConfigError([f"malformed config file {path}: {exc}"]) from exc
    diagnostics = []
    for section in parser.sections():
        if section not in ("run", "params"):
            diagnostics.append(f"unknown config section [{section}]")
    seed = 0
    if parser.has_section("run"):
        for key in parser["run"]:
            if key not in ("experiment", "seed"):
                diagnostics.append(f"unknown key {key!r} in [run]")
        named = parser["run"].get("experiment")
        if named is not None and named != experiment:
            diagnostics.append(
                f"config names experiment {named!r} but {experiment!r} was requested"
            )
        raw_seed = parser["run"].get("seed")
        if raw_seed is not None:
            try:
                seed = int(raw_seed)
            except ValueError:
                diagnostics.append(f"seed must be an integer, got {raw_seed!r}")
    if seed_override is not None:
        seed = seed_override
    if diagnostics:
        raise ConfigError(diagnostics)
    params = dict(parser["params"]) if parser.has_section("params") else {}
    return RunConfig(experiment, params, seed)


def _parse_value(key: str, raw: str, spec) -> tuple[object, str | None]:
    if spec.kind == "choice":
        if raw not in spec.choices:
            return None, f"{key} must be one of {', '.join(spec.choices)}; got {raw!r}"
        return raw, None
    try:
        if spec.kind == "int":
            return int(raw), None
        if spec.kind == "int-list":
            return tuple(int(v) for v in raw.split(",") if v.strip() != ""), None
        if spec.kind == "float":
            value = float(raw)
        else:  # float-list
            value = tuple(float(v) for v in raw.split(",") if v.strip() != "")
    except ValueError:
        return None, f"{key} must be a {spec.kind}, got {raw!r}"
    floats = value if isinstance(value, tuple) else (value,)
    if not all(math.isfinite(v) for v in floats):
        return None, f"{key} must be finite, got {raw!r}"
    return value, None


def resolve(config: RunConfig) -> dict:
    """Typed parameter dict from raw config, or ConfigError with diagnostics."""
    diagnostics = []
    if config.experiment not in EXPERIMENTS:
        raise ConfigError(
            [
                f"unknown experiment {config.experiment!r}; choose from "
                + ", ".join(sorted(EXPERIMENTS))
            ]
        )
    if not 0 <= config.seed <= MAX_SEED:
        diagnostics.append(f"seed must be in 0..{MAX_SEED}")
    specs = PARAM_SPECS[config.experiment]
    params = {key: spec.default for key, spec in specs.items()}
    for key, raw in config.parameters.items():
        if key not in specs:
            diagnostics.append(f"unknown parameter {key!r} for {config.experiment}")
            continue
        value, problem = _parse_value(key, raw, specs[key])
        if problem:
            diagnostics.append(problem)
            continue
        params[key] = value
    for key, spec in specs.items():
        value = params[key]
        if spec.kind.endswith("list") and not value:
            diagnostics.append(f"{key} must list at least one value")
        if spec.minimum is not None:
            values = value if isinstance(value, tuple) else (value,)
            if any(v < spec.minimum for v in values):
                diagnostics.append(f"{key} must be >= {spec.minimum}, got {value}")
    if not diagnostics:
        diagnostics.extend(cross_checks(config.experiment, params))
    if diagnostics:
        raise ConfigError(diagnostics)
    return params


def validate(config: RunConfig) -> list[str]:
    """Diagnostics for a config; empty list means it is runnable."""
    try:
        resolve(config)
    except ConfigError as exc:
        return exc.diagnostics
    return []


_FIELDS = {"f": "{:.15g}", "i": "{:d}", "b": "{:d}", "U": "{}"}  # numpy dtype kind -> format field


def _field(values) -> str:
    """The format field of a column or a scalar, by its numpy dtype kind."""
    return _FIELDS[np.asarray(values).dtype.kind]


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _package_version() -> str:
    try:
        return importlib_metadata.version("fluxion")
    except importlib_metadata.PackageNotFoundError:
        return "unreleased"


def _metadata(config: RunConfig, extra: dict[str, str], wall_time: float) -> dict[str, str]:
    meta = {
        "experiment": config.experiment,
        "seed": str(config.seed),
        "version": _package_version(),
        "wall_time_s": f"{wall_time:.3f}",
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    for key, raw in sorted(config.parameters.items()):
        meta[f"param.{key}"] = raw
    meta.update(extra)
    return meta


def _write_metadata(path: str, meta: dict[str, str]) -> None:
    _atomic_write(path, "".join(f"{k} = {v}\n" for k, v in meta.items()))


def run(config: RunConfig, out_dir: str = ".") -> list[str]:
    """Execute one experiment; returns the paths written."""
    params = resolve(config)
    os.makedirs(out_dir, exist_ok=True)
    started = time.monotonic()
    outputs = EXPERIMENTS[config.experiment](params, config.seed)
    wall = time.monotonic() - started
    written = []
    for output in outputs:
        if isinstance(output, TableOutput):
            path = os.path.join(out_dir, f"{output.name}.csv")
            template = ",".join(map(_field, output.columns.values()))
            cells = (column.tolist() for column in output.columns.values())
            _atomic_write(path, "\n".join([",".join(output.columns), *map(template.format, *cells)]) + "\n")
        elif isinstance(output, SummaryOutput):
            path = os.path.join(out_dir, f"{output.name}.txt")
            _atomic_write(path, "".join(f"{k} = {_field(v).format(v)}\n" for k, v in output.items.items()))
        else:
            raise TypeError(f"unexpected output {output!r}")
        _write_metadata(path + ".meta", _metadata(config, output.extra, wall))
        written.extend([path, path + ".meta"])
    return written


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fluxion",
        description="Information-flux experiments for circuits, chains, and open dynamics.",
    )
    parser.add_argument("experiment", help=", ".join(sorted(EXPERIMENTS)))
    parser.add_argument("--config", required=True, help="INI config file")
    parser.add_argument("--seed", type=int, default=None, help="overrides the config seed")
    parser.add_argument("--out", default=".", help="output directory")
    # accepted for existing command lines; every run is single-threaded
    parser.add_argument("--threads", type=int, default=1, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.threads != 1:
        print("error: --threads accepts only 1: every run is single-threaded", file=sys.stderr)
        return 2
    try:
        config = load_config(args.config, args.experiment, args.seed)
        for path in run(config, args.out):
            print(path)
    except ConfigError as exc:
        for diag in exc.diagnostics:
            print(f"config error: {diag}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001  (runtime failure -> exit 1)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
