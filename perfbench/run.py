"""fluxion benchmark: end-to-end and per-layer metrics for four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a fluxion checkout; the program is imported from its
`src/` tree.  With --trace 0 the run reports wall_s, setup_s and peak_rss_mb;
with --trace 1 it reports the per-layer metrics of tracing.PER_LAYER_UNITS.
Outputs are checked in every pass; failed_ratio = failed / attempted checks.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A record of each run, with its environment
(and, when traced, every span), is written under .perfbench/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("cli-configs", "chain-transfer", "dense-tomography", "open-tomography")
SETUP_PROBES = 5
IMPORT_PROBES = 3
PROBE_TIMEOUT_S = 120


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return env


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _time_to_ready(cmd: list[str]) -> float:
    """Seconds from process start until it prints its ready line."""
    start = time.perf_counter()
    with subprocess.Popen(cmd, env=_child_env(), stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe {cmd[1:3]} failed with exit code {code}")
    return elapsed


def setup_samples(workload: str, seed: int) -> list[float]:
    if workload == "cli-configs":
        cmd = [sys.executable, "-c", "import fluxion; print('ready', flush=True)"]
    else:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-probe"]
    return [_time_to_ready(cmd) for _ in range(SETUP_PROBES)]


def import_samples() -> dict[str, float]:
    """Medians of `-X importtime` for `import fluxion` in cold interpreters."""
    names = {"fluxion": "import.total_s", "scipy.optimize": "import.scipy_optimize_s", "mpmath": "import.mpmath_s"}
    samples: dict[str, list[float]] = {metric: [] for metric in names.values()}
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import fluxion"],
                              env=_child_env(), capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
        seen = dict.fromkeys(names.values(), 0.0)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in names:
                seen[names[parts[2].strip()]] = int(parts[1]) * 1e-6
        for metric, value in seen.items():
            samples[metric].append(value)
    return {metric: statistics.median(values) for metric, values in samples.items()}


def environment(seed: int) -> dict:
    import ctypes
    import platform

    import mpmath
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line and line.split()[-1].startswith("/")})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
        if threads is not None:
            break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "seed": seed,
    }


def timed_passes(wl, rec, gate, budget: float, label: str | None, digests: list[str]) -> list[float]:
    """Runs passes until another would overrun the budget; returns pass walls.

    With a label the recorder is active during each pass (traced run).
    """
    walls: list[float] = []
    start = time.perf_counter()
    while True:
        rec.run_id = f"{label}{len(walls)}" if label else None
        began = time.perf_counter()
        out = wl.run_pass(rec)
        walls.append(time.perf_counter() - began)
        rec.run_id = None
        wl.check(out, gate)
        digests.append(wl.digest(out))
        wl.discard(out)
        if time.perf_counter() - start + statistics.median(walls) > budget:
            return walls


def run_workload(args, scratch: Path) -> dict:
    import tracing
    import workloads

    import fluxion  # noqa: F401  (compiles the package once before any probe)

    env = environment(args.seed)
    wl = workloads.WORKLOADS[args.workload](ROOT, args.seed, scratch)
    wl.warm_up()
    gate = workloads.Gate()
    rec = tracing.Recorder()
    digests: list[str] = []
    record: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "environment": env}
    metrics: dict[str, tuple[float, str]] = {}

    if not args.trace:
        setups = setup_samples(args.workload, args.seed)
        walls = timed_passes(wl, rec, gate, args.seconds, None, digests)
        gate.check("passes_identical", len(set(digests)) == 1)
        usage = resource.RUSAGE_CHILDREN if args.workload == "cli-configs" else resource.RUSAGE_SELF
        metrics["wall_s"] = (statistics.median(walls), "s")
        metrics["setup_s"] = (statistics.median(setups), "s")
        metrics["peak_rss_mb"] = (resource.getrusage(usage).ru_maxrss / 1024.0, "MB")
        record["samples"] = {"wall_s": walls, "setup_s": setups}
    else:
        imports = import_samples()
        untraced = timed_passes(wl, rec, gate, args.seconds / 2, None, digests)
        plain = len(digests)
        label = f"{args.workload}:seed{args.seed}:pass"  # the workload-run id of each span
        installed = tracing.Installed(rec)
        try:
            traced = timed_passes(wl, rec, gate, args.seconds / 2, label, digests)
        finally:
            installed.uninstall()
        gate.check("traced_outputs_equal_untraced", len(set(digests)) == 1,
                   f"untraced={len(set(digests[:plain]))} traced={len(set(digests[plain:]))} distinct digests")
        selfs = rec.self_times()
        per_pass = [
            tracing.pass_metrics(selfs.get(f"{label}{i}", {}), rec.counts.get(f"{label}{i}", {}), wall)
            for i, wall in enumerate(traced)
        ]
        for name, unit in tracing.PER_LAYER_UNITS.items():
            if name in imports:
                metrics[name] = (imports[name], unit)
            elif name == "trace.overhead_s":
                metrics[name] = (statistics.median(traced) - statistics.median(untraced), unit)
            else:
                metrics[name] = (statistics.median(p[name] for p in per_pass), unit)
        record["samples"] = {"wall_s": untraced, "traced_wall_s": traced}
        record["spans"] = rec.spans
    record["checks"] = {"attempted": gate.attempted, "failed": gate.failed, "messages": gate.messages}
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return record


def report(record: dict) -> None:
    env = record["environment"]
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}")
    print("environment " + "  ".join(f"{k}={v}" for k, v in env.items()))
    for name, samples in record["samples"].items():
        q1, q2, q3 = _quartiles(samples)
        print(f"  {name:<16} median {q2:.4f} s  q1 {q1:.4f}  q3 {q3:.4f}  n {len(samples)}")
    checks = record["checks"]
    ratio = checks["failed"] / checks["attempted"] if checks["attempted"] else 1.0
    print(f"  {'failed_ratio':<16} {ratio:.4f}  ({checks['failed']} of {checks['attempted']} checks)")
    for message in checks["messages"]:
        print(f"  {message}")
    for name, m in record["metrics"].items():
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}")


def run_all(args) -> int:
    """Every workload in its own process, then one summary table."""
    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0 or not proc.stdout.strip():
            sys.stderr.write(proc.stderr)
            print(f"error: workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        totals["correct"] &= result["correct"]
        totals["attempted"] += result["attempted"]
        totals["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            totals["metrics"][f"{name}.{metric}"] = m
        rows.append((name, result))
    print("\nsummary")
    for name, result in rows:
        cells = [f"{k} {m['value']:.4g} {m['unit']}" for k, m in result["metrics"].items()][:4]
        ratio = result["failed"] / result["attempted"]
        print(f"  {name:<18} " + "  ".join(cells) + f"  failed_ratio {ratio:.4g}")
    print(json.dumps(totals))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (ROOT / "src" / "fluxion" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"error: {ROOT} is not a fluxion checkout (needs src/fluxion and configs/)", file=sys.stderr)
        return 2
    # BLAS reads its thread count when numpy loads, so set it first.  One
    # thread: with two, contention for the second CPU of a 2-CPU host made
    # passes of small matrix products up to five times slower.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(ROOT / "src"))

    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        import workloads

        import fluxion  # noqa: F401

        workloads.WORKLOADS[args.workload](ROOT, args.seed, None).warm_up()
        print("ready", flush=True)
        return 0

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=out_dir))
    try:
        record = run_workload(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    with open(out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh)
    report(record)
    checks = record["checks"]
    print(json.dumps({
        "correct": checks["failed"] == 0,
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
