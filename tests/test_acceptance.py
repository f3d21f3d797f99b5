"""End-to-end acceptance gate.

Each test covers one numbered release criterion and records a single
PASS/FAIL line; conftest replays the lines after the run summary.
"""

import time

import numpy as np

import conftest
from oracles import circuit_unitary

from fluxion.chain import (
    CouplingProfile,
    DEFAULT_TIME_GRID,
    DisorderSpec,
    disorder_ensemble,
    eta_sweep,
    first_arrival_window,
    flux_components,
    propagator_coefficients,
    series_flux,
    transfer,
    transfer_amplitude,
)
from fluxion.clifford import (
    CliffordCircuit,
    cnot,
    copying_stage,
    flux_matrix,
    h,
    optimize_preparation,
    s,
    table1,
)
from fluxion.dense import (
    SpinHamiltonian,
    flux_tomography,
    universality_scan,
    unitary_flux_tomography,
    uqcm_chain_fidelity,
)
from fluxion.flux import cloning_fidelity
from fluxion.lindblad import (
    DensityMatrix,
    LindbladSpec,
    evolve_density,
    open_flux_tomography,
)
from fluxion.states import (
    BlochVector,
    RegisterState,
    psi_plus_state,
    uqcm_preparation_state,
)


def report(num: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'} {label}"
    if detail:
        line += f" [{detail}]"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


EXPECTED_TABLE = {
    ("X", 1): ["X1X2", "X1X2X3", "X1X2X3", "X1X2X3"],
    ("Z", 1): ["Z1", "Z1", "Z2", "Z1Z2Z3"],
    ("X", 2): ["X2", "X2", "X1X3", "X1X3"],
    ("Z", 2): ["Z1Z2", "Z1Z2", "Z1Z2", "Z1Z2"],
    ("X", 3): ["X3", "X3", "X3", "X1X2"],
    ("Z", 3): ["Z3", "Z1Z3", "Z1Z3", "Z1Z3"],
}


def test_criterion_01_operator_table():
    start = time.perf_counter()
    cells = table1()
    elapsed = time.perf_counter() - start
    mismatches = [
        key
        for key, labels in EXPECTED_TABLE.items()
        if [c.label() for c in cells[key]] != labels
    ]
    ok = not mismatches and elapsed < 1.0
    report(1, "evolved-operator table, 24 cells symbolic", ok,
           f"mismatches={mismatches}, runtime={elapsed:.3f}s")


def test_criterion_02_circuit_cloner_fluxes():
    stage = copying_stage()
    register = uqcm_preparation_state()
    worst_entry = 0.0
    for target in (2, 3):
        fm = flux_matrix(stage, register, 1, target)
        worst_entry = max(worst_entry, np.abs(fm.diagonal() - 2 / 3).max())
        off = fm.entries.copy()
        np.fill_diagonal(off[:, :3], 0.0)
        worst_entry = max(worst_entry, np.abs(off).max())
    rng = np.random.default_rng(2024)
    worst_f = 0.0
    fm2 = flux_matrix(stage, register, 1, 2)
    fm3 = flux_matrix(stage, register, 1, 3)
    for _ in range(20):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        bloch = BlochVector.of_state(v[0], v[1])
        for fm in (fm2, fm3):
            worst_f = max(worst_f, abs(cloning_fidelity(fm, bloch) - 5 / 6))
    ok = worst_entry <= 1e-12 and worst_f <= 1e-10
    report(2, "circuit cloner: 2/3 fluxes and 5/6 fidelity", ok,
           f"entry_err={worst_entry:.2e}, fidelity_err={worst_f:.2e}")


def test_criterion_03_preparation_optimizer():
    sym = optimize_preparation("symmetric-universal")
    target = np.array([np.sqrt(2 / 3), 1 / np.sqrt(6), 1 / np.sqrt(6), 0.0])
    err_sym = np.abs(sym.amplitudes - target).max()
    biased = optimize_preparation("fully-biased")
    target_b = np.array([1 / np.sqrt(2), 1 / np.sqrt(2), 0.0, 0.0])
    err_b = np.abs(biased.amplitudes - target_b).max()
    ok = err_sym <= 1e-6 and err_b <= 1e-6
    report(3, "preparation optimizer recovers both registers", ok,
           f"symmetric_err={err_sym:.2e}, biased_err={err_b:.2e}")


def test_criterion_04_chain_cloner():
    hham = SpinHamiltonian.heisenberg_chain(3, 1.0, 2.0)
    register = psi_plus_state()
    worst = 0.0
    for t in np.linspace(0.0, np.pi / np.sqrt(3), 100):
        fm = flux_tomography(hham, float(t), 2, register, 1)
        worst = max(worst, np.abs(fm.diagonal() - (2 / 3) * np.sin(np.sqrt(3) * t) ** 2).max())
    tstar = np.pi / (2 * np.sqrt(3))
    f_err = abs(uqcm_chain_fidelity(1.0, tstar) - 5 / 6)
    grid = np.arange(0.0, 1.82, 0.01)
    scan = universality_scan([0.0, 1.0, 2.0, 3.0], 1.0, grid)
    ok = (
        worst <= 1e-9
        and f_err <= 1e-9
        and scan[2.0] < 1e-9
        and all(scan[lam] > 1e-2 for lam in (0.0, 1.0, 3.0))
    )
    report(4, "spin-chain cloner law and anisotropy scan", ok,
           f"law_err={worst:.2e}, fidelity_err={f_err:.2e}, "
           f"deviations={[f'{scan[k]:.3g}' for k in (0.0, 1.0, 2.0, 3.0)]}")


def test_criterion_05_three_site_transfer():
    prof = CouplingProfile.uniform_eta(3, 1.0, 1.0)
    worst = 0.0
    for t in np.linspace(0.0, 6.0, 120):
        res = transfer(prof, float(t))
        expect = np.sin(t / np.sqrt(2)) ** 2
        # signed engine, magnitude law: the homonymous flux carries the
        # known pi phase of the three-site mirror
        worst = max(worst, abs(abs(res.flux.entry("X", "X")) - expect))
        worst = max(worst, abs(res.flux.entry("Z", "Z") - expect**2))
    unit_err = abs(abs(transfer_amplitude(prof, np.pi / np.sqrt(2))) - 1.0)
    ok = worst <= 1e-10 and unit_err <= 1e-10
    report(5, "three-site transfer laws and unit peak", ok,
           f"law_err={worst:.2e}, unit_err={unit_err:.2e}")


def test_criterion_06_perfect_transfer():
    worst = 0.0
    for n in (4, 7, 32, 101):
        prof = CouplingProfile.perfect(n, 1.0)
        worst = max(worst, abs(abs(transfer_amplitude(prof, np.pi)) - 1.0))
    ok = worst <= 1e-9
    report(6, "engineered profile reaches unit flux at pi/lambda", ok,
           f"worst_err={worst:.2e}")


# The engines evolve under H = (1/2) sum_i J_i (X_i X_{i+1} + Y_i Y_{i+1}),
# whose single-excitation hopping is J_i (criteria 5 and 6 pin this).  The
# 101-site optimum time Jt = 27.6 +- 0.3 is quoted for H = sum_i J_i (XX + YY),
# hopping 2 J_i, which runs twice as fast: |f|(eta, t) there equals
# |f|(eta, 2t) here.  Eta, flux and fidelity do not depend on the convention.
DOUBLED_H_TIME_FACTOR = 2.0


def test_criterion_07_long_chain_optimum():
    start = time.perf_counter()
    res = eta_sweep(101)
    elapsed = time.perf_counter() - start
    checks = {
        "eta": abs(res.eta_max - 0.50) <= 0.02,
        "Jt": abs(res.t_max - DOUBLED_H_TIME_FACTOR * 27.6) <= DOUBLED_H_TIME_FACTOR * 0.3,
        "flux": abs(res.flux_max - 0.93) <= 0.01,
        "fidelity": abs(res.flux_max**2 - 0.865) <= 0.01,
        "runtime": elapsed < 60.0,
    }
    ok = all(checks.values())
    report(7, "101-site optimum", ok,
           f"eta_max={res.eta_max:.2f}, Jt_max={res.t_max:.2f} "
           f"({res.t_max / DOUBLED_H_TIME_FACTOR:.2f} for sum J(XX+YY)), "
           f"flux_max={res.flux_max:.4f}, fidelity={res.flux_max**2:.4f}, "
           f"runtime={elapsed:.1f}s, failed={[k for k, v in checks.items() if not v]}")


def test_criterion_08_eta_trend():
    etas = []
    for n in (3, 11, 21, 51, 101):
        etas.append(eta_sweep(n, t_grid=first_arrival_window(n)).eta_max)
    jitter = 0.01
    monotone = all(b <= a + jitter for a, b in zip(etas, etas[1:]))
    ok = abs(etas[0] - 1.00) <= 0.01 and abs(etas[-1] - 0.50) <= 0.02 and monotone
    report(8, "boundary-coupling optimum falls with length", ok,
           f"eta_max={[f'{e:.2f}' for e in etas]}")


def test_criterion_09_disorder_robustness():
    start = time.perf_counter()
    spec = DisorderSpec(sigma_fraction=0.05, trials=200, seed=0)
    res = disorder_ensemble(101, 0.50, spec, DEFAULT_TIME_GRID)
    elapsed = time.perf_counter() - start
    clean = eta_sweep(101)
    mean_max = float(res.max_fluxes.mean())
    se = float(res.max_fluxes.std(ddof=1) / np.sqrt(spec.trials))
    median_jt = float(np.median(res.argmax_times))
    within = abs(median_jt - clean.t_max) <= 0.05 * clean.t_max
    # Reference mean of the per-trial maxima under Gaussian disorder
    # delta_i ~ N(0, (0.05 J_i)^2), reproduced trial by trial by a dense eigh
    # oracle (tests/test_chain.py); the band rejects sigma = 4.5% and 5.5%.
    checks = {
        "mean_max": abs(mean_max - 0.818) <= 3 * se,
        "median_argmax": within,
        "runtime": elapsed < 300.0,
    }
    ok = all(checks.values())
    report(9, "5% coupling disorder, 200 trials", ok,
           f"mean_max={mean_max:.4f} vs 0.818 +- {3 * se:.4f}, "
           f"median_Jt={median_jt:.2f} vs clean {clean.t_max:.2f}, "
           f"runtime={elapsed:.1f}s, failed={[k for k, v in checks.items() if not v]}")


def test_criterion_10_series_equivalence():
    cases = [
        (5, 0.8, 2.0, 60),
        (11, 1.0, 10.0, 110),
        (16, 0.5, 20.0, 150),
        (21, 1.0, 30.0, 195),
    ]
    worst = 0.0
    for n, eta, t, order in cases:
        prof = CouplingProfile.uniform_eta(n, 1.0, eta)
        res = series_flux(prof, t, order)
        assert res.truncation_bound < 1e-10
        worst = max(worst, np.abs(res.coefficients - propagator_coefficients(prof, t)).max())
    ok = worst <= 1e-8
    report(10, "series recurrence equals mode expansion", ok, f"worst_err={worst:.2e}")


def test_criterion_11_cross_engine():
    rng = np.random.default_rng(404)
    worst_chain = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 11))
        prof = CouplingProfile(n, rng.uniform(0.2, 1.5, size=n - 1))
        t = float(rng.uniform(0.0, 8.0))
        dense = flux_tomography(
            SpinHamiltonian.xy_chain(prof), t, 1, RegisterState.computational(n - 1, 0), n
        )
        reduced = flux_components(transfer_amplitude(prof, t), n, t)
        worst_chain = max(worst_chain, np.abs(dense.entries - reduced.entries).max())
    worst_circuit = 0.0
    stage = copying_stage()
    register = uqcm_preparation_state()
    for target in (2, 3):
        symbolic = flux_matrix(stage, register, 1, target)
        numeric = unitary_flux_tomography(circuit_unitary(stage), 1, register, target)
        worst_circuit = max(worst_circuit, np.abs(symbolic.entries - numeric.entries).max())
    mixed = CliffordCircuit(3, [h(2), cnot(1, 2), s(1), cnot(2, 3)])
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    other = RegisterState(2, v / np.linalg.norm(v))
    for target in (1, 2, 3):
        symbolic = flux_matrix(mixed, other, 1, target)
        numeric = unitary_flux_tomography(circuit_unitary(mixed), 1, other, target)
        worst_circuit = max(worst_circuit, np.abs(symbolic.entries - numeric.entries).max())
    ok = worst_chain <= 1e-9 and worst_circuit <= 1e-10
    report(11, "chain and circuit engines match dense tomography", ok,
           f"chain_err={worst_chain:.2e}, circuit_err={worst_circuit:.2e}")


def test_criterion_12_open_dynamics():
    gam, deph = 0.8, 0.3
    spec = LindbladSpec(gam, deph)
    empty = RegisterState.empty()
    worst_law = 0.0
    for gt in np.linspace(0.0, 5.0, 26):
        t = float(gt / gam)
        fm = open_flux_tomography(spec, t, 1, empty, 1)
        worst_law = max(worst_law, abs(fm.entry("Z", "Z") - np.exp(-gam * t)))
        worst_law = max(worst_law, abs(fm.entry("X", "X") - np.exp(-(gam / 2 + 2 * deph) * t)))
    prof = CouplingProfile.uniform_eta(3, 1.0, 0.9)
    hham = SpinHamiltonian.xy_chain(prof)
    closed_spec = LindbladSpec(0.0, 0.0, hamiltonian=hham)
    register = RegisterState.computational(2, 0)
    reduction_err = np.abs(
        open_flux_tomography(closed_spec, 1.3, 1, register, 3).entries
        - flux_tomography(hham, 1.3, 1, register, 3).entries
    ).max()
    damped = LindbladSpec(0.4, 0.1, hamiltonian=hham)
    rho = DensityMatrix.from_state(
        RegisterState(3, np.sqrt(np.array([0.5, 0.2, 0.1, 0.05, 0.05, 0.04, 0.03, 0.03])))
    )
    trace_err = 0.0
    for t in (0.5, 1.5, 3.0):
        evolved = evolve_density(rho, damped, t)
        trace_err = max(trace_err, abs(float(np.trace(evolved.entries).real) - 1.0))
    ok = worst_law <= 1e-6 and reduction_err <= 1e-8 and trace_err <= 1e-8
    report(12, "open decay laws, closed reduction, trace", ok,
           f"law_err={worst_law:.2e}, reduction_err={reduction_err:.2e}, "
           f"trace_err={trace_err:.2e}")
