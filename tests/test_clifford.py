import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxion.clifford import (
    FEASIBILITY_TOL,
    CliffordCircuit,
    Gate,
    _diagonal_flux_matrices,
    _PreparationProblem,
    cnot,
    conjugate,
    conjugate_string,
    copying_stage,
    flux_from_observable,
    flux_matrix,
    h,
    optimize_preparation,
    s,
    table1,
    x,
    y,
    z,
)
from fluxion.flux import cloning_fidelity, solve_affine
from fluxion.pauli import PauliString
from fluxion.states import (
    TOMOGRAPHY_INPUTS,
    BlochVector,
    RegisterState,
    bloch_of_qubit,
    insert_qubit,
    product_state,
    uqcm_preparation_state,
)
from oracles import circuit_unitary, penalized, penalty_search, residual_jacobian

# the copying stage's evolved single-qubit operators after each CNOT
EXPECTED_TABLE = {
    ("X", 1): ["X1X2", "X1X2X3", "X1X2X3", "X1X2X3"],
    ("Z", 1): ["Z1", "Z1", "Z2", "Z1Z2Z3"],
    ("X", 2): ["X2", "X2", "X1X3", "X1X3"],
    ("Z", 2): ["Z1Z2", "Z1Z2", "Z1Z2", "Z1Z2"],
    ("X", 3): ["X3", "X3", "X3", "X1X2"],
    ("Z", 3): ["Z3", "Z1Z3", "Z1Z3", "Z1Z3"],
}


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate("CNOT", (2, 2))
    with pytest.raises(ValueError):
        Gate("H", (1, 2))
    with pytest.raises(ValueError):
        Gate("T", (1,))
    with pytest.raises(ValueError):
        CliffordCircuit(2, [cnot(1, 3)])


def test_single_gate_rules():
    cases = [
        (h(1), "X1", "Z1"),
        (h(1), "Y1", "-Y1"),
        (h(1), "Z1", "X1"),
        (s(1), "X1", "-Y1"),
        (s(1), "Y1", "X1"),
        (s(1), "Z1", "Z1"),
        (x(1), "Z1", "-Z1"),
        (x(1), "Y1", "-Y1"),
        (x(1), "X1", "X1"),
        (y(1), "X1", "-X1"),
        (y(1), "Y1", "Y1"),
        (y(1), "Z1", "-Z1"),
        (z(1), "X1", "-X1"),
        (z(1), "Y1", "-Y1"),
        (z(1), "Z1", "Z1"),
        (cnot(1, 2), "X1", "X1X2"),
        (cnot(1, 2), "X2", "X2"),
        (cnot(1, 2), "Z1", "Z1"),
        (cnot(1, 2), "Z2", "Z1Z2"),
        # the sign flips when x_c = z_t = 1 and x_t == z_c
        (cnot(1, 2), "X1Z2", "-Y1Y2"),
        (cnot(1, 2), "Y1Y2", "-X1Z2"),
        (cnot(2, 1), "Z1X2", "-Y1Y2"),
        (cnot(1, 2), "X1Y2", "Y1Z2"),
        (cnot(1, 2), "Y1Z2", "X1Y2"),
    ]
    for gate, before, after in cases:
        n = max(gate.qubits)
        out = conjugate_string(PauliString.from_label(n, before), gate)
        assert out.label() == after, f"{gate.name} on {before}"


def test_every_gate_matches_dense():
    """Each gate on 2 and 3 qubits, every string and phase, against U^dag P U."""
    for n in (2, 3):
        gates = [g(q) for g in (h, s, x, y, z) for q in range(1, n + 1)]
        gates += [cnot(c, t) for c, t in itertools.permutations(range(1, n + 1), 2)]
        for gate in gates:
            U = circuit_unitary(CliffordCircuit(n, [gate]))
            for x_mask, z_mask in itertools.product(range(1 << n), repeat=2):
                for phase in (1 + 0j, 1j, -1 + 0j, -1j):
                    string = PauliString(n, x_mask, z_mask, phase)
                    expected = U.conj().T @ string.to_matrix() @ U
                    got = conjugate_string(string, gate).to_matrix()
                    assert np.abs(got - expected).max() < 1e-12, f"{gate} on {string.label()}"


def test_table1_matches_expected():
    cells = table1()
    for key, labels in EXPECTED_TABLE.items():
        assert [c.label() for c in cells[key]] == labels


def circuits(n, max_len=6):
    cnot_pairs = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda p: p[0] != p[1])
    gate = st.one_of(
        cnot_pairs.map(lambda p: cnot(*p)),
        st.builds(h, st.integers(1, n)),
        st.builds(s, st.integers(1, n)),
        st.builds(x, st.integers(1, n)),
        st.builds(y, st.integers(1, n)),
        st.builds(z, st.integers(1, n)),
    )
    return st.lists(gate, min_size=0, max_size=max_len).map(lambda gs: CliffordCircuit(n, gs))


def pauli_strings(n):
    return st.builds(
        lambda xm, zm, p: PauliString(n, xm, zm, [1 + 0j, 1j, -1 + 0j, -1j][p]),
        st.integers(0, (1 << n) - 1),
        st.integers(0, (1 << n) - 1),
        st.integers(0, 3),
    )


@settings(max_examples=50, deadline=None)
@given(circuits(3), pauli_strings(3))
def test_conjugation_matches_dense(circuit, string):
    """U^dag P U computed symbolically equals the dense matrix product."""
    U = circuit_unitary(circuit)
    expected = U.conj().T @ string.to_matrix() @ U
    assert np.abs(conjugate(string, circuit).to_matrix() - expected).max() < 1e-12


def test_flux_row_at_identity_circuit():
    evolved = PauliString.from_label(3, "X1")
    row = flux_from_observable(evolved, uqcm_preparation_state(), 1)
    assert row == pytest.approx([1, 0, 0, 0])


def test_flux_row_groups_by_input_letter():
    # X1 X2 seen from input qubit 1 contributes <X2>_reg to the X column
    reg = RegisterState(2, np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2))  # |0>|+>
    row = flux_from_observable(PauliString.from_label(3, "X1X3"), reg, 1)
    assert row == pytest.approx([1, 0, 0, 0])
    row = flux_from_observable(PauliString.from_label(3, "X1X2"), reg, 1)
    assert row == pytest.approx([0, 0, 0, 0])


def test_uqcm_circuit_fluxes_and_fidelity():
    reg = uqcm_preparation_state()
    stage = copying_stage()
    rng = np.random.default_rng(17)
    for target in (2, 3):
        fm = flux_matrix(stage, reg, 1, target, "t4")
        assert np.allclose(fm.diagonal(), 2 / 3, atol=1e-12)
        off = fm.entries.copy()
        np.fill_diagonal(off[:, :3], 0.0)
        assert np.abs(off).max() <= 1e-12
        for _ in range(20):
            c = rng.normal(size=2) + 1j * rng.normal(size=2)
            c /= np.linalg.norm(c)
            F = cloning_fidelity(fm, BlochVector.of_state(c[0], c[1]))
            assert abs(F - 5 / 6) <= 1e-10


def test_flux_matches_output_bloch_directly():
    """M r_in + c reproduces the target qubit's actual output Bloch vector."""
    reg = uqcm_preparation_state()
    stage = copying_stage()
    U = circuit_unitary(stage)
    rng = np.random.default_rng(23)
    for target in (2, 3):
        fm = flux_matrix(stage, reg, 1, target)
        for _ in range(5):
            c = rng.normal(size=2) + 1j * rng.normal(size=2)
            c /= np.linalg.norm(c)
            full = product_state(c, reg)
            out = RegisterState(3, U @ full.amplitudes)
            expected = bloch_of_qubit(out, target).as_array()
            got = fm.bloch_map(BlochVector.of_state(c[0], c[1]).as_array())
            assert np.allclose(got, expected, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(circuits(3, max_len=8), st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 3))
def test_flux_matrix_matches_four_input_tomography(circuit, seed, input_qubit, target_qubit):
    """Any circuit of the six gates, complex register, input and target
    qubit: the read-out equals the affine fit of the four inputs' outputs."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    register = RegisterState(2, v / np.linalg.norm(v))
    U = circuit_unitary(circuit)
    outputs = {}
    for key, amps in TOMOGRAPHY_INPUTS.items():
        out = RegisterState(3, U @ insert_qubit(register, amps, input_qubit).amplitudes)
        outputs[key] = bloch_of_qubit(out, target_qubit).as_array()
    oracle = solve_affine(outputs, target_qubit, "").entries
    got = flux_matrix(circuit, register, input_qubit, target_qubit).entries
    assert np.abs(got - oracle).max() <= 1e-12


def _feasible_flux(b, g, d, tol):
    """Best mean flux among near-feasible points of the closed-form model.

    Parametrizes the unit preparation vector by (b, g, d) with a >= 0 from
    normalization; the flux expressions come straight from the evolved
    operators of the copying stage, independent of the production engine.
    """
    a2 = 1 - b * b - g * g - d * d
    ok = a2 >= 0
    a = np.sqrt(np.where(ok, a2, 0.0))
    fx2 = 2 * (a * b + g * d)
    fy2 = 2 * (a * b - g * d)
    fz2 = a * a + b * b - g * g - d * d
    fx3 = 2 * (a * g + b * d)
    fy3 = 2 * (a * g - b * d)
    fz3 = a * a - b * b + g * g - d * d
    resid = np.max(
        np.abs(np.stack([fx2 - fx3, fy2 - fy3, fz2 - fz3, fx2 - fy2, fy2 - fz2])), axis=0
    )
    score = np.where(ok & (resid < tol), (fx2 + fy2 + fz2 + fx3 + fy3 + fz3) / 6, -np.inf)
    k = int(np.argmax(score))
    return float(score.flat[k]), np.array([a.flat[k], b.flat[k], g.flat[k], d.flat[k]])


def grid_search_symmetric():
    """Refining grid scan used as an independent oracle for the optimizer."""
    center = np.zeros(3)
    half = 1.0
    best = (-np.inf, None)
    for tol in (0.3, 0.06, 0.012, 0.003):
        axes = [np.linspace(c - half, c + half, 33) for c in center]
        b, g, d = np.meshgrid(*axes, indexing="ij")
        best = _feasible_flux(b.ravel(), g.ravel(), d.ravel(), tol)
        center = best[1][1:]
        half /= 8
    return best


def test_optimizer_recovers_cloner_preparation():
    result = optimize_preparation("symmetric-universal")
    target = np.array([np.sqrt(2 / 3), 1 / np.sqrt(6), 1 / np.sqrt(6), 0.0])
    assert np.abs(result.amplitudes - target).max() <= 1e-12
    assert result.flux == pytest.approx(2 / 3, abs=1e-9)
    assert result.constraint_residual < 1e-9


def test_optimizer_recovers_biased_preparation():
    result = optimize_preparation("fully-biased")
    target = np.array([1, 1, 0, 0]) / np.sqrt(2)
    assert np.abs(result.amplitudes - target).max() <= 1e-12
    assert result.flux == pytest.approx(1.0, abs=1e-9)


def test_optimizer_agrees_with_grid_oracle():
    oracle_flux, oracle_v = grid_search_symmetric()
    result = optimize_preparation("symmetric-universal")
    assert abs(result.flux - oracle_flux) <= 1e-2
    assert np.abs(result.amplitudes - oracle_v).max() <= 0.1


def test_complex_phases_do_not_beat_real_optimum():
    """Random relative phases on the cloner amplitudes never raise the
    symmetric-universal flux above the real optimum."""
    stage = copying_stage()
    rng = np.random.default_rng(41)
    best_real = 2 / 3
    for _ in range(200):
        v = rng.normal(size=4) * np.exp(1j * rng.uniform(0, 2 * np.pi, size=4))
        v /= np.linalg.norm(v)
        reg = RegisterState(2, v)
        fms = [flux_matrix(stage, reg, 1, t) for t in (2, 3)]
        diags = np.concatenate([fm.diagonal() for fm in fms])
        if np.ptp(diags) < 1e-3 and np.abs(np.concatenate([fm.offset for fm in fms])).max() < 1e-3:
            assert diags.mean() <= best_real + 1e-3


CONSTRAINT_SETS = ("symmetric-universal", "fully-biased")


def test_stacked_flux_forms_match_pauli_apply():
    """The stacked forms are the two-qubit Paulis IX, ZX, ZI, XI, XZ and IZ,
    and v.Qv of every one, and the residuals and scores built from them,
    equal the engine's diagonal fluxes of the copying stage, scaled by |v|^2
    for an unnormalized real register v."""
    stacked = _diagonal_flux_matrices()
    assert stacked.shape == (6, 4, 4) and stacked.dtype == float
    assert np.array_equal(stacked, stacked.transpose(0, 2, 1))
    paulis = [PauliString.from_label(2, label).to_matrix() for label in ("X2", "Z1X2", "Z1", "X1", "X1Z2", "Z2")]
    assert np.array_equal(stacked, paulis)
    problems = {name: _PreparationProblem.build(name) for name in CONSTRAINT_SETS}
    stage = copying_stage()
    rng = np.random.default_rng(17)
    for _ in range(20):
        v = rng.normal(size=4)
        register = RegisterState(2, v / np.linalg.norm(v))
        f = {
            (letter, q): (v @ v) * flux_matrix(stage, register, 1, q).entry(letter, letter)
            for q in (2, 3)
            for letter in "XYZ"
        }
        assert np.abs(stacked @ v @ v - list(f.values())).max() <= 1e-14
        x2, y2, z2, x3, y3, z3 = (f[(letter, q)] for q in (2, 3) for letter in "XYZ")
        expected = {
            "symmetric-universal": (
                [v @ v - 1, x2 - x3, y2 - y3, z2 - z3, x2 - y2, y2 - z2],
                (x2 + y2 + z2 + x3 + y3 + z3) / 6,
            ),
            "fully-biased": ([v @ v - 1, x2 - 1, y2 - 1, z2 - 1], (x2 + y2 + z2) / 3),
        }
        for name, (residual, score) in expected.items():
            assert np.abs(problems[name].residual(v) - residual).max() <= 1e-13
            assert problems[name].score(v) == pytest.approx(score, abs=1e-13)


@pytest.mark.parametrize("constraint_set", CONSTRAINT_SETS)
def test_preparation_gradients_match_central_differences(constraint_set):
    problem = _PreparationProblem.build(constraint_set)
    rng = np.random.default_rng(23)
    step = 1e-6
    for mu in (10.0, 1000.0):
        v = rng.normal(size=4)
        value, grad = penalized(problem, v, mu)
        assert value == pytest.approx(mu * np.sum(problem.residual(v) ** 2) - problem.score(v), rel=1e-14)
        jac = residual_jacobian(problem, v)
        fd_grad = np.empty(4)
        fd_jac = np.empty_like(jac)
        for i, e in enumerate(np.eye(4) * step):
            fd_grad[i] = (penalized(problem, v + e, mu)[0] - penalized(problem, v - e, mu)[0]) / (2 * step)
            fd_jac[:, i] = (problem.residual(v + e) - problem.residual(v - e)) / (2 * step)
        assert np.linalg.norm(grad - fd_grad) <= 1e-6 * np.linalg.norm(grad)
        assert np.linalg.norm(jac - fd_jac) <= 1e-6 * np.linalg.norm(jac)


@pytest.mark.parametrize("constraint_set", CONSTRAINT_SETS)
def test_penalty_search_finds_nothing_above_the_eigenvector(constraint_set):
    """The certificate v.Sv <= lambda_max(S), checked from outside: no
    feasible candidate of the seeded penalty search scores higher."""
    result = optimize_preparation(constraint_set)
    candidates = penalty_search(_PreparationProblem.build(constraint_set))
    feasible = [score for score, _, feas in candidates if feas < FEASIBILITY_TOL]
    assert feasible
    assert max(feasible) <= result.flux + 1e-12
    assert result.spectral_gap > FEASIBILITY_TOL


@pytest.mark.parametrize(
    "score_form, rows, offsets, message",
    [
        (np.diag([0.0, 0.0, 1.0, 1.0]), [], [], "spectral gap 0.00e+00"),
        (np.diag([0.0, 0.0, 0.0, 1.0]), [np.diag([1.0, 0.0, 0.0, 0.0])], [1.0], "constraint residual 1.00e+00"),
    ],
    ids=["degenerate", "infeasible"],
)
def test_uncertified_preparation_raises(monkeypatch, score_form, rows, offsets, message):
    """A degenerate top eigenvalue, or an infeasible top eigenvector, is no certificate."""
    problem = _PreparationProblem(np.stack([np.eye(4), *rows]), np.array([1.0, *offsets]), score_form)
    monkeypatch.setattr(_PreparationProblem, "build", classmethod(lambda cls, name: problem))
    with pytest.raises(RuntimeError, match=re.escape(message)):
        optimize_preparation("symmetric-universal")


def test_unknown_constraint_set():
    with pytest.raises(ValueError):
        optimize_preparation("asymmetric")