"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.
"""

import json
import math

import numpy as np
import pytest
import scipy.optimize

from dqsim import adversary, cli, metrics, protocol, qcore
from test_qcore import pole_pauli, spectrum


def report(num, text):
    print(f"\nACCEPTANCE {num:02d} PASS: {text}")


def make_config(**overrides):
    base = dict(variant="entanglement", direction="one_way", n=1, T=100_000,
                p_c=0.5, p_e=0.5, p_d=0.0, epsilon_threshold=0.251,
                true_phi=0.3, seed=20240101)
    base.update(overrides)
    return protocol.ProtocolConfig(**base)


def fidelity_sigma(check_result):
    var = sum((1 - c ** 2) / check_result.sample_counts[k]
              for k, c in check_result.correlator_means.items()) / 16
    return math.sqrt(var)


def test_criterion_01_paper_arithmetic():
    """Implied threshold at the headline fidelity and its composed value."""
    eps_implied = math.sqrt(1.0 - 0.937)
    assert eps_implied == pytest.approx(0.2510, abs=5e-4)
    eps0 = metrics.epsilon0("one_way_individual", "entanglement", 0.251)
    assert eps0 == pytest.approx(0.20494, abs=1e-5)
    # the same numbers via the check-result path
    block = [1] * 958 + [-1] * 42
    rows = {"XZ": block, "ZX": block, "YY": block}
    from test_protocol import synthetic_transcript
    chk = protocol.check_fidelity(synthetic_transcript(rows))
    assert chk.fidelity_estimate == pytest.approx(0.937, abs=1e-12)
    assert chk.epsilon_implied == pytest.approx(0.2510, abs=5e-4)
    report(1, f"eps_implied(0.937)={chk.epsilon_implied:.5f}, eps0={eps0:.6f}")


def test_criterion_02_ideal_protocol_consistency():
    """Identity attack: perfect check and unbiased estimate on a phase grid."""
    for i, phi in enumerate((0.2, 0.4, 0.6, math.pi / 4)):
        cfg = make_config(true_phi=phi, seed=20240102 + i)
        tr = protocol.run(cfg, adversary.IdentityAttack())
        chk = protocol.check_fidelity(tr)
        est = protocol.estimate_phase(tr)
        assert chk.fidelity_estimate >= 0.999
        assert abs(est.phi_hat - phi) <= 3 * est.standard_error
    report(2, "F_hat >= 0.999 and |phi_hat - phi| <= 3 SE at 4 phases, T=1e5")


def test_criterion_03_variant_equivalence():
    """Fidelity identity across variants and matched threshold decisions."""
    for i, p in enumerate((0.05, 0.2)):
        cfg = make_config(seed=20240103 + i)
        rep = protocol.run_mub_equivalence(cfg, adversary.DepolarizingAttack(p))
        assert rep.identity_holds, (
            f"identity violated at p={p}: {rep.entanglement_fidelity} vs "
            f"{rep.combined_from_mub} (sigma {rep.identity_sigma})")

    # threshold mapping eps^2 = 1.5 epsbar^2 on a 10-point noise grid that
    # stays several sigma away from the decision boundary p* = 4 eps^2 / 3
    eps = 0.35
    grid = np.concatenate([np.linspace(0.02, 0.12, 5), np.linspace(0.21, 0.31, 5)])
    decisions = []
    for i, p in enumerate(grid):
        cfg = make_config(epsilon_threshold=eps, p_c=0.9, p_e=0.1,
                          seed=20240110 + i)
        rep = protocol.run_mub_equivalence(cfg, adversary.DepolarizingAttack(float(p)))
        assert rep.entanglement_passed == rep.mub_passed, f"decision split at p={p}"
        decisions.append(rep.entanglement_passed)
    assert any(decisions) and not all(decisions)
    report(3, "identity within 4 sigma at p=0.05,0.2; 10/10 matched decisions")


def test_criterion_04_depolarizing_oracle_and_calibration():
    """Analytic noise oracle 1 - 3p/4 and the calibration solver."""
    for i, p in enumerate((0.084, 0.2, 0.5)):
        expected = 1 - 3 * p / 4  # symbolic oracle, see test_qcore Werner check
        assert adversary.expected_check_fidelity(
            adversary.DepolarizingAttack(p), 1) == pytest.approx(expected, abs=1e-12)
        cfg = make_config(T=30_000, seed=20240104 + i)
        chk = protocol.check_fidelity(protocol.run(cfg, adversary.DepolarizingAttack(p)))
        assert abs(chk.fidelity_estimate - expected) < 4 * fidelity_sigma(chk)
    p_star = adversary.calibrate_depolarizing(0.937)
    assert p_star == pytest.approx(0.084, abs=1e-6)
    report(4, f"Monte Carlo matches 1-3p/4 at three strengths; p*={p_star:.9f}")


def test_criterion_05_bound_dominance_sweep(tmp_path):
    """Individual-attack bounds dominate twin-run empirical deviations."""
    scenario = {
        "protocol": {"variant": "entanglement", "direction": "one_way", "n": 1,
                     "T": 30_000, "p_c": 0.5, "p_e": 0.5, "p_d": 0.0,
                     "epsilon_threshold": 0.251, "true_phi": 0.3,
                     "seed": 20240105},
        "attack": {"name": "depolarizing", "params": {"p": 0.084}},
        "sweep": {"variable": "phi", "start": 0.1 + 1e-9, "stop": math.pi / 2 - 0.1,
                  "steps": 15},
        "output": {"csv": str(tmp_path / "sweep.csv")},
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    assert cli.main(["sweep", str(path)]) == cli.EXIT_OK
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    rows = [dict(zip(cli.CSV_COLUMNS, line.split(","))) for line in lines[1:]]
    assert len(rows) == 15
    biases, bounds = [], []
    for row in rows:
        bias_emp = float(row["bias_emp"])
        bias_bound = float(row["bias_bound"])
        assert bias_emp <= bias_bound, f"bias exceeds bound at phi={row['phi']}"
        assert float(row["var_discrepancy"]) <= float(row["var_bound"])
        biases.append(bias_emp)
        bounds.append(bias_bound)
    ratio = np.mean(bounds) / np.mean(biases)
    assert ratio > 3
    report(5, f"15/15 points dominated; mean bound/empirical ratio {ratio:.1f}")


def test_criterion_06_inequality_suites():
    """All inequality property suites run violation-free."""
    results = metrics.run_inequality_suites()
    for r in results:
        assert r.passed, f"{r.name}: {r.violations} violations in {r.checks} checks"
    counts = {r.name: r.checks for r in results}
    assert counts["fuchs_van_de_graaf"] == 600
    assert counts["gentle_measurement"] == 100
    assert counts["uniform_continuity"] == 100
    assert counts["locc1_vs_trace_distance"] == 50
    report(6, "; ".join(f"{r.name}={r.checks}" for r in results))


def test_criterion_07_arc_length_and_minimum_fidelity():
    """Arc length of the encoding and the worst-case-overlap closed form."""
    for n in (1, 2, 3):
        for phi in (0.1, 0.3):
            u = qcore.encoding_unitary(n, phi)
            assert metrics.delta_arc(u) == pytest.approx(2 * n * phi, abs=1e-9)

    u = qcore.encoding_unitary(1, 0.3)
    big = np.kron(u, np.eye(2))

    def overlap(x):
        v = x[:4] + 1j * x[4:]
        nrm = np.linalg.norm(v)
        if nrm < 1e-12:
            return 1.0
        v = v / nrm
        return abs(np.vdot(v, big @ v)) ** 2

    rng = np.random.default_rng(20240107)
    best = 1.0
    for _ in range(12):
        res = scipy.optimize.minimize(
            overlap, rng.normal(size=8), method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 4000})
        best = min(best, res.fun)
    assert metrics.acin_min_fidelity(u) == pytest.approx(best, abs=1e-6)
    report(7, f"delta arc exact at 6 grid points; min fidelity {best:.8f}")


def test_criterion_08_two_way_leak_demonstration():
    """The return-leg adversary estimates the phase; one-way denies her."""
    cfg = make_config(variant="mub", direction="two_way", T=20_000,
                      p_c=0.4, p_e=0.5, p_d=0.1, true_phi=0.3, seed=20240108)
    attack = adversary.TwoWaySwapLeakAttack()
    tr = protocol.run(cfg, attack)
    assert tr.N_e + tr.N_sifted_away >= 0  # transcript sanity
    encoded_rounds = int(np.sum(tr.action == 1))
    assert encoded_rounds >= 10_000 * 0.95
    estimate = attack.eve_estimate()
    assert abs(estimate.phi_hat_eve - 0.3) <= 3 * estimate.standard_error
    assert protocol.check_fidelity(tr).passed

    with pytest.raises(ValueError):
        protocol.run(make_config(variant="mub", direction="one_way"),
                     adversary.TwoWaySwapLeakAttack())
    report(8, f"eve phi_hat={estimate.phi_hat_eve:.4f} "
              f"(+-{estimate.standard_error:.4f}); one-way construction rejected")


def test_criterion_09_intercept_resend_detection():
    """Measure-resend noise hits its enumerated oracle and is rejected."""
    # brute-force oracle: enumerate the three bases and their projector
    # branches, average the three check correlators
    frame = qcore.LogicalFrame.standard(1)
    rho0 = qcore.resource_state(1).density().data
    oracle_total = 0.0
    for a_axis, b_axis in (("X", "Z"), ("Z", "X"), ("Y", "Y")):
        op = np.kron(qcore.pauli_matrix(a_axis), pole_pauli(frame, b_axis))
        for w_axis in ("X", "Y", "Z"):
            for _v, proj in spectrum(pole_pauli(frame, w_axis)):
                k = np.kron(np.eye(2), proj)
                oracle_total += np.trace(op @ k @ rho0 @ k.conj().T).real / 3.0
    oracle = (1 + oracle_total) / 4
    assert oracle == pytest.approx(0.5, abs=1e-12)

    cfg = make_config(T=30_000, seed=20240109)
    chk = protocol.check_fidelity(protocol.run(cfg, adversary.InterceptResendAttack("random")))
    assert abs(chk.fidelity_estimate - oracle) < 4 * fidelity_sigma(chk)

    # detection power: N_c ~ 500 kept check rounds per trial at T = 3000
    rejections = 0
    trials = 200
    for trial in range(trials):
        cfg = make_config(T=3000, seed=20240200 + trial)
        result = protocol.check_fidelity(
            protocol.run(cfg, adversary.InterceptResendAttack("random")))
        rejections += not result.passed
    assert rejections / trials >= 0.99
    report(9, f"oracle F=0.5 matched; rejection frequency {rejections}/{trials}")


def test_criterion_10_byte_identical_outputs(tmp_path):
    """Same scenario and seed produce byte-identical sweep output."""
    scenario = {
        "protocol": {"variant": "entanglement", "direction": "one_way", "n": 1,
                     "T": 5000, "p_c": 0.5, "p_e": 0.5, "p_d": 0.0,
                     "epsilon_threshold": 0.251, "true_phi": 0.3, "seed": 3111},
        "attack": {"name": "depolarizing", "params": {"p": 0.2}},
        "sweep": {"variable": "phi", "start": 0.2, "stop": 1.2, "steps": 5},
        "output": {"csv": str(tmp_path / "sweep.csv"),
                   "transcript": str(tmp_path / "tr.tsv"),
                   "summary": str(tmp_path / "summary.json")},
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    assert cli.main(["sweep", str(path)]) == cli.EXIT_OK
    first_csv = (tmp_path / "sweep.csv").read_bytes()
    assert cli.main(["sweep", str(path)]) == cli.EXIT_OK
    assert (tmp_path / "sweep.csv").read_bytes() == first_csv
    assert cli.main(["run", str(path)]) == cli.EXIT_OK
    first_tr = (tmp_path / "tr.tsv").read_bytes()
    first_sum = (tmp_path / "summary.json").read_bytes()
    assert cli.main(["run", str(path)]) == cli.EXIT_OK
    assert (tmp_path / "tr.tsv").read_bytes() == first_tr
    assert (tmp_path / "summary.json").read_bytes() == first_sum
    report(10, "sweep CSV, transcript and summary byte-identical across reruns")
