"""Tests for round execution, sifting, reconciliation and estimation."""

import functools
import hashlib
import io
import itertools
import math
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dqsim import adversary, metrics, protocol, qcore
from test_qcore import pole_pauli, spectrum
from test_register_walk import StatefulAdapter, serialized


def make_config(**overrides):
    base = dict(variant="entanglement", direction="one_way", n=1, T=3000,
                p_c=0.5, p_e=0.5, p_d=0.0, epsilon_threshold=0.251,
                true_phi=0.3, seed=1234)
    base.update(overrides)
    return protocol.ProtocolConfig(**base)


def synthetic_transcript(pair_products, est_products=None, config=None):
    """Build an entanglement-variant transcript with prescribed products.

    ``pair_products`` maps check pairs like "XZ" to lists of +-1 products;
    the provider outcome is pinned to +1 (probe label "+" and the sensor's
    axis) so the sensor outcome carries the product.
    """
    est_products = est_products or {}
    settings = [(action, axis) for action, axis in protocol._SETTINGS]
    cells = []
    for action, products in ((0, pair_products), (1, est_products)):
        for key, vals in products.items():
            setting = settings.index((action, key[1]))
            probe = qcore.SIGNED_LABELS.index("+" + key[1])
            cells.extend(np.ravel_multi_index((setting, probe, v + 1), protocol._CELL_SHAPE)
                         for v in vals)
    T = len(cells)
    config = config or make_config(T=T)
    assert config.T == T
    return protocol.Transcript(config, np.array(cells, dtype=int))


# ---------------------------------------------------------------- config

def test_config_probability_sum_enforced():
    with pytest.raises(ValueError):
        make_config(p_c=0.5, p_e=0.5, p_d=0.5)


def test_config_literals_enforced():
    with pytest.raises(ValueError):
        make_config(variant="bell")
    with pytest.raises(ValueError):
        make_config(direction="three_way")
    with pytest.raises(ValueError):
        make_config(T=0)
    with pytest.raises(ValueError):
        make_config(seed=-1)


@pytest.mark.parametrize("field,value", [
    ("T", 100.0), ("n", 1.0), ("seed", 1.5), ("seed", "3"), ("n", True), ("seed", True),
    ("T", np.float64(100.0)), ("seed", None),
])
def test_config_rejects_non_integral_counts(field, value):
    # a float, a string or a bool is no count, though it may compare like one
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        make_config(**{field: value})


def test_config_takes_numpy_integer_counts():
    cfg = make_config(n=np.int64(2), T=np.int32(100), seed=np.uint64(2 ** 64 - 1))
    assert cfg.config_hash() == make_config(n=2, T=100, seed=2 ** 64 - 1).config_hash()
    with pytest.raises(ValueError, match="^seed must lie in"):
        make_config(seed=2 ** 64)


def test_config_hash_is_stable_and_sensitive():
    a, b = make_config(), make_config()
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != make_config(seed=999).config_hash()


# ---------------------------------------------------------------- run basics

@pytest.mark.parametrize("engine", ["fast", "stateful"])
@pytest.mark.parametrize("action", protocol.ACTIONS)
def test_every_round_takes_the_only_possible_action(action, engine):
    # an action of probability 1 is every round's, on the fast path and on
    # the memory engine; the analysis that needs the other actions' rounds
    # finds none
    p = {f"p_{a[0]}": float(a == action) for a in protocol.ACTIONS}
    cfg = make_config(T=200, **p)
    tr = protocol.run(cfg, adversary.IdentityAttack() if engine == "fast"
                      else adversary.EntanglingMemoryAttack(0.3, 3, "measure"))
    assert np.all(tr.action == protocol.ACTIONS.index(action))
    assert tr.N_d == (200 if action == "discard" else 0)
    for needs, analyse in (("check", protocol.check_fidelity),
                           ("encode", protocol.estimate_phase)):
        if needs != action:
            with pytest.raises(protocol.InsufficientRoundsError):
                analyse(tr)


@pytest.mark.parametrize("variant", ["entanglement", "mub"])
def test_sift_keep_rates_match_multinomial(variant):
    # keep probability is 1/3 in both round types for both variants
    # (3 matching pairs of 9 and 2 of 6; axis match 1/3 and 2 x 1/6),
    # so N_c, N_e ~ Binomial(T, 1/6)
    cfg = make_config(variant=variant, T=30_000, seed=77)
    tr = protocol.run(cfg, adversary.IdentityAttack())
    expect = 30_000 / 6
    sigma = math.sqrt(30_000 * (1 / 6) * (5 / 6))
    assert abs(tr.N_c - expect) < 4 * sigma
    assert abs(tr.N_e - expect) < 4 * sigma
    assert tr.N_c + tr.N_e + tr.N_d + tr.N_sifted_away == cfg.T


def test_identity_attack_check_outcomes_are_perfect():
    tr = protocol.run(make_config(T=4000), adversary.IdentityAttack())
    chk = protocol.check_fidelity(tr)
    assert chk.fidelity_estimate == 1.0
    assert chk.passed
    assert chk.epsilon_implied == 0.0


def test_identity_attack_mub_check_outcomes_are_plus_one():
    cfg = make_config(variant="mub", T=6000)
    tr = protocol.run(cfg, adversary.IdentityAttack())
    chk = protocol.check_fidelity(tr)
    assert set(chk.fidelity_estimate) == set(qcore.SIGNED_LABELS)
    assert all(v == 1.0 for v in chk.fidelity_estimate.values())


@pytest.mark.parametrize("variant", ["entanglement", "mub"])
def test_identity_attack_phase_estimate_consistent(variant):
    cfg = make_config(variant=variant, T=40_000, true_phi=0.4, seed=31)
    tr = protocol.run(cfg, adversary.IdentityAttack())
    est = protocol.estimate_phase(tr)
    assert abs(est.phi_hat - 0.4) <= 3 * est.standard_error
    assert 0.0 <= est.phi_hat <= math.pi / 2


@pytest.mark.parametrize("n,phi", [(2, 0.2), (3, 0.12), (4, 0.08)])
def test_identity_attack_phase_estimate_consistent_larger_registers(n, phi):
    cfg = make_config(n=n, T=40_000, true_phi=phi, seed=33 + n)
    tr = protocol.run(cfg, adversary.IdentityAttack())
    chk = protocol.check_fidelity(tr)
    assert chk.fidelity_estimate == 1.0
    assert tr.N_leak == 0  # the ideal probe never leaves the logical span
    est = protocol.estimate_phase(tr)
    assert abs(est.phi_hat - phi) <= 3 * est.standard_error
    assert est.phi_hat <= math.pi / (2 * n)


def test_run_is_deterministic_per_seed():
    cfg = make_config(T=2000, seed=555)
    t1 = protocol.run(cfg, adversary.IdentityAttack())
    t2 = protocol.run(cfg, adversary.IdentityAttack())
    assert serialized(t1) == serialized(t2)


def test_two_way_identity_reproduces_one_way():
    kw = dict(T=5000, p_c=0.4, p_e=0.4, p_d=0.2, seed=5)
    t1 = protocol.run(make_config(direction="one_way", **kw), adversary.IdentityAttack())
    t2 = protocol.run(make_config(direction="two_way", **kw), adversary.IdentityAttack())
    for column in ("action", "probe", "bob_axis", "bob_out", "status"):
        assert np.array_equal(getattr(t1, column), getattr(t2, column))
    assert t1.config.direction != t2.config.direction


def test_leak_outcomes_appear_for_n2_depolarizing():
    cfg = make_config(n=2, T=20_000, seed=9)
    tr = protocol.run(cfg, adversary.DepolarizingAttack(0.4))
    assert tr.N_leak > 0
    assert 0 < tr.leak_rate < 1
    chk = protocol.check_fidelity(tr)  # still computable after exclusion
    assert chk.fidelity_estimate < 1.0


def test_leak_rate_zero_for_n1():
    tr = protocol.run(make_config(T=3000), adversary.DepolarizingAttack(0.4))
    assert tr.N_leak == 0


# ---------------------------------------------------------------- check arithmetic

def test_check_fidelity_all_correlators_one():
    tr = synthetic_transcript({"XZ": [1] * 10, "ZX": [1] * 10, "YY": [1] * 10})
    assert protocol.check_fidelity(tr).fidelity_estimate == 1.0


def test_check_fidelity_all_correlators_zero():
    tr = synthetic_transcript({"XZ": [1, -1] * 5, "ZX": [1, -1] * 5, "YY": [1, -1] * 5})
    assert protocol.check_fidelity(tr).fidelity_estimate == 0.25


def test_check_fidelity_headline_operating_point():
    # per-pair mean 0.916 makes the estimate 0.937 and the implied
    # threshold sqrt(1 - 0.937) = 0.2510
    block = [1] * 958 + [-1] * 42
    tr = synthetic_transcript({"XZ": block, "ZX": block, "YY": block})
    chk = protocol.check_fidelity(tr)
    assert chk.fidelity_estimate == pytest.approx(0.937, abs=1e-12)
    assert chk.epsilon_implied == pytest.approx(0.25099800796022265, abs=5e-4)
    assert chk.passed  # threshold 0.251 -> 1 - eps^2 = 0.936999...


def test_check_fidelity_missing_correlator_raises():
    tr = synthetic_transcript({"XZ": [1] * 4, "ZX": [1] * 4})
    with pytest.raises(protocol.InsufficientRoundsError):
        protocol.check_fidelity(tr)


# ---------------------------------------------------------------- estimation arithmetic

def test_estimate_phase_mean_one_gives_zero():
    tr = synthetic_transcript(
        {"XZ": [1], "ZX": [1], "YY": [1]},
        {"XZ": [1] * 20, "ZX": [1] * 20})
    assert protocol.estimate_phase(tr).phi_hat == 0.0


def test_estimate_phase_mean_zero_gives_quarter_pi():
    tr = synthetic_transcript(
        {"XZ": [1], "ZX": [1], "YY": [1]},
        {"XZ": [1, -1] * 10, "ZX": [1, -1] * 10})
    assert protocol.estimate_phase(tr).phi_hat == pytest.approx(math.pi / 4)


def test_estimate_phase_missing_correlator_raises():
    tr = synthetic_transcript(
        {"XZ": [1], "ZX": [1], "YY": [1]},
        {"XZ": [1] * 5})
    with pytest.raises(protocol.InsufficientRoundsError):
        protocol.estimate_phase(tr)


def test_estimate_phase_pooling_weights_by_counts():
    tr = synthetic_transcript(
        {"XZ": [1], "ZX": [1], "YY": [1]},
        {"XZ": [1] * 30, "ZX": [1] * 5 + [-1] * 5})
    est = protocol.estimate_phase(tr)
    pooled = (30 + 0) / 40
    assert est.phi_hat == pytest.approx(math.acos(pooled) / 2)
    assert est.correlator_means["XZ"] == 1.0
    assert est.correlator_means["ZX"] == 0.0


# ---------------------------------------------------------------- analysis on cell counts

def reference_products(tr, status):
    """Per-label +-1 products (sensor outcome times the label's sign) of the
    kept rounds with this status, leak outcomes excluded: the analysis as
    it ran on the columns before it read cell counts."""
    kept = (tr.status == status) & (tr.bob_out != 0) & (tr.bob_out != protocol._B_ABSENT)
    return {label: (qcore.parse_probe_label(label)[1] * tr.bob_out[kept & (tr.probe == li)])
            .astype(float) for li, label in enumerate(qcore.SIGNED_LABELS)}


def pooled(products, axis):
    return np.concatenate([products["+" + axis], products["-" + axis]])


@pytest.mark.parametrize("variant", ["entanglement", "mub"])
def test_cell_counts_reproduce_round_counts_and_product_means(variant):
    # n = 2 under depolarizing noise, so that leak outcomes occur
    cfg = make_config(variant=variant, n=2, T=6000, p_c=0.4, p_e=0.4, p_d=0.2, seed=90)
    tr = protocol.run(cfg, adversary.DepolarizingAttack(0.3))
    assert tr.counts.sum() == cfg.T
    kept = tr.status > 0
    assert (tr.N_c, tr.N_e, tr.N_d, tr.N_sifted_away, tr.N_leak) == (
        np.sum(tr.status == 1), np.sum(tr.status == 2), np.sum(tr.action == 2),
        np.sum((tr.status == 0) & (tr.action != 2)), np.sum(kept & (tr.bob_out == 0)))
    assert tr.N_leak > 0

    check, estimation = reference_products(tr, 1), reference_products(tr, 2)
    if variant == "entanglement":
        check = {a + b: pooled(check, b) for a, b in protocol.CHECK_PAIRS}
        estimation = {a + b: pooled(estimation, b) for a, b in protocol.ESTIMATION_PAIRS}
    else:
        estimation = {axis: pooled(estimation, axis) for axis in protocol.ENCODE_AXES}
    chk = protocol.check_fidelity(tr)
    means = {k: float(v.mean()) for k, v in check.items()}
    assert chk.correlator_means == means
    assert chk.sample_counts == {k: v.size for k, v in check.items()}
    if variant == "entanglement":
        assert chk.fidelity_estimate == (1.0 + sum(means.values())) / 4.0
    else:
        assert chk.fidelity_estimate == {k: (m + 1.0) / 2.0 for k, m in means.items()}
    est = protocol.estimate_phase(tr)
    assert est.correlator_means == {k: float(v.mean()) for k, v in estimation.items()}
    assert est.sample_counts == {k: v.size for k, v in estimation.items()}
    mean = float(np.concatenate(list(estimation.values())).mean())
    assert est.phi_hat == math.acos(mean) / (2 * cfg.n)


def single_runs(field, shape):
    """A stacked result field's per-run values in C order, checking its nesting."""
    if not shape:
        return [field]
    assert isinstance(field, list) and len(field) == shape[0]
    return [value for row in field for value in single_runs(row, shape[1:])]


@pytest.mark.parametrize("variant", protocol.VARIANTS)
@pytest.mark.parametrize("shape", [(1,), (5, 2), (2, 3, 2)])
def test_stacked_analysis_is_the_per_run_analysis_bit_for_bit(variant, shape):
    # random counts with leading axes: every field, and every round count,
    # nests one value per run, and each value is the one-run call's, bit for bit
    rng = np.random.default_rng(len(shape) + 7)
    counts = rng.integers(1, 400, size=shape + protocol._CELL_SHAPE)
    cfg = make_config(variant=variant, n=2, epsilon_threshold=0.6)
    stacked = protocol.CellCounts(cfg, counts)
    singles = [protocol.CellCounts(cfg, c) for c in counts.reshape(-1, *protocol._CELL_SHAPE)]
    for analyse in (protocol.check_fidelity, protocol.estimate_phase):
        result = analyse(stacked)
        per_run = [analyse(one) for one in singles]
        for field in vars(result):
            values = single_runs(getattr(result, field), shape)
            assert [repr(v) for v in values] == [repr(getattr(r, field)) for r in per_run]
    for name in ("N_c", "N_e", "N_d", "N_sifted_away", "N_leak"):
        assert single_runs(getattr(stacked, name), shape) == [getattr(one, name) for one in singles]


@pytest.mark.parametrize("variant", protocol.VARIANTS)
def test_single_run_analysis_keeps_python_types(variant):
    # the summary JSON and the sweep's cell formatting read these types
    tr = protocol.run(make_config(variant=variant, n=2), adversary.DepolarizingAttack(0.2))
    chk, est = protocol.check_fidelity(tr), protocol.estimate_phase(tr)
    assert type(chk.passed) is bool
    for value in (chk.epsilon_implied, est.phi_hat, est.standard_error):
        assert type(value) is float
    estimates = chk.fidelity_estimate
    if variant == "entanglement":
        assert type(estimates) is float
    else:
        assert type(estimates) is dict and {type(f) for f in estimates.values()} == {float}
    for result in (chk, est):
        assert type(result.correlator_means) is dict and type(result.sample_counts) is dict
        assert {type(m) for m in result.correlator_means.values()} == {float}
        assert {type(c) for c in result.sample_counts.values()} == {int}
    assert {type(getattr(tr, name)) for name in ("N_c", "N_e", "N_d", "N_sifted_away",
                                                 "N_leak")} == {int}


@pytest.mark.parametrize("variant", protocol.VARIANTS)
@pytest.mark.parametrize("rounds", ["check", "estimation"])
def test_stack_with_one_run_lacking_a_correlator_raises(variant, rounds):
    counts = np.random.default_rng(3).integers(1, 50, size=(4, 2) + protocol._CELL_SHAPE)
    # run (2, 1) keeps no -X and +X rounds of its kind, so both variants lack
    # a correlator; the other runs analyse without error
    status = protocol._CELL_STATUS.reshape(protocol._CELL_SHAPE)
    x_labels = [qcore.SIGNED_LABELS.index(label) for label in ("+X", "-X")]
    lacking = np.zeros(protocol._CELL_SHAPE, dtype=bool)
    lacking[:, x_labels] = True
    counts[2, 1][lacking & (status == protocol.SIFT_STATUSES.index("kept_" + rounds))] = 0
    cfg = make_config(variant=variant)
    analyse = protocol.check_fidelity if rounds == "check" else protocol.estimate_phase
    with pytest.raises(protocol.InsufficientRoundsError, match=f"no kept {rounds} rounds"):
        analyse(protocol.CellCounts(cfg, counts))
    with pytest.raises(protocol.InsufficientRoundsError):
        analyse(protocol.CellCounts(cfg, counts[2, 1]))
    analyse(protocol.CellCounts(cfg, np.delete(counts, 2, axis=0)))


EXACT_ATTACKS = {
    "identity": adversary.IdentityAttack,
    "depolarizing": lambda: adversary.DepolarizingAttack(0.1),
    **{f"{axis}_tamper": functools.partial(adversary.UnitaryTamperAttack, axis, 0.2)
       for axis in protocol.AXES},
    "intercept_resend": adversary.InterceptResendAttack,
}


def moved_leaks(law):
    """The law with each cell's leak mass split evenly over its -1 and +1 slots:
    a leak counted as outcome 0, as ``adversary.expected_check_fidelity`` counts it."""
    moved = law.copy()
    moved[..., [0, 2]] += law[..., 1:2] / 2
    moved[..., 1] = 0.0
    return moved


def fidelity_gap(estimate, exact):
    if isinstance(exact, dict):
        return max(abs(estimate[k] - exact[k]) for k in exact)
    return abs(estimate - exact)


@pytest.mark.parametrize("variant", protocol.VARIANTS)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_exact_cells_give_the_exact_check_fidelity(variant, n):
    # each attack's exact one-round cell law, read through one stacked check:
    # without leak mass it gives the exact expected fidelity; with it (register
    # noise and X or Z tampers at n >= 2) the check leaves leaks out where the
    # exact value counts them as 0, and moving the leak mass onto -1 and +1
    # evenly reproduces it
    cfg = make_config(variant=variant, n=n, p_c=0.5, p_e=0.4, p_d=0.1, true_phi=0.3 / n)
    laws = np.stack([protocol.exact_cells(cfg, make()) for make in EXACT_ATTACKS.values()])
    assert laws.shape == (len(EXACT_ATTACKS), *protocol._CELL_SHAPE)
    np.testing.assert_allclose(laws.sum(axis=(1, 2, 3)), 1.0, rtol=0, atol=1e-12)
    assert laws.min() >= 0.0
    cells = protocol.CellCounts(cfg, laws)
    plain = protocol.check_fidelity(cells).fidelity_estimate
    moved = protocol.check_fidelity(protocol.CellCounts(cfg, moved_leaks(laws))).fidelity_estimate
    leaky = []
    for i, (name, make) in enumerate(EXACT_ATTACKS.items()):
        exact = adversary.expected_check_fidelity(make(), n, variant)
        assert fidelity_gap(moved[i], exact) <= 1e-12, name
        if cells.N_leak[i] <= 1e-12:
            assert fidelity_gap(plain[i], exact) <= 1e-12, name
        else:
            assert fidelity_gap(plain[i], exact) > 0.01, name
            leaky.append(name)
    assert leaky == ([] if n == 1 else ["depolarizing", "X_tamper", "Z_tamper"])


def test_exact_cells_refuse_a_memory_attack():
    with pytest.raises(protocol.UnsupportedAttackError, match="memory"):
        protocol.exact_cells(make_config(), adversary.EntanglingMemoryAttack(0.3))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_exact_y_tamper_bias_and_epsilon_in_closed_form(n):
    # the one-way Y tamper's exact law: the estimate is shifted by exactly theta
    # and the check's implied epsilon is sin(n theta) in both variants, while the
    # entanglement variant's epsilon0 is sqrt(2/3) of it, so its bias over
    # ``bias_bound`` is sqrt(3/2) times the direct-probe variant's
    for theta in (0.05, 0.2, 0.5):
        attack = adversary.UnitaryTamperAttack("Y", theta)
        # phases inside the estimator's range, n (phi + theta) < pi / 2
        for phi in np.array([0.25, 0.5, 0.75]) * (math.pi / (2 * n) - theta):
            ratios = {}
            for variant in protocol.VARIANTS:
                cfg = make_config(variant=variant, n=n, p_c=0.5, p_e=0.4, p_d=0.1,
                                  true_phi=float(phi))
                cells = protocol.CellCounts(cfg, protocol.exact_cells(cfg, attack))
                bias = protocol.estimate_phase(cells).phi_hat - phi
                eps = protocol.check_fidelity(cells).epsilon_implied
                assert bias == pytest.approx(theta, abs=1e-12, rel=0)
                assert eps == pytest.approx(math.sin(n * theta), abs=1e-12, rel=0)
                eps0 = metrics.epsilon0("one_way_individual", variant, eps)
                ratios[variant] = abs(bias) / metrics.bias_bound(eps0, n, phi)
            assert ratios["entanglement"] == pytest.approx(
                math.sqrt(1.5) * ratios["mub"], abs=1e-9, rel=0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_exact_check_infidelity_is_the_label_mean(n):
    # the entanglement check's infidelity, scaled by 2/3, is the mean of the
    # direct-probe check's six per-label infidelities on the same exact law,
    # with or without leak mass in it
    checks = {}
    for variant in protocol.VARIANTS:
        cfg = make_config(variant=variant, n=n, p_c=0.5, p_e=0.4, p_d=0.1, true_phi=0.3 / n)
        laws = np.stack([protocol.exact_cells(cfg, make()) for make in EXACT_ATTACKS.values()])
        checks[variant] = protocol.check_fidelity(protocol.CellCounts(cfg, laws))
    for name, f_ent, f_labels in zip(EXACT_ATTACKS, checks["entanglement"].fidelity_estimate,
                                     checks["mub"].fidelity_estimate):
        assert set(f_labels) == set(qcore.SIGNED_LABELS)
        label_mean = np.mean([1.0 - f for f in f_labels.values()])
        assert 2.0 / 3.0 * (1.0 - f_ent) == pytest.approx(label_mean, abs=1e-12, rel=0), name


# ---------------------------------------------------------------- correlator symmetries

_OPPOSITE_LABEL = np.array([qcore.SIGNED_LABELS.index({"+": "-", "-": "+"}[lab[0]] + lab[1:])
                            for lab in qcore.SIGNED_LABELS])


def remapped(tr, label_map, slot_map):
    """The transcript with every kept round's probe label and outcome slot
    moved through the two index maps; the other rounds stay as they are."""
    setting, label, slot = np.unravel_index(tr.cell, protocol._CELL_SHAPE)
    kept = tr.status > 0
    cell = np.ravel_multi_index((setting, np.where(kept, label_map[label], label),
                                 np.where(kept, slot_map[slot], slot)), protocol._CELL_SHAPE)
    return protocol.Transcript(tr.config, cell)


@pytest.mark.parametrize("variant", ["entanglement", "mub"])
@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(counts=arrays(np.int64, protocol._CELL_SHAPE, elements=st.integers(1, 4)))
def test_mirrored_outcomes_or_signs_negate_every_correlator(variant, counts):
    # every cell holds a round, so every correlator has rounds to read
    cell = np.repeat(np.arange(counts.size), counts.ravel())
    tr = protocol.Transcript(make_config(variant=variant, T=cell.size), cell)
    outcomes = remapped(tr, np.arange(6), np.array([2, 1, 0]))  # outcome +1 <-> -1
    signs = remapped(tr, _OPPOSITE_LABEL, np.arange(3))         # label +P <-> -P
    # a correlator of one signed label (the direct-probe check) trades
    # places with its opposite label's
    opposite = {lab: qcore.SIGNED_LABELS[i] for lab, i in zip(qcore.SIGNED_LABELS, _OPPOSITE_LABEL)}
    for analyse in (protocol.check_fidelity, protocol.estimate_phase):
        before = analyse(tr)
        means, counts = before.correlator_means, before.sample_counts
        after = analyse(outcomes)
        assert after.correlator_means == {k: -m for k, m in means.items()}
        assert after.sample_counts == counts
        after = analyse(signs)
        assert after.correlator_means == {k: -means[opposite.get(k, k)] for k in means}
        assert after.sample_counts == {k: counts[opposite.get(k, k)] for k in counts}


# ---------------------------------------------------------------- serialization

def parse_transcript(text):
    """A serialized transcript as (header dict, list of row dicts)."""
    header, rows, columns = {}, [], None
    for line in text.splitlines():
        if line.startswith("#"):
            key, *values = line[1:].split("\t")
            if key == "columns":
                columns = values
            elif len(values) == 1:
                header[key] = values[0]
        elif line:
            rows.append(dict(zip(columns, line.split("\t"))))
    return header, rows


def test_serialization_disclosure_order_and_roundtrip():
    cfg = make_config(T=2000, p_c=0.4, p_e=0.4, p_d=0.2, seed=21)
    tr = protocol.run(cfg, adversary.IdentityAttack())
    text = serialized(tr)
    header, rows = parse_transcript(text)
    assert header["config_hash"] == tr.config.config_hash()
    assert int(header["seed"]) == cfg.seed
    assert len(rows) == cfg.T
    statuses = [r["status"] for r in rows]
    first_est = statuses.index("kept_estimation")
    assert "kept_check" not in statuses[first_est:]
    # indices cover every round exactly once
    assert sorted(int(r["index"]) for r in rows) == list(range(cfg.T))


def test_serialized_counts_match_transcript():
    cfg = make_config(T=1500, seed=2)
    tr = protocol.run(cfg, adversary.IdentityAttack())
    _, rows = parse_transcript(serialized(tr))
    kept_check = sum(r["status"] == "kept_check" for r in rows)
    kept_est = sum(r["status"] == "kept_estimation" for r in rows)
    assert kept_check == tr.N_c
    assert kept_est == tr.N_e


@pytest.mark.parametrize("variant", ["entanglement", "mub"])
def test_serialization_field_level_roundtrip(variant):
    # every column survives the text format, including leak outcomes
    # (n = 2 under depolarizing noise) and unmeasured rounds; the
    # entanglement variant reports the provider's (axis, outcome) in place
    # of the probe label
    cfg = make_config(variant=variant, n=2, T=2000, p_c=0.4, p_e=0.4,
                      p_d=0.2, seed=47)
    tr = protocol.run(cfg, adversary.DepolarizingAttack(0.5))
    assert tr.N_leak > 0
    _, rows = parse_transcript(serialized(tr))
    partner = {"X": "Z", "Y": "Y", "Z": "X"}
    for row in rows:
        i = int(row["index"])
        label = qcore.SIGNED_LABELS[tr.probe[i]]
        assert row["action"] == protocol.ACTIONS[tr.action[i]]
        assert row["status"] == protocol.SIFT_STATUSES[tr.status[i]]
        if variant == "entanglement":
            assert (row["alice_obs"], row["alice_out"], row["probe"]) == (
                partner[label[1]], str(qcore.parse_probe_label(label)[1]), "NA")
        else:
            assert (row["alice_obs"], row["alice_out"], row["probe"]) == ("NA", "NA", label)
        b_axis, b_out = tr.bob_axis[i], tr.bob_out[i]
        assert row["bob_obs"] == ("NA" if b_axis < 0 else protocol.AXES[b_axis])
        assert row["bob_out"] == ("NA" if b_out == protocol._B_ABSENT else str(b_out))


def reference_header(tr):
    """The transcript's header lines, without line ends."""
    cfg = tr.config
    return ["#dqs-transcript v1", f"#config_hash\t{tr.config.config_hash()}", f"#seed\t{cfg.seed}",
            f"#variant\t{cfg.variant}", f"#direction\t{cfg.direction}", f"#n\t{cfg.n}",
            f"#T\t{cfg.T}",
            "#columns\tindex\taction\talice_obs\talice_out\tprobe\tbob_obs\tbob_out\tstatus"]


def reference_serialized(tr):
    """The transcript formatted one row at a time in Python: the reference
    the chunked writer of ``Transcript.serialize`` must match byte for byte."""
    cfg = tr.config
    partner = {"X": "Z", "Y": "Y", "Z": "X"}
    action, probe, bob_axis, bob_out, status = (
        getattr(tr, name).tolist() for name in ("action", "probe", "bob_axis", "bob_out", "status"))
    lines = reference_header(tr)
    # kept check rounds, then kept estimation rounds, then the rest; sorted() is stable
    disclosure = {"kept_check": 0, "kept_estimation": 1, "discarded": 2}
    for i in sorted(range(cfg.T), key=lambda i: disclosure[protocol.SIFT_STATUSES[status[i]]]):
        label = qcore.SIGNED_LABELS[probe[i]]
        axis, sign = qcore.parse_probe_label(label)
        provider = ([partner[axis], str(sign), "NA"] if cfg.variant == "entanglement"
                    else ["NA", "NA", label])
        lines.append("\t".join([
            str(i), protocol.ACTIONS[action[i]], *provider,
            "NA" if bob_axis[i] < 0 else protocol.AXES[bob_axis[i]],
            "NA" if bob_out[i] == -9 else str(bob_out[i]),
            protocol.SIFT_STATUSES[status[i]]]))
    return "\n".join(lines) + "\n"


BLOCK = protocol._CHUNK_ROWS


def assert_same_text(got, expected):
    """Assert two transcripts are equal, naming the first differing row:
    pytest's own diff of two megabyte strings runs for minutes."""
    if got != expected:
        rows = zip(got.split("\n"), expected.split("\n"))
        pytest.fail(f"first differing row: {next((r for r in rows if r[0] != r[1]), 'row count')}")


@pytest.mark.parametrize("T", [1, 9, 10, 11, 100, 101, 1000, 10 ** 4 + 1,
                               BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
@pytest.mark.parametrize("variant", ["entanglement", "mub"])
@pytest.mark.parametrize("attack", ["two_way_depolarizing", "intercept_resend"])
def test_serialize_matches_reference_writer(tmp_path, T, variant, attack):
    # index widths and chunk boundaries both vary over T; two-way
    # depolarizing noise at n = 2 gives leak outcomes
    if attack == "two_way_depolarizing":
        cfg = make_config(direction="two_way", n=2)
        attack_model = adversary.DepolarizingAttack(0.5)
    else:
        cfg, attack_model = make_config(n=2), adversary.InterceptResendAttack("random")
    cfg = replace(cfg, variant=variant, T=T, p_c=0.4, p_e=0.4, p_d=0.2, seed=T)
    tr = protocol.run(cfg, attack_model)
    expected = reference_serialized(tr)
    assert_same_text(serialized(tr), expected)
    # a str path and an os.PathLike path both get the same bytes
    tr.serialize(str(tmp_path / "str.tsv"))
    tr.serialize(tmp_path / "pathlike.tsv")
    for name in ("str.tsv", "pathlike.tsv"):
        assert_same_text((tmp_path / name).read_bytes().decode("ascii"), expected)
    if T > 2 * BLOCK:
        assert attack == "intercept_resend" or tr.N_leak > 0
        _, rows = parse_transcript(expected)
        assert sorted(int(r["index"]) for r in rows) == list(range(T))


def test_serialize_writes_seven_digit_indices():
    # T = 10^6 + 1 gives 7-digit indices, the width of every T up to
    # MAX_ROUNDS; with every round a kept check round the disclosure order is
    # the round order, so each row is its index and its cell's reference row
    kept = np.flatnonzero(protocol._CELL_STATUS == 1)
    small = protocol.Transcript(make_config(T=kept.size), kept)
    rows = reference_serialized(small).splitlines()[len(reference_header(small)):]
    suffixes = [row.split("\t", 1)[1] for row in rows]
    T = 10 ** 6 + 1
    tr = protocol.Transcript(make_config(T=T), np.resize(kept, T))
    expected = reference_header(tr) + [f"{i}\t{suffixes[i % kept.size]}" for i in range(T)]
    assert_same_text(serialized(tr), "\n".join(expected) + "\n")


@pytest.mark.parametrize("T", [1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
@pytest.mark.parametrize("variant", ["entanglement", "mub"])
def test_serialize_writes_one_chunk_at_a_time(T, variant):
    # one header write, then one write per chunk of rows, none longer than a
    # chunk of unpadded rows: no buffer holds more than one chunk
    cells = np.random.default_rng(T).integers(0, len(protocol._CELL_STATUS), T)
    tr = protocol.Transcript(make_config(T=T, variant=variant), cells)
    writes = []
    tr.serialize(SimpleNamespace(write=writes.append))  # a handle that keeps each write
    header, *chunks = writes
    assert header.decode("ascii") == "\n".join(reference_header(tr)) + "\n"
    assert len(chunks) == math.ceil(T / BLOCK)
    row_bytes = len(str(T - 1)) + protocol._ROW_SUFFIXES[variant].shape[1]
    assert all(len(chunk) <= BLOCK * row_bytes and chunk.endswith(b"\n") for chunk in chunks)
    assert [chunk.count(b"\n") for chunk in chunks] == [
        min(BLOCK, T - start) for start in range(0, T, BLOCK)]
    assert b"".join(writes).decode("ascii") == serialized(tr)


# each status's place in the disclosure order: kept check, kept estimation, the rest
DISCLOSURE_RANK = np.array([2, 0, 1])
# the cells a run gives: a discarded round lies in outcome slot +1
RUN_CELLS = np.flatnonzero((protocol._CELL_ACTION != 2) | (protocol._CELL_SLOT == 2))


@functools.lru_cache(maxsize=None)
def suffix_texts(variant):
    """Each cell's reference row after its index and tab, from the reference writer."""
    cells = np.arange(len(protocol._CELL_STATUS))
    tr = protocol.Transcript(make_config(variant=variant, T=cells.size), cells)
    rows = reference_serialized(tr).splitlines()[len(reference_header(tr)):]
    return dict((int(index), text) for index, text in (row.split("\t", 1) for row in rows))


def suffix_widths(variant):
    """Each cell's suffix length in bytes, its tab and line end included."""
    return np.count_nonzero(protocol._ROW_SUFFIXES[variant], axis=1)


def in_disclosure_order(variant, cells):
    """A transcript of ``cells`` that must already be in disclosure order, so
    that its rows come out in round order, and its reference text."""
    assert all(np.diff(DISCLOSURE_RANK[protocol._CELL_STATUS[cells]]) >= 0)
    tr = protocol.Transcript(make_config(variant=variant, T=len(cells)), cells)
    texts = suffix_texts(variant)
    rows = [f"{i}\t{texts[cell]}" for i, cell in enumerate(np.asarray(cells).tolist())]
    return tr, "\n".join(reference_header(tr) + rows) + "\n"


def width_runs(variant):
    """Per status in disclosure order, one run cell of each suffix width, in a
    sequence in which every ordered pair of those widths is adjacent."""
    widths = suffix_widths(variant)
    runs = []
    for status in np.argsort(DISCLOSURE_RANK):
        cell_of = {widths[c]: c for c in RUN_CELLS.tolist() if protocol._CELL_STATUS[c] == status}
        runs.append([cell_of[w] for pair in itertools.product(sorted(cell_of), repeat=2)
                     for w in pair])
    return runs


def index_width_cases(variant):
    """(d, first index, cells): rows whose indices all have d digits, d = 1 to
    7, to follow ``first`` rounds of kept-check filler; within each status every
    ordered pair of suffix widths is adjacent, and, for d <= 5, also every pair
    across two statuses."""
    check, estimation, rest = width_runs(variant)
    within = check + estimation + rest
    crossing = [[a, b] for before, after in ((check, estimation), (estimation, rest), (check, rest))
                for a, b in itertools.product(sorted(set(before)), sorted(set(after)))]
    for d in range(1, 8):
        first = 10 ** (d - 1) if d > 1 else 0
        room = 10 ** d - first
        # runs longer than the d-digit indices go in overlapping pieces
        pieces = [within[i:i + room] for i in range(0, len(within) - 1, room - 1)]
        for cells in pieces + (crossing if d <= 5 else []):
            yield d, first, cells


@pytest.mark.parametrize("variant", ["entanglement", "mub"])
def test_serialize_writes_every_index_width_after_every_suffix_width(variant):
    # each index's zero fill lands on the row before it, which its suffix then
    # writes over: every (suffix width before, index digits, suffix width)
    # within a status occurs, and across statuses for indices up to 5 digits
    widths = suffix_widths(variant)
    kept_check = RUN_CELLS[protocol._CELL_STATUS[RUN_CELLS] == 1]
    seen = set()
    for d, first, cells in index_width_cases(variant):
        filler = np.resize(kept_check, first)
        tr, expected = in_disclosure_order(variant, np.concatenate([filler, cells]).astype(int))
        assert len(str(first + len(cells) - 1)) == d
        if d <= 4:
            assert expected == reference_serialized(tr)
        assert_same_text(serialized(tr), expected)
        seen |= {(widths[tr.cell[i - 1]], d, widths[tr.cell[i]])
                 for i in range(max(first, 1), tr.config.T) if i % BLOCK}
    runs = [sorted(set(widths[run])) for run in width_runs(variant)]
    wanted = {(a, d, b) for d in range(1, 8) for run in runs for a in run for b in run}
    wanted |= {(a, d, b) for d in range(1, 6) for i, j in ((0, 1), (1, 2), (0, 2))
               for a in runs[i] for b in runs[j]}
    assert wanted <= seen


@pytest.mark.parametrize("d", range(1, 8))
@pytest.mark.parametrize("variant", ["entanglement", "mub"])
def test_serialize_starts_a_chunk_with_a_short_index(variant, d):
    # the first row of each chunk has no row before it: its index's zero fill
    # lands in the buffer's headroom.  The one kept check round, index
    # 10^(d-1), comes first; the discarded rounds follow in round order.
    first = 10 ** (d - 1) if d > 1 else 1
    kept_check = RUN_CELLS[protocol._CELL_STATUS[RUN_CELLS] == 1]
    discarded = RUN_CELLS[protocol._CELL_STATUS[RUN_CELLS] == 0]
    cells = np.append(np.resize(discarded, first), kept_check[d % kept_check.size]).tolist()
    tr = protocol.Transcript(make_config(variant=variant, T=first + 1), cells)
    texts = suffix_texts(variant)
    rows = [f"{i}\t{texts[cells[i]]}" for i in [first, *range(first)]]
    expected = "\n".join(reference_header(tr) + rows) + "\n"
    if d <= 4:
        assert expected == reference_serialized(tr)
    assert_same_text(serialized(tr), expected)


@pytest.mark.parametrize("variant", ["entanglement", "mub"])
def test_serialize_writes_one_round_of_each_cell(variant):
    for cell in range(len(protocol._CELL_STATUS)):
        tr = protocol.Transcript(make_config(variant=variant, T=1), [cell])
        assert serialized(tr) == reference_serialized(tr)


@pytest.mark.parametrize("T", [10 ** k + e for k in range(1, 6) for e in (-1, 1)])
@pytest.mark.parametrize("variant", ["entanglement", "mub"])
def test_serialize_changes_index_width_inside_a_chunk(variant, T):
    # rows in round order: indices 10^k - 1 and 10^k are neighbours in one
    # chunk, and T - 1 sets the widest index (10^6 + 1: the seven-digit test)
    cells = np.random.default_rng(T).choice(RUN_CELLS, T)
    cells = cells[np.argsort(DISCLOSURE_RANK[protocol._CELL_STATUS[cells]], kind="stable")]
    tr, expected = in_disclosure_order(variant, cells)
    if T < 10 ** 5:
        assert expected == reference_serialized(tr)
    assert_same_text(serialized(tr), expected)


def parse_rows(variant, data):
    """Each serialized row's (index, cell), in order, read back through the
    inverse of the suffix table: independent of the reference writer."""
    suffixes = protocol._ROW_SUFFIXES[variant]
    cell_of = {suffixes[c][suffixes[c] != 0].tobytes(): c for c in RUN_CELLS.tolist()}
    assert len(cell_of) == RUN_CELLS.size  # a run's cells have distinct rows
    lines = data.split(b"\n")[:-1]
    assert data.endswith(b"\n") and all(line.startswith(b"#") for line in lines[:8])
    rows = []
    for line in lines[8:]:
        index, text = line.split(b"\t", 1)
        assert index.isdigit() and (index == b"0" or not index.startswith(b"0"))
        rows.append((int(index), cell_of[b"\t" + text + b"\n"]))
    return rows


@pytest.mark.parametrize("T", [1, 9, 10, 10 ** 4 + 1, 3 * BLOCK + 5])
@pytest.mark.parametrize("variant", ["entanglement", "mub"])
def test_serialized_rows_parse_back_to_the_cells(variant, T):
    cells = np.random.default_rng(T).choice(RUN_CELLS, T)
    tr = protocol.Transcript(make_config(variant=variant, T=T), cells)
    buf = io.BytesIO()
    tr.serialize(buf)
    rows = parse_rows(variant, buf.getvalue())
    index = [i for i, _ in rows]
    assert [cell for _, cell in rows] == cells[index].tolist()
    assert sorted(index) == list(range(T))
    rank = [(DISCLOSURE_RANK[protocol._CELL_STATUS[cell]], i) for i, cell in rows]
    assert rank == sorted(rank)  # by status in disclosure order, then by index


@pytest.mark.parametrize("variant", ["entanglement", "mub"])
def test_serialize_holds_less_than_a_transcript(variant):
    # one T = 1e5 transcript is 3.56-3.71 MB: a writer that built it whole and
    # wrote it in slices would pass the chunk test but not this one
    tr = protocol.run(make_config(variant=variant, T=10 ** 5, p_c=0.4, p_e=0.4, p_d=0.2),
                      adversary.IdentityAttack())
    sink = SimpleNamespace(write=lambda chunk: None)
    tr.serialize(sink)
    tracemalloc.start()
    try:
        tr.serialize(sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 10 ** 6


def test_transcript_columns_are_read_only():
    tr = protocol.run(make_config(T=100), adversary.IdentityAttack())
    with pytest.raises(ValueError):
        tr.cell[0] = 2


@pytest.mark.parametrize("cell", [
    np.array([0, 108]), np.array([-1, 0]), np.array([0.0, 1.0]),
    np.array([True, False]), np.zeros((2, 1), dtype=int), np.array([0, 1, 2]),
], ids=["past_last_cell", "negative", "float", "bool", "two_dimensional", "count_not_T"])
def test_transcript_rejects_bad_cells(cell):
    # without the check, the cast to uint8 would wrap -1 to 255, a cell
    # past the last would index beyond the per-cell tables, and a header's
    # T would disagree with its rows
    with pytest.raises(ValueError):
        protocol.Transcript(make_config(T=2), cell)


def test_every_cell_sifts_by_the_paper_pair_lists():
    # each of the 108 cells once, in the entanglement view: a round is kept
    # exactly when its action matches and (partner of the label's axis, the
    # sensor's axis) is one of the action's pairs
    partner = {"X": "Z", "Y": "Y", "Z": "X"}
    n_cells = len(protocol._SETTINGS) * len(qcore.SIGNED_LABELS) * 3
    tr = protocol.Transcript(make_config(T=n_cells), np.arange(n_cells))
    kept_as = {"check": ("kept_check", protocol.CHECK_PAIRS),
               "encode": ("kept_estimation", protocol.ESTIMATION_PAIRS)}
    for action, label, axis, out, status in zip(
            tr.action, tr.probe, tr.bob_axis, tr.bob_out, tr.status):
        action = protocol.ACTIONS[action]
        status = protocol.SIFT_STATUSES[status]
        if action == "discard":
            assert (axis, out, status) == (-1, protocol._B_ABSENT, "discarded")
            continue
        assert out in (-1, 0, 1)
        pair = (partner[qcore.SIGNED_LABELS[label][1]], protocol.AXES[axis])
        kept, pairs = kept_as[action]
        assert status == (kept if pair in pairs else "discarded")
    assert tr.counts.shape == (len(protocol._SETTINGS), len(qcore.SIGNED_LABELS), 3)
    assert np.all(tr.counts == 1)
    # 3 check pairs and 2 estimation pairs, each with two signed labels and
    # three outcome slots; the discard setting's 18 cells
    assert (tr.N_c, tr.N_e, tr.N_d, tr.N_sifted_away) == (18, 12, 18, n_cells - 48)
    assert tr.N_leak == (18 + 12) // 3
    # kept estimation rounds' outcomes times their label's sign, leaks left out
    estimated = (tr.status == 2) & (tr.bob_out != 0)
    signs = np.array([qcore.parse_probe_label(lab)[1] for lab in qcore.SIGNED_LABELS])
    assert protocol.estimation_products(tr).tolist() == (
        signs[tr.probe[estimated]] * tr.bob_out[estimated]).tolist()
    assert protocol.estimation_products(tr).size == 8


# ---------------------------------------------------------------- rng stream

# Version of the map from seed to transcript.  Stream 6 draws each round's
# cell with one uniform through ``protocol._draw``, a categorical draw over
# a flat probability array that returns exactly the indices
# ``rng.choice(size, T, p=...)`` returns from the same uniforms (its guide
# table only skips the search; ``test_draw_matches_rng_choice``), so either
# draw gives the same stream: the memory engines draw (setting, probe label)
# from the prior ``protocol._prior``, and the fast path draws (setting,
# label, forward branch, backward branch, outcome) from the prior times the
# exact outcome tables.  Stream 5 drew the action, the label and the
# sensor pick from three rows of uniforms, and the fast path's table entry
# from a fourth, so every digest changed.  The memory engines draw their
# outcome and readout uniforms a batch of blocks at a time, so the batch
# size (``protocol._BATCH_BYTES``) is a stream constant: the digests move
# with it.  The block-memory engine draws in the order the block register
# walk drew (stream 6 was first pinned on that walk), and still gives its
# bytes (``test_register_walk``).  The intercept-resend digests pin the fast
# path's sampling of multi-branch tables.
RNG_STREAM = 6

STREAM_DIGESTS = {
    ("entanglement", "fast"):
        "166ea01843a626dcb640a8b7d3b8fa7469b18ecfea032f81e66fe096fbf3c1b0",
    ("entanglement", "stateful"):
        "a3f12c7a8f0e1f4f129ab2b0418b9256cbbe25ec1c6911e44d514749d1858182",
    ("entanglement", "swap_leak"):
        "e99cb5114f092e6668aedbebd1d57115edab75b1b416f903986099f328c406c1",
    ("mub", "fast"):
        "e33fa94b82baf191587c4c05a7658ad5b14aaae73b3df968f0f739cb0236d219",
    ("mub", "stateful"):
        "f4df6c94a2dbc31b740dc4286c68ef5d684ec219559d1067acf635ff35674bbe",
    ("mub", "swap_leak"):
        "187cdc8caf95b99071caf934c90b56cf4442babf5113450a44a1ae73e94468d6",
    # multi-branch fast path: intercept-resend's nine-branch instrument at n = 2
    ("entanglement", "intercept_resend"):
        "36baab3358b9cb6856a5d958dae280d0a32b9e4a9bf99879958f645708dc91ca",
    ("mub", "intercept_resend"):
        "b3c7361dde2f3de8a73cc880ffdf719747958d087197e099b2971bcb33248c91",
}


@pytest.mark.parametrize("variant,engine", sorted(STREAM_DIGESTS))
def test_rng_stream_digest(variant, engine):
    if engine == "fast":
        cfg, attack = make_config(n=2, T=2000), adversary.DepolarizingAttack(0.2)
    elif engine == "intercept_resend":
        cfg, attack = make_config(n=2, T=2000), adversary.InterceptResendAttack("random")
    elif engine == "stateful":
        cfg, attack = make_config(T=200), adversary.EntanglingMemoryAttack(0.3)
    else:
        cfg = make_config(n=2, T=300, direction="two_way")
        attack = adversary.TwoWaySwapLeakAttack()
    cfg = replace(cfg, variant=variant, p_c=0.4, p_e=0.4, p_d=0.2, seed=2024)
    digest = hashlib.sha256(serialized(protocol.run(cfg, attack)).encode()).hexdigest()
    assert digest == STREAM_DIGESTS[variant, engine], (
        f"the seed-to-transcript map changed: bump RNG_STREAM (now {RNG_STREAM}) "
        "and record the new digests")


# Swap-leak's register engine at the batch sizes around STREAM_DIGESTS' n = 2
# pin: one batch of 1000 rounds at n = 1 (just under the 1024-round batch),
# and batches of 64, 64, 64 and 8 rounds at n = 3.  Each case pins the
# transcript digest and the attack's estimate afterwards.
SWAP_LEAK_DIGESTS = {
    ("entanglement", 1, 1000): (
        "4be98190ac1edf2cbcab3ec0c7fb5d76bbf6d7ec58ec6c823726b690414ed0cb",
        adversary.EveEstimate(0.28211557986379104, 1000, 0.025622335276876126)),
    ("mub", 1, 1000): (
        "b44b5210dfc518a0b596386fbaaadf2ba50af45e3591ef5ee5fefe860edf361c",
        adversary.EveEstimate(0.28211557986379104, 1000, 0.025622335276876126)),
    ("entanglement", 3, 200): (
        "5eb8cebe33efd132d696fc1f3883c7a3632cd6c7f2880dc55627fa75e6f8e281",
        adversary.EveEstimate(0.24510481760555614, 200, 0.02275251123891092)),
    ("mub", 3, 200): (
        "93da4339081aa4c68883204d3a5725309e5ef604b35b18d14ca0bcf820d93c51",
        adversary.EveEstimate(0.24510481760555614, 200, 0.02275251123891092)),
}


@pytest.mark.parametrize("variant,n,T", sorted(SWAP_LEAK_DIGESTS))
def test_swap_leak_stream_digest(variant, n, T):
    cfg = make_config(variant=variant, direction="two_way", n=n, T=T,
                      p_c=0.4, p_e=0.4, p_d=0.2, seed=2024)
    attack = adversary.TwoWaySwapLeakAttack()
    digest = hashlib.sha256(serialized(protocol.run(cfg, attack)).encode()).hexdigest()
    assert (digest, attack.eve_estimate()) == SWAP_LEAK_DIGESTS[variant, n, T], (
        f"the seed-to-transcript map changed: bump RNG_STREAM (now {RNG_STREAM}) "
        "and record the new digests")


def fast_path_weights(variant, direction, n, attack):
    """The fast path's flat draw weights: the prior times the exact tables."""
    cfg = make_config(variant=variant, direction=direction, n=n)
    frame = qcore.LogicalFrame.standard(n)
    bwd = attack.backward_branches(n, frame) if direction == "two_way" else None
    pushed = protocol._push(n, attack.forward_branches(n, frame))
    tables = protocol._build_tables(n, [cfg.true_phi], pushed, bwd)[0]
    return protocol._prior(cfg)[..., None, None, None] * tables


DRAW_ATTACKS = {
    "identity": adversary.IdentityAttack,
    "depolarizing": lambda: adversary.DepolarizingAttack(0.2),
    "intercept_resend": lambda: adversary.InterceptResendAttack("random"),
    "unitary_tamper": lambda: adversary.UnitaryTamperAttack("Y", 0.3),
}
CHUNK = protocol._DRAW_CHUNK
# a bucket of the guide table crowded with 200 tiny entries: the rounds in
# it take the search
CROWDED = np.concatenate([[0.5], np.full(200, 1e-6), [0.5 - 2e-4]])
DRAW_CASES = {
    **{(f"fast/{variant}/{direction}/n{n}/{name}", 3000): (variant, direction, n, name)
       for variant in protocol.VARIANTS for direction in protocol.DIRECTIONS
       for n in (1, 2, 3, 4) for name in sorted(DRAW_ATTACKS)},
    ("stateful_prior", 3000): protocol._prior(make_config(p_c=0.3, p_e=0.5, p_d=0.2)),
    ("zeros", 3000): np.array([0.0, 0.3, 0.0, 0.0, 0.7, 0.0]),
    ("bucket_edges", 3000): np.array([0.25, 0.25, 0.5]),
    ("crowded_bucket", 200_000): CROWDED,
    ("more_entries_than_buckets", 3000): np.full(5000, 1 / 5000),
    ("single_entry", 3000): np.array([1.0]),
    **{(f"chunks/{T}", T): np.array([0.1, 0.2, 0.3, 0.4])
       for T in (1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK, 3 * CHUNK + 1)},
    # the guide table has the smallest power of two of buckets at or above T,
    # at most protocol._GUIDE_BUCKETS: each side of a power of two, and past the cap
    **{(f"buckets/{T}", T): protocol._prior(make_config(p_c=0.3, p_e=0.5, p_d=0.2))
       for T in (2, 3, 1023, 1024, 1025, protocol._GUIDE_BUCKETS + 1)},
}


@pytest.mark.parametrize("case,T", sorted(DRAW_CASES))
def test_draw_matches_rng_choice(case, T):
    weights = DRAW_CASES[case, T]
    if isinstance(weights, tuple):
        variant, direction, n, name = weights
        weights = fast_path_weights(variant, direction, n, DRAW_ATTACKS[name]())
    ours, numpys = np.random.default_rng([7, T]), np.random.default_rng([7, T])
    drawn = protocol._draw(weights, ours, T)
    assert drawn.dtype == np.min_scalar_type(weights.size)
    np.testing.assert_array_equal(drawn, numpys.choice(weights.size, T, p=weights.ravel()))
    np.testing.assert_array_equal(ours.random(3), numpys.random(3))


def test_draw_searches_the_crowded_bucket():
    # the crowded case's rounds in the bucket the tiny entries share are
    # drawn by the search, and some of them land on a tiny entry
    drawn = protocol._draw(CROWDED, np.random.default_rng([7, 200_000]), 200_000)
    assert np.any((drawn >= 1) & (drawn <= 200))


@pytest.mark.parametrize("weights", [
    [0.5, np.nan, 0.5], [0.5, np.inf], [1.2, -0.2], [0.5, 0.5 + 1e-7], [0.5, 0.5 - 1e-7], []])
def test_draw_rejects_what_rng_choice_rejects(weights):
    weights = np.array(weights, dtype=float)
    with pytest.raises(ValueError):
        np.random.default_rng(0).choice(max(weights.size, 1), 5, p=weights)
    with pytest.raises(ValueError):
        protocol._draw(weights, np.random.default_rng(0), 5)


def test_draw_accepts_a_total_within_numpy_tolerance():
    weights = np.array([0.5, 0.5 + 1e-9])
    ours, numpys = np.random.default_rng(3), np.random.default_rng(3)
    np.testing.assert_array_equal(protocol._draw(weights, ours, 100),
                                  numpys.choice(2, 100, p=weights))


PAIR_LAW_ATTACKS = {
    "depolarizing": lambda: adversary.DepolarizingAttack(0.05),
    "intercept_resend": lambda: adversary.InterceptResendAttack("random"),
    "y_tamper": lambda: adversary.UnitaryTamperAttack("Y", 0.2),
}


@pytest.mark.parametrize("name", sorted(PAIR_LAW_ATTACKS))
@pytest.mark.parametrize("n", [1, 4])
@pytest.mark.parametrize("direction", protocol.DIRECTIONS)
@pytest.mark.parametrize("variant", protocol.VARIANTS)
def test_pair_law_is_the_shared_uniform_coupling(variant, direction, n, name):
    # summed over either twin the pair law is the other's draw law, and every
    # interval wider than roundoff carries the entries both inverse CDFs
    # give at its midpoint; the narrower ones lie between CDF values that
    # differ by roundoff only
    weights = [fast_path_weights(variant, direction, n, attack())
               for attack in (PAIR_LAW_ATTACKS[name], adversary.IdentityAttack)]
    probs, entries = protocol._pair_law(*weights)
    cdfs = [protocol._cdf(w) for w in weights]
    edges = np.sort(np.concatenate([[0.0], *cdfs]))
    np.testing.assert_array_equal(probs, np.diff(edges))
    wide = probs > 1e-12
    middle = edges[:-1][wide] + probs[wide] / 2
    for w, cdf, entry in zip(weights, cdfs, entries):
        law = np.diff(cdf, prepend=0.0)
        np.testing.assert_allclose(np.bincount(entry, probs, w.size), law, rtol=0, atol=1e-15)
        np.testing.assert_array_equal(entry[wide], cdf.searchsorted(middle, side="right"))
    # and the two draws from one seed land on pairs the law carries
    drawn = [protocol._draw(w, np.random.default_rng([5, n]), 3000) for w in weights]
    carried = {(a, b) for a, b in entries.T}
    assert {(a, b) for a, b in zip(*drawn)} <= carried


def test_twin_counts_share_the_transcript_windows():
    # counts-first twins: T rounds each, their window classes in the windows
    # ``window_counts`` cuts a transcript into; the identity against itself
    # gives one count array twice; a memory attack gets its two runs' counts
    # and window classes
    cfg = make_config(n=2, T=1013, p_c=0.4, p_e=0.4, p_d=0.2)
    attack, identity = adversary.InterceptResendAttack("random"), adversary.IdentityAttack()
    counts, classes = protocol.twin_counts(cfg, attack, [cfg.true_phi])
    assert counts.shape == (1, 2, *protocol._CELL_SHAPE) and counts.dtype == np.int64
    assert classes.shape == (1, 2, 20, 3) and classes.dtype == np.int64
    windows = protocol.run(cfg, attack).window_counts()
    assert windows.shape == (20, *protocol._CELL_SHAPE)
    np.testing.assert_array_equal(counts[0].sum(axis=(1, 2, 3)), [cfg.T, cfg.T])
    for twin in classes[0]:
        np.testing.assert_array_equal(twin.sum(axis=1), windows.sum(axis=(1, 2, 3)))
    assert windows.sum() == cfg.T and {int(s) for s in windows.sum(axis=(1, 2, 3))} == {50, 51}
    np.testing.assert_array_equal(windows.sum(axis=0), protocol.run(cfg, attack).counts)
    for part in protocol.twin_counts(cfg, identity, [cfg.true_phi]):
        np.testing.assert_array_equal(part[0, 0], part[0, 1])
    cfg, memory = replace(cfg, n=1), adversary.EntanglingMemoryAttack(0.3, 3, "measure")
    runs = [protocol.run(cfg, a).window_counts() for a in (memory, identity)]
    counts, classes = protocol.twin_counts(cfg, memory, [cfg.true_phi])
    np.testing.assert_array_equal(counts[0], [w.sum(axis=0) for w in runs])
    np.testing.assert_array_equal(classes[0], protocol.product_classes(runs))


def test_product_classes_match_the_products():
    # each window's classes give the summed products and count of its rounds
    tr = protocol.run(make_config(n=2, T=997, p_c=0.4, p_e=0.4, p_d=0.2),
                      adversary.DepolarizingAttack(0.3))
    windows = protocol.VARIANCE_WINDOWS
    classes = protocol.product_classes(tr.window_counts())
    assert classes.shape == (windows, 3)
    window = np.arange(tr.config.T) * windows // tr.config.T
    products = protocol._CELL_PRODUCT[tr.cell]
    for w in range(windows):
        np.testing.assert_array_equal(classes[w], np.bincount(products[window == w] + 1,
                                                              minlength=3))
    assert classes[:, 2].sum() - classes[:, 0].sum() == protocol.estimation_products(tr).sum()


def test_sensor_model_is_shared_read_only_and_run_order_free():
    frame, kets, probes, sensor = protocol._sensor_model(2)
    assert protocol._sensor_model(2)[2] is probes
    # the densities are the kets' outer products, bit for bit
    for label, ket, rho in zip(qcore.SIGNED_LABELS, kets, probes):
        assert np.array_equal(ket, qcore.mub_probe(frame, label).amplitudes)
        assert np.array_equal(rho, qcore.mub_probe(frame, label).density().data)
    # X, Y, Z and the discarded round's trivial measurement, by outcome slot
    assert sensor.shape == (4, 3, 4, 4)
    for array in (kets, probes, sensor, frame.pole0.amplitudes):
        with pytest.raises(ValueError):
            array.flat[0] = 1
    cases = [(make_config(n=2, T=500, p_c=0.4, p_e=0.4, p_d=0.2),
              adversary.DepolarizingAttack(0.2)),
             (make_config(n=2, T=200, p_c=0.4, p_e=0.4, p_d=0.2, direction="two_way"),
              adversary.TwoWaySwapLeakAttack())]
    protocol._sensor_model.cache_clear()
    first = [serialized(protocol.run(cfg, attack)) for cfg, attack in cases]
    for n in (1, 3, 4):
        for cfg, attack in cases:
            protocol.run(replace(cfg, n=n), attack)
    assert [serialized(protocol.run(cfg, attack)) for cfg, attack in cases] == first


PUSH_ATTACKS = {
    "identity": adversary.IdentityAttack,
    **{f"depolarizing_{p}": functools.partial(adversary.DepolarizingAttack, p)
       for p in (0.0, 0.05, 1.0)},
    **{f"tamper_{axis}": functools.partial(adversary.UnitaryTamperAttack, axis, 0.3)
       for axis in "XYZ"},
    **{f"intercept_resend_{basis}": functools.partial(adversary.InterceptResendAttack, basis)
       for basis in ("random", "Z")},
}


@pytest.mark.parametrize("n", range(1, protocol.MAX_QUBITS + 1))
def test_ket_push_is_the_dense_push(n):
    # the forward push maps the six probe kets; each pushed density equals
    # the probe density pushed through every Kraus operator densely
    frame, _kets, probes, _sensor = protocol._sensor_model(n)
    for name, make in PUSH_ATTACKS.items():
        fwd = make().forward_branches(n, frame)
        pushed = protocol._push(n, fwd)
        dense = qcore.apply_instrument(probes, fwd)
        assert pushed.shape == dense.shape, name
        assert np.abs(pushed - dense).max() < 1e-13, name
        with pytest.raises(ValueError):
            pushed.flat[0] = 1
    for memory in (adversary.EntanglingMemoryAttack(0.3), adversary.TwoWaySwapLeakAttack()):
        assert protocol._push(n, memory.forward_branches(n, frame)) is None


# ---------------------------------------------------------------- equivalence

def test_equivalence_identity_attack():
    cfg = make_config(T=20_000, seed=6)
    rep = protocol.run_mub_equivalence(cfg, adversary.IdentityAttack())
    assert rep.entanglement_fidelity == 1.0
    assert all(v == 1.0 for v in rep.mub_fidelities.values())
    assert rep.combined_from_mub == 1.0
    assert rep.identity_holds
    assert rep.entanglement_passed and rep.mub_passed


def test_equivalence_depolarizing_within_monte_carlo_error():
    cfg = make_config(T=60_000, seed=8)
    rep = protocol.run_mub_equivalence(cfg, adversary.DepolarizingAttack(0.2))
    assert rep.identity_holds
    assert abs(rep.entanglement_fidelity - rep.combined_from_mub) <= 4 * rep.identity_sigma + 1e-12


def test_equivalence_simulates_once(monkeypatch):
    # both variants are analysed from one simulation
    variants = []
    original = protocol.run

    def counting_run(config, attack):
        variants.append(config.variant)
        return original(config, attack)

    monkeypatch.setattr(protocol, "run", counting_run)
    rep = protocol.run_mub_equivalence(make_config(T=3000), adversary.DepolarizingAttack(0.2))
    assert variants == ["entanglement"]
    assert rep.identity_holds


VARIANT_BLIND_CASES = {
    "depolarizing": (dict(n=2), lambda: adversary.DepolarizingAttack(0.3)),
    "intercept_resend": (dict(direction="two_way"),
                         lambda: adversary.InterceptResendAttack("random")),
    "memory": (dict(T=400), lambda: adversary.EntanglingMemoryAttack(0.3, 2, "measure")),
    "swap_leak": (dict(n=2, T=300, direction="two_way"), adversary.TwoWaySwapLeakAttack),
}


@pytest.mark.parametrize("case", sorted(VARIANT_BLIND_CASES))
def test_engines_give_both_variants_the_same_columns(case):
    # run_mub_equivalence analyses one run as both variants, which is exact
    # only while neither engine reads the variant
    overrides, make_attack = VARIANT_BLIND_CASES[case]
    cfg = make_config(p_c=0.4, p_e=0.4, p_d=0.2, seed=77, **overrides)
    attacks = [make_attack(), make_attack()]
    ent = protocol.run(replace(cfg, variant="entanglement"), attacks[0])
    mub = protocol.run(replace(cfg, variant="mub"), attacks[1])
    for column in ("action", "probe", "bob_axis", "bob_out", "status"):
        assert np.array_equal(getattr(ent, column), getattr(mub, column))
    np.testing.assert_array_equal(*(getattr(a, "memory", []) for a in attacks))
    assert attacks[0].eve_estimate() == attacks[1].eve_estimate()


# ---------------------------------------------------------------- attack gating

def test_two_way_attack_rejected_in_one_way_mode():
    with pytest.raises(ValueError):
        protocol.run(make_config(direction="one_way"), adversary.TwoWaySwapLeakAttack())


class _BackwardDepolarizing(adversary.AttackModel):
    """Return-leg-only noise, for exercising the backward instrument path."""

    name = "backward_depolarizing"

    def __init__(self, p):
        self.p = p

    def forward_branches(self, n, frame):
        return [(1.0, [np.eye(2 ** n, dtype=complex)])]

    def backward_branches(self, n, frame):
        return [(1.0, qcore.depolarizing_channel(self.p, n))]


class _BackwardTamper(adversary.AttackModel):
    """Return-leg-only coherent rotation, which unlike depolarizing noise
    does not commute with the phase encoding."""

    name = "backward_tamper"

    def forward_branches(self, n, frame):
        return [(1.0, [np.eye(2 ** n, dtype=complex)])]

    def backward_branches(self, n, frame):
        return adversary.UnitaryTamperAttack("X", 0.2).forward_branches(n, frame)


@pytest.mark.parametrize("variant", ["entanglement", "mub"])
def test_two_way_backward_channel_statistics(variant):
    # return-leg depolarizing damps every check correlator by (1 - p):
    # the estimate lands at 1 - 3p/4 (entanglement) or 1 - p/2 per label
    p = 0.3
    cfg = make_config(variant=variant, direction="two_way", T=30_000,
                      p_c=0.5, p_e=0.4, p_d=0.1, seed=41)
    tr = protocol.run(cfg, _BackwardDepolarizing(p))
    chk = protocol.check_fidelity(tr)
    if variant == "entanglement":
        sigma = math.sqrt(sum((1 - c ** 2) / chk.sample_counts[k]
                              for k, c in chk.correlator_means.items()) / 16)
        assert abs(chk.fidelity_estimate - (1 - 3 * p / 4)) < 4 * sigma
    else:
        for label, value in chk.fidelity_estimate.items():
            count = chk.sample_counts[label]
            mean = 1 - p
            sigma = math.sqrt((1 - mean ** 2) / count) / 2
            assert abs(value - (1 - p / 2)) < 4 * sigma + 1e-9


class _Counting(adversary.AttackModel):
    """A memoryless attack that counts the engine's calls into it."""

    def __init__(self, inner):
        self.inner = inner
        self.name = f"counting({inner.name})"
        self.calls = {"forward_branches": 0, "backward_branches": 0, "record_round": 0}
        self.recorded = []

    def forward_branches(self, n, frame):
        self.calls["forward_branches"] += 1
        return self.inner.forward_branches(n, frame)

    def backward_branches(self, n, frame):
        self.calls["backward_branches"] += 1
        return self.inner.backward_branches(n, frame)

    def record_round(self, forward_branch, backward_branch=None):
        self.calls["record_round"] += 1
        self.recorded.append((forward_branch, backward_branch))
        self.inner.record_round(forward_branch, backward_branch)


@pytest.mark.parametrize("make_inner", [lambda: adversary.DepolarizingAttack(0.3),
                                        lambda: adversary.InterceptResendAttack("random"),
                                        lambda: _BackwardTamper()],
                         ids=["depolarizing", "intercept_resend", "backward_tamper"])
def test_fast_path_consults_the_attack_once_per_run(make_inner):
    # one instrument fetch per leg and one batched record per run
    cfg = make_config(direction="two_way", T=2000, p_c=0.4, p_e=0.4, p_d=0.2)
    attack = _Counting(make_inner())
    protocol.run(cfg, attack)
    assert attack.calls == {"forward_branches": 1, "backward_branches": 1, "record_round": 1}
    [(forward, backward)] = attack.recorded
    frame = qcore.LogicalFrame.standard(cfg.n)
    for branch, legs in ((forward, attack.inner.forward_branches(cfg.n, frame)),
                         (backward, attack.inner.backward_branches(cfg.n, frame))):
        if legs is None:
            assert branch is None
        else:
            assert branch.shape == (cfg.T,)
            assert set(branch.tolist()) <= set(range(len(legs)))
    if isinstance(attack.inner, adversary.InterceptResendAttack):
        np.testing.assert_array_equal(attack.inner.memory, forward)


def test_attack_without_an_interface_is_rejected():
    # an attack that gives no instrument, coupling or register hooks cannot run
    with pytest.raises(NotImplementedError, match="no instrument"):
        protocol.run(make_config(T=10), adversary.AttackModel())


# ---------------------------------------------------------------- instrument checks

class _Instrument(adversary.AttackModel):
    """A memoryless attack with given forward branches, trace-preserving or not."""

    name = "instrument"

    def __init__(self, branches):
        self.branches = branches

    def forward_branches(self, n, frame):
        return self.branches(n)


NOT_TRACE_PRESERVING = {
    "half_weight": lambda n: [(0.5, [np.eye(2 ** n)])],
    # the depolarizing channel without its identity Kraus operator
    "incomplete_kraus": lambda n: [
        (1.0, qcore.depolarizing_channel(0.3, n)[1:])],
    "negative_weight": lambda n: [(2.0, [np.eye(2 ** n)]),
                                  (-1.0, [np.eye(2 ** n)])],
    "non_finite": lambda n: [(1.0, [np.full((2 ** n, 2 ** n), np.nan)])],
}


@pytest.mark.parametrize("name", sorted(NOT_TRACE_PRESERVING))
@pytest.mark.parametrize("variant", ["entanglement", "mub"])
def test_instrument_that_does_not_preserve_trace_is_rejected(variant, name):
    # the tables are checked, not renormalized: a half-weight instrument
    # used to pass the check with a plausible phase estimate
    cfg = make_config(variant=variant, T=2000)
    with pytest.raises(protocol.UnsupportedAttackError, match="does not preserve trace"):
        protocol.run(cfg, _Instrument(NOT_TRACE_PRESERVING[name]))


@pytest.mark.parametrize("weight", [1.0 - 1e-12, 1.0 + 1e-12])
def test_instrument_roundoff_within_tolerance_runs(weight):
    attack = _Instrument(lambda n: [(weight, [np.eye(2 ** n)])])
    tr = protocol.run(make_config(T=2000), attack)
    assert protocol.check_fidelity(tr).fidelity_estimate == 1.0


@pytest.mark.parametrize("name", sorted(NOT_TRACE_PRESERVING))
def test_multi_phase_twins_reject_an_instrument_that_does_not_preserve_trace(name):
    # the trace check covers every phase of a stacked table build
    cfg = make_config(n=2, T=500)
    with pytest.raises(protocol.UnsupportedAttackError, match="does not preserve trace"):
        protocol.twin_counts(cfg, _Instrument(NOT_TRACE_PRESERVING[name]),
                             np.linspace(0.1, 1.3, 5))


# ---------------------------------------------------------------- sweep twins

# every memoryless attack dqsim ships, and return-leg instruments for two-way runs
SHIPPED_MEMORYLESS = {
    "identity": adversary.IdentityAttack,
    "depolarizing": lambda: adversary.DepolarizingAttack(0.2),
    "unitary_tamper": lambda: adversary.UnitaryTamperAttack("Y", 0.3),
    "intercept_resend_random": lambda: adversary.InterceptResendAttack("random"),
    "intercept_resend_z": lambda: adversary.InterceptResendAttack("Z"),
    "backward_depolarizing": lambda: _BackwardDepolarizing(0.3),
    "backward_tamper": _BackwardTamper,
}
STACK_PHASES = np.linspace(-0.4, 2.9, 13)


@pytest.mark.parametrize("direction", protocol.DIRECTIONS)
@pytest.mark.parametrize("n,name", [
    (n, name) for n in range(1, 6) for name in sorted(SHIPPED_MEMORYLESS)
    # the dense return leg of 1025 Kraus operators takes seconds at n = 5
    if (n, name) != (5, "backward_depolarizing")])
def test_stacked_table_build_is_the_one_phase_build(n, name, direction):
    # one build over a stack of phases gives, bit for bit, each phase's own
    # build, on both variants (the build reads neither)
    for variant in protocol.VARIANTS:
        cfg = make_config(variant=variant, direction=direction, n=n)
        pushed, bwd = protocol._legs(cfg, SHIPPED_MEMORYLESS[name]())
        stacked = protocol._build_tables(n, STACK_PHASES, pushed, bwd)
        assert stacked.shape[:3] == (STACK_PHASES.size, *protocol._CELL_SHAPE[:2])
        for phi, tables in zip(STACK_PHASES, stacked):
            assert np.array_equal(tables, protocol._build_tables(n, [phi], pushed, bwd)[0])


@pytest.mark.parametrize("name", ["depolarizing", "intercept_resend_random", "backward_tamper"])
def test_twin_counts_across_slice_edges_are_the_one_phase_counts(monkeypatch, name):
    # slices of two phases: five phases cross two slice edges, and each phase's
    # counts and window classes are those of a call at that phase alone
    cfg = make_config(n=3, T=700, direction="two_way", p_c=0.4, p_e=0.4, p_d=0.2)
    legs = protocol._legs(cfg, SHIPPED_MEMORYLESS[name]())
    monkeypatch.setattr(protocol, "_SLICE_BYTES",
                        2 * 32 * legs[0].size * (len(legs[1]) if legs[1] else 1))
    phis = np.linspace(0.1, 1.3, 5)
    counts, classes = protocol.twin_counts(cfg, SHIPPED_MEMORYLESS[name](), phis)
    for i, phi in enumerate(phis):
        one = protocol.twin_counts(cfg, SHIPPED_MEMORYLESS[name](), [phi])
        np.testing.assert_array_equal(counts[i], one[0][0])
        np.testing.assert_array_equal(classes[i], one[1][0])


def test_twin_counts_memory_stays_bounded_over_many_phases():
    # 1000 phases at n = 5: their encoded probe states alone take 196 MB, and
    # the tables built in one slice peaked at 439 MiB; a slice at a time, the
    # traced peak was 16.7 MiB, nearly all of it the depolarizing channel's
    # 1025 Kraus operators (16.8 MB)
    cfg = make_config(n=5, T=1000, p_c=0.4, p_e=0.4, p_d=0.2)
    tracemalloc.start()
    try:
        counts, classes = protocol.twin_counts(cfg, adversary.DepolarizingAttack(0.1),
                                               np.linspace(0.0, 3.0, 1000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.shape[0] == classes.shape[0] == 1000
    assert peak < 32 * 2 ** 20


CLASS_DRAW_CASES = {
    "entanglement/one_way/n1/depolarizing": ("entanglement", "one_way", 1, 997, "depolarizing"),
    "mub/one_way/n2/intercept_resend": ("mub", "one_way", 2, 997, "intercept_resend_random"),
    "entanglement/two_way/n3/backward_tamper": ("entanglement", "two_way", 3, 503,
                                                "backward_tamper"),
    "mub/one_way/n4/unitary_tamper": ("mub", "one_way", 4, 2000, "unitary_tamper"),
    "fewer_rounds_than_windows": ("entanglement", "one_way", 2, 7, "depolarizing"),
    # every round in the one class (no product, no product): eight classes hold no pair
    "no_estimation_rounds": ("mub", "one_way", 2, 997, "depolarizing"),
}


@pytest.mark.parametrize("seed", [0, 1, 2, 2 ** 64 - 1])
@pytest.mark.parametrize("case", sorted(CLASS_DRAW_CASES))
def test_twin_class_draw_is_consistent(case, seed):
    # each window's classes sum to its size, each twin's counts to T, and a
    # twin's counts, mapped to product classes, are its window classes
    # summed over the windows
    variant, direction, n, T, name = CLASS_DRAW_CASES[case]
    p_e = 0.0 if case == "no_estimation_rounds" else 0.4
    cfg = make_config(variant=variant, direction=direction, n=n, T=T, p_c=0.8 - p_e, p_e=p_e,
                      p_d=0.2, seed=seed)
    phis = np.linspace(0.2, 1.1, 3)
    counts, classes = protocol.twin_counts(cfg, SHIPPED_MEMORYLESS[name](), phis)
    assert counts.shape == (3, 2, *protocol._CELL_SHAPE) and classes.shape == (3, 2, 20, 3)
    assert counts.min() >= 0 and classes.min() >= 0
    np.testing.assert_array_equal(classes.sum(axis=-1),
                                  np.broadcast_to(protocol._window_sizes(T, 20), (3, 2, 20)))
    np.testing.assert_array_equal(counts.sum(axis=(-3, -2, -1)), np.full((3, 2), T))
    np.testing.assert_array_equal(protocol.product_classes(counts), classes.sum(axis=2))
    if p_e == 0:
        np.testing.assert_array_equal(classes[..., 1].sum(axis=-1), np.full((3, 2), T))


# ---------------------------------------------------------------- outcome-table oracle

PARTNER = {"X": "Z", "Y": "Y", "Z": "X"}
# the sensor's axis for each (action, pick); None when discarded
SENSOR_AXES = {0: protocol.AXES, 1: protocol.ENCODE_AXES, 2: (None,)}


def literal_branches(rho, branches, provider_dim=2):
    """Each branch's weighted image of ``rho``, the Kraus operators lifted
    by a literal Kronecker product onto a provider register of
    ``provider_dim`` (1: the probe alone)."""
    out = []
    for weight, kraus in branches:
        lifted = [np.kron(np.eye(provider_dim), k) for k in kraus]
        out.append(weight * sum(k @ rho @ k.conj().T for k in lifted))
    return out


def reference_entanglement_tables(cfg, attack):
    """Literal (1+n)-qubit tables: the resource state evolves with the
    attack and the encoding on its probe factor, and each entry is the Born
    probability Tr[(P_a (x) P_b) M] of provider outcome a and sensor outcome
    b, listed as (probability, forward branch, backward branch, a, b); the
    outcomes and projectors are the eigh oracle's spectra, so a logical
    Pauli has no leak outcome b = 0 at n = 1."""
    n = cfg.n
    frame = qcore.LogicalFrame.standard(n)
    rho0 = qcore.resource_state(n).density().data
    fwd = attack.forward_branches(n, frame)
    bwd = attack.backward_branches(n, frame) if cfg.direction == "two_way" else None
    encoder = np.kron(np.eye(2), qcore.encoding_unitary(n, cfg.true_phi))

    def evolved(encoded):
        mats = literal_branches(rho0, fwd)
        if encoded:
            mats = [encoder @ m @ encoder.conj().T for m in mats]
        if bwd is None:
            return [[m] for m in mats]
        return [literal_branches(m, bwd) for m in mats]

    def spectral(matrix):
        return [(round(v), p) for v, p in spectrum(matrix)]

    unmeasured = [(protocol._B_ABSENT, np.eye(2 ** n))]
    tables = {}
    for action, b_axes in ((0, protocol.AXES), (1, protocol.ENCODE_AXES), (2, (None,))):
        grids = evolved(encoded=action == 1)
        for ai, a_axis in enumerate(protocol.AXES):
            for bi, b_axis in enumerate(b_axes):
                b_spec = (unmeasured if b_axis is None
                          else spectral(pole_pauli(frame, b_axis)))
                tables[action, ai, bi] = [
                    (np.trace(np.kron(pa, pb) @ m).real, i, j, a, b)
                    for i, row in enumerate(grids) for j, m in enumerate(row)
                    for a, pa in spectral(qcore.pauli_matrix(a_axis)) for b, pb in b_spec]
    return tables


def exact_tables(cfg, attack):
    """The fast path's exact outcome tables under this attack, one table
    per (action, probe label, sensor pick) with the outcome slots (-1, leak,
    +1) on the last axis.  A discarded round's mass lies on slot +1, its
    other slots and, at n = 1, every leak slot being exactly 0."""
    frame = qcore.LogicalFrame.standard(cfg.n)
    bwd = attack.backward_branches(cfg.n, frame) if cfg.direction == "two_way" else None
    pushed = protocol._push(cfg.n, attack.forward_branches(cfg.n, frame))
    stacked = protocol._build_tables(cfg.n, [cfg.true_phi], pushed, bwd)[0]
    if cfg.n == 1:
        assert np.all(stacked[..., 1] == 0.0)
    tables = {}
    for setting, (action, axis) in enumerate(protocol._SETTINGS):
        for label, table in enumerate(stacked[setting]):
            if axis is None:
                assert np.all(table[..., :-1] == 0.0)
            tables[action, label, SENSOR_AXES[action].index(axis)] = table
    return tables


ORACLE_ATTACKS = {
    "depolarizing": lambda: adversary.DepolarizingAttack(0.3),
    "intercept_resend": lambda: adversary.InterceptResendAttack("random"),
    "unitary_tamper": lambda: adversary.UnitaryTamperAttack("X", 0.2),
    "backward_depolarizing": lambda: _BackwardDepolarizing(0.3),
    "backward_tamper": _BackwardTamper,
}


@pytest.mark.parametrize("attack_name", sorted(ORACLE_ATTACKS))
@pytest.mark.parametrize("direction", ["one_way", "two_way"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_entanglement_tables_match_joint_born_probabilities(n, direction, attack_name):
    # the label-keyed tables equal the literal provider-plus-probe
    # simulation entry by entry: the provider's outcome s on axis a, which
    # has probability 1/2, leaves the probe in label s.partner(a), and the
    # sensor's outcome b lands in slot b + 1 (slot +1 when unmeasured);
    # a slot the oracle has no outcome for, the leak slot at n = 1 among
    # them, holds exactly 0
    cfg = make_config(n=n, direction=direction, true_phi=0.37 / n)
    attack = ORACLE_ATTACKS[attack_name]()
    tables = exact_tables(cfg, attack)
    reference = reference_entanglement_tables(cfg, attack)
    assert set(tables) == {(action, label, bi) for action, _ai, bi in reference
                           for label in range(len(qcore.SIGNED_LABELS))}
    for (action, ai, bi), entries in reference.items():
        probs = np.array([e[0] for e in entries])
        assert abs(probs.sum() - 1.0) < 1e-12
        axis = SENSOR_AXES[action][bi]
        for a in (-1, 1):
            label = ("+" if a > 0 else "-") + PARTNER[protocol.AXES[ai]]
            table = tables[action, qcore.SIGNED_LABELS.index(label), bi]
            mine = [e for e in entries if e[3] == a]
            expected, seen = np.zeros_like(table), np.zeros(table.shape, dtype=bool)
            for p, f, w, _a, b in mine:
                slot = 2 if axis is None else b + 1
                expected[f, w, slot], seen[f, w, slot] = p, True
            assert seen.sum() == len(mine)
            assert np.max(np.abs(expected - 0.5 * table)) < 1e-12
            assert np.all(table[~seen] == 0.0)
    if n == 1:
        # nor can a block-memory round land in a leak cell
        coupling = adversary.EntanglingMemoryAttack(0.7).block_coupling(1)
        assert np.all(protocol._memory_maps(cfg, coupling)[:, :, 1] == 0.0)


@pytest.mark.parametrize("attack_name", sorted(ORACLE_ATTACKS))
@pytest.mark.parametrize("n", [1, 2, 3])
def test_fidelity_oracle_matches_literal_push(n, attack_name):
    # expected_check_fidelity under the forward instrument against literal
    # Kraus pushes: the entanglement value from the one-way Born tables of
    # the (1+n)-qubit resource state, the MUB map from each probe pushed
    # alone; a leak outcome (b = 0) adds nothing to a correlator
    cfg = make_config(n=n)
    attack = ORACLE_ATTACKS[attack_name]()
    tables = reference_entanglement_tables(cfg, attack)
    total = sum(p * a * b for a_axis, b_axis in protocol.CHECK_PAIRS
                for p, _i, _j, a, b in tables[0, protocol.AXES.index(a_axis),
                                              protocol.AXES.index(b_axis)])
    fidelity = adversary.expected_check_fidelity(attack, n, "entanglement")
    assert abs(fidelity - (1.0 + total) / 4.0) < 1e-12

    frame = qcore.LogicalFrame.standard(n)
    fwd = attack.forward_branches(n, frame)
    per_label = adversary.expected_check_fidelity(attack, n, "mub")
    assert list(per_label) == list(qcore.SIGNED_LABELS)
    for label, value in per_label.items():
        axis, sign = qcore.parse_probe_label(label)
        probe = qcore.mub_probe(frame, label).density().data
        rho = sum(literal_branches(probe, fwd, provider_dim=1))
        mean = sign * sum(round(v) * np.trace(proj @ rho).real
                          for v, proj in spectrum(pole_pauli(frame, axis)))
        assert abs(value - (1.0 + mean) / 2.0) < 1e-12


# ---------------------------------------------------------------- engine differential

def exact_cell_probabilities(cfg, attack):
    """P(action, probe label, sensor axis, sensor outcome) of one round,
    from the fast path's exact outcome tables."""
    tables = exact_tables(cfg, attack)
    p_action = (cfg.p_c, cfg.p_e, cfg.p_d)
    cells = {}
    for (action, label, pick), table in tables.items():
        axis = SENSOR_AXES[action][pick]
        weight = p_action[action] / len(qcore.SIGNED_LABELS) / len(SENSOR_AXES[action])
        for slot, p in enumerate(table.sum(axis=(0, 1))):
            cell = (action, label, -1 if axis is None else protocol.AXES.index(axis),
                    protocol._B_ABSENT if axis is None else slot - 1)
            cells[cell] = cells.get(cell, 0.0) + weight * p
    return cells


# The register engine runs memoryless instruments too, wrapped as register
# attacks (``test_register_walk.StatefulAdapter``) that follow one pure
# trajectory of each leg's Kraus set per round, so its cases check the ket
# engine, trajectories included, against the exact tables.  Each case passes when its chi-square p-value
# exceeds ALPHA; for a correct engine a case fails with probability ALPHA,
# so the 80 cases below (40 per engine) fail together at most
# 80 * ALPHA = 0.8 % of seeds.
DIFFERENTIAL_ALPHA = 1e-4
DIFFERENTIAL_CASES = pytest.mark.parametrize("n,variant,direction,attack_name", [
    (n, variant, direction, attack_name) for n in (1, 2)
    for variant in ("entanglement", "mub") for direction in ("one_way", "two_way")
    for attack_name in sorted(ORACLE_ATTACKS)])


def assert_engine_matches_exact_tables(n, variant, direction, attack_name, engine):
    """The engine (``protocol.run`` under the attack, or under the attack
    wrapped for the register engine) samples every (action, label, sensor axis, outcome)
    cell as often as the exact outcome tables say."""
    cfg = make_config(variant=variant, direction=direction, n=n, T=20_000,
                      p_c=0.4, p_e=0.4, p_d=0.2, true_phi=0.37 / n, seed=700 + n)
    attack = ORACLE_ATTACKS[attack_name]()
    cells = exact_cell_probabilities(cfg, attack)
    assert abs(sum(cells.values()) - 1.0) < 1e-9
    tr = engine(cfg, attack)
    keys, counts = np.unique(np.stack([tr.action, tr.probe, tr.bob_axis, tr.bob_out]),
                             axis=1, return_counts=True)
    observed = {tuple(k): c for k, c in zip(keys.T.tolist(), counts.tolist())}
    possible = {cell: p for cell, p in cells.items() if p > 1e-12}
    assert set(observed) <= set(possible)
    expected = np.array([cfg.T * p for p in possible.values()])
    obs = np.array([observed.get(cell, 0) for cell in possible])
    _stat, pvalue = scipy.stats.chisquare(*pool_small_cells(obs, expected))
    assert pvalue > DIFFERENTIAL_ALPHA


@DIFFERENTIAL_CASES
def test_stateful_engine_matches_exact_tables(n, variant, direction, attack_name):
    assert_engine_matches_exact_tables(n, variant, direction, attack_name,
                                       lambda cfg, a: protocol.run(cfg, StatefulAdapter(a)))


@DIFFERENTIAL_CASES
def test_fast_engine_matches_exact_tables(n, variant, direction, attack_name):
    assert_engine_matches_exact_tables(n, variant, direction, attack_name, protocol.run)


def pool_small_cells(observed, expected, floor=5.0):
    """Merge the cells of smallest expectation into one until every cell
    expects at least ``floor`` counts, as the chi-square approximation needs."""
    order = np.argsort(expected)
    observed, expected = observed[order], expected[order]
    k = max(int(np.sum(expected < floor)), int(np.searchsorted(np.cumsum(expected), floor)) + 1)
    if expected[0] >= floor:
        return observed, expected
    return (np.concatenate([[observed[:k].sum()], observed[k:]]),
            np.concatenate([[expected[:k].sum()], expected[k:]]))
