"""Tests for the eavesdropper strategies.

The intercept-resend and memory-attack expectations are checked against
brute-force oracles built from raw projector algebra in this file, not
against the attack implementations.
"""

import math

import numpy as np
import pytest
import scipy.stats

from dqsim import adversary, protocol, qcore

I2 = np.eye(2, dtype=complex)
FRAME1 = qcore.LogicalFrame.standard(1)
RESOURCE1 = qcore.resource_state(1).density().data


def make_config(**overrides):
    base = dict(variant="entanglement", direction="one_way", n=1, T=3000,
                p_c=0.5, p_e=0.5, p_d=0.0, epsilon_threshold=0.251,
                true_phi=0.3, seed=4321)
    base.update(overrides)
    return protocol.ProtocolConfig(**base)


def fidelity_sigma(check_result):
    """Binomial error bar on the entanglement-variant fidelity estimate."""
    var = sum((1 - c ** 2) / check_result.sample_counts[k]
              for k, c in check_result.correlator_means.items()) / 16
    return math.sqrt(var)


# ---------------------------------------------------------------- identity

def test_identity_attack_properties():
    att = adversary.identity_attack()
    assert att.block_length == 1
    assert not att.requires_two_way
    assert adversary.expected_check_fidelity(att, 1) == pytest.approx(1.0)
    rho = qcore.random_density_matrix(2, np.random.default_rng(0))
    (label, w, kraus), = att.forward_branches(1, FRAME1)
    assert w == 1.0
    assert np.allclose(kraus[0] @ rho.data @ kraus[0].conj().T, rho.data)


# ---------------------------------------------------------------- depolarizing

def test_depolarizing_limits():
    assert adversary.expected_check_fidelity(adversary.depolarizing_attack(0.0), 1) \
        == pytest.approx(1.0)
    assert adversary.expected_check_fidelity(adversary.depolarizing_attack(1.0), 1) \
        == pytest.approx(0.25)
    with pytest.raises(ValueError):
        adversary.depolarizing_attack(1.5)


@pytest.mark.parametrize("p", [0.084, 0.2, 0.5])
def test_depolarizing_monte_carlo_matches_werner_oracle(p):
    # analytic oracle: expected estimate 1 - 3p/4 (see qcore tests)
    cfg = make_config(T=20_000, seed=int(1000 * p))
    tr = protocol.run(cfg, adversary.depolarizing_attack(p))
    chk = protocol.check_fidelity(tr)
    assert abs(chk.fidelity_estimate - (1 - 3 * p / 4)) < 4 * fidelity_sigma(chk)


def test_depolarizing_calibration_recovers_operating_point():
    p_star = adversary.calibrate_depolarizing(0.937)
    assert p_star == pytest.approx(0.084, abs=1e-6)
    assert adversary.expected_check_fidelity(
        adversary.depolarizing_attack(p_star), 1) == pytest.approx(0.937, abs=1e-9)


# ---------------------------------------------------------------- unitary tamper

def test_tamper_zero_angle_is_identity():
    att = adversary.unitary_tamper("Y", 0.0)
    assert adversary.expected_check_fidelity(att, 1) == pytest.approx(1.0)


def test_tamper_y_shifts_phase_estimate():
    theta_e = 0.1
    cfg = make_config(T=40_000, true_phi=0.2, epsilon_threshold=0.5, seed=51)
    tr = protocol.run(cfg, adversary.unitary_tamper("Y", theta_e))
    est = protocol.estimate_phase(tr)
    assert abs(est.phi_hat - (0.2 + theta_e)) <= 3 * est.standard_error


def test_tamper_fidelity_matches_closed_form_and_monte_carlo():
    # closed form: a Y rotation by t leaves the YY correlator alone and
    # rotates the two equatorial ones to cos(2t): F = (1 + cos(2t)) / 2
    t = 0.25
    att = adversary.unitary_tamper("Y", t)
    expected = (1 + math.cos(2 * t)) / 2
    assert adversary.expected_check_fidelity(att, 1) == pytest.approx(expected, abs=1e-12)
    tr = protocol.run(make_config(T=20_000, seed=52), att.clone())
    chk = protocol.check_fidelity(tr)
    assert abs(chk.fidelity_estimate - expected) < 4 * fidelity_sigma(chk)


# ---------------------------------------------------------------- intercept-resend

def dephasing_oracle_entanglement_fidelity(axes):
    """Brute-force oracle: average the three check correlators over the
    measure-and-resend channels of the given axes, enumerating projectors."""
    total = 0.0
    for a_axis, b_axis in (("X", "Z"), ("Z", "X"), ("Y", "Y")):
        op = np.kron(qcore.pauli_matrix(a_axis),
                     qcore.bold_pauli(FRAME1, b_axis).matrix)
        acc = 0.0
        for w_axis in axes:
            obs = qcore.bold_pauli(FRAME1, w_axis)
            pushed = np.zeros((4, 4), dtype=complex)
            for proj in obs.eigenprojectors:
                k = np.kron(I2, proj)
                pushed += k @ RESOURCE1 @ k.conj().T
            acc += np.trace(op @ pushed).real / len(axes)
        total += acc
    return (1 + total) / 4


def test_intercept_resend_random_axis_oracle():
    oracle = dephasing_oracle_entanglement_fidelity(("X", "Y", "Z"))
    assert oracle == pytest.approx(0.5, abs=1e-12)
    att = adversary.intercept_resend("random")
    assert adversary.expected_check_fidelity(att, 1) == pytest.approx(oracle, abs=1e-12)
    tr = protocol.run(make_config(T=20_000, seed=61), att.clone())
    chk = protocol.check_fidelity(tr)
    assert abs(chk.fidelity_estimate - oracle) < 4 * fidelity_sigma(chk)


def test_intercept_resend_fixed_z_on_probes():
    att = adversary.intercept_resend("Z")
    fmap = adversary.expected_check_fidelity(att, 1, variant="mub")
    assert fmap["+Z"] == pytest.approx(1.0)
    assert fmap["-Z"] == pytest.approx(1.0)
    assert fmap["+X"] == pytest.approx(0.5)
    assert fmap["-X"] == pytest.approx(0.5)


def test_intercept_resend_records_outcomes():
    att = adversary.intercept_resend("random")
    protocol.run(make_config(T=500, seed=62), att)
    assert len(att.memory) == 500
    axes = {label.split(":")[0] for _idx, label in att.memory}
    assert axes == {"X", "Y", "Z"}


def test_intercept_resend_rejects_unknown_strategy():
    with pytest.raises(ValueError):
        adversary.intercept_resend("diagonal")


# ---------------------------------------------------------------- memoryless permutation invariance

def test_memoryless_outcome_distribution_permutation_invariant():
    # first-half and second-half kept-check products should be homogeneous
    cfg = make_config(T=40_000, seed=71)
    tr = protocol.run(cfg, adversary.depolarizing_attack(0.3))
    signs = np.array([qcore.parse_probe_label(lab)[1] for lab in qcore.SIGNED_LABELS])
    kept = (tr.status == 1) & (tr.bob_out != protocol._B_ABSENT)
    products = signs[tr.probe[kept]] * tr.bob_out[kept]
    half = products.size // 2
    table = np.array([
        [(products[:half] == 1).sum(), (products[:half] == -1).sum()],
        [(products[half:] == 1).sum(), (products[half:] == -1).sum()],
    ])
    _stat, pvalue, _dof, _exp = scipy.stats.chi2_contingency(table)
    assert pvalue > 2 * scipy.stats.norm.cdf(-4)


# ---------------------------------------------------------------- entangling memory

def coupling_unitary(theta):
    ry = math.cos(theta) * I2 - 1j * math.sin(theta) * qcore.pauli_matrix("Y")
    out = np.zeros((4, 4), dtype=complex)
    out[:2, :2] = I2
    out[2:, 2:] = ry
    return out


def two_round_joint_oracle(theta):
    """Exact joint distribution of the two outcomes in one block: a +X probe
    measured along the logical Y axis in both rounds.

    Those settings see the coupling's back-action maximally; the provider's
    randomized protocol visits them as (unsifted) check rounds.
    """
    probe = qcore.mub_probe(FRAME1, "+X").density().data
    obs = qcore.bold_pauli(FRAME1, "Y")
    cr = qcore.embed_operator(coupling_unitary(theta), [2, 2], [0, 1])
    projs = {int(round(v)): np.kron(p, I2)
             for v, p in zip(obs.eigenvalues, obs.eigenprojectors)}

    rho_e = np.array([[1, 0], [0, 0]], dtype=complex)
    joint = {}
    state1 = cr @ np.kron(probe, rho_e) @ cr.conj().T
    for b1, p1 in projs.items():
        post = p1 @ state1 @ p1
        prob1 = np.trace(post).real
        if prob1 < 1e-15:
            continue
        rho_e_cond = qcore.partial_trace(
            qcore.DensityMatrix(post / prob1), [2, 2], [1]).data
        state2 = cr @ np.kron(probe, rho_e_cond) @ cr.conj().T
        for b2, p2 in projs.items():
            prob2 = np.trace(p2 @ state2 @ p2).real
            joint[(b1, b2)] = joint.get((b1, b2), 0.0) + prob1 * prob2
    return joint


def test_memory_attack_zero_coupling_is_identity():
    cfg = make_config(T=3000, seed=81)
    tr = protocol.run(cfg, adversary.entangling_memory_attack(0.0, block_length=2))
    assert protocol.check_fidelity(tr).fidelity_estimate == 1.0


def test_memory_attack_block_correlations_match_oracle():
    theta = math.pi / 2
    joint = two_round_joint_oracle(theta)
    marg1 = {o: sum(p for (o1, _o2), p in joint.items() if o1 == o) for o in (1, -1)}
    marg2 = {o: sum(p for (_o1, o2), p in joint.items() if o2 == o) for o in (1, -1)}
    tv_gap = 0.5 * sum(abs(joint.get((o1, o2), 0.0) - marg1[o1] * marg2[o2])
                       for o1 in (1, -1) for o2 in (1, -1))
    assert tv_gap > 0.05

    # drive the attack's batched stateful hooks directly with pinned
    # settings: every block at once, one position inside the block at a time
    blocks = 20_000
    att = adversary.entangling_memory_attack(theta, block_length=2)
    att.on_run_start({"n": 1, "T": 2 * blocks}, FRAME1)
    rng = np.random.default_rng(82)
    probe = qcore.mub_probe(FRAME1, "+X")
    obs = qcore.bold_pauli(FRAME1, "Y")
    att.begin_block(blocks, rng)
    outs = []
    for _round in range(2):
        world = qcore.RegisterState.from_state(["B"], [2], probe, batch=blocks)
        att.forward_state(world, rng)
        outs.append(np.rint(world.measure(obs, "B", rng)).astype(int))
        att.end_round(world, rng)
    for (o1, o2), prob in joint.items():
        count = int(np.sum((outs[0] == o1) & (outs[1] == o2)))
        sigma = math.sqrt(blocks * prob * (1 - prob))
        assert abs(count - blocks * prob) < 4 * sigma + 1e-9


def exact_fidelity_oracle_over_block(theta, block_length=2):
    """Exact expected check fidelity averaged over block positions, using
    the unconditional ancilla trajectory."""
    cr = qcore.embed_operator(coupling_unitary(theta), [2, 2, 2], [1, 2])
    check_ops = [np.kron(np.kron(qcore.pauli_matrix(a), qcore.bold_pauli(FRAME1, b).matrix), I2)
                 for a, b in (("X", "Z"), ("Z", "X"), ("Y", "Y"))]
    rho_e = np.array([[1, 0], [0, 0]], dtype=complex)
    values = []
    for _pos in range(block_length):
        state = cr @ np.kron(RESOURCE1, rho_e) @ cr.conj().T
        total = sum(np.trace(op @ state).real for op in check_ops)
        values.append((1 + total) / 4)
        rho_e = qcore.partial_trace(qcore.DensityMatrix(state), [2, 2, 2], [2]).data
    return float(np.mean(values))


def test_memory_attack_fidelity_decreases_with_coupling():
    grid = np.linspace(0.0, math.pi / 2, 6)
    oracle = [exact_fidelity_oracle_over_block(t) for t in grid]
    assert oracle[0] == pytest.approx(1.0, abs=1e-12)
    assert all(oracle[i + 1] < oracle[i] + 1e-12 for i in range(len(oracle) - 1))

    tr = protocol.run(make_config(T=20_000, seed=83),
                      adversary.entangling_memory_attack(math.pi / 2, block_length=2))
    chk = protocol.check_fidelity(tr)
    assert abs(chk.fidelity_estimate - oracle[-1]) < 4 * fidelity_sigma(chk)


def test_memory_attack_limits():
    with pytest.raises(ValueError):
        adversary.entangling_memory_attack(0.3, block_length=4)
    att = adversary.entangling_memory_attack(0.3, block_length=2)
    with pytest.raises(ValueError):
        protocol.run(make_config(n=2, T=10), att)


def test_memory_attack_measured_ancilla_records():
    att = adversary.entangling_memory_attack(math.pi / 2, block_length=2,
                                             ancilla_mode="measure")
    protocol.run(make_config(T=400, seed=84), att)
    assert len(att.memory) >= 199
    assert set(att.memory) <= {1, -1}


# ---------------------------------------------------------------- two-way swap leak

def test_swap_leak_estimates_phase_and_passes_check():
    cfg = make_config(variant="mub", direction="two_way", T=20_000,
                      p_c=0.4, p_e=0.5, p_d=0.1, true_phi=0.3, seed=91)
    att = adversary.two_way_swap_leak()
    tr = protocol.run(cfg, att)
    estimate = att.eve_estimate()
    assert estimate.samples_used == cfg.T
    assert abs(estimate.phi_hat_eve - 0.3) <= 3 * estimate.standard_error
    chk = protocol.check_fidelity(tr)
    # check rounds are forwarded untouched: no degradation at all
    assert all(v == 1.0 for v in chk.fidelity_estimate.values())
    assert chk.passed


def test_swap_leak_entanglement_variant():
    # same construction with the provider's retained qubit in play: the
    # stored original stays entangled with it, so the check still sees a
    # perfect pair while the returned-substitute readout leaks the phase
    cfg = make_config(variant="entanglement", direction="two_way", T=12_000,
                      p_c=0.4, p_e=0.5, p_d=0.1, true_phi=0.3, seed=92)
    att = adversary.two_way_swap_leak()
    tr = protocol.run(cfg, att)
    chk = protocol.check_fidelity(tr)
    assert chk.fidelity_estimate == 1.0
    estimate = att.eve_estimate()
    assert abs(estimate.phi_hat_eve - 0.3) <= 3 * estimate.standard_error


def test_swap_leak_rejected_in_one_way_mode():
    with pytest.raises(ValueError):
        protocol.run(make_config(variant="mub", direction="one_way"),
                     adversary.two_way_swap_leak())


def test_swap_leak_needs_encoding_rounds():
    cfg = make_config(variant="mub", direction="two_way", p_c=1.0, p_e=0.0,
                      p_d=0.0, T=10)
    with pytest.raises(ValueError):
        protocol.run(cfg, adversary.two_way_swap_leak())


# ---------------------------------------------------------------- cloning

def test_attack_clone_is_independent():
    att = adversary.intercept_resend("random")
    clone = att.clone()
    protocol.run(make_config(T=100, seed=95), att)
    assert len(att.memory) == 100
    assert clone.memory == []


# ---------------------------------------------------------------- one-way isolation

class _SpyAttack(adversary.AttackModel):
    """Stateful no-op that records when its hooks fire and what it can see."""

    name = "spy"

    def __init__(self):
        self.forward_rounds = 0
        self.backward_rounds = 0
        self.world_was_unmeasured = True

    def forward_state(self, world, rng):
        self.forward_rounds += world.batch
        # a freshly prepared round is always a pure state; any prior
        # measurement or reconciliation would have broken purity
        purity = np.einsum("bij,bji->b", world.rho, world.rho).real
        if np.any(np.abs(purity - 1.0) > 1e-9):
            self.world_was_unmeasured = False

    def backward_state(self, world, rng):
        self.backward_rounds += world.batch


def test_one_way_attack_sees_only_preshared_states():
    # structural isolation: in one-way operation the attack acts once per
    # round, before any measurement outcome exists, and the return-leg hook
    # never fires
    att = _SpyAttack()
    protocol.run(make_config(T=300, seed=96), att)
    assert att.forward_rounds == 300
    assert att.backward_rounds == 0
    assert att.world_was_unmeasured
