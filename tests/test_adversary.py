"""Tests for the eavesdropper strategies.

The intercept-resend and memory-attack expectations are checked against
brute-force oracles built from raw projector algebra in this file, not
against the attack implementations.
"""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats

from dqsim import adversary, cli, protocol, qcore
from test_qcore import pole_pauli, spectrum
from test_register_walk import serialized

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
    att = adversary.IdentityAttack()
    assert att.block_length == 1
    assert adversary.expected_check_fidelity(att, 1) == pytest.approx(1.0)
    rho = qcore.random_density_matrix(2, np.random.default_rng(0))
    (w, kraus), = att.forward_branches(1, FRAME1)
    assert w == 1.0
    assert np.allclose(kraus[0] @ rho.data @ kraus[0].conj().T, rho.data)


# ---------------------------------------------------------------- depolarizing

def test_depolarizing_limits():
    assert adversary.expected_check_fidelity(adversary.DepolarizingAttack(0.0), 1) \
        == pytest.approx(1.0)
    assert adversary.expected_check_fidelity(adversary.DepolarizingAttack(1.0), 1) \
        == pytest.approx(0.25)
    with pytest.raises(ValueError):
        adversary.DepolarizingAttack(1.5)


@pytest.mark.parametrize("p", [0.084, 0.2, 0.5])
def test_depolarizing_monte_carlo_matches_werner_oracle(p):
    # analytic oracle: expected estimate 1 - 3p/4 (see qcore tests)
    cfg = make_config(T=20_000, seed=int(1000 * p))
    tr = protocol.run(cfg, adversary.DepolarizingAttack(p))
    chk = protocol.check_fidelity(tr)
    assert abs(chk.fidelity_estimate - (1 - 3 * p / 4)) < 4 * fidelity_sigma(chk)


def test_depolarizing_calibration_recovers_operating_point():
    p_star = adversary.calibrate_depolarizing(0.937)
    assert p_star == pytest.approx(0.084, abs=1e-6)
    assert adversary.expected_check_fidelity(
        adversary.DepolarizingAttack(p_star), 1) == pytest.approx(0.937, abs=1e-9)


@pytest.mark.parametrize("variant", ["entanglment", "MUB", ""])
def test_expected_fidelity_rejects_unknown_variant(variant):
    with pytest.raises(ValueError, match="unknown variant"):
        adversary.expected_check_fidelity(adversary.IdentityAttack(), 1, variant)


# ---------------------------------------------------------------- unitary tamper

def test_tamper_zero_angle_is_identity():
    att = adversary.UnitaryTamperAttack("Y", 0.0)
    assert adversary.expected_check_fidelity(att, 1) == pytest.approx(1.0)


def test_tamper_y_shifts_phase_estimate():
    theta_e = 0.1
    cfg = make_config(T=40_000, true_phi=0.2, epsilon_threshold=0.5, seed=51)
    tr = protocol.run(cfg, adversary.UnitaryTamperAttack("Y", theta_e))
    est = protocol.estimate_phase(tr)
    assert abs(est.phi_hat - (0.2 + theta_e)) <= 3 * est.standard_error


def test_tamper_fidelity_matches_closed_form_and_monte_carlo():
    # closed form: a Y rotation by t leaves the YY correlator alone and
    # rotates the two equatorial ones to cos(2t): F = (1 + cos(2t)) / 2
    t = 0.25
    att = adversary.UnitaryTamperAttack("Y", t)
    expected = (1 + math.cos(2 * t)) / 2
    assert adversary.expected_check_fidelity(att, 1) == pytest.approx(expected, abs=1e-12)
    tr = protocol.run(make_config(T=20_000, seed=52), att)
    chk = protocol.check_fidelity(tr)
    assert abs(chk.fidelity_estimate - expected) < 4 * fidelity_sigma(chk)


# ---------------------------------------------------------------- intercept-resend

def dephasing_oracle_entanglement_fidelity(axes):
    """Brute-force oracle: average the three check correlators over the
    measure-and-resend channels of the given axes, enumerating projectors."""
    total = 0.0
    for a_axis, b_axis in (("X", "Z"), ("Z", "X"), ("Y", "Y")):
        op = np.kron(qcore.pauli_matrix(a_axis), pole_pauli(FRAME1, b_axis))
        acc = 0.0
        for w_axis in axes:
            pushed = np.zeros((4, 4), dtype=complex)
            for _v, proj in spectrum(pole_pauli(FRAME1, w_axis)):
                k = np.kron(I2, proj)
                pushed += k @ RESOURCE1 @ k.conj().T
            acc += np.trace(op @ pushed).real / len(axes)
        total += acc
    return (1 + total) / 4


def test_intercept_resend_random_axis_oracle():
    oracle = dephasing_oracle_entanglement_fidelity(("X", "Y", "Z"))
    assert oracle == pytest.approx(0.5, abs=1e-12)
    att = adversary.InterceptResendAttack("random")
    assert adversary.expected_check_fidelity(att, 1) == pytest.approx(oracle, abs=1e-12)
    tr = protocol.run(make_config(T=20_000, seed=61), att)
    chk = protocol.check_fidelity(tr)
    assert abs(chk.fidelity_estimate - oracle) < 4 * fidelity_sigma(chk)


def test_intercept_resend_fixed_z_on_probes():
    att = adversary.InterceptResendAttack("Z")
    fmap = adversary.expected_check_fidelity(att, 1, variant="mub")
    assert fmap["+Z"] == pytest.approx(1.0)
    assert fmap["-Z"] == pytest.approx(1.0)
    assert fmap["+X"] == pytest.approx(0.5)
    assert fmap["-X"] == pytest.approx(0.5)


def test_intercept_resend_records_outcomes():
    att = adversary.InterceptResendAttack("random")
    protocol.run(make_config(T=500, seed=62), att)
    assert len(att.memory) == 500
    axes = {att.labels[branch].split(":")[0] for branch in att.memory}
    assert axes == {"X", "Y", "Z"}


def test_intercept_resend_rejects_unknown_strategy():
    with pytest.raises(ValueError):
        adversary.InterceptResendAttack("diagonal")


# ---------------------------------------------------------------- memoryless permutation invariance

def test_memoryless_outcome_distribution_permutation_invariant():
    # first-half and second-half kept-check products should be homogeneous
    cfg = make_config(T=40_000, seed=71)
    tr = protocol.run(cfg, adversary.DepolarizingAttack(0.3))
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
    cr = qcore.embed_operator(coupling_unitary(theta), [2, 2], [0, 1])
    projs = {round(v): np.kron(p, I2) for v, p in spectrum(pole_pauli(FRAME1, "Y"))}

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
    tr = protocol.run(cfg, adversary.EntanglingMemoryAttack(0.0, block_length=2))
    assert protocol.check_fidelity(tr).fidelity_estimate == 1.0


def test_memory_attack_block_correlations_match_oracle():
    theta = math.pi / 2
    joint = two_round_joint_oracle(theta)
    marg1 = {o: sum(p for (o1, _o2), p in joint.items() if o1 == o) for o in (1, -1)}
    marg2 = {o: sum(p for (_o1, o2), p in joint.items() if o2 == o) for o in (1, -1)}
    tv_gap = 0.5 * sum(abs(joint.get((o1, o2), 0.0) - marg1[o1] * marg2[o2])
                       for o1 in (1, -1) for o2 in (1, -1))
    assert tv_gap > 0.05

    # the memory engine's cell maps with pinned settings (a check round on
    # the Y axis, probe +X) give the joint law of a block's two outcomes,
    # outcome o in slot o + 1 (the leak slot's law is 0 at n = 1)
    coupling = adversary.EntanglingMemoryAttack(theta).block_coupling(1)
    maps = protocol._memory_maps(make_config(T=2), coupling)
    setting = [axis for _action, axis in protocol._SETTINGS].index("Y")
    label = qcore.SIGNED_LABELS.index("+X")
    start = np.array([1, 0, 0, 0], dtype=complex)  # the ancilla's |0><0|, flattened
    for o1 in (-1, 0, 1):
        for o2 in (-1, 0, 1):
            after = maps[setting, label, o2 + 1] @ maps[setting, label, o1 + 1] @ start
            assert abs(after[0] + after[3] - joint.get((o1, o2), 0.0)) < 1e-12


def exact_fidelity_oracle_over_block(theta, block_length=2):
    """Exact expected check fidelity averaged over block positions, using
    the unconditional ancilla trajectory."""
    cr = qcore.embed_operator(coupling_unitary(theta), [2, 2, 2], [1, 2])
    check_ops = [np.kron(np.kron(qcore.pauli_matrix(a), pole_pauli(FRAME1, b)), I2)
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
                      adversary.EntanglingMemoryAttack(math.pi / 2, block_length=2))
    chk = protocol.check_fidelity(tr)
    assert abs(chk.fidelity_estimate - oracle[-1]) < 4 * fidelity_sigma(chk)


def test_memory_attack_limits():
    with pytest.raises(ValueError):
        adversary.EntanglingMemoryAttack(0.3, block_length=4)
    # attack.<param> sweeps pass whole numbers as floats
    assert adversary.EntanglingMemoryAttack(0.3, block_length=2.0).block_length == 2
    att = adversary.EntanglingMemoryAttack(0.3, block_length=2)
    with pytest.raises(ValueError):
        protocol.run(make_config(n=2, T=10), att)


def test_memory_attack_measured_ancilla_records():
    att = adversary.EntanglingMemoryAttack(math.pi / 2, block_length=2,
                                             ancilla_mode="measure")
    protocol.run(make_config(T=400, seed=84), att)
    assert len(att.memory) >= 199
    assert set(att.memory) <= {1, -1}
    # one integer column, not a per-readout list
    assert isinstance(att.memory, np.ndarray) and att.memory.dtype == np.intp


# ---------------------------------------------------------------- two-way swap leak

def test_swap_leak_estimates_phase_and_passes_check():
    cfg = make_config(variant="mub", direction="two_way", T=20_000,
                      p_c=0.4, p_e=0.5, p_d=0.1, true_phi=0.3, seed=91)
    att = adversary.TwoWaySwapLeakAttack()
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
    att = adversary.TwoWaySwapLeakAttack()
    tr = protocol.run(cfg, att)
    chk = protocol.check_fidelity(tr)
    assert chk.fidelity_estimate == 1.0
    estimate = att.eve_estimate()
    assert abs(estimate.phi_hat_eve - 0.3) <= 3 * estimate.standard_error


@pytest.mark.parametrize("n", [4, protocol.MAX_QUBITS])
def test_swap_leak_at_the_largest_probes(n):
    # the attack keeps the stored original itself while the substitute
    # travels, so the register holds one 2^n-dimensional probe at a time
    # and the largest probes run in well under a second
    cfg = make_config(direction="two_way", n=n, T=400, p_c=0.4, p_e=0.5, p_d=0.1, seed=93)
    att = adversary.TwoWaySwapLeakAttack()
    chk = protocol.check_fidelity(protocol.run(cfg, att))
    assert chk.passed
    assert chk.fidelity_estimate == 1.0
    estimate = att.eve_estimate()
    assert estimate.phi_hat_eve is not None
    assert estimate.samples_used == cfg.T


def test_swap_leak_rejected_in_one_way_mode():
    with pytest.raises(protocol.UnsupportedAttackError, match="needs two-way operation"):
        protocol.run(make_config(variant="mub", direction="one_way"),
                     adversary.TwoWaySwapLeakAttack())


def test_swap_leak_needs_encoding_rounds():
    cfg = make_config(variant="mub", direction="two_way", p_c=1.0, p_e=0.0,
                      p_d=0.0, T=10)
    with pytest.raises(ValueError):
        protocol.run(cfg, adversary.TwoWaySwapLeakAttack())


# ---------------------------------------------------------------- one run's state

REUSED_ATTACKS = {
    "identity": adversary.IdentityAttack,
    "depolarizing": lambda: adversary.DepolarizingAttack(0.2),
    "unitary_tamper": lambda: adversary.UnitaryTamperAttack("Y", 0.3),
    "intercept_resend_random": lambda: adversary.InterceptResendAttack("random"),
    "intercept_resend_z": lambda: adversary.InterceptResendAttack("Z"),
    "entangling_memory_trace": lambda: adversary.EntanglingMemoryAttack(0.4, 3),
    "entangling_memory_measure": lambda: adversary.EntanglingMemoryAttack(0.4, 2, "measure"),
    "two_way_swap_leak": adversary.TwoWaySwapLeakAttack,
}


def test_reused_attacks_cover_every_shipped_attack():
    assert {type(make()) for make in REUSED_ATTACKS.values()} == set(cli.ATTACKS.values())


@pytest.mark.parametrize("name", sorted(REUSED_ATTACKS))
def test_reused_attack_gives_the_same_run(name):
    # an attack holds one run's state: a second run of one object on one
    # configuration is the first, byte for byte, and leaves the attack as a
    # fresh object's run leaves it
    cfg = make_config(direction="two_way", T=600, p_c=0.4, p_e=0.4, p_d=0.2, seed=95)
    reused, fresh = REUSED_ATTACKS[name](), REUSED_ATTACKS[name]()
    first = serialized(protocol.run(cfg, reused))
    assert serialized(protocol.run(cfg, reused)) == first
    assert serialized(protocol.run(cfg, fresh)) == first
    assert reused.eve_estimate() == fresh.eve_estimate()
    if hasattr(fresh, "memory"):
        assert reused.memory.dtype == fresh.memory.dtype
        np.testing.assert_array_equal(reused.memory, fresh.memory)


def test_intercept_resend_retains_one_byte_per_round():
    # the records are the last run's branches in the draw's uint8, a copy
    # that keeps no (3, T) draw of the engine alive
    attack, cfg = adversary.InterceptResendAttack("random"), make_config(T=10 ** 6, seed=98)
    protocol.run(make_config(T=100), attack)  # builds the cached sensor model
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        protocol.run(cfg, attack)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert attack.memory.dtype == np.uint8 and attack.memory.shape == (cfg.T,)
    assert retained <= cfg.T + 2 ** 14


# ---------------------------------------------------------------- one-way isolation

class _SpyAttack(adversary.EntanglingMemoryAttack):
    """Block-memory attack that records every call the engine makes into it."""

    def __init__(self, *args):
        super().__init__(*args)
        self.calls = []
        for name in ("on_run_start", "forward_branches", "backward_branches", "record_round",
                     "block_coupling", "record_readouts", "forward_state", "backward_state"):
            setattr(self, name, self._spy(name, getattr(self, name)))

    def _spy(self, name, method):
        def spy(*args):
            self.calls.append(name)
            return method(*args)
        return spy


def test_one_way_attack_sees_only_preshared_states():
    # structural isolation: in one-way operation a memory attack gives its
    # coupling once, before any round is drawn, never sees a state or an
    # outcome of the sensor, and nothing of the return leg is asked for; in
    # measure mode only its own ancilla readouts come back, after the batch
    for mode, back in (("trace", []), ("measure", ["record_readouts"])):
        att = _SpyAttack(0.4, 2, mode)
        protocol.run(make_config(T=300, seed=96), att)
        assert att.calls == ["on_run_start", "forward_branches", "block_coupling", *back]


class _RegisterSpy(adversary.AttackModel):
    """Register attack that counts its hook calls and checks what it sees."""

    name = "register_spy"

    def __init__(self):
        self.forward_rounds = 0
        self.backward_rounds = 0
        self.world_was_unmeasured = True

    def forward_state(self, world, rng):
        self.forward_rounds += world.batch
        # a freshly prepared round holds one of the six probe kets as
        # prepared; any prior measurement or encoding would have moved it
        kets = protocol._sensor_model(1)[1]
        if not (world.psi[:, None, :] == kets).all(axis=2).any(axis=1).all():
            self.world_was_unmeasured = False

    def backward_state(self, world, rng):
        self.backward_rounds += world.batch


def test_one_way_register_attack_acts_once_on_prepared_probes():
    # in one-way operation the register engine calls the forward hook once
    # per round, before any measurement outcome exists, and never the
    # return-leg hook
    att = _RegisterSpy()
    protocol.run(make_config(T=300, seed=96), att)
    assert att.forward_rounds == 300
    assert att.backward_rounds == 0
    assert att.world_was_unmeasured
