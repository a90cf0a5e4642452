"""Tests for round execution, sifting, reconciliation and estimation."""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.stats

from dqsim import adversary, protocol, qcore


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
    rows = []
    for status, products in ((1, pair_products), (2, est_products)):
        for key, vals in products.items():
            probe = qcore.SIGNED_LABELS.index("+" + key[1])
            b_idx = protocol.AXES.index(key[1])
            rows.extend((status - 1, probe, b_idx, v, status) for v in vals)
    T = len(rows)
    config = config or make_config(T=T)
    assert config.T == T
    return protocol.Transcript(config, *np.array(rows, dtype=np.int8).T)


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


def test_config_hash_is_stable_and_sensitive():
    a, b = make_config(), make_config()
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != make_config(seed=999).config_hash()


# ---------------------------------------------------------------- run basics

def test_all_rounds_discarded_when_pd_one():
    cfg = make_config(p_c=0.0, p_e=0.0, p_d=1.0, T=200)
    tr = protocol.run(cfg, adversary.identity_attack())
    assert tr.N_c == 0 and tr.N_e == 0 and tr.N_d == 200
    with pytest.raises(protocol.InsufficientRoundsError):
        protocol.check_fidelity(tr)
    with pytest.raises(protocol.InsufficientRoundsError):
        protocol.estimate_phase(tr)


@pytest.mark.parametrize("variant", ["entanglement", "mub"])
def test_sift_keep_rates_match_multinomial(variant):
    # keep probability is 1/3 in both round types for both variants
    # (3 matching pairs of 9 and 2 of 6; axis match 1/3 and 2 x 1/6),
    # so N_c, N_e ~ Binomial(T, 1/6)
    cfg = make_config(variant=variant, T=30_000, seed=77)
    tr = protocol.run(cfg, adversary.identity_attack())
    expect = 30_000 / 6
    sigma = math.sqrt(30_000 * (1 / 6) * (5 / 6))
    assert abs(tr.N_c - expect) < 4 * sigma
    assert abs(tr.N_e - expect) < 4 * sigma
    assert tr.N_c + tr.N_e + tr.N_d + tr.N_sifted_away == cfg.T


def test_identity_attack_check_outcomes_are_perfect():
    tr = protocol.run(make_config(T=4000), adversary.identity_attack())
    chk = protocol.check_fidelity(tr)
    assert chk.fidelity_estimate == 1.0
    assert chk.passed
    assert chk.epsilon_implied == 0.0


def test_identity_attack_mub_check_outcomes_are_plus_one():
    cfg = make_config(variant="mub", T=6000)
    tr = protocol.run(cfg, adversary.identity_attack())
    chk = protocol.check_fidelity(tr)
    assert set(chk.fidelity_estimate) == set(qcore.SIGNED_LABELS)
    assert all(v == 1.0 for v in chk.fidelity_estimate.values())


@pytest.mark.parametrize("variant", ["entanglement", "mub"])
def test_identity_attack_phase_estimate_consistent(variant):
    cfg = make_config(variant=variant, T=40_000, true_phi=0.4, seed=31)
    tr = protocol.run(cfg, adversary.identity_attack())
    est = protocol.estimate_phase(tr)
    assert abs(est.phi_hat - 0.4) <= 3 * est.standard_error
    assert 0.0 <= est.phi_hat <= math.pi / 2


@pytest.mark.parametrize("n,phi", [(2, 0.2), (3, 0.12), (4, 0.08)])
def test_identity_attack_phase_estimate_consistent_larger_registers(n, phi):
    cfg = make_config(n=n, T=40_000, true_phi=phi, seed=33 + n)
    tr = protocol.run(cfg, adversary.identity_attack())
    chk = protocol.check_fidelity(tr)
    assert chk.fidelity_estimate == 1.0
    assert tr.N_leak == 0  # the ideal probe never leaves the logical span
    est = protocol.estimate_phase(tr)
    assert abs(est.phi_hat - phi) <= 3 * est.standard_error
    assert est.phi_hat <= math.pi / (2 * n)


def test_run_is_deterministic_per_seed():
    cfg = make_config(T=2000, seed=555)
    t1 = protocol.run(cfg, adversary.identity_attack())
    t2 = protocol.run(cfg, adversary.identity_attack())
    assert t1.serialized() == t2.serialized()


def test_two_way_identity_reproduces_one_way():
    kw = dict(T=5000, p_c=0.4, p_e=0.4, p_d=0.2, seed=5)
    t1 = protocol.run(make_config(direction="one_way", **kw), adversary.identity_attack())
    t2 = protocol.run(make_config(direction="two_way", **kw), adversary.identity_attack())
    for column in ("action", "probe", "bob_axis", "bob_out", "status"):
        assert np.array_equal(getattr(t1, column), getattr(t2, column))
    assert t1.config.direction != t2.config.direction


def test_leak_outcomes_appear_for_n2_depolarizing():
    cfg = make_config(n=2, T=20_000, seed=9)
    tr = protocol.run(cfg, adversary.depolarizing_attack(0.4))
    assert tr.N_leak > 0
    assert 0 < tr.leak_rate < 1
    chk = protocol.check_fidelity(tr)  # still computable after exclusion
    assert chk.fidelity_estimate < 1.0


def test_leak_rate_zero_for_n1():
    tr = protocol.run(make_config(T=3000), adversary.depolarizing_attack(0.4))
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


def test_estimate_phase_rejects_mismatched_n():
    tr = protocol.run(make_config(T=2000), adversary.identity_attack())
    with pytest.raises(ValueError):
        protocol.estimate_phase(tr, n=3)


# ---------------------------------------------------------------- serialization

def test_serialization_disclosure_order_and_roundtrip():
    cfg = make_config(T=2000, p_c=0.4, p_e=0.4, p_d=0.2, seed=21)
    tr = protocol.run(cfg, adversary.identity_attack())
    text = tr.serialized()
    header, rows = protocol.parse_transcript(text)
    assert header["config_hash"] == tr.config_hash()
    assert int(header["seed"]) == cfg.seed
    assert len(rows) == cfg.T
    statuses = [r["status"] for r in rows]
    first_est = statuses.index("kept_estimation")
    assert "kept_check" not in statuses[first_est:]
    # indices cover every round exactly once
    assert sorted(int(r["index"]) for r in rows) == list(range(cfg.T))


def test_serialized_counts_match_transcript():
    cfg = make_config(T=1500, seed=2)
    tr = protocol.run(cfg, adversary.identity_attack())
    _, rows = protocol.parse_transcript(tr.serialized())
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
    tr = protocol.run(cfg, adversary.depolarizing_attack(0.5))
    assert tr.N_leak > 0
    _, rows = protocol.parse_transcript(tr.serialized())
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


def test_transcript_columns_are_read_only():
    tr = protocol.run(make_config(T=100), adversary.identity_attack())
    with pytest.raises(ValueError):
        tr.status[0] = 2


# ---------------------------------------------------------------- rng stream

# Version of the map from seed to transcript.  Stream 3 runs the stateful
# engine a batch of independent blocks at a time: it draws the settings of
# all rounds first, then one uniform per round for each measurement, batch
# by batch (so the stateful digests also depend on protocol._BATCH_BYTES);
# both stateful digests changed and the swap-leak digest is new; the two
# fast-path digests are unchanged from streams 1 and 2.
RNG_STREAM = 3

STREAM_DIGESTS = {
    ("entanglement", "fast"):
        "067b272e690f25b1d767de74db8bbb1671be12c5ceed192d9be2707a0332c40c",
    ("entanglement", "stateful"):
        "f521ded9878a4b09d430a0d5096e26bff2b501817d1274f4bf690ffa8e48b11a",
    ("entanglement", "swap_leak"):
        "2e7365ef2b897b3dd72f6ca2a7d62274f344bbb68156a0dfb177875cd36ec190",
    ("mub", "fast"):
        "34a38521bd9e2204af84f13835e1ca3b364c8ebd18eeadf3a467ee94d75f687b",
    ("mub", "stateful"):
        "ec4d53e4d83d59471dcc744a7a48c084a494251da4e55ad26bd1239346dc03ba",
}


@pytest.mark.parametrize("variant,engine", sorted(STREAM_DIGESTS))
def test_rng_stream_digest(variant, engine):
    if engine == "fast":
        cfg, attack = make_config(n=2, T=2000), adversary.depolarizing_attack(0.2)
    elif engine == "stateful":
        cfg, attack = make_config(T=200), adversary.entangling_memory_attack(0.3)
    else:
        cfg = make_config(n=2, T=300, direction="two_way")
        attack = adversary.two_way_swap_leak()
    cfg = replace(cfg, variant=variant, p_c=0.4, p_e=0.4, p_d=0.2, seed=2024)
    digest = hashlib.sha256(protocol.run(cfg, attack).serialized().encode()).hexdigest()
    assert digest == STREAM_DIGESTS[variant, engine], (
        f"the seed-to-transcript map changed: bump RNG_STREAM (now {RNG_STREAM}) "
        "and record the new digests")


# ---------------------------------------------------------------- equivalence

def test_equivalence_identity_attack():
    cfg = make_config(T=20_000, seed=6)
    rep = protocol.run_mub_equivalence(cfg, adversary.identity_attack())
    assert rep.entanglement_fidelity == 1.0
    assert all(v == 1.0 for v in rep.mub_fidelities.values())
    assert rep.combined_from_mub == 1.0
    assert rep.identity_holds
    assert rep.entanglement_passed and rep.mub_passed


def test_equivalence_depolarizing_within_monte_carlo_error():
    cfg = make_config(T=60_000, seed=8)
    rep = protocol.run_mub_equivalence(cfg, adversary.depolarizing_attack(0.2))
    assert rep.identity_holds
    assert abs(rep.entanglement_fidelity - rep.combined_from_mub) <= 4 * rep.identity_sigma + 1e-12


# ---------------------------------------------------------------- attack gating

def test_two_way_attack_rejected_in_one_way_mode():
    with pytest.raises(ValueError):
        protocol.run(make_config(direction="one_way"), adversary.two_way_swap_leak())


class _BackwardDepolarizing(adversary.AttackModel):
    """Return-leg-only noise, for exercising the backward instrument path."""

    name = "backward_depolarizing"

    def __init__(self, p):
        self.p = p

    def forward_branches(self, n, frame):
        return [("id", 1.0, [np.eye(2 ** n, dtype=complex)])]

    def backward_branches(self, n, frame):
        channel = qcore.depolarizing_channel(self.p, n)
        return [("depol", 1.0, list(channel.kraus_operators))]


class _BackwardTamper(adversary.AttackModel):
    """Return-leg-only coherent rotation, which unlike depolarizing noise
    does not commute with the phase encoding."""

    name = "backward_tamper"

    def forward_branches(self, n, frame):
        return [("id", 1.0, [np.eye(2 ** n, dtype=complex)])]

    def backward_branches(self, n, frame):
        return adversary.unitary_tamper("X", 0.2).forward_branches(n, frame)


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


# ---------------------------------------------------------------- outcome-table oracle

PARTNER = {"X": "Z", "Y": "Y", "Z": "X"}


def reference_entanglement_tables(cfg, attack):
    """Literal (1+n)-qubit tables: the resource state evolves with the
    attack and the encoding on its probe factor, and each entry is the Born
    probability Tr[(P_a (x) P_b) M] of provider outcome a and sensor outcome
    b, listed as (probability, forward branch, backward branch, a, b)."""
    n = cfg.n
    frame = qcore.LogicalFrame.standard(n)
    rho0 = qcore.resource_state(n).density().data
    fwd = attack.forward_branches(n, frame)
    bwd = attack.backward_branches(n, frame) if cfg.direction == "two_way" else None
    encoder = np.kron(np.eye(2), qcore.encoding_unitary(n, cfg.true_phi))

    def branch_matrices(rho, branches):
        out = []
        for _label, weight, kraus in branches:
            lifted = [np.kron(np.eye(2), k) for k in kraus]
            out.append(weight * sum(k @ rho @ k.conj().T for k in lifted))
        return out

    def evolved(encoded):
        mats = branch_matrices(rho0, fwd)
        if encoded:
            mats = [encoder @ m @ encoder.conj().T for m in mats]
        if bwd is None:
            return [[m] for m in mats]
        return [branch_matrices(m, bwd) for m in mats]

    def spectral(obs):
        return [(int(round(v)), p) for v, p in zip(obs.eigenvalues, obs.eigenprojectors)]

    unmeasured = [(protocol._B_ABSENT, np.eye(2 ** n))]
    tables = {}
    for action, b_axes in ((0, protocol.AXES), (1, protocol.ENCODE_AXES), (2, (None,))):
        grids = evolved(encoded=action == 1)
        for ai, a_axis in enumerate(protocol.AXES):
            for bi, b_axis in enumerate(b_axes):
                b_spec = (unmeasured if b_axis is None
                          else spectral(qcore.bold_pauli(frame, b_axis)))
                tables[action, ai, bi] = [
                    (np.trace(np.kron(pa, pb) @ m).real, i, j, a, b)
                    for i, row in enumerate(grids) for j, m in enumerate(row)
                    for a, pa in spectral(qcore.pauli(a_axis)) for b, pb in b_spec]
    return tables


ORACLE_ATTACKS = {
    "depolarizing": lambda: adversary.depolarizing_attack(0.3),
    "intercept_resend": lambda: adversary.intercept_resend("random"),
    "unitary_tamper": lambda: adversary.unitary_tamper("X", 0.2),
    "backward_depolarizing": lambda: _BackwardDepolarizing(0.3),
    "backward_tamper": _BackwardTamper,
}


@pytest.mark.parametrize("attack_name", sorted(ORACLE_ATTACKS))
@pytest.mark.parametrize("direction", ["one_way", "two_way"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_entanglement_tables_match_joint_born_probabilities(n, direction, attack_name):
    # the conditional-probe tables equal the literal provider-plus-probe
    # simulation entry by entry, with the provider's (axis, outcome) read
    # off the probe label
    cfg = make_config(n=n, direction=direction, true_phi=0.37 / n)
    attack = ORACLE_ATTACKS[attack_name]()
    tables = protocol._build_tables(protocol._Registry(cfg), attack)
    reference = reference_entanglement_tables(cfg, attack)
    assert set(tables) == set(reference)
    for (action, ai, bi), entries in reference.items():
        table = tables[action, ai, bi]
        probs = np.array([e[0] for e in entries])
        assert abs(probs.sum() - 1.0) < 1e-12
        # the last CDF entry is padded past 1, the rest are the probabilities
        assert np.max(np.abs(table.cdf[:-1] - np.cumsum(probs)[:-1])) < 1e-12
        assert table.fwd.tolist() == [e[1] for e in entries]
        assert table.bwd.tolist() == [e[2] for e in entries]
        assert table.b.tolist() == [e[4] for e in entries]
        a_axis = protocol.AXES[ai]
        labels = [qcore.SIGNED_LABELS.index(("+" if e[3] > 0 else "-") + PARTNER[a_axis])
                  for e in entries]
        assert table.probe.tolist() == labels


# ---------------------------------------------------------------- engine differential

class _StatefulAdapter(adversary.AttackModel):
    """A memoryless attack run through the stateful engine instead of the
    fast path: each leg's weighted instrument becomes one Kraus set, the
    branch weight w folded in as sqrt(w), applied with apply_kraus."""

    def __init__(self, inner):
        self.inner = inner
        self.name = f"stateful({inner.name})"

    def on_run_start(self, public_config, frame):
        n = public_config["n"]

        def kraus(branches):
            return [math.sqrt(w) * k for _label, w, ks in branches for k in ks]

        self.fwd = kraus(self.inner.forward_branches(n, frame))
        bwd = self.inner.backward_branches(n, frame)
        self.bwd = None if bwd is None else kraus(bwd)

    def forward_state(self, world, rng):
        world.apply_kraus(self.fwd, [world.probe])

    def backward_state(self, world, rng):
        if self.bwd is not None:
            world.apply_kraus(self.bwd, [world.probe])


def exact_cell_probabilities(cfg, attack):
    """P(action, probe label, sensor axis, sensor outcome) of one round,
    from the fast path's exact outcome tables."""
    tables = protocol._build_tables(protocol._Registry(cfg), attack)
    n_keys = len(protocol._TABLE_KEYS[cfg.variant])
    picks = {0: protocol.AXES, 1: protocol.ENCODE_AXES, 2: (None,)}
    p_action = (cfg.p_c, cfg.p_e, cfg.p_d)
    cells = {}
    for (action, _key, pick), table in tables.items():
        axis = picks[action][pick]
        axis = -1 if axis is None else protocol.AXES.index(axis)
        # the last CDF entry is padded past 1
        probs = np.diff(np.minimum(table.cdf, 1.0), prepend=0.0)
        weight = p_action[action] / n_keys / len(picks[action])
        for p, label, b in zip(probs, table.probe.tolist(), table.b.tolist()):
            cell = (action, label, axis, b)
            cells[cell] = cells.get(cell, 0.0) + weight * p
    return cells


# Each case passes when its chi-square p-value exceeds ALPHA; for a correct
# engine a case fails with probability ALPHA, so the 40 cases below fail
# together at most 40 * ALPHA = 0.4 % of seeds.
DIFFERENTIAL_ALPHA = 1e-4


@pytest.mark.parametrize("attack_name", sorted(ORACLE_ATTACKS))
@pytest.mark.parametrize("direction", ["one_way", "two_way"])
@pytest.mark.parametrize("variant", ["entanglement", "mub"])
@pytest.mark.parametrize("n", [1, 2])
def test_stateful_engine_matches_exact_tables(n, variant, direction, attack_name):
    # the stateful engine, run on a memoryless attack, samples every
    # (action, label, sensor axis, outcome) cell as often as the fast
    # path's exact distribution says
    cfg = make_config(variant=variant, direction=direction, n=n, T=20_000,
                      p_c=0.4, p_e=0.4, p_d=0.2, true_phi=0.37 / n, seed=700 + n)
    attack = ORACLE_ATTACKS[attack_name]()
    cells = exact_cell_probabilities(cfg, attack)
    assert abs(sum(cells.values()) - 1.0) < 1e-9
    tr = protocol.run(cfg, _StatefulAdapter(attack))
    keys, counts = np.unique(np.stack([tr.action, tr.probe, tr.bob_axis, tr.bob_out]),
                             axis=1, return_counts=True)
    observed = {tuple(k): c for k, c in zip(keys.T.tolist(), counts.tolist())}
    possible = {cell: p for cell, p in cells.items() if p > 1e-12}
    assert set(observed) <= set(possible)
    expected = np.array([cfg.T * p for p in possible.values()])
    obs = np.array([observed.get(cell, 0) for cell in possible])
    _stat, pvalue = scipy.stats.chisquare(*pool_small_cells(obs, expected))
    assert pvalue > DIFFERENTIAL_ALPHA


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
