"""Tests for bound arithmetic, arc lengths and the measurement-distance tools."""

import math
import warnings

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from dqsim import metrics, qcore
from test_qcore import random_pure_state
from test_verify_suites import random_local_observable, random_measurement_operator

KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)
PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)


# ---------------------------------------------------------------- f term

def test_f_term_frozen_values():
    # 9 * sqrt(1/180) and 9 * sqrt(2/1980), evaluated independently
    assert metrics.f_definetti(100, 90, 1) == pytest.approx(0.6708203932499369, abs=1e-12)
    assert metrics.f_definetti(1000, 990, 2) == pytest.approx(0.28603877677367767, abs=1e-12)


def test_f_term_zero_prefactor_and_convention():
    assert metrics.f_definetti(50, 49, 1) == 0.0
    # no discarded round: the limit N_d -> 0, which is 0 only where the prefactor is
    assert metrics.f_definetti(50, 0, 1) == math.inf
    assert metrics.f_definetti(1, 0, 1) == 0.0


def test_f_term_preconditions():
    with pytest.raises(ValueError):
        metrics.f_definetti(10, 10, 1)
    with pytest.raises(ValueError):
        metrics.f_definetti(0, 0, 1)


@pytest.mark.parametrize("counts, match", [
    ((100, 10.5, 1), "discarded-round count N_d must be an integer >= 0, not 10.5"),
    ((100, True, 1), "discarded-round count N_d must be an integer >= 0, not True"),
    ((100.0, 10, 1), "round count T must be an integer >= 1, not 100.0"),
    ((True, 0, 1), "round count T must be an integer >= 1, not True"),
    ((100, 10, 1.5), "qubit count n must be an integer >= 1, not 1.5"),
    ((100, 10, True), "qubit count n must be an integer >= 1, not True"),
    ((100, 10, 0), rf"qubit count n must lie in \[1, {metrics.MAX_COUNT}\], not 0"),
], ids=["N_d_fraction", "N_d_bool", "T_float", "T_bool", "n_fraction", "n_bool", "n_zero"])
def test_f_term_and_epsilon0_reject_non_integer_counts(counts, match):
    # f_definetti(100, 10.5, 1) gave 19.31, and epsilon0 with n = 1.5 or
    # True a threshold for no probe size
    T, N_d, n = counts
    with pytest.raises(ValueError, match=match):
        metrics.f_definetti(T, N_d, n)
    for mode in ("one_way_gc", "two_way_gc"):
        with pytest.raises(ValueError, match=match):
            metrics.epsilon0(mode, "mub", 0.1, T=T, N_d=N_d, n=n, phi=0.3)


def test_f_term_takes_numpy_integer_counts():
    assert metrics.f_definetti(np.int64(100), np.int32(90), np.uint8(1)) == pytest.approx(
        metrics.f_definetti(100, 90, 1))


# ---------------------------------------------------------------- epsilon0

def test_epsilon0_individual_entanglement():
    assert metrics.epsilon0("one_way_individual", "entanglement", 0.251) == pytest.approx(
        0.20494064181285923, abs=1e-12)


def test_epsilon0_individual_mub_is_unscaled():
    assert metrics.epsilon0("one_way_individual", "mub", 0.3) == pytest.approx(0.3)


def test_epsilon0_gc_zero_threshold_zero_f():
    # N_d = T - 1: the symmetry term's prefactor is zero
    assert metrics.epsilon0("one_way_gc", "mub", 0.0, T=10, N_d=9, n=1) == 0.0


def test_epsilon0_two_way_sine_term():
    val = metrics.epsilon0("two_way_gc", "entanglement", 0.0, T=10, N_d=9, n=1, phi=0.1)
    assert val == pytest.approx(0.09983341664682815, abs=1e-12)


@pytest.mark.parametrize("mode", metrics.MODES)
@pytest.mark.parametrize("variant", metrics.VARIANTS)
def test_epsilon0_and_bounds_are_even_in_phi(mode, variant):
    # the two-way re-rotation term folds phi to n |phi| before its cap at
    # pi/2, so eps0 and both bounds read the same at -phi as at phi, past
    # the cap too (n phi = 3 at n = 5, phi = 0.6)
    for n in (1, 2, 5):
        for phi in (0.0, 0.05, 0.3, 0.6, 1.4, 2.9):
            pair = [metrics.bound_report(mode, variant, 0.1, n, sign * phi, T=1000, N_d=100,
                                         N_e=200) for sign in (1, -1)]
            values = [(r.epsilon0, r.bias_bound, r.variance_bound) for r in pair]
            assert values[0] == values[1], (n, phi)


def test_epsilon0_two_way_f_coefficients_differ_by_variant():
    # entanglement keeps coefficient 4, the direct-probe variant uses 2
    kw = dict(T=100, N_d=90, n=1, phi=0.0)
    f = metrics.f_definetti(100, 90, 1)
    ent = metrics.epsilon0("two_way_gc", "entanglement", 0.0, **kw)
    mub = metrics.epsilon0("two_way_gc", "mub", 0.0, **kw)
    assert ent == pytest.approx(math.sqrt(4 * f))
    assert mub == pytest.approx(math.sqrt(2 * f))


def test_epsilon0_threshold_rescaling_consistency():
    # eps^2 = 1.5 * epsbar^2 aligns the two one-way collective formulas
    epsbar = 0.17
    eps = math.sqrt(1.5) * epsbar
    kw = dict(T=1000, N_d=900, n=1)
    assert metrics.epsilon0("one_way_gc", "mub", epsbar, **kw) == pytest.approx(
        metrics.epsilon0("one_way_gc", "entanglement", eps, **kw), abs=1e-12)


@pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
def test_epsilon0_rejects_non_finite_threshold(threshold):
    for mode in metrics.MODES:
        with pytest.raises(ValueError, match="threshold must be finite"):
            metrics.epsilon0(mode, "mub", threshold, T=10, N_d=1, n=1, phi=0.3)


@pytest.mark.parametrize("phi", [None, math.nan, math.inf])
def test_epsilon0_two_way_needs_finite_phi(phi):
    with pytest.raises(ValueError, match="^phi must be (a real number|finite)"):
        metrics.epsilon0("two_way_gc", "mub", 0.1, T=10, N_d=1, n=1, phi=phi)


def test_epsilon0_invalid_mode_rejected():
    with pytest.raises(ValueError):
        metrics.epsilon0("sideways", "mub", 0.1)
    with pytest.raises(ValueError):
        metrics.epsilon0("one_way_gc", "mub", 0.1)  # missing T, N_d, n


# ---------------------------------------------------------------- bias / variance bounds

def test_bias_bound_examples():
    assert metrics.bias_bound(0.1, 1, math.pi / 4) == pytest.approx(0.1)
    assert metrics.bias_bound(0.1, 1, 0.0) == math.inf


@pytest.mark.parametrize("eps0, phi", [(math.nan, 0.3), (0.1, math.nan), (0.1, math.inf),
                                       (math.inf, -math.inf)])
def test_bounds_reject_nan_eps0_and_non_finite_phi(eps0, phi):
    match = f"^{'eps0' if math.isnan(eps0) else 'phi'} must be finite"
    with pytest.raises(ValueError, match=match):
        metrics.bias_bound(eps0, 1, phi)
    for mode in metrics.MODES:
        with pytest.raises(ValueError, match=match):
            metrics.variance_bound(eps0, 1, phi, mode, N_e=10)


@pytest.mark.parametrize("eps0, n, match", [
    (-0.5, 1, "eps0 must be a real number >= 0, not -0.5"),
    (-1e-300, 2, "eps0 must be a real number >= 0, not -1e-300"),
    (-math.inf, 1, "eps0 must be finite"),
    (0.5, 1.5, "qubit count n must be an integer >= 1, not 1.5"),
    (0.5, 2.0, "qubit count n must be an integer >= 1, not 2.0"),
    (0.5, True, "qubit count n must be an integer >= 1, not True"),
    (0.5, 0, rf"qubit count n must lie in \[1, {metrics.MAX_COUNT}\], not 0"),
], ids=["negative", "negative_tiny", "negative_inf", "n_fraction", "n_float", "n_bool",
        "n_zero"])
def test_bounds_reject_negative_eps0_and_non_integer_n(eps0, n, match):
    # a negative eps0 gave a negative bound (bias_bound(-0.5, 1, 0.3) = -0.886),
    # and n = 1.5 or True a bound for no probe size
    with pytest.raises(ValueError, match=match):
        metrics.bias_bound(eps0, n, 0.3)
    for mode in metrics.MODES:
        with pytest.raises(ValueError, match=match):
            metrics.variance_bound(eps0, n, 0.3, mode, N_e=10)


def test_bounds_take_numpy_integer_n_and_zero_eps0():
    assert metrics.bias_bound(0.1, np.int64(1), math.pi / 4) == pytest.approx(0.1)
    assert metrics.bias_bound(0.0, 2, 0.3) == 0.0
    assert metrics.variance_bound(0.0, 2, 0.3, "one_way_gc") == 0.0


def test_bounds_keep_infinite_eps0():
    # a finite threshold whose square overflows gives eps0 = inf
    eps0 = metrics.epsilon0("one_way_gc", "mub", 1e200, T=10, N_d=1, n=1)
    assert eps0 == math.inf
    assert metrics.bias_bound(eps0, 1, 0.3) == math.inf
    assert metrics.variance_bound(eps0, 1, 0.3, "one_way_gc") == math.inf


def test_variance_bound_gc_example():
    e0 = 0.20494064181285923
    val = metrics.variance_bound(e0, 1, math.pi / 4, "one_way_gc")
    assert val == pytest.approx(0.45188195029238515, abs=1e-10)


def test_variance_bound_individual_uses_ne():
    e0 = 0.2
    val = metrics.variance_bound(e0, 1, math.pi / 4, "one_way_individual", N_e=100)
    assert val == pytest.approx(2 * e0 / 100 + e0 ** 2)
    with pytest.raises(ValueError):
        metrics.variance_bound(e0, 1, math.pi / 4, "one_way_individual")


@settings(max_examples=50, deadline=None, database=None, derandomize=True)
@given(e0a=st.floats(0.0, 1.0), delta=st.floats(0.001, 1.0), phi=st.floats(0.05, 1.5))
def test_bounds_monotone_in_epsilon0(e0a, delta, phi):
    e0b = e0a + delta
    assert metrics.bias_bound(e0a, 1, phi) <= metrics.bias_bound(e0b, 1, phi)
    assert metrics.variance_bound(e0a, 1, phi, "one_way_gc") <= \
        metrics.variance_bound(e0b, 1, phi, "one_way_gc")


def test_bound_report_fields_and_infinity():
    rep = metrics.bound_report("one_way_gc", "entanglement", 0.251, n=1,
                               phi=math.pi / 2, T=10_000, N_d=9900, N_e=30)
    assert rep.f_value == pytest.approx(0.7035623639735143, abs=1e-12)
    assert rep.bias_bound == math.inf and rep.variance_bound == math.inf
    rep_ind = metrics.bound_report("one_way_individual", "entanglement", 0.251,
                                   n=1, phi=math.pi / 4, N_e=100)
    assert rep_ind.f_value is None
    assert rep_ind.bias_bound == pytest.approx(0.20494064181285923, abs=1e-9)


# ---------------------------------------------------------------- arc length

def test_delta_arc_identity_and_antipodal():
    assert metrics.delta_arc(np.eye(4)) == pytest.approx(0.0, abs=1e-12)
    assert metrics.delta_arc(np.diag([1.0, -1.0])) == pytest.approx(math.pi, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("phi", [0.1, 0.3])
def test_delta_arc_of_encoding(n, phi):
    u = qcore.encoding_unitary(n, phi)
    assert metrics.delta_arc(u) == pytest.approx(2 * n * phi, abs=1e-9)


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(alpha=st.floats(-math.pi, math.pi), phi=st.floats(0.05, 0.9))
def test_delta_arc_global_phase_invariance(alpha, phi):
    u = qcore.encoding_unitary(2, phi)
    assert metrics.delta_arc(np.exp(1j * alpha) * u) == pytest.approx(
        metrics.delta_arc(u), abs=1e-9)


def test_delta_arc_rejects_non_unitary():
    with pytest.raises(ValueError):
        metrics.delta_arc(np.diag([1.0, 0.5]))


@pytest.mark.parametrize("big", [1e200, -1e300j, 1e308])
def test_delta_arc_refuses_a_huge_matrix_without_an_overflow_warning(big):
    # u @ u^H overflowed on such entries and warned before the refusal
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="u must be unitary within tolerance"):
            metrics.delta_arc(np.diag([big, 1.0]))


def test_acin_identity_and_closed_form():
    assert metrics.acin_min_fidelity(np.eye(2)) == pytest.approx(1.0)
    u = qcore.encoding_unitary(1, 0.3)
    assert metrics.acin_min_fidelity(u) == pytest.approx(0.9126678074548391, abs=1e-12)


def test_acin_matches_purification_minimization():
    # oracle: direct numerical minimization of |<v|(U x I)|v>|^2 over unit v
    u = qcore.encoding_unitary(1, 0.3)
    big = np.kron(u, np.eye(2))

    def overlap(x):
        v = x[:4] + 1j * x[4:]
        nrm = np.linalg.norm(v)
        if nrm < 1e-12:
            return 1.0
        v = v / nrm
        return abs(np.vdot(v, big @ v)) ** 2

    rng = np.random.default_rng(42)
    best = 1.0
    for _ in range(12):
        res = scipy.optimize.minimize(overlap, rng.normal(size=8), method="Nelder-Mead",
                                      options={"xatol": 1e-10, "fatol": 1e-12,
                                               "maxiter": 4000})
        best = min(best, res.fun)
    assert metrics.acin_min_fidelity(u) == pytest.approx(best, abs=1e-6)


# ---------------------------------------------------------------- LOCC1 optimizer

def test_locc1_identical_states_zero():
    rho = qcore.random_density_matrix(4, np.random.default_rng(1))
    res = metrics.locc1_lower_bound(rho, rho, dims=[2, 2], restarts=2)
    assert res.lower_bound == pytest.approx(0.0, abs=1e-12)


def test_locc1_single_party_orthogonal_states():
    res = metrics.locc1_lower_bound(qcore.PureState(KET0), qcore.PureState(KET1), dims=[2])
    assert res.lower_bound == pytest.approx(1.0)
    assert res.converged


def test_locc1_single_party_matches_optimal_discrimination():
    # a single party may use the eigenbasis of the difference: value sqrt(0.5)
    res = metrics.locc1_lower_bound(qcore.PureState(KET0), qcore.PureState(PLUS), dims=[2])
    assert res.lower_bound == pytest.approx(math.sqrt(0.5), abs=1e-12)


def test_locc1_two_party_pure_states_reach_trace_distance():
    # adaptive local measurement of two product pure states attains the
    # global optimum; D(|00>, |++>) = sqrt(3)/2
    rho = qcore.PureState(np.kron(KET0, KET0))
    sig = qcore.PureState(np.kron(PLUS, PLUS))
    d = qcore.trace_distance(rho, sig)
    assert d == pytest.approx(0.8660254037844386, abs=1e-12)
    res = metrics.locc1_lower_bound(rho, sig, dims=[2, 2], restarts=12,
                                    rng=np.random.default_rng(3))
    assert res.lower_bound <= d + 1e-9
    assert res.lower_bound == pytest.approx(d, abs=2e-3)


def test_locc1_three_party_pure_states_reach_trace_distance():
    # one-way adaptive LOCC attains the Helstrom optimum for any two pure
    # states (Virmani, Sacchi, Plenio, Markham, Phys. Lett. A 288, 62 (2001));
    # D(|000>, |+++>) = sqrt(1 - 1/8)
    rho = qcore.PureState(qcore.kron_power(KET0, 3))
    sig = qcore.PureState(qcore.kron_power(PLUS, 3))
    d = math.sqrt(7 / 8)
    assert qcore.trace_distance(rho, sig) == pytest.approx(d, abs=1e-12)
    res = metrics.locc1_lower_bound(rho, sig, dims=[2, 2, 2], restarts=2,
                                    rng=np.random.default_rng(3))
    assert res.lower_bound <= d + 1e-9
    assert res.lower_bound == pytest.approx(d, abs=1e-6)
    assert res.best_measurement_parameters.shape == (6,)
    assert res.restarts_used == 2


def test_locc1_never_exceeds_trace_distance():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = qcore.random_density_matrix(4, rng)
        b = qcore.random_density_matrix(4, rng)
        res = metrics.locc1_lower_bound(a, b, dims=[2, 2], restarts=4, rng=rng)
        assert res.lower_bound <= qcore.trace_distance(a, b) + 1e-9


def einsum_sequential_distances(delta, n_parties, params):
    """Reference: the per-party contraction written as one three-operand
    einsum over basis vectors, operator blocks and basis vectors."""
    k = params.shape[0]
    angles = params.reshape(k, -1, 2)
    ops = np.broadcast_to(delta, (k, 1) + delta.shape)
    for j in range(n_parties - 1):
        histories, rest = 2 ** j, ops.shape[-1] // 2
        bases = metrics._qubit_bases(angles[:, histories - 1:2 * histories - 1])
        ops = np.einsum("khai,kharbs,khbi->khirs", bases.conj(),
                        ops.reshape(k, histories, 2, rest, 2, rest), bases)
        ops = ops.reshape(k, 2 * histories, rest, rest)
    return metrics._half_trace_norm_qubit(ops).sum(axis=1)


@pytest.mark.parametrize("parties", [2, 3])
def test_sequential_distances_match_einsum_reference(parties):
    rng = np.random.default_rng(21 + parties)
    d = 2 ** parties
    delta = (qcore.random_density_matrix(d, rng).data
             - qcore.random_density_matrix(d, rng).data)
    params = rng.uniform(0.0, 2 * math.pi, size=(64, 2 * (2 ** (parties - 1) - 1)))
    got = metrics._sequential_distances(delta, parties, params)
    assert np.abs(got - einsum_sequential_distances(delta, parties, params)).max() < 1e-12


def test_locc1_rejects_oversized_partitions():
    rho = qcore.random_density_matrix(4, np.random.default_rng(0))
    with pytest.raises(ValueError):
        metrics.locc1_lower_bound(rho, rho, dims=[2, 2, 2, 2])
    with pytest.raises(ValueError):
        metrics.locc1_lower_bound(rho, rho, dims=[4])
    six = qcore.random_density_matrix(6, np.random.default_rng(0))
    with pytest.raises(ValueError):
        metrics.locc1_lower_bound(six, six, dims=[3, 2])
    with pytest.raises(qcore.DimensionMismatchError):
        metrics.locc1_lower_bound(rho, rho, dims=[2])


def test_locc1_rejects_zero_restarts():
    rho = qcore.random_density_matrix(4, np.random.default_rng(0))
    with pytest.raises(ValueError):
        metrics.locc1_lower_bound(rho, rho, dims=[2, 2], restarts=0)


@pytest.mark.parametrize("restarts", [2.5, math.nan, True, False, "4", None])
@pytest.mark.parametrize("parties", [1, 2, 3])
def test_locc1_rejects_non_integer_restarts(restarts, parties):
    rho = qcore.random_density_matrix(2 ** parties, np.random.default_rng(0))
    with pytest.raises(ValueError, match=f"restarts must be an integer >= 1, not {restarts!r}"):
        metrics.locc1_lower_bound(rho, rho, dims=[2] * parties, restarts=restarts)


def test_locc1_accepts_numpy_integer_restarts():
    rho = qcore.random_density_matrix(8, np.random.default_rng(0))
    res = metrics.locc1_lower_bound(rho, rho, dims=[2, 2, 2], restarts=np.int64(2))
    assert res.restarts_used == 2


def test_half_trace_norm_qubit_matches_eigvalsh():
    rng = np.random.default_rng(14)
    g = rng.normal(size=(500, 2, 2)) + 1j * rng.normal(size=(500, 2, 2))
    herm = g + g.conj().transpose(0, 2, 1)
    oracle = 0.5 * np.abs(np.linalg.eigvalsh(herm)).sum(axis=1)
    np.testing.assert_allclose(metrics._half_trace_norm_qubit(herm), oracle,
                               rtol=0, atol=1e-12)


# ---------------------------------------------------------------- gentle measurement

def test_gentle_measurement_equal_states_zero_slack():
    rho = qcore.random_density_matrix(4, np.random.default_rng(5))
    e_op = np.eye(4) * 0.7
    rep = metrics.gentle_measurement_check(e_op, rho, rho)
    assert rep.holds
    assert rep.lhs == pytest.approx(rep.rhs)


def test_gentle_measurement_identity_operator():
    rng = np.random.default_rng(6)
    tau = qcore.random_density_matrix(4, rng)
    sig = qcore.random_density_matrix(4, rng)
    rep = metrics.gentle_measurement_check(np.eye(4), tau, sig)
    assert rep.holds
    assert rep.lhs == pytest.approx(1.0)


def test_gentle_measurement_random_triples():
    rng = np.random.default_rng(8)
    for _ in range(100):
        e_op = random_measurement_operator(4, rng)
        tau = qcore.random_density_matrix(4, rng)
        sig = qcore.random_density_matrix(4, rng)
        assert metrics.gentle_measurement_check(e_op, tau, sig).holds


def test_gentle_measurement_rejects_bad_operator():
    rho = qcore.random_density_matrix(2, np.random.default_rng(9))
    with pytest.raises(ValueError):
        metrics.gentle_measurement_check(2.0 * np.eye(2), rho, rho)


def test_gentle_measurement_rejects_non_hermitian_operator():
    # eigvalsh reads one triangle, where this E looks like 0.5 I
    e_op = np.array([[0.5, 5.0], [0.0, 0.5]])
    with pytest.raises(ValueError, match="Hermitian"):
        metrics.gentle_measurement_check(e_op, qcore.PureState(KET0), np.eye(2) / 2)


# ---------------------------------------------------------------- uniform continuity

def test_uniform_continuity_values():
    assert metrics.uniform_continuity_bound(1.0, 1, 0.0) == 0.0
    assert metrics.uniform_continuity_bound(1.0, 1, 0.1) == pytest.approx(0.2)
    np.testing.assert_allclose(
        metrics.uniform_continuity_bound(np.array([1.0, 0.5]), np.array([1, 3]), 0.1), [0.2, 0.3])


@pytest.mark.parametrize("a, distance", [(math.nan, 0.1), (math.inf, 0.1), (-1.0, 0.1),
                                         (1.0, -0.5), (1.0, math.nan), (1.0, math.inf)])
def test_uniform_continuity_rejects_bad_numbers(a, distance):
    with pytest.raises(ValueError):
        metrics.uniform_continuity_bound(a, 1, distance)


@pytest.mark.parametrize("K", [math.nan, 1.5, 2.0, True, 0, -1, np.array([1, 0]),
                               np.array([1.0, 2.0]), np.array([True, True])])
def test_uniform_continuity_rejects_bad_term_counts(K):
    with pytest.raises(ValueError, match="term count must be an integer >= 1"):
        metrics.uniform_continuity_bound(1.0, K, 0.1)


def test_uniform_continuity_accepts_integer_term_counts():
    assert metrics.uniform_continuity_bound(1.0, np.int64(2), 0.1) == pytest.approx(0.4)
    np.testing.assert_allclose(metrics.uniform_continuity_bound(
        1.0, np.array([1, 2], dtype=np.uint8), 0.1), [0.2, 0.4])


def test_uniform_continuity_random_local_observables():
    rng = np.random.default_rng(10)
    for _ in range(100):
        obs, a, K = random_local_observable(rng)
        s1 = qcore.random_density_matrix(4, rng)
        s2 = qcore.random_density_matrix(4, rng)
        lhs = abs(np.trace(obs @ (s1.data - s2.data)).real)
        assert lhs <= metrics.uniform_continuity_bound(a, K, qcore.trace_distance(s1, s2)) + 1e-9


# ---------------------------------------------------------------- de Finetti checks

def test_definetti_iid_point_mass():
    comp = qcore.random_density_matrix(2, np.random.default_rng(11))
    iid = qcore.DensityMatrix(qcore.kron_power(comp.data, 4))
    rep = metrics.definetti_inequality_check(iid, m=4, k=2, mixture=[(1.0, comp)],
                                             restarts=2)
    assert rep.lhs <= 1e-9
    assert rep.holds


@pytest.mark.parametrize("restarts", [2.5, math.nan, True])
def test_definetti_rejects_non_integer_restarts(restarts):
    comp = qcore.random_density_matrix(2, np.random.default_rng(11))
    iid = qcore.DensityMatrix(qcore.kron_power(comp.data, 4))
    for k in (2, 3):
        with pytest.raises(ValueError, match="restarts must be an integer"):
            metrics.definetti_inequality_check(iid, m=4, k=k, mixture=[(1.0, comp)],
                                               restarts=restarts)


@pytest.mark.parametrize("weights", [(math.nan,), (1.5, -0.5), (math.inf, 0.0)])
def test_definetti_rejects_bad_mixture_weights(weights):
    comp = qcore.random_density_matrix(2, np.random.default_rng(11))
    iid = qcore.DensityMatrix(qcore.kron_power(comp.data, 3))
    # a weight is named by its index in the mixture, not by its value
    bad = next(i for i, w in enumerate(weights) if not (math.isfinite(w) and w >= 0))
    with pytest.raises(ValueError, match=f"^mixture weight {bad} must be"):
        metrics.definetti_inequality_check(iid, m=3, k=2, mixture=[(w, comp) for w in weights])


@pytest.mark.parametrize("m,k,weight,message", [
    (3, 2, True, "mixture weight 0 must be a real number, not True"),
    (3, True, 1.0, "k must be an integer >= 1, not True"),
    (3, 2, 10 ** 400, "must be finite"),
    (3.0, 2, 1.0, "m must be an integer >= 2, not 3.0"),
    (3, 2.0, 1.0, "k must be an integer >= 1, not 2.0"),
    (5, 2, 1.0, r"m must lie in \[2, 4\], not 5"),
    (3, 3, 1.0, r"k must lie in \[1, 2\], not 3"),
], ids=["weight_bool", "k_bool", "weight_past_float", "m_float", "k_float", "m_above_range",
        "k_above_range"])
def test_definetti_checks_inputs_by_the_library_rules(m, k, weight, message):
    # a bool, an integer beyond float range or a float count is refused with a
    # ValueError naming the argument, before any state is formed
    mixed = qcore.DensityMatrix(np.eye(8) / 8)
    comp = qcore.DensityMatrix(np.eye(2) / 2)
    with pytest.raises(ValueError, match=message):
        metrics.definetti_inequality_check(mixed, m=m, k=k, mixture=[(weight, comp)])


def test_definetti_k1_reduced_state_is_exact_mixture():
    # k = 1 makes the bound zero; the eigendecomposition of the marginal is
    # itself a valid product-state mixture, so the distance must vanish
    rng = np.random.default_rng(12)
    psi = random_pure_state(8, rng)
    sym = qcore.as_density(psi)
    marginal = qcore.partial_trace(sym, [2, 2, 2], [0])
    vals, vecs = np.linalg.eigh(marginal.data)
    mixture = [(float(v), qcore.DensityMatrix(np.outer(vecs[:, i], vecs[:, i].conj())))
               for i, v in enumerate(vals) if v > 1e-12]
    total = sum(w for w, _ in mixture)
    mixture = [(w / total, c) for w, c in mixture]
    rep = metrics.definetti_inequality_check(sym, m=3, k=1, mixture=mixture)
    assert rep.rhs == 0.0
    assert rep.lhs <= 1e-9


def test_definetti_ghz_least_squares_dictionary():
    # 4-party GHZ state, k = 2: fit the 2-party marginal by nonnegative least
    # squares over the six Pauli-eigenstate products and check the bound
    ghz = np.zeros(16, dtype=complex)
    ghz[0] = ghz[-1] = 1 / math.sqrt(2)
    sigma = qcore.as_density(qcore.PureState(ghz))
    marginal = qcore.partial_trace(sigma, [2] * 4, [0, 1])

    dictionary = []
    for label in qcore.SIGNED_LABELS:
        vec = qcore.mub_probe(qcore.LogicalFrame.standard(1), label)
        dictionary.append(qcore.as_density(vec))
    columns = []
    for comp in dictionary:
        prod = qcore.kron_power(comp.data, 2).reshape(-1)
        columns.append(np.concatenate([prod.real, prod.imag]))
    target = marginal.data.reshape(-1)
    rhs = np.concatenate([target.real, target.imag])
    weights, _ = scipy.optimize.nnls(np.array(columns).T, rhs)
    weights = weights / weights.sum()
    mixture = [(float(w), comp) for w, comp in zip(weights, dictionary) if w > 1e-12]
    rep = metrics.definetti_inequality_check(sigma, m=4, k=2, mixture=mixture,
                                             restarts=6, rng=np.random.default_rng(13))
    assert rep.rhs == pytest.approx(0.5)
    assert rep.lhs <= rep.rhs + 1e-9
    assert rep.holds


# ---------------------------------------------------------------- suites

def test_inequality_suites_all_pass():
    results = metrics.run_inequality_suites()
    assert {r.name for r in results} == {
        "fuchs_van_de_graaf", "gentle_measurement", "uniform_continuity",
        "definetti_iid", "locc1_vs_trace_distance"}
    for r in results:
        assert r.passed, f"{r.name}: {r.violations} violations"


def test_inequality_suites_injected_violation():
    results = metrics.run_inequality_suites(inject_violation=True)
    assert any(not r.passed for r in results)
