"""The per-call verification suites: an oracle for the stacked suites.

``run_suites_per_call`` checks one pair or triple per call through the
one-state API (``qcore.random_density_matrix``, ``qcore.fidelity``,
``qcore.trace_distance``, ``metrics.gentle_measurement_check``,
``metrics.uniform_continuity_bound``, ``metrics.definetti_inequality_check``
and ``metrics.locc1_lower_bound``), with the helpers below drawing one
operator at a time.  It draws the same states in the same order as
``metrics.run_inequality_suites``, so for a seed both give the same
per-check sides, the same violation counts and the same generator state;
a check of the counts alone would not see a suite that checks other states.
"""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from dqsim import metrics, qcore

SEEDS = (20240001, 7, 123456)


def random_measurement_operator(dim, rng):
    """U diag(w) U^dagger, U the Q factor of a complex Gaussian, w uniform."""
    basis = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
    return (basis * rng.uniform(0, 1, size=dim)) @ basis.conj().T


def random_local_observable(rng, max_terms=3):
    """Sum of K product observables on two qubits; returns (matrix, a, K)."""
    K = int(rng.integers(1, max_terms + 1))
    total = np.zeros((4, 4), dtype=complex)
    a = 0.0
    for _ in range(K):
        g1 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        g2 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        h1, h2 = g1 + g1.conj().T, g2 + g2.conj().T
        term = np.kron(h1, h2)
        a = max(a, float(np.max(np.abs(np.linalg.eigvalsh(term)))))
        total += term
    return total, a, K


def run_suites_per_call(rng):
    """{suite name: (lhs, rhs, violations)}, one check per call: the sides
    of every check as arrays, and the count of checks that fail."""
    suites = {name: [] for name, _, _ in metrics._SUITES}

    for dim in (2, 4, 8):
        for _ in range(200):
            a = qcore.random_density_matrix(dim, rng)
            b = qcore.random_density_matrix(dim, rng)
            f = qcore.fidelity(a, b)
            d = qcore.trace_distance(a, b)
            lhs, rhs = [1 - math.sqrt(f), d], [d, math.sqrt(1 - f)]
            ok = 1 - math.sqrt(f) <= d + 1e-9 and d <= math.sqrt(1 - f) + 1e-9
            suites["fuchs_van_de_graaf"].append((lhs, rhs, ok))

    for _ in range(100):
        e_op = random_measurement_operator(4, rng)
        tau = qcore.random_density_matrix(4, rng)
        sig = qcore.random_density_matrix(4, rng)
        report = metrics.gentle_measurement_check(e_op, tau, sig)
        suites["gentle_measurement"].append((report.lhs, report.rhs, report.holds))

    for _ in range(100):
        obs, a, K = random_local_observable(rng)
        s1 = qcore.random_density_matrix(4, rng)
        s2 = qcore.random_density_matrix(4, rng)
        lhs = abs(np.trace(obs @ (s1.data - s2.data)).real)
        rhs = metrics.uniform_continuity_bound(a, K, qcore.trace_distance(s1, s2))
        suites["uniform_continuity"].append((lhs, rhs, not lhs > rhs + 1e-9))

    comp = qcore.random_density_matrix(2, rng)
    iid = qcore.DensityMatrix(qcore.kron_power(comp.data, 3))
    report = metrics.definetti_inequality_check(iid, m=3, k=2, mixture=[(1.0, comp)])
    ok = report.lhs <= 1e-9 <= report.rhs + 1e-12 and report.holds
    suites["definetti_iid"].append((report.lhs, report.rhs, ok))

    for _ in range(50):
        a = qcore.random_density_matrix(4, rng)
        b = qcore.random_density_matrix(4, rng)
        res = metrics.locc1_lower_bound(a, b, dims=[2, 2])
        d = qcore.trace_distance(a, b)
        suites["locc1_vs_trace_distance"].append(
            (res.lower_bound, d, not res.lower_bound > d + 1e-9))

    return {name: (np.array([c[0] for c in checks]), np.array([c[1] for c in checks]),
                   sum(not c[2] for c in checks))
            for name, checks in suites.items()}


@pytest.mark.parametrize("seed", SEEDS)
def test_stacked_suites_match_per_call_oracle(seed):
    oracle_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    oracle = run_suites_per_call(oracle_rng)
    for name, suite, holds in metrics._SUITES:
        lhs, rhs = suite(rng)
        want_lhs, want_rhs, want_violations = oracle[name]
        assert lhs.shape == want_lhs.shape and rhs.shape == want_rhs.shape, name
        assert np.abs(lhs - want_lhs).max() <= 1e-12, name
        assert np.abs(rhs - want_rhs).max() <= 1e-12, name
        assert np.count_nonzero(~holds(lhs, rhs)) == want_violations, name
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
    counts = {r.name: (r.checks, r.violations) for r in metrics.run_inequality_suites(seed)}
    assert counts == {name: (len(lhs), v) for name, (lhs, _, v) in oracle.items()}


def test_pair_axis_locc1_search_matches_per_pair_calls():
    rng = np.random.default_rng(31)
    pairs = [(qcore.random_density_matrix(4, rng), qcore.random_density_matrix(4, rng))
             for _ in range(12)]
    deltas = np.array([a.data - b.data for a, b in pairs])
    values, params, converged = metrics._block_ascent(deltas, 2, np.zeros((len(pairs), 2)))
    calls = [metrics.locc1_lower_bound(a, b, dims=[2, 2]) for a, b in pairs]
    np.testing.assert_array_equal(values, [c.lower_bound for c in calls])
    np.testing.assert_array_equal(params, [c.best_measurement_parameters for c in calls])
    assert converged and all(c.converged for c in calls)


@pytest.mark.parametrize("seed", SEEDS)
def test_shared_grid_pass_matches_per_pair_distances(seed):
    # the suite's 50 pairs; the full grid is one pair per slice, every 7th
    # point 13 pairs per slice with a shorter last slice
    rng = np.random.default_rng(seed)
    a, b = qcore.ginibre_states(rng.normal(size=(50, 2, 2, 4, 4))).swapaxes(0, 1)
    deltas = a - b
    for grid in (metrics._GRID, metrics._GRID[::7]):
        shared = metrics._shared_distances(deltas, grid)
        assert shared.shape == (50, len(grid))
        for delta, row in zip(deltas, shared):
            np.testing.assert_array_equal(row, metrics._sequential_distances(delta[None], 2, grid)[0])


@pytest.mark.parametrize("parties", [2, 3])
def test_first_party_fold_keeps_every_pair_and_candidate(parties):
    # the first party scores each pair's K candidates as one (2K, 4)
    # product: a stack of pairs, one pair at a time and a candidate stack
    # shared by every pair must give the same bits in the same places
    rng = np.random.default_rng(40 + parties)
    d, pairs, k = 2 ** parties, 5, 25
    a, b = qcore.ginibre_states(rng.normal(size=(pairs, 2, 2, d, d))).swapaxes(0, 1)
    deltas = a - b
    blocks = 2 ** (parties - 1) - 1
    stack = rng.uniform(0.0, 2 * math.pi, size=(pairs, k, 2 * blocks))
    got = metrics._sequential_distances(deltas, parties, stack)
    assert got.shape == (pairs, k)
    for p in range(pairs):
        np.testing.assert_array_equal(got[p], metrics._sequential_distances(
            deltas[p], parties, stack[p]))
        np.testing.assert_array_equal(got[p:p + 1], metrics._sequential_distances(
            deltas[p:p + 1], parties, stack[p:p + 1]))
    shared = metrics._sequential_distances(deltas, parties, stack[0])
    assert shared.shape == (pairs, k)
    np.testing.assert_array_equal(shared, metrics._sequential_distances(
        deltas, parties, np.broadcast_to(stack[0], stack.shape)))
    assert metrics._sequential_distances(deltas[:1], parties, stack[0]).shape == (1, k)


def test_locc1_suite_peak_memory_below_one_megabyte():
    # a grid pass over all 50 pairs in one product would hold their
    # (50, 544, 2, 4) complex stack, 3.5 MB, and peak near 5 MB
    metrics._locc1_vs_trace_distance(np.random.default_rng(SEEDS[0]))
    tracemalloc.start()
    try:
        metrics._locc1_vs_trace_distance(np.random.default_rng(SEEDS[0]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


# sha256 of the LOCC1 search's values and params (float64 bytes, values
# first): the suite's 50 two-party pairs at each of SEEDS, and three
# three-party pairs from random starts.  `verify` writes only counts, so
# a bound that moves but stays on its side of the inequality shows here.
LOCC1_SUITE_DIGESTS = {
    20240001: "6c0311edfe1f68571bf35755d9ccdce54b21213cfb0e62c6269035f1d0f4d7b4",
    7: "071ee97ea64e725b578871136b3cd5a362ae9253f1116eb50cfb97ec125d7d32",
    123456: "df2f192a8cd3a1974ed56c9330ab98abc2af766b0ec95e55e61dde8d406fa8bb",
}
LOCC1_THREE_PARTY_DIGEST = "3ea0dc37b66e3cd7ce4d0566641c0cac8913cf43517ef3b12a1a9c88d771e175"


def search_digest(values, params):
    h = hashlib.sha256()
    for a in (values, params):
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("seed", SEEDS)
def test_locc1_suite_search_is_pinned(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    for name, suite, _ in metrics._SUITES:  # the suites drawn before it
        if name == "locc1_vs_trace_distance":
            break
        suite(rng)
    searches, ascent = [], metrics._block_ascent

    def recorded(*args):
        searches.append(ascent(*args))
        return searches[-1]

    monkeypatch.setattr(metrics, "_block_ascent", recorded)
    metrics._locc1_vs_trace_distance(rng)
    [(values, params, converged)] = searches
    assert values.shape == (50,) and converged
    assert search_digest(values, params) == LOCC1_SUITE_DIGESTS[seed]


def test_three_party_search_is_pinned():
    rng = np.random.default_rng(11)
    a, b = qcore.ginibre_states(rng.normal(size=(3, 2, 2, 8, 8))).swapaxes(0, 1)
    starts = rng.uniform(0.0, np.tile([math.pi, 2 * math.pi], 3), size=(3, 6))
    values, params, converged = metrics._block_ascent(a - b, 3, starts)
    assert converged
    assert search_digest(values, params) == LOCC1_THREE_PARTY_DIGEST
