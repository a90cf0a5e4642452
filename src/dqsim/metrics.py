"""Theoretical quantities for the sensing protocols.

Permutation-symmetry error terms, composed tamper thresholds, bias and
variance bounds for every attack mode, arc-length/minimum-fidelity tools for
the two-way bound, a lower-bound optimizer for the sequential-local-
measurement (LOCC1) distance between states of 1-3 qubit parties, and the
inequality checks the verification command drives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import qcore

MODES = ("one_way_gc", "one_way_individual", "two_way_gc")
VARIANTS = ("entanglement", "mub")

UNITARY_TOL = 1e-10


@dataclass(frozen=True)
class BoundReport:
    """Evaluated bound quantities for one protocol operating point."""

    mode: str
    protocol_variant: str
    f_value: float | None
    epsilon0: float
    bias_bound: float
    variance_bound: float
    phi: float
    n: int
    T: int | None
    N_d: int | None
    N_e: int | None


@dataclass(frozen=True)
class Locc1Result:
    """Certified lower bound on the sequential-measurement distance.

    ``best_measurement_parameters`` holds two Bloch angles per block, one
    block per (party, outcome history) below the last party, in that order.
    """

    lower_bound: float
    best_measurement_parameters: np.ndarray
    restarts_used: int
    converged: bool


def f_definetti(T: int, N_d: int, n: int) -> float:
    """Permutation-symmetry error term (T - N_d - 1) sqrt(n / (2 N_d)).

    N_d = 0 returns 0 by convention; that case only arises in
    individual-attack accounting, where the term plays no role.
    """
    if T < 1:
        raise ValueError("round count T must be >= 1")
    if not 0 <= N_d < T:
        raise ValueError("discarded-round count must satisfy 0 <= N_d < T")
    if n < 1:
        raise ValueError("qubit count must be >= 1")
    if N_d == 0:
        return 0.0
    return (T - N_d - 1) * math.sqrt(n / (2.0 * N_d))


def epsilon0(mode: str, variant: str, threshold: float, T=None, N_d=None, n=None,
             phi=None) -> float:
    """Composed tamper threshold for the requested mode and protocol variant.

    The entanglement variant carries the 2/3 rescaling of the raw threshold;
    the direct-probe variant uses it unscaled.  Collective modes add four
    times the symmetry term under the square root in the one-way case; the
    two-way direct-probe formula uses coefficient two instead (the two
    source formulas are deliberately kept distinct, never unified), and both
    two-way forms add |sin(min(n*phi, pi/2))| for the undetectable
    re-rotation.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    if mode == "one_way_individual":
        return math.sqrt(2.0 / 3.0) * threshold if variant == "entanglement" else threshold
    if T is None or N_d is None or n is None:
        raise ValueError("collective modes need T, N_d and n")
    f = f_definetti(T, N_d, n)
    coef = 2.0 if (mode == "two_way_gc" and variant == "mub") else 4.0
    inner = (2.0 / 3.0) * threshold ** 2 if variant == "entanglement" else threshold ** 2
    value = math.sqrt(inner + coef * f)
    if mode == "two_way_gc":
        if phi is None:
            raise ValueError("two-way mode needs phi")
        value += abs(math.sin(min(n * phi, math.pi / 2)))
    return value


# |sin(2 n phi)| below this is treated as an exact zero of the denominator;
# sweeps crossing those points get a distinguished infinity, not an error.
SIN_FLOOR = 1e-12


def bias_bound(eps0: float, n: int, phi: float) -> float:
    """eps0 / (n |sin(2 n phi)|); infinite where the denominator vanishes."""
    if n < 1:
        raise ValueError("qubit count must be >= 1")
    denom = n * abs(math.sin(2 * n * phi))
    if denom < SIN_FLOOR:
        return math.inf
    return eps0 / denom


def variance_bound(eps0: float, n: int, phi: float, mode: str, N_e=None) -> float:
    """Variance-difference bound for the requested attack mode."""
    if n < 1:
        raise ValueError("qubit count must be >= 1")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    denom = (n * math.sin(2 * n * phi)) ** 2
    if mode == "one_way_individual":
        if N_e is None or N_e < 1:
            raise ValueError("individual mode needs N_e >= 1")
        numer = 2.0 * eps0 / N_e + eps0 ** 2
    else:
        numer = 2.0 * eps0 + eps0 ** 2
    if denom < SIN_FLOOR ** 2:
        return math.inf
    return numer / denom


def bound_report(mode, variant, threshold, n, phi, T=None, N_d=None, N_e=None) -> BoundReport:
    """Bundle f, eps0 and both bounds for one operating point."""
    if mode == "one_way_individual":
        f_value = None
    else:
        f_value = f_definetti(T, N_d, n)
    e0 = epsilon0(mode, variant, threshold, T=T, N_d=N_d, n=n, phi=phi)
    return BoundReport(
        mode=mode,
        protocol_variant=variant,
        f_value=f_value,
        epsilon0=e0,
        bias_bound=bias_bound(e0, n, phi),
        variance_bound=variance_bound(e0, n, phi, mode, N_e=N_e),
        phi=phi,
        n=n,
        T=T,
        N_d=N_d,
        N_e=N_e,
    )


# ---------------------------------------------------------------- arc length

def delta_arc(u) -> float:
    """Minimal arc length on the unit circle containing all eigenvalue phases.

    Computed by sorting the phases and subtracting the largest gap from 2*pi.
    """
    u = np.asarray(u, dtype=complex)
    if np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0]))) > UNITARY_TOL:
        raise ValueError("input is not unitary within tolerance")
    phases = np.sort(np.angle(np.linalg.eigvals(u)))
    gaps = np.diff(phases)
    wrap = phases[0] + 2 * math.pi - phases[-1]
    return float(2 * math.pi - max(np.max(gaps, initial=0.0), wrap))


def acin_min_fidelity(u) -> float:
    """Worst-case overlap cos^2(min(delta/2, pi/2)) over all input purifications."""
    return math.cos(min(delta_arc(u) / 2.0, math.pi / 2)) ** 2


# ---------------------------------------------------------------- LOCC1 lower bound

# Each block (one party's basis given one outcome history) is searched on a
# Bloch-angle grid, then on shrinking 5 x 5 grids around the best point,
# the step halving each round.
_THETA_POINTS, _PHASE_POINTS = 17, 32
_GRID_STEP = np.array([math.pi / (_THETA_POINTS - 1), 2 * math.pi / _PHASE_POINTS])
_GRID = np.stack(np.meshgrid(np.arange(_THETA_POINTS) * _GRID_STEP[0],
                             np.arange(_PHASE_POINTS) * _GRID_STEP[1],
                             indexing="ij"), axis=-1).reshape(-1, 2)
_REFINE_OFFSETS = np.stack(np.meshgrid(np.linspace(-1, 1, 5), np.linspace(-1, 1, 5),
                                       indexing="ij"), axis=-1).reshape(-1, 2)
_REFINE_ROUNDS = 20
_SWEEP_TOL, _MAX_SWEEPS = 1e-7, 40


def _half_trace_norm_qubit(ops):
    """Half the trace norm of each Hermitian 2x2 matrix in a (..., 2, 2) stack.

    [[a, b], [b*, d]] has eigenvalues (a + d)/2 +- r with
    r = sqrt(((a - d)/2)^2 + |b|^2), whose absolute values sum to
    max(|a + d|, 2 r).
    """
    a, d = ops[..., 0, 0].real, ops[..., 1, 1].real
    r = np.hypot(0.5 * (a - d), np.abs(ops[..., 0, 1]))
    return 0.5 * np.maximum(np.abs(a + d), 2.0 * r)


def _qubit_bases(angles):
    """Orthonormal qubit bases, as columns, from Bloch angles (..., 2):
    (cos t/2, e^{ip} sin t/2) and (sin t/2, -e^{ip} cos t/2)."""
    c, s = np.cos(0.5 * angles[..., 0]), np.sin(0.5 * angles[..., 0])
    phase = np.exp(1j * angles[..., 1])
    return np.stack([np.stack([c, s], axis=-1),
                     np.stack([phase * s, -phase * c], axis=-1)], axis=-2)


def _sequential_distances(delta, n_parties, params):
    """Distance reached by each parameter vector of a (K, 2 * blocks) stack.

    After outcome history h, party j measures in the basis of block
    2^j - 1 + h.  The last party measures each conditional difference
    operator in its eigenbasis, which is optimal there, so every value is
    attained by an explicit sequential measurement.
    """
    k = params.shape[0]
    angles = params.reshape(k, -1, 2)
    ops = np.broadcast_to(delta, (k, 1) + delta.shape)
    for j in range(n_parties - 1):
        histories, rest = 2 ** j, ops.shape[-1] // 2
        bases = _qubit_bases(angles[:, histories - 1:2 * histories - 1])
        ops = np.einsum("khai,kharbs,khbi->khirs", bases.conj(),
                        ops.reshape(k, histories, 2, rest, 2, rest), bases)
        ops = ops.reshape(k, 2 * histories, rest, rest)
    return _half_trace_norm_qubit(ops).sum(axis=1)


def _maximize_block(objective, params, block):
    """Best (value, params) when only one block's two angles vary."""
    cols = slice(2 * block, 2 * block + 2)

    def best_of(angles):
        stack = np.repeat(params[None], len(angles), axis=0)
        stack[:, cols] = angles
        values = objective(stack)
        i = int(np.argmax(values))
        return values[i], stack[i]

    value, params = best_of(np.vstack([params[cols], _GRID]))
    step = _GRID_STEP
    for _ in range(_REFINE_ROUNDS):
        trial_value, trial = best_of(params[cols] + _REFINE_OFFSETS * step)
        if trial_value > value:
            value, params = trial_value, trial
        step = step / 2
    return value, params


def _block_ascent(objective, params, n_blocks):
    """Maximize each block in turn until a sweep gains less than _SWEEP_TOL.

    A single block is done after one sweep, since a second would repeat it.
    """
    value = objective(params[None])[0]
    for _ in range(_MAX_SWEEPS):
        start = value
        for block in range(n_blocks):
            value, params = _maximize_block(objective, params, block)
        if n_blocks == 1 or value - start < _SWEEP_TOL:
            return value, params, True
    return value, params, False


def locc1_lower_bound(rho, sigma, dims, restarts=32, rng=None) -> Locc1Result:
    """Maximize the output distance over sequential adaptive local projective
    measurements; the best value found certifies a lower bound.

    ``dims`` lists the party dimensions: 1 to 3 qubit parties.  One party is
    solved exactly in the eigenbasis of the difference operator.  Otherwise
    each block, one party's basis given one outcome history (one block for
    two parties, three for three), is searched on a Bloch-angle grid with
    shrinking refinement grids, block after block, and the last party
    measures in the eigenbasis of each conditional difference operator.

    ``restarts`` counts starting points: the zero vector, then starts drawn
    from ``rng``.  A single block's grid search does not depend on its
    start, so two parties run one start, draw nothing from ``rng`` and
    report ``restarts_used`` = 1.  ``converged`` says that the best start's
    last sweep over the blocks gained less than 1e-7 before the sweep cap.
    """
    dims = [int(d) for d in dims]
    if not 1 <= len(dims) <= 3 or any(d != 2 for d in dims):
        raise ValueError("supported partitions: 1 to 3 parties of dimension 2")
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    ra, rb = qcore.as_density(rho), qcore.as_density(sigma)
    if ra.dim != rb.dim or ra.dim != 2 ** len(dims):
        raise qcore.DimensionMismatchError("states do not match the party dims")
    delta = ra.data - rb.data
    if len(dims) == 1:
        return Locc1Result(float(_half_trace_norm_qubit(delta)), np.zeros(0), 0, True)

    n_blocks = 2 ** (len(dims) - 1) - 1
    starts = [np.zeros(2 * n_blocks)]
    if n_blocks > 1:
        rng = np.random.default_rng(0) if rng is None else rng
        high = np.tile([math.pi, 2 * math.pi], n_blocks)
        starts += [rng.uniform(0.0, high) for _ in range(restarts - 1)]

    def objective(stack):
        return _sequential_distances(delta, len(dims), stack)

    value, params, converged = max(
        (_block_ascent(objective, x0, n_blocks) for x0 in starts), key=lambda r: r[0])
    return Locc1Result(float(value), params, len(starts), converged)


# ---------------------------------------------------------------- inequality checks

@dataclass(frozen=True)
class InequalityReport:
    name: str
    lhs: float
    rhs: float
    holds: bool
    detail: dict = field(default_factory=dict)


def gentle_measurement_check(e_op, tau, sigma, locc1_estimate=None) -> InequalityReport:
    """Check Tr[E sigma] >= Tr[E tau] - 2 D(tau, sigma).

    The trace distance upper-bounds the sequential-measurement distance, so
    the check is conservative and must always pass; an optional lower-bound
    estimate of the latter is echoed for context.
    """
    e_op = np.asarray(e_op, dtype=complex)
    vals = np.linalg.eigvalsh(e_op)
    if vals[0] < -1e-10 or vals[-1] > 1 + 1e-10:
        raise ValueError("measurement operator must satisfy 0 <= E <= 1")
    rt, rs = qcore.as_density(tau), qcore.as_density(sigma)
    d = qcore.trace_distance(rt, rs)
    lhs = float(np.trace(e_op @ rs.data).real)
    rhs = float(np.trace(e_op @ rt.data).real) - 2.0 * d
    detail = {"trace_distance": d}
    if locc1_estimate is not None:
        detail["locc1_estimate"] = float(locc1_estimate)
    return InequalityReport("gentle_measurement", lhs, rhs, lhs >= rhs - 1e-10, detail)


def uniform_continuity_bound(a: float, K: int, distance: float) -> float:
    """Right-hand side 2 a K * distance of the local-observable continuity bound."""
    if a < 0:
        raise ValueError("operator-norm bound must be nonnegative")
    if K < 1:
        raise ValueError("term count must be >= 1")
    return 2.0 * a * K * distance


def definetti_inequality_check(sigma, m: int, k: int, mixture, restarts=8,
                               rng=None) -> InequalityReport:
    """Compare a sequential-distance lower-bound estimate between the k-party
    marginal of a permutation-invariant m-party qubit state and an explicit
    product-state mixture against (k-1) sqrt(log2(d) / (2 (m-k))).
    """
    if m > 4:
        raise ValueError("at most 4 parties supported")
    if not 1 <= k < m:
        raise ValueError("need 1 <= k < m")
    rho = qcore.as_density(sigma)
    if rho.dim != 2 ** m:
        raise qcore.DimensionMismatchError("state is not an m-qubit state")
    reduced = qcore.partial_trace(rho, [2] * m, list(range(k)))
    target = np.zeros((2 ** k, 2 ** k), dtype=complex)
    total_w = 0.0
    for w, comp in mixture:
        comp = qcore.as_density(comp)
        if comp.dim != 2:
            raise qcore.DimensionMismatchError("mixture components must be single-qubit")
        target += w * qcore.kron_power(comp.data, k)
        total_w += w
    if abs(total_w - 1.0) > 1e-9:
        raise ValueError("mixture weights must sum to 1")
    target = qcore.DensityMatrix(target / total_w)
    result = locc1_lower_bound(reduced, target, dims=[2] * k, restarts=restarts, rng=rng)
    bound = (k - 1) * math.sqrt(math.log2(2) / (2.0 * (m - k)))
    return InequalityReport(
        "definetti", result.lower_bound, bound, result.lower_bound <= bound + 1e-9,
        {"m": m, "k": k, "converged": result.converged},
    )


# ---------------------------------------------------------------- verification suites

def _random_measurement_operator(dim, rng):
    basis = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
    return (basis * rng.uniform(0, 1, size=dim)) @ basis.conj().T


def _random_local_observable(rng, max_terms=3):
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


@dataclass
class SuiteResult:
    name: str
    checks: int
    violations: int

    @property
    def passed(self) -> bool:
        return self.violations == 0


def run_inequality_suites(seed=20240001, restarts=6, inject_violation=False):
    """Run the fixed-seed inequality property suites; returns SuiteResults.

    Suites: the two-sided fidelity/trace-distance inequality on random
    pairs, the gentle-measurement check on random triples, uniform
    continuity for local observables, the iid product-mixture case of the
    marginal-vs-mixture bound, and lower-bound-vs-trace-distance sanity of
    the sequential-measurement optimizer.  ``inject_violation`` appends one
    deliberately failed check so harness error paths can be exercised.
    """
    rng = np.random.default_rng(seed)
    results = []

    checks = violations = 0
    for dim in (2, 4, 8):
        for _ in range(200):
            a = qcore.random_density_matrix(dim, rng)
            b = qcore.random_density_matrix(dim, rng)
            f = qcore.fidelity(a, b)
            d = qcore.trace_distance(a, b)
            checks += 1
            if not (1 - math.sqrt(f) <= d + 1e-9 and d <= math.sqrt(1 - f) + 1e-9):
                violations += 1
    results.append(SuiteResult("fuchs_van_de_graaf", checks, violations))

    checks = violations = 0
    for _ in range(100):
        e_op = _random_measurement_operator(4, rng)
        tau = qcore.random_density_matrix(4, rng)
        sig = qcore.random_density_matrix(4, rng)
        checks += 1
        if not gentle_measurement_check(e_op, tau, sig).holds:
            violations += 1
    results.append(SuiteResult("gentle_measurement", checks, violations))

    checks = violations = 0
    for _ in range(100):
        obs, a, K = _random_local_observable(rng)
        s1 = qcore.random_density_matrix(4, rng)
        s2 = qcore.random_density_matrix(4, rng)
        lhs = abs(np.trace(obs @ (s1.data - s2.data)).real)
        rhs = uniform_continuity_bound(a, K, qcore.trace_distance(s1, s2))
        checks += 1
        if lhs > rhs + 1e-9:
            violations += 1
    results.append(SuiteResult("uniform_continuity", checks, violations))

    checks = violations = 0
    comp = qcore.random_density_matrix(2, rng)
    iid = qcore.DensityMatrix(qcore.kron_power(comp.data, 3))
    report = definetti_inequality_check(iid, m=3, k=2, mixture=[(1.0, comp)],
                                        restarts=2, rng=rng)
    checks += 1
    if not (report.lhs <= 1e-9 <= report.rhs + 1e-12 and report.holds):
        violations += 1
    results.append(SuiteResult("definetti_iid", checks, violations))

    checks = violations = 0
    for _ in range(50):
        a = qcore.random_density_matrix(4, rng)
        b = qcore.random_density_matrix(4, rng)
        res = locc1_lower_bound(a, b, dims=[2, 2], restarts=restarts, rng=rng)
        checks += 1
        if res.lower_bound > qcore.trace_distance(a, b) + 1e-9:
            violations += 1
    results.append(SuiteResult("locc1_vs_trace_distance", checks, violations))

    if inject_violation:
        results.append(SuiteResult("injected_negated_inequality", 1, 1))
    return results
