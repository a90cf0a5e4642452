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

from . import qcore, stats

MODES = ("one_way_gc", "one_way_individual", "two_way_gc")
VARIANTS = ("entanglement", "mub")

UNITARY_TOL = 1e-10
# Largest count (T, N_d, n, N_e) a bound takes: the formulas do float
# arithmetic on the counts, which is exact up to 2^53.
MAX_COUNT = 2 ** 53


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

    N_d = 0 returns the limit N_d -> 0: inf, so that epsilon0 and both
    collective bounds are inf when no round was discarded, and 0 at T = 1,
    where the prefactor vanishes.
    """
    qcore.integer("round count T", T, 1, MAX_COUNT)
    qcore.integer("discarded-round count N_d", N_d, 0, T - 1)
    qcore.integer("qubit count n", n, 1, MAX_COUNT)
    if N_d == 0:
        return math.inf if T > 1 else 0.0
    return (T - N_d - 1) * math.sqrt(n / (2.0 * N_d))


def epsilon0(mode: str, variant: str, threshold: float, T=None, N_d=None, n=None,
             phi=None) -> float:
    """Composed tamper threshold for the requested mode and protocol variant.

    The entanglement variant carries the 2/3 rescaling of the raw threshold;
    the direct-probe variant uses it unscaled.  Collective modes add four
    times the symmetry term under the square root in the one-way case; the
    two-way direct-probe formula uses coefficient two instead (the two
    source formulas are deliberately kept distinct, never unified), and both
    two-way forms add sin(min(n*|phi|, pi/2)) for the undetectable
    re-rotation, so that like both bounds it is even in phi.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    qcore.real("threshold", threshold, 0)
    if mode == "one_way_individual":  # the counts play no part, but any given is checked
        for name, value, low in (("round count T", T, 1), ("discarded-round count N_d", N_d, 0),
                                 ("qubit count n", n, 1)):
            if value is not None:
                qcore.integer(name, value, low, MAX_COUNT)
        return math.sqrt(2.0 / 3.0) * threshold if variant == "entanglement" else threshold
    f = f_definetti(T, N_d, n)
    coef = 2.0 if (mode == "two_way_gc" and variant == "mub") else 4.0
    square = stats.squared(threshold)
    inner = (2.0 / 3.0) * square if variant == "entanglement" else square
    value = math.sqrt(inner + coef * f)
    if mode == "two_way_gc":
        qcore.real("phi", phi)
        value += math.sin(min(n * abs(phi), math.pi / 2))
    return value


# |sin(2 n phi)| below this is treated as an exact zero of the denominator;
# sweeps crossing those points get a distinguished infinity, not an error.
SIN_FLOOR = 1e-12


def _sine_denominator(eps0, n, phi):
    """n |sin(2 n phi)|, once both bounds' inputs are checked; eps0 may be +inf."""
    qcore.integer("qubit count n", n, 1, MAX_COUNT)
    # +inf, the eps0 of a finite threshold whose square overflows, stays valid
    if eps0 != math.inf:
        qcore.real("eps0", eps0, 0)
    qcore.real("phi", phi)
    return n * abs(math.sin(2 * n * phi))


def bias_bound(eps0: float, n: int, phi: float) -> float:
    """eps0 / (n |sin(2 n phi)|); infinite where the denominator vanishes."""
    denom = _sine_denominator(eps0, n, phi)
    if denom < SIN_FLOOR:
        return math.inf
    return eps0 / denom


def variance_bound(eps0: float, n: int, phi: float, mode: str, N_e=None) -> float:
    """Variance-difference bound for the requested attack mode."""
    denom = _sine_denominator(eps0, n, phi) ** 2
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if N_e is not None or mode == "one_way_individual":  # any N_e given is checked
        qcore.integer("estimation-round count N_e", N_e, 1, MAX_COUNT)
    if mode == "one_way_individual":
        numer = 2.0 * eps0 / N_e + stats.squared(eps0)
    else:
        numer = 2.0 * eps0 + stats.squared(eps0)
    if denom < SIN_FLOOR ** 2:
        return math.inf
    return numer / denom


def bound_report(mode, variant, threshold, n, phi, T=None, N_d=None, N_e=None) -> BoundReport:
    """Bundle f, eps0 and both bounds for one operating point."""
    f_value = None if mode == "one_way_individual" else f_definetti(T, N_d, n)
    e0 = epsilon0(mode, variant, threshold, T=T, N_d=N_d, n=n, phi=phi)
    return BoundReport(mode, variant, f_value, e0, bias_bound(e0, n, phi),
                       variance_bound(e0, n, phi, mode, N_e=N_e), phi, n, T, N_d, N_e)


# ---------------------------------------------------------------- arc length

def delta_arc(u) -> float:
    """Minimal arc length on the unit circle containing all eigenvalue phases.

    Computed by sorting the phases and subtracting the largest gap from 2*pi.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1] or not u.size or not np.isfinite(u).all():
        raise ValueError("u must be a nonempty square matrix of finite numbers")
    # a unitary's entries have modulus <= 1: a larger one is refused before u u^H can overflow
    if not (np.abs(u).max() <= 1 + UNITARY_TOL
            and np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0]))) <= UNITARY_TOL):
        raise ValueError("u must be unitary within tolerance")
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
# The verification suites' memory: _STACK_PAIRS pairs per stack of states (200 add 1.9 MB
# to the suites' peak RSS), and _PASS_POINTS (pair, candidate) points per optimizer slice:
# one pair (70 KB) of the 544-point grid, 40 pairs of a 25-point refinement grid.
_STACK_PAIRS, _PASS_POINTS = 25, 1024


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


def _projector_rows(angles):
    """Outcome i's projector entries conj(v_ia) v_ib, flattened over (a, b),
    in the qubit bases of a (..., 2) stack of Bloch angles: (..., 2, 4)."""
    bases = _qubit_bases(angles)
    projs = np.einsum("...ai,...bi->...iab", bases.conj(), bases)
    return projs.reshape(projs.shape[:-2] + (4,))


def _sequential_distances(delta, n_parties, params):
    """Distance reached by each parameter vector of a (..., K, 2 * blocks)
    stack against a (..., d, d) stack of difference operators: (..., K).

    After outcome history h, party j measures in the basis of block
    2^j - 1 + h.  The first party's K bases meet each operator's (a, b)
    blocks in one (2K, 4) by (4, rest * rest) product; a later party's bases
    meet their own candidate's blocks.  The last party measures each
    conditional difference operator in its eigenbasis, which is optimal
    there, so every value is attained by an explicit sequential measurement.
    """
    angles = params.reshape(params.shape[:-1] + (-1, 2))
    lead = np.broadcast_shapes(delta.shape[:-2], params.shape[:-2]) + params.shape[-2:-1]
    ops = delta
    for j in range(n_parties - 1):
        histories, rest = 2 ** j, ops.shape[-1] // 2
        projs = _projector_rows(angles[..., histories - 1:2 * histories - 1, :])
        if j == 0:  # (..., K, 1, 2, 4) -> (..., 2K, 4), one product per operator
            projs = projs.reshape(params.shape[:-2] + (-1, 4))
        blocks = ops.reshape(ops.shape[:-2] + (2, rest, 2, rest)).swapaxes(-3, -2)
        ops = projs @ blocks.reshape(blocks.shape[:-4] + (4, rest * rest))
        ops = ops.reshape(lead + (2 * histories, rest, rest))
    return _half_trace_norm_qubit(ops).sum(axis=-1)


def _maximize_block(objective, values, params, block):
    """Best (values, params) of each pair when only one block's angles vary."""
    cols = slice(2 * block, 2 * block + 2)
    rows = np.arange(len(params))

    def improve(values, params, angles):
        if angles.ndim == 2 and params.shape[1] == 2:  # one block: every pair's stack
            stack = angles
        else:
            stack = np.repeat(params[:, None], angles.shape[-2], axis=1)
            stack[..., cols] = angles
        trial = objective(stack)
        top, best = trial.max(axis=1), trial.argmax(axis=1)
        stack = np.broadcast_to(stack, trial.shape + params.shape[1:])[rows, best]
        return np.where(top > values, top, values), np.where((top > values)[:, None], stack, params)

    values, params = improve(values, params, _GRID)
    step = _GRID_STEP
    for _ in range(_REFINE_ROUNDS):
        values, params = improve(values, params, params[:, None, cols] + _REFINE_OFFSETS * step)
        step = step / 2
    return values, params


def _shared_distances(deltas, angles):
    """Two-party distances of a (P, 4, 4) stack of difference operators at a
    (K, 2) stack of Bloch angles shared by every pair: (P, K).  The (2K, 4)
    projector rows are built once, and each slice of _PASS_POINTS // K pairs
    (at least one) is one product with its (a, b) blocks, (4, 4 * pairs)."""
    step = max(1, _PASS_POINTS // len(angles))
    projs, values = _projector_rows(angles).reshape(-1, 4), []
    for p in range(0, len(deltas), step):  # (a, b) x (pair, r, s) blocks
        blocks = deltas[p:p + step].reshape(-1, 2, 2, 2, 2).transpose(1, 3, 0, 2, 4)
        ops = (projs @ blocks.reshape(4, -1)).reshape(len(angles), 2, -1, 2, 2)
        values.append(_half_trace_norm_qubit(ops).sum(axis=1).T)
    return np.concatenate(values)


def _block_ascent(deltas, n_parties, params):
    """Maximize each block of each pair's start, a row of params, in turn
    until a sweep gains less than _SWEEP_TOL on every pair; a single block
    is done after one sweep, since a second would repeat it.  The two-party
    grid, one candidate stack for every pair, is scored by _shared_distances."""
    n_blocks = params.shape[1] // 2

    def objective(stack):  # (K, 2) shared by every pair, or (P, K, 2 * blocks)
        if stack.ndim == 2:
            return _shared_distances(deltas, stack)
        step = max(1, _PASS_POINTS // stack.shape[-2])
        return np.concatenate([_sequential_distances(deltas[p:p + step], n_parties,
                                                     stack[p:p + step])
                               for p in range(0, len(deltas), step)])

    values = objective(params[:, None])[:, 0]
    for _ in range(_MAX_SWEEPS):
        start = values
        for block in range(n_blocks):
            values, params = _maximize_block(objective, values, params, block)
        if n_blocks == 1 or (values - start < _SWEEP_TOL).all():
            return values, params, True
    return values, params, False


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
    qcore.integer("restarts", restarts, 1)
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
    values, params, converged = max(
        (_block_ascent(delta[None], len(dims), x0[None]) for x0 in starts),
        key=lambda r: r[0][0])
    return Locc1Result(float(values[0]), params[0], len(starts), converged)


# ---------------------------------------------------------------- inequality checks

@dataclass(frozen=True)
class InequalityReport:
    name: str
    lhs: float
    rhs: float
    holds: bool
    detail: dict = field(default_factory=dict)


def _gentle_sides(e_ops, tau, sigma):
    """Tr[E sigma], Tr[E tau] - 2 D(tau, sigma) and D(tau, sigma) for (..., d, d)
    stacks of measurement operators, checked here, and checked states."""
    e_ops = np.asarray(e_ops, dtype=complex)
    if not np.abs(e_ops - e_ops.conj().swapaxes(-1, -2)).max() <= qcore.HERMITIAN_TOL:
        raise ValueError("measurement operator is not Hermitian within tolerance")
    vals = np.linalg.eigvalsh(e_ops)
    if (vals[..., 0] < -1e-10).any() or (vals[..., -1] > 1 + 1e-10).any():
        raise ValueError("measurement operator must satisfy 0 <= E <= 1")
    d = qcore.trace_distance_stack(tau, sigma)
    lhs = np.trace(e_ops @ sigma, axis1=-2, axis2=-1).real
    return lhs, np.trace(e_ops @ tau, axis1=-2, axis2=-1).real - 2.0 * d, d


def gentle_measurement_check(e_op, tau, sigma) -> InequalityReport:
    """Check Tr[E sigma] >= Tr[E tau] - 2 D(tau, sigma).

    The trace distance upper-bounds the sequential-measurement distance, so
    the check is conservative and must always pass.
    """
    rt, rs = qcore.as_density(tau), qcore.as_density(sigma)
    lhs, rhs, d = (float(x) for x in _gentle_sides(e_op, rt.data, rs.data))
    return InequalityReport("gentle_measurement", lhs, rhs, lhs >= rhs - 1e-10,
                            {"trace_distance": d})


def uniform_continuity_bound(a, K, distance):
    """Right-hand side 2 a K * distance of the local-observable continuity
    bound for an integer count K >= 1 of terms; arrays give one bound each."""
    a, distance = np.asarray(a, dtype=float), np.asarray(distance, dtype=float)
    if not (np.isfinite(a) & (a >= 0)).all():
        raise ValueError("operator-norm bound must be finite and nonnegative")
    K = np.asarray(K)
    if K.dtype.kind not in "iu" or (K < 1).any():
        raise ValueError("term count must be an integer >= 1")
    if not (np.isfinite(distance) & (distance >= 0)).all():
        raise ValueError("distance must be finite and nonnegative")
    return 2.0 * a * K * distance


def definetti_inequality_check(sigma, m: int, k: int, mixture, restarts=8,
                               rng=None) -> InequalityReport:
    """Compare a sequential-distance lower-bound estimate between the k-party
    marginal of a permutation-invariant m-party qubit state and an explicit
    product-state mixture against (k-1) sqrt(log2(d) / (2 (m-k))).
    """
    m = qcore.integer("m", m, 2, 4)  # at most 4 parties
    k = qcore.integer("k", k, 1, m - 1)
    rho = qcore.as_density(sigma)
    if rho.dim != 2 ** m:
        raise qcore.DimensionMismatchError("state is not an m-qubit state")
    reduced = qcore.partial_trace(rho, [2] * m, list(range(k)))
    target = np.zeros((2 ** k, 2 ** k), dtype=complex)
    total_w = 0.0
    for i, (w, comp) in enumerate(mixture):
        weight = qcore.real(f"mixture weight {i}", w, 0)  # i indexes ``mixture``, from 0
        comp = qcore.as_density(comp)
        if comp.dim != 2:
            raise qcore.DimensionMismatchError("mixture components must be single-qubit")
        target += weight * qcore.kron_power(comp.data, k)
        total_w += weight
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

def _fuchs_van_de_graaf(rng):
    """1 - sqrt F <= D <= sqrt(1 - F) on 200 random pairs of each dimension 2, 4, 8."""
    sides = []
    for dim in np.repeat((2, 4, 8), 200 // _STACK_PAIRS):
        a, b = qcore.ginibre_states(rng.normal(size=(_STACK_PAIRS, 2, 2, dim, dim))).swapaxes(0, 1)
        f, d = qcore.fidelity_stack(a, b), qcore.trace_distance_stack(a, b)
        sides.append(np.stack([[1 - np.sqrt(f), d], [d, np.sqrt(1 - f)]], axis=-1))
    return tuple(np.concatenate(sides, axis=1))


def _gentle_measurement(rng):
    """Gentle measurement on 100 random two-qubit (E, tau, sigma) triples."""
    draws = [(rng.normal(size=(2, 4, 4)), rng.uniform(0, 1, size=4),
              rng.normal(size=(2, 2, 4, 4))) for _ in range(100)]
    normals, weights, states = (np.array(x) for x in zip(*draws))
    basis = np.linalg.qr(normals[:, 0] + 1j * normals[:, 1])[0]
    e_ops = (basis * weights[:, None]) @ basis.conj().swapaxes(-1, -2)
    tau, sigma = qcore.ginibre_states(states).swapaxes(0, 1)
    return _gentle_sides(e_ops, tau, sigma)[:2]


def _uniform_continuity(rng):
    """|Tr[O (s1 - s2)]| <= 2 a K D(s1, s2) for 100 random sums O of K product terms."""
    counts, normals, states = [], [], []
    for _ in range(100):
        counts.append(int(rng.integers(1, 4)))
        normals.append(rng.normal(size=(counts[-1], 2, 2, 2, 2)))  # term, factor, re/im
        states.append(rng.normal(size=(2, 2, 4, 4)))
    g = np.concatenate(normals)
    h = g[:, :, 0] + 1j * g[:, :, 1]
    h = h + h.conj().swapaxes(-1, -2)
    terms = np.einsum("tij,tkl->tikjl", h[:, 0], h[:, 1]).reshape(-1, 4, 4)
    starts = np.cumsum(counts) - counts
    a = np.maximum.reduceat(np.abs(np.linalg.eigvalsh(terms)).max(axis=-1), starts)
    s1, s2 = qcore.ginibre_states(np.array(states)).swapaxes(0, 1)
    lhs = np.abs(np.trace(np.add.reduceat(terms, starts) @ (s1 - s2), axis1=-2, axis2=-1).real)
    return lhs, uniform_continuity_bound(a, np.array(counts), qcore.trace_distance_stack(s1, s2))


def _definetti_iid(rng):
    """The marginal-vs-mixture check on a random iid three-qubit state."""
    comp = qcore.random_density_matrix(2, rng)
    iid = qcore.DensityMatrix(qcore.kron_power(comp.data, 3))
    report = definetti_inequality_check(iid, m=3, k=2, mixture=[(1.0, comp)])
    return np.array([report.lhs]), np.array([report.rhs])


def _locc1_vs_trace_distance(rng):
    """The LOCC1 bound of 50 random two-qubit pairs against their trace distance."""
    a, b = qcore.ginibre_states(rng.normal(size=(50, 2, 2, 4, 4))).swapaxes(0, 1)
    return _block_ascent(a - b, 2, np.zeros((50, 2)))[0], qcore.trace_distance_stack(a, b)


_SUITES = (  # (name, suite, which of its checks hold)
    ("fuchs_van_de_graaf", _fuchs_van_de_graaf, lambda lhs, rhs: (lhs <= rhs + 1e-9).all(-1)),
    ("gentle_measurement", _gentle_measurement, lambda lhs, rhs: lhs >= rhs - 1e-10),
    ("uniform_continuity", _uniform_continuity, lambda lhs, rhs: lhs <= rhs + 1e-9),
    ("definetti_iid", _definetti_iid,
     lambda lhs, rhs: (lhs <= 1e-9) & (1e-9 <= rhs + 1e-12) & (lhs <= rhs + 1e-9)),
    ("locc1_vs_trace_distance", _locc1_vs_trace_distance, lambda lhs, rhs: lhs <= rhs + 1e-9),
)


@dataclass
class SuiteResult:
    name: str
    checks: int
    violations: int

    @property
    def passed(self) -> bool:
        return self.violations == 0


def run_inequality_suites(seed=20240001, inject_violation=False):
    """Run the fixed-seed inequality property suites; returns SuiteResults.

    Suites: the two-sided fidelity/trace-distance inequality on random
    pairs, the gentle-measurement check on random triples, uniform
    continuity for local observables, the iid product-mixture case of the
    marginal-vs-mixture bound, and lower-bound-vs-trace-distance sanity of
    the sequential-measurement optimizer.  Each suite draws the states that
    checking one at a time would, in the same order, from the one generator,
    and returns per-check (lhs, rhs) arrays from validated stacks; the 50
    two-party optimizer searches run as one search over a pair axis, one
    start each, drawing nothing from ``rng``.
    ``inject_violation`` appends one deliberately failed check so harness
    error paths can be exercised.
    """
    rng = np.random.default_rng(seed)
    results = []
    for name, suite, holds in _SUITES:
        lhs, rhs = suite(rng)
        results.append(SuiteResult(name, len(lhs), int(np.count_nonzero(~holds(lhs, rhs)))))
    if inject_violation:
        results.append(SuiteResult("injected_negated_inequality", 1, 1))
    return results
