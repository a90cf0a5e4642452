"""Round-based execution of the one- and two-way sensing protocols.

Each round: prepare a probe, let the adversary intercept the forward leg,
draw the sensor's action (check / encode / discard), encode the phase where
chosen, let the adversary intercept the return leg in two-way operation,
then measure with randomized settings.  Reconciliation sifts the rounds
whose settings match, the check rounds feed the fidelity threshold and the
estimation rounds feed the phase estimator.

Both variants run on one probe core: the 2^n-dimensional probe prepared in
one of the six signed logical eigenstates ``qcore.SIGNED_LABELS``.  In the
direct-probe (MUB) variant the provider prepares that state.  In the
entanglement variant the provider's measurement acts only on the
provider's own qubit of the resource state, so it commutes with everything
the channel, the adversary and the sensor do; a provider outcome s (uniform
+-1) on one axis leaves the sensor holding the eigenstate s of the partner
logical axis (X <-> Z, Y <-> Y).  Simulating that conditional probe is
exact (the equivalence of the two formulations), and the provider's
(axis, outcome) is a view of the probe label.

Memoryless attacks run on a vectorized fast path: every (action, settings)
combination has a fixed joint outcome distribution which is computed once,
exactly, and then sampled per round.  Quantum-memory attacks run on explicit
register states, a batch of independent blocks at a time: the engine steps
through the at most three positions inside a block, and each step runs that
position's round of every block in the batch at once.  Both paths draw
randomness in a fixed documented order, so a seed fully determines the
transcript.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from . import qcore, stats

VARIANTS = ("entanglement", "mub")
DIRECTIONS = ("one_way", "two_way")
ACTIONS = ("check", "encode", "discard")
SIFT_STATUSES = ("discarded", "kept_check", "kept_estimation")

AXES = ("X", "Y", "Z")
ENCODE_AXES = ("X", "Z")
# (provider axis, sensor logical axis) pairs kept after sifting
CHECK_PAIRS = (("X", "Z"), ("Z", "X"), ("Y", "Y"))
ESTIMATION_PAIRS = (("X", "Z"), ("Z", "X"))

_B_ABSENT = -9  # sensor outcome sentinel; 0 is a real (leak) outcome


class InsufficientRoundsError(RuntimeError):
    """A required correlator has no kept rounds to estimate it from."""


class UnsupportedAttackError(ValueError):
    """The attack cannot run under this protocol configuration."""


@dataclass(frozen=True)
class ProtocolConfig:
    """All protocol knobs for one run."""

    variant: str
    direction: str
    n: int
    T: int
    p_c: float
    p_e: float
    p_d: float
    epsilon_threshold: float
    true_phi: float
    seed: int

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.direction not in DIRECTIONS:
            raise ValueError(f"unknown direction {self.direction!r}")
        if self.n < 1:
            raise ValueError("need at least one probe qubit")
        if self.T < 1:
            raise ValueError("need at least one round")
        for name in ("p_c", "p_e", "p_d", "epsilon_threshold", "true_phi"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        for name in ("p_c", "p_e", "p_d"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if abs(self.p_c + self.p_e + self.p_d - 1.0) > 1e-12:
            raise ValueError("action probabilities must sum to 1")
        if self.epsilon_threshold < 0:
            raise ValueError("safety threshold must be nonnegative")
        if not 0 <= int(self.seed) < 2 ** 64:
            raise ValueError("seed must be a 64-bit unsigned integer")

    def public(self) -> dict:
        """Protocol parameters the adversary legitimately knows."""
        return {
            "variant": self.variant,
            "direction": self.direction,
            "n": self.n,
            "T": self.T,
            "p_c": self.p_c,
            "p_e": self.p_e,
            "p_d": self.p_d,
            "epsilon_threshold": self.epsilon_threshold,
        }

    def config_hash(self) -> str:
        payload = {
            "variant": self.variant, "direction": self.direction, "n": self.n,
            "T": self.T, "p_c": repr(self.p_c), "p_e": repr(self.p_e),
            "p_d": repr(self.p_d), "epsilon_threshold": repr(self.epsilon_threshold),
            "true_phi": repr(self.true_phi), "seed": int(self.seed),
        }
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


@dataclass(frozen=True)
class CheckResult:
    fidelity_estimate: float | dict
    passed: bool
    epsilon_implied: float
    correlator_means: dict
    sample_counts: dict


@dataclass(frozen=True)
class EstimateResult:
    phi_hat: float
    correlator_means: dict
    sample_counts: dict
    standard_error: float


def _axis_index(axis: str) -> int:
    return AXES.index(axis)


_LABEL_AXIS = np.array([_axis_index(qcore.parse_probe_label(lab)[0])
                        for lab in qcore.SIGNED_LABELS], dtype=np.int8)
_LABEL_SIGN = np.array([qcore.parse_probe_label(lab)[1]
                        for lab in qcore.SIGNED_LABELS], dtype=np.int8)

# Entanglement variant: the provider's axis and the sensor's probe axis it
# heralds.  The relation is its own inverse.
_PARTNER = {"X": "Z", "Y": "Y", "Z": "X"}


def _provider_view(label_index: int) -> tuple:
    """The entanglement-variant provider's (axis, outcome) behind a probe label."""
    axis, sign = qcore.parse_probe_label(qcore.SIGNED_LABELS[label_index])
    return _PARTNER[axis], sign


# Each fast-path outcome table is keyed on the first setting drawn in a
# round, and mixes the probe labels listed for that key with equal weight.
# Direct-probe variant: the key is the label.  Entanglement variant: the key
# is the provider's axis, and the provider's outcomes -1, +1 (the Pauli
# spectrum in ascending order) pick the two signed eigenstates of the
# partner axis.
_TABLE_KEYS = {
    "mub": tuple((li,) for li in range(len(qcore.SIGNED_LABELS))),
    "entanglement": tuple(
        tuple(qcore.SIGNED_LABELS.index(sign + _PARTNER[axis]) for sign in "-+")
        for axis in AXES),
}


class Transcript:
    """Ordered record of one protocol execution, one read-only column per field.

    ``action`` indexes ACTIONS, ``probe`` indexes ``qcore.SIGNED_LABELS``,
    ``bob_axis`` indexes AXES (-1 when the sensor did not measure),
    ``bob_out`` is +-1, 0 for a leak outcome or -9 when unmeasured, and
    ``status`` indexes SIFT_STATUSES.

    Both variants record the probe label.  In the entanglement variant it
    is the state the provider's measurement left the sensor with: the
    provider's axis is the partner of the label's axis (X <-> Z, Y <-> Y)
    and the provider's outcome is the label's sign, which is what the
    serialized transcript reports.  Serialization discloses check-round
    outcomes before estimation-round outcomes (reverse-reconciliation
    ordering).
    """

    def __init__(self, config, action, probe, bob_axis, bob_out, status):
        self.config = config
        self.action, self.probe, self.bob_axis, self.bob_out, self.status = (
            _read_only(c) for c in (action, probe, bob_axis, bob_out, status))

    @property
    def N_c(self) -> int:
        return int(np.sum(self.status == 1))

    @property
    def N_e(self) -> int:
        return int(np.sum(self.status == 2))

    @property
    def N_d(self) -> int:
        return int(np.sum(self.action == 2))

    @property
    def N_sifted_away(self) -> int:
        return int(np.sum((self.status == 0) & (self.action != 2)))

    @property
    def N_leak(self) -> int:
        return int(np.sum((self.status > 0) & (self.bob_out == 0)))

    @property
    def leak_rate(self) -> float:
        kept = self.N_c + self.N_e
        return self.N_leak / kept if kept else 0.0

    def config_hash(self) -> str:
        return self.config.config_hash()

    def _row_suffix(self, i) -> str:
        """Every field of round ``i`` after its index, tab-separated."""
        if self.config.variant == "entanglement":
            axis, sign = _provider_view(self.probe[i])
            provider = [axis, str(sign), "NA"]
        else:
            provider = ["NA", "NA", qcore.SIGNED_LABELS[self.probe[i]]]
        b_axis, b_out = int(self.bob_axis[i]), int(self.bob_out[i])
        return "\t" + "\t".join([
            ACTIONS[self.action[i]], *provider,
            "NA" if b_axis < 0 else AXES[b_axis],
            "NA" if b_out == _B_ABSENT else str(b_out),
            SIFT_STATUSES[self.status[i]],
        ]) + "\n"

    def serialize(self, target) -> None:
        """Write the line-oriented transcript; check rounds disclosed first."""
        own = isinstance(target, (str, bytes))
        fh = open(target, "w", encoding="utf-8") if own else target
        try:
            cfg = self.config
            fh.write("#dqs-transcript v1\n")
            fh.write(f"#config_hash\t{self.config_hash()}\n")
            fh.write(f"#seed\t{int(cfg.seed)}\n")
            fh.write(f"#variant\t{cfg.variant}\n")
            fh.write(f"#direction\t{cfg.direction}\n")
            fh.write(f"#n\t{cfg.n}\n")
            fh.write(f"#T\t{cfg.T}\n")
            fh.write("#columns\tindex\taction\talice_obs\talice_out\tprobe"
                     "\tbob_obs\tbob_out\tstatus\n")
            order = np.concatenate([
                np.flatnonzero(self.status == 1),
                np.flatnonzero(self.status == 2),
                np.flatnonzero(self.status == 0),
            ])
            # a row is its index plus a suffix fixed by the round's code
            # (action x label x sensor axis x outcome x status, < 864 values)
            code = self.action.astype(np.int32) * 6 + self.probe
            code = code * 4 + self.bob_axis + 1
            code = code * 4 + np.where(self.bob_out == _B_ABSENT, 0, self.bob_out + 2)
            code = code * 3 + self.status
            _codes, first, which = np.unique(code[order], return_index=True,
                                             return_inverse=True)
            suffixes = [self._row_suffix(order[f]) for f in first]
            fh.writelines(map(str.__add__, map(str, order.tolist()),
                              map(suffixes.__getitem__, which.tolist())))
        finally:
            if own:
                fh.close()

    def serialized(self) -> str:
        buf = io.StringIO()
        self.serialize(buf)
        return buf.getvalue()


def _read_only(column):
    column = np.array(column, dtype=np.int8)
    column.setflags(write=False)
    return column


def parse_transcript(text: str):
    """Parse a serialized transcript into (header dict, list of row dicts)."""
    header, rows = {}, []
    columns = None
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("#"):
            parts = line[1:].split("\t")
            if parts[0] == "columns":
                columns = parts[1:]
            elif len(parts) == 2:
                header[parts[0]] = parts[1]
            continue
        values = line.split("\t")
        rows.append(dict(zip(columns, values)))
    return header, rows


# ---------------------------------------------------------------- run engine

class _Registry:
    """Per-run cache of the probe states and the sensor's observables."""

    def __init__(self, config):
        self.config = config
        self.frame = qcore.LogicalFrame.standard(config.n)
        self.bold = {a: qcore.bold_pauli(self.frame, a) for a in AXES}
        self.encoder = qcore.encoding_unitary(config.n, config.true_phi)
        self.probe_dim = 2 ** config.n
        self.probes = np.array([qcore.mub_probe(self.frame, lab).density().data
                                for lab in qcore.SIGNED_LABELS])
        # the trivial measurement written on the sensor's spectrum, so that
        # discarded rounds share a batch with measured ones: it always
        # yields the last eigenvalue and leaves the state as it is
        values = self.bold["X"].eigenvalues
        eye = np.eye(self.probe_dim, dtype=complex)
        self.unmeasured = qcore.Observable(
            eye, values, (np.zeros_like(eye),) * (len(values) - 1) + (eye,))


def _wants_records(attack) -> bool:
    from .adversary import AttackModel
    return type(attack).record_round is not AttackModel.record_round


class _OutcomeTable:
    """Joint distribution over (forward branch, backward branch, probe label,
    sensor outcome), flattened in that order and sampled by inverse CDF."""

    __slots__ = ("fwd", "bwd", "probe", "b", "cdf", "labels_f", "labels_b")

    def __init__(self, probs, labels, b_values, labels_f, labels_b):
        flat = np.clip(probs.ravel(), 0.0, None)
        total = flat.sum()
        if total <= 0:
            raise RuntimeError("degenerate outcome table")
        self.cdf = np.cumsum(flat / total)
        self.cdf[-1] = 1.0 + 1e-9
        f, bw, li, bi = np.indices(probs.shape).reshape(4, -1)
        self.fwd = f.astype(np.int16)
        self.bwd = bw.astype(np.int16)
        self.probe = np.array(labels, dtype=np.int8)[li]
        self.b = np.array(b_values, dtype=np.int8)[bi]
        self.labels_f = labels_f
        self.labels_b = labels_b

    def sample(self, u):
        idx = np.searchsorted(self.cdf, u)
        return self.fwd[idx], self.bwd[idx], self.probe[idx], self.b[idx]


def _branch_matrices(rho, branches):
    out = []
    for _label, weight, kraus in branches:
        m = np.zeros_like(rho)
        for k in kraus:
            m += k @ rho @ k.conj().T
        out.append(weight * m)
    return out


def _build_tables(reg, attack):
    """Exact joint outcome distributions for every (action, key, sensor pick).

    The six probe states are evolved once, unencoded and encoded; each
    table mixes the label distributions ``_TABLE_KEYS`` lists for its key.
    """
    cfg = reg.config
    fwd = attack.forward_branches(cfg.n, reg.frame)
    two_way = cfg.direction == "two_way"
    bwd = attack.backward_branches(cfg.n, reg.frame) if two_way else None
    labels_f = [br[0] for br in fwd]
    labels_b = [br[0] for br in bwd] if bwd else [None]

    def evolved(rho, encoded):
        mats = _branch_matrices(rho, fwd)
        if encoded:
            mats = [reg.encoder @ m @ reg.encoder.conj().T for m in mats]
        if bwd is None:
            return [[m] for m in mats]
        return [_branch_matrices(m, bwd) for m in mats]

    spectral = {axis: ([int(round(v)) for v in obs.eigenvalues], obs.eigenprojectors)
                for axis, obs in reg.bold.items()}
    # (action, sensor pick) -> (sensor axis, whether encoded); discard
    # rounds have the single sensor outcome "absent"
    settings = {(0, bi): (axis, False) for bi, axis in enumerate(AXES)}
    settings.update({(1, bi): (axis, True) for bi, axis in enumerate(ENCODE_AXES)})
    settings[2, 0] = (None, False)

    # (action, label, pick) -> probabilities over (forward, backward, outcome)
    born = {}
    for pl, rho in enumerate(reg.probes):
        grids = {enc: evolved(rho, enc) for enc in (False, True)}
        for (action, bi), (axis, enc) in settings.items():
            born[action, pl, bi] = np.array([
                [[np.trace(m).real] if axis is None
                 else [np.trace(p @ m).real for p in spectral[axis][1]]
                 for m in row]
                for row in grids[enc]])

    tables = {}
    for key, labels in enumerate(_TABLE_KEYS[cfg.variant]):
        for (action, bi), (axis, _enc) in settings.items():
            probs = np.stack([born[action, pl, bi] for pl in labels], axis=2)
            b_values = [_B_ABSENT] if axis is None else spectral[axis][0]
            tables[action, key, bi] = _OutcomeTable(probs / len(labels), labels, b_values,
                                                    labels_f, labels_b)
    return tables


def _sift_status(action, probe, bob_axis):
    """Keep the check and encode rounds measured on their probe's axis."""
    match = _LABEL_AXIS[probe] == bob_axis
    status = np.zeros(action.shape[0], dtype=np.int8)
    status[(action == 0) & match] = 1
    status[(action == 1) & match] = 2
    return status


def _sensor_settings(config, u_action, u_pick):
    """Each round's action, the sensor's pick among the axes its action
    allows (check X/Y/Z, encode X/Z, discard the single pick 0) and that
    pick as an index into AXES (-1 on discarded rounds)."""
    cum = np.array([config.p_c, config.p_c + config.p_e])
    action = np.searchsorted(cum, u_action, side="right").astype(np.int8)
    bob_pick = np.where(action == 0,
                        np.minimum((u_pick * 3).astype(np.int8), 2),
                        np.minimum((u_pick * 2).astype(np.int8), 1))
    bob_pick = np.where(action == 2, np.int8(0), bob_pick)
    enc_axis_lookup = np.array([_axis_index(a) for a in ENCODE_AXES], dtype=np.int8)
    bob_axis = np.where(action == 1, enc_axis_lookup[np.minimum(bob_pick, 1)], bob_pick)
    bob_axis = np.where(action == 2, np.int8(-1), bob_axis).astype(np.int8)
    return action, bob_pick, bob_axis


def _run_fast(config, attack, rng, reg) -> Transcript:
    T = config.T
    u = rng.random((4, T))
    action, bob_pick, bob_axis = _sensor_settings(config, u[0], u[2])
    n_keys = len(_TABLE_KEYS[config.variant])
    key = np.minimum((u[1] * n_keys).astype(np.int8), n_keys - 1)

    tables = _build_tables(reg, attack)
    fwd_sample = np.zeros(T, dtype=np.int16)
    bwd_sample = np.zeros(T, dtype=np.int16)
    probe = np.zeros(T, dtype=np.int8)
    b_out = np.full(T, _B_ABSENT, dtype=np.int8)
    for (act, k, bi), table in tables.items():
        mask = (action == act) & (key == k)
        if act != 2:
            mask &= bob_pick == bi
        if not mask.any():
            continue
        f, b, pl, bv = table.sample(u[3, mask])
        fwd_sample[mask], bwd_sample[mask], probe[mask], b_out[mask] = f, b, pl, bv

    if _wants_records(attack):
        some_table = next(iter(tables.values()))
        for i in range(T):
            attack.record_round(i, some_table.labels_f[fwd_sample[i]],
                                some_table.labels_b[bwd_sample[i]])
    return Transcript(config, action, probe, bob_axis, b_out,
                      _sift_status(action, probe, bob_axis))


# Byte budget of the register stack of one batch of blocks, for an
# adversary register no larger than the probe.  It keeps the stateful
# engine's working set to a few hundred kilobytes at every probe size.
_BATCH_BYTES = 1 << 18


def _run_stateful(config, attack, rng, reg) -> Transcript:
    """Quantum-memory attacks: independent blocks a batch at a time, one
    position inside the block after another, each position's round of every
    block in the batch run at once on a batched register state.

    Draw order: the settings of all T rounds (one (3, T) batch of
    uniforms), then, batch by batch and position by position, one uniform
    per round for each measurement the hooks and the sensor make, in call
    order.
    """
    T, L = config.T, attack.block_length
    u = rng.random((3, T))
    action, _pick, bob_axis = _sensor_settings(config, u[0], u[2])
    probe = np.minimum((u[1] * 6).astype(np.int8), 5)
    b_out = np.full(T, _B_ABSENT, dtype=np.int8)
    sensor = [reg.bold[a] for a in AXES] + [reg.unmeasured]
    which = np.where(action == 2, len(AXES), bob_axis)
    encoders = np.stack([np.eye(reg.probe_dim, dtype=complex), reg.encoder])

    per_batch = max(1, _BATCH_BYTES // (16 * reg.probe_dim ** 4 * L))
    n_blocks = -(-T // L)
    for first in range(0, n_blocks, per_batch):
        blocks = np.arange(first, min(first + per_batch, n_blocks))
        attack.begin_block(blocks.size, rng)
        for pos in range(L):
            t = blocks * L + pos
            t = t[t < T]
            if t.size == 0:
                break
            world = qcore.RegisterState(["B"], [reg.probe_dim], reg.probes[probe[t]])
            attack.forward_state(world, rng)
            world.apply_unitary(encoders[(action[t] == 1).astype(np.intp)], [world.probe])
            if config.direction == "two_way":
                attack.backward_state(world, rng)
            b_out[t] = np.rint(world.measure(sensor, world.probe, rng, which[t]))
            attack.end_round(world, rng)
    b_out[action == 2] = _B_ABSENT

    return Transcript(config, action, probe, bob_axis, b_out,
                      _sift_status(action, probe, bob_axis))


def run(config: ProtocolConfig, attack, rng=None) -> Transcript:
    """Execute T rounds against the given adversary; deterministic per seed."""
    if attack.requires_two_way and config.direction != "two_way":
        raise UnsupportedAttackError(f"attack {attack.name!r} requires two-way operation")
    rng = np.random.default_rng(config.seed) if rng is None else rng
    reg = _Registry(config)
    try:
        attack.on_run_start(config.public(), reg.frame)
    except ValueError as exc:
        raise UnsupportedAttackError(f"attack {attack.name!r}: {exc}") from exc
    if attack.forward_branches(config.n, reg.frame) is not None:
        return _run_fast(config, attack, rng, reg)
    return _run_stateful(config, attack, rng, reg)


# ---------------------------------------------------------------- reconciliation

def _kept_products(transcript, status_code):
    """Per-label +-1 products (sensor outcome times the label's sign) from
    the kept rounds with this status, leak outcomes excluded."""
    t = transcript
    kept = (t.status == status_code) & (t.bob_out != 0) & (t.bob_out != _B_ABSENT)
    return {label: (_LABEL_SIGN[li] * t.bob_out[kept & (t.probe == li)]).astype(float)
            for li, label in enumerate(qcore.SIGNED_LABELS)}


def _pooled(products, axis):
    """Products of both signed labels of one axis."""
    return np.concatenate([products["+" + axis], products["-" + axis]])


def estimation_products(transcript):
    """Pooled +-1 values from kept estimation rounds, in round order.

    Each is the sensor outcome times the probe label's sign, which in the
    entanglement variant is the provider's outcome.  Leak outcomes excluded.
    """
    t = transcript
    mask = (t.status == 2) & (t.bob_out != 0) & (t.bob_out != _B_ABSENT)
    return (_LABEL_SIGN[t.probe[mask]] * t.bob_out[mask]).astype(float)


def check_fidelity(transcript) -> CheckResult:
    """Fidelity estimate from the kept check rounds, with the pass decision.

    Entanglement variant: (1 + sum of the three check correlators) / 4
    against 1 - eps^2.  Direct-probe variant: per-label fidelities
    (mean + 1) / 2, all of which must clear 1 - eps^2.
    """
    cfg = transcript.config
    products = _kept_products(transcript, 1)
    if cfg.variant == "entanglement":
        products = {a + b: _pooled(products, b) for a, b in CHECK_PAIRS}
    missing = [k for k, v in products.items() if v.size == 0]
    if missing:
        raise InsufficientRoundsError(
            f"no kept check rounds for correlator(s) {', '.join(missing)}")
    means = {k: float(v.mean()) for k, v in products.items()}
    counts = {k: int(v.size) for k, v in products.items()}
    threshold = 1.0 - cfg.epsilon_threshold ** 2
    if cfg.variant == "entanglement":
        f_hat = (1.0 + sum(means.values())) / 4.0
        passed = f_hat >= threshold
        eps_implied = math.sqrt(min(1.0, max(0.0, 1.0 - f_hat)))
        return CheckResult(f_hat, passed, eps_implied, means, counts)
    fidelities = {k: (m + 1.0) / 2.0 for k, m in means.items()}
    worst = min(fidelities.values())
    passed = worst >= threshold
    eps_implied = math.sqrt(min(1.0, max(0.0, 1.0 - worst)))
    return CheckResult(fidelities, passed, eps_implied, means, counts)


def estimate_phase(transcript, n=None) -> EstimateResult:
    """Pooled-correlator phase estimate arccos(m) / (2n) from kept
    estimation rounds, with its propagated standard error."""
    cfg = transcript.config
    n = cfg.n if n is None else n
    if n != cfg.n:
        raise ValueError("qubit count does not match the transcript")
    products = _kept_products(transcript, 2)
    if cfg.variant == "entanglement":
        products = {a + b: _pooled(products, b) for a, b in ESTIMATION_PAIRS}
    else:
        products = {axis: _pooled(products, axis) for axis in ENCODE_AXES}
    missing = [k for k, v in products.items() if v.size == 0]
    if missing:
        raise InsufficientRoundsError(
            f"no kept estimation rounds for correlator(s) {', '.join(missing)}")
    means = {k: float(v.mean()) for k, v in products.items()}
    counts = {k: int(v.size) for k, v in products.items()}
    pooled = np.concatenate(list(products.values()))
    m = min(1.0, max(-1.0, float(pooled.mean())))
    phi_hat = math.acos(m) / (2.0 * n)
    variances = [(1.0 - c ** 2) / counts[k] for k, c in means.items()]
    mean_sum = min(2.0, max(-2.0, sum(means.values())))
    var = stats.phase_variance(tuple(variances), mean_sum) / n ** 2
    return EstimateResult(phi_hat, means, counts, math.sqrt(var) if var != math.inf else math.inf)


# ---------------------------------------------------------------- equivalence

@dataclass(frozen=True)
class EquivalenceReport:
    """Paired entanglement/direct-probe runs under one attack."""

    entanglement_fidelity: float
    mub_fidelities: dict
    combined_from_mub: float
    identity_sigma: float
    identity_holds: bool
    entanglement_passed: bool
    mub_passed: bool
    entanglement_phi_hat: float | None
    mub_phi_hat: float | None


def run_mub_equivalence(config: ProtocolConfig, attack, rng=None) -> EquivalenceReport:
    """Run both protocol variants with matched seeds under clones of one
    attack and compare their fidelity estimates.

    The entanglement-variant estimate should equal
    (1 + (1/2) sum_P (2 F_P - 1)) / 4 built from the six per-label
    fidelities, within Monte Carlo error.  The direct-probe run uses the
    rescaled threshold epsbar = sqrt(2/3) * eps so both runs implement the
    same safety margin.

    Both runs seed their randomness from config.seed (that is the matched
    pairing); an explicit ``rng`` is accepted for interface uniformity but
    ignored.
    """
    cfg_ent = replace(config, variant="entanglement")
    cfg_mub = replace(config, variant="mub",
                      epsilon_threshold=math.sqrt(2.0 / 3.0) * config.epsilon_threshold)
    t_ent = run(cfg_ent, attack.clone())
    t_mub = run(cfg_mub, attack.clone())
    c_ent = check_fidelity(t_ent)
    c_mub = check_fidelity(t_mub)

    combined = (1.0 + 0.5 * sum(2.0 * f - 1.0 for f in c_mub.fidelity_estimate.values())) / 4.0
    var_ent = sum((1.0 - c ** 2) / max(c_ent.sample_counts[k], 1)
                  for k, c in c_ent.correlator_means.items()) / 16.0
    var_mub = sum((1.0 - m ** 2) / max(c_mub.sample_counts[k], 1)
                  for k, m in c_mub.correlator_means.items()) / 64.0
    sigma = math.sqrt(var_ent + var_mub)
    holds = abs(c_ent.fidelity_estimate - combined) <= 4.0 * sigma + 1e-12

    def phi_or_none(transcript):
        try:
            return estimate_phase(transcript).phi_hat
        except InsufficientRoundsError:
            return None

    return EquivalenceReport(
        entanglement_fidelity=c_ent.fidelity_estimate,
        mub_fidelities=c_mub.fidelity_estimate,
        combined_from_mub=combined,
        identity_sigma=sigma,
        identity_holds=holds,
        entanglement_passed=c_ent.passed,
        mub_passed=c_mub.passed,
        entanglement_phi_hat=phi_or_none(t_ent),
        mub_phi_hat=phi_or_none(t_mub),
    )
