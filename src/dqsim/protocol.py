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

Each round's sensor setting and probe label are drawn from the prior
``_prior``; with the sensor's outcome they make the round's cell, the one
column a transcript stores, and every other field of a round is a lookup
in a small per-cell table.  Every engine measures with one projector table
whose outcome index is the cell's slot (-1, leak, +1) at every n, so no
outcome passes through a value map.  Memoryless attacks run on a
vectorized fast path: each (setting, label) pair has an exact outcome
table computed once, and one categorical draw from the prior times the
tables gives every round its cell and branches together.  A sweep's twin
counts (``twin_counts``) come, under them, from one push, one table build
per slice of phases and, per phase, the twins' exact joint law, with no
round drawn one by one; under a memory attack, from two runs per phase.
Block-memory attacks draw each round's outcome from its exact law given
the adversary's ancilla, a batch of independent blocks at a time, one
position inside the block after another; register attacks act on a batch
of rounds' register states.
No engine reads the variant, and each draws randomness in a fixed
documented order, so a seed fully determines the transcript.  The check
and the estimator read every correlator's signed sum and round count as
one product of the cell counts of one or more runs with a per-cell matrix
(``_POOLS``); only that pooling depends on the variant.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import math
import os
from dataclasses import dataclass, fields, replace

import numpy as np

from . import adversary, qcore, stats

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

MAX_QUBITS = qcore.MAX_QUBITS  # largest probe simulated exactly
# Most rounds in one run.  A run's per-round arrays (the draw, the cell
# column, the disclosure order; transcript rows go out a chunk at a time)
# take 17-25 bytes per round: the peak RSS of ``dqsim run`` at n = 1 and
# T = 1e6 lies 17-25 MB above a T = 1e3 run's, so the cap adds 170-250 MB.
MAX_ROUNDS = 10 ** 7


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
        for name, value, low, high in (("n", self.n, 1, MAX_QUBITS), ("T", self.T, 1, MAX_ROUNDS),
                                       ("seed", self.seed, 0, 2 ** 64 - 1)):
            qcore.integer(name, value, low, high)
        # checked, never coerced: ``config_hash`` hashes the repr of each value as given
        for name, high in (("p_c", 1), ("p_e", 1), ("p_d", 1), ("epsilon_threshold", math.inf)):
            qcore.real(name, getattr(self, name), 0, high)
        qcore.real("true_phi", self.true_phi)
        if abs(self.p_c + self.p_e + self.p_d - 1.0) > 1e-12:
            raise ValueError("action probabilities must sum to 1")

    def public(self) -> dict:
        """Protocol parameters the adversary legitimately knows."""
        return {k: v for k, v in vars(self).items() if k not in ("true_phi", "seed")}

    def config_hash(self) -> str:
        payload = {
            "variant": self.variant, "direction": self.direction, "n": int(self.n),
            "T": int(self.T), "p_c": repr(self.p_c), "p_e": repr(self.p_e),
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


_LABEL_AXIS = np.array([AXES.index(qcore.parse_probe_label(lab)[0])
                        for lab in qcore.SIGNED_LABELS], dtype=np.int8)
_LABEL_SIGN = np.array([qcore.parse_probe_label(lab)[1]
                        for lab in qcore.SIGNED_LABELS], dtype=np.int8)


# The sensor's settings in cell order: (action, the axis measured or None
# when discarded).  With the probe label a setting fixes a round's outcome
# distribution.
_SETTINGS = (tuple((0, axis) for axis in AXES) + tuple((1, axis) for axis in ENCODE_AXES)
             + ((2, None),))
_SETTING_ACTION = np.array([action for action, _axis in _SETTINGS], dtype=np.int8)
_SETTING_AXIS = np.array([-1 if axis is None else AXES.index(axis)
                          for _action, axis in _SETTINGS], dtype=np.int8)
# whether a setting encodes: its index into ``_encoders``
_SETTING_ENCODER = np.array([action == 1 for action, _axis in _SETTINGS], dtype=np.intp)


# Every round lies in one cell: its setting, its probe label and the slot
# b + 1 of its sensor outcome b = -1, 0 (leak) or +1.  A discarded round lies
# in slot +1, the outcome the trivial sensor measurement yields.  The
# per-cell tables below give each field of a round from its cell.
_CELL_SHAPE = (len(_SETTINGS), len(qcore.SIGNED_LABELS), 3)
_N_CELLS = math.prod(_CELL_SHAPE)
_CELL_SETTING, _CELL_LABEL, _CELL_SLOT = np.indices(_CELL_SHAPE, dtype=np.int8).reshape(3, -1)
_CELL_ACTION = _SETTING_ACTION[_CELL_SETTING]
_CELL_AXIS = _SETTING_AXIS[_CELL_SETTING]
_CELL_OUT = np.where(_CELL_ACTION == 2, _B_ABSENT, _CELL_SLOT - 1).astype(np.int8)
# the sift: keep the check and encode rounds measured on their probe's axis
_CELL_STATUS = np.where(_LABEL_AXIS[_CELL_LABEL] == _CELL_AXIS,
                        _CELL_ACTION + 1, 0).astype(np.int8)
# a kept estimation round's product of sensor outcome and label sign; 0 for
# every other round and for leak outcomes
_CELL_PRODUCT = np.where(_CELL_STATUS == 2, _LABEL_SIGN[_CELL_LABEL] * _CELL_OUT, 0).astype(np.int8)
# its product's class: the slot of -1, 0 (no product) or +1
_CELL_CLASS = _CELL_PRODUCT.astype(np.intp) + 1


def _row_suffixes(variant):
    """Each cell's serialized row after the index, as zero-padded bytes."""
    partner = dict(pair[::-1] for pair in CHECK_PAIRS)  # probe axis -> provider axis
    rows = []
    for cell in range(_N_CELLS):
        label = qcore.SIGNED_LABELS[_CELL_LABEL[cell]]
        axis, sign = qcore.parse_probe_label(label)
        rows.append("\t".join([
            "", ACTIONS[_CELL_ACTION[cell]],
            *([partner[axis], str(sign), "NA"] if variant == "entanglement"
              else ["NA", "NA", label]),
            "NA" if _CELL_AXIS[cell] < 0 else AXES[_CELL_AXIS[cell]],
            "NA" if _CELL_OUT[cell] == _B_ABSENT else str(_CELL_OUT[cell]),
            SIFT_STATUSES[_CELL_STATUS[cell]] + "\n"]).encode("ascii"))
    return np.array(rows).view(np.uint8).reshape(_N_CELLS, -1)


def _suffix_records(suffixes):
    """Each cell's suffix length, and its first and its last m bytes as two
    m-byte records, m the shortest suffix, that agree where they overlap."""
    length = np.count_nonzero(suffixes, axis=1)
    m = int(length.min())
    assert m >= 8 and 2 * m >= length.max()  # see Transcript.serialize
    tail = np.take_along_axis(suffixes, (length - m)[:, None] + np.arange(m), axis=1)
    return length.astype(np.uint8), np.stack([suffixes[:, :m], tail]).view((np.void, m))[..., 0]


def _scatter(buf, at, records):
    """Write each record into the byte array ``buf`` at its byte offset in ``at``."""
    np.ndarray((buf.size - records.itemsize + 1,), records.dtype, buf, strides=(1,))[at] = records


_ROW_SUFFIXES = {variant: _row_suffixes(variant) for variant in VARIANTS}
_SUFFIX_RECORDS = {variant: _suffix_records(_ROW_SUFFIXES[variant]) for variant in VARIANTS}
# Rows serialized per chunk; each of a chunk's buffers stays under a megabyte.
_CHUNK_ROWS = 2 ** 14
# the 10^4 four-digit texts "0000" to "9999", each one 4-byte record
_DIGITS = (np.indices((10,) * 4, np.uint8).reshape(4, -1).T + ord("0")).copy().view("V4")[:, 0]


# Near-equal windows of rounds of a sweep point's empirical variance estimate
# (``twin_counts``' window classes, the sweep's ``var_emp``).
VARIANCE_WINDOWS = 20


def _window_sizes(T, windows):
    """The rounds in each of ``windows`` near-equal windows of T rounds, round
    t in window t * windows // T: window w starts at ceil(w T / windows)."""
    return np.diff(-(-np.arange(windows + 1) * T // windows))


def _lookup(table):
    """A read-only field of every round: the per-cell ``table`` at its cell."""
    return property(lambda self: table[self.cell])


def _rounds_in(cells):
    """A round count per run: the rounds in the cells the per-cell mask selects."""
    return property(lambda self: (self.counts.reshape(*self.counts.shape[:-3], -1)
                                  @ cells).tolist())


class CellCounts:
    """A run's rounds per cell, ``counts``, read-only of shape ``_CELL_SHAPE``:
    all that the round counts, the check and the estimator read.  With leading
    axes, a stack of runs under one config: each value but ``leak_rate`` nests per run."""

    def __init__(self, config, counts):
        self.config = config
        self.counts = np.asarray(counts)
        self.counts.setflags(write=False)

    N_c = _rounds_in(_CELL_STATUS == 1)
    N_e = _rounds_in(_CELL_STATUS == 2)
    N_d = _rounds_in(_CELL_ACTION == 2)
    N_sifted_away = _rounds_in((_CELL_STATUS == 0) & (_CELL_ACTION != 2))
    N_leak = _rounds_in((_CELL_STATUS > 0) & (_CELL_OUT == 0))

    @property
    def leak_rate(self) -> float:
        kept = self.N_c + self.N_e
        return self.N_leak / kept if kept else 0.0


class Transcript(CellCounts):
    """Ordered record of one protocol execution: one read-only uint8
    ``cell`` column, each round's flat index into ``_CELL_SHAPE`` (setting,
    probe label, outcome slot); every other field is a per-cell lookup.

    ``action`` indexes ACTIONS, ``probe`` ``qcore.SIGNED_LABELS``,
    ``bob_axis`` AXES (-1 when the sensor did not measure) and ``status``
    SIFT_STATUSES; ``bob_out`` is +-1, 0 for a leak outcome or -9 when
    unmeasured.  ``counts`` holds the rounds in each cell; the round counts,
    the check and the estimator read it, and only ``estimation_products``,
    ``window_counts`` and serialization need the round order.

    Both variants record the probe label.  In the entanglement variant it
    is the state the provider's measurement left the sensor with: the
    provider's axis is the partner of the label's axis (X <-> Z, Y <-> Y)
    and the provider's outcome is the label's sign, which is what the
    serialized transcript reports.  Serialization discloses check-round
    outcomes before estimation-round outcomes (reverse-reconciliation
    ordering).
    """

    def __init__(self, config, cell):
        cell = np.asarray(cell)
        if (cell.ndim != 1 or cell.size != config.T or not np.issubdtype(cell.dtype, np.integer)
                or (cell.size and not 0 <= cell.min() <= cell.max() < _N_CELLS)):
            raise ValueError(f"cells must be a 1-D integer array of T = {config.T} "
                             f"entries in [0, {_N_CELLS})")
        self.cell = cell.astype(np.uint8)
        self.cell.setflags(write=False)
        super().__init__(config, np.bincount(self.cell, minlength=_N_CELLS).reshape(_CELL_SHAPE))

    action = _lookup(_CELL_ACTION)
    probe = _lookup(_CELL_LABEL)
    bob_axis = _lookup(_CELL_AXIS)
    bob_out = _lookup(_CELL_OUT)
    status = _lookup(_CELL_STATUS)

    def window_counts(self):
        """Rounds per cell in the ``VARIANCE_WINDOWS`` windows of rounds
        (``_window_sizes``), shape (VARIANCE_WINDOWS, *_CELL_SHAPE)."""
        windows = VARIANCE_WINDOWS
        window = np.repeat(np.arange(windows), _window_sizes(self.config.T, windows))
        counts = np.bincount(window * _N_CELLS + self.cell, minlength=windows * _N_CELLS)
        return counts.reshape(windows, *_CELL_SHAPE)

    def serialize(self, target) -> None:
        """Write the line-oriented transcript, check rounds disclosed first, as
        bytes to a path (``os.PathLike``, str, bytes) or a binary handle.

        A row is the round's index in decimal, then its cell's suffix.  Each
        chunk of ``_CHUNK_ROWS`` rows is one write of one byte buffer, sized
        from the rows' lengths, that fixed-width records fill (``_scatter``).
        First each index, below ``MAX_ROUNDS`` < 10^8, goes in as 8 digits
        that end where its suffix starts; their leading zeros, at most 7, land
        in 8 bytes of headroom before the first row or on the end of the row
        before.  Then each suffix goes in as its first and its last m bytes,
        m >= 8 the shortest suffix (``_suffix_records``), over those zeros."""
        own = isinstance(target, (str, bytes, os.PathLike))
        with open(target, "wb") if own else contextlib.nullcontext(target) as fh:
            cfg = self.config
            fh.write((f"#dqs-transcript v1\n#config_hash\t{cfg.config_hash()}\n"
                      f"#seed\t{int(cfg.seed)}\n#variant\t{cfg.variant}\n"
                      f"#direction\t{cfg.direction}\n#n\t{cfg.n}\n#T\t{cfg.T}\n"
                      "#columns\tindex\taction\talice_obs\talice_out\tprobe"
                      "\tbob_obs\tbob_out\tstatus\n").encode("ascii"))
            # kept check rounds, then kept estimation rounds, then the rest
            status = self.status
            order = np.concatenate([np.flatnonzero(status == s) for s in (1, 2, 0)])
            length, (heads, tails) = _SUFFIX_RECORDS[cfg.variant]
            width = len(str(cfg.T - 1))
            for start in range(0, cfg.T, _CHUNK_ROWS):
                rows = order[start:start + _CHUNK_ROWS]
                cells = self.cell[rows]
                suffix = np.take(length, cells)
                size = suffix + 1  # the row's length: its suffix and digits
                for k in range(1, width):
                    np.add(size, rows >= 10 ** k, out=size)
                end = np.cumsum(size, dtype=np.intp) + 8
                split = end - suffix
                buf = np.empty(end[-1], dtype=np.uint8)
                digits = np.take(_DIGITS, np.stack(np.divmod(rows, 10 ** 4), axis=1))
                _scatter(buf, split - 8, digits.view((np.void, 8))[:, 0])
                _scatter(buf, split, np.take(heads, cells))
                _scatter(buf, end - tails.itemsize, np.take(tails, cells))
                fh.write(buf[8:].tobytes())


# ---------------------------------------------------------------- run engine

@functools.lru_cache(maxsize=None)
def _sensor_model(n):
    """The n-qubit probe states and sensor model shared by every run at n:
    the frame, the six probe kets in ``qcore.SIGNED_LABELS`` order and their
    densities, shape (6, d) and (6, d, d), and the sensor as one projector
    table of shape (4, slot, d, d), its last axis a round's cell slot:
    ``qcore.logical_projectors`` of X, Y, Z and then the trivial measurement
    of a discarded round, so that ``_SETTING_AXIS`` indexes it (-1:
    discarded).  Its arrays are read-only, since every caller shares them."""
    frame = qcore.LogicalFrame.standard(n)
    kets = np.array([qcore.mub_probe(frame, lab).amplitudes for lab in qcore.SIGNED_LABELS])
    probes = kets[:, :, None] * kets[:, None, :].conj()
    # the trivial measurement, so that discarded rounds share a batch and a
    # table shape with measured ones: it always yields slot +1 and leaves
    # the state as it is
    sensor = np.zeros((len(AXES) + 1, 3, 2 ** n, 2 ** n), dtype=complex)
    sensor[:-1] = [qcore.logical_projectors(frame, a) for a in AXES]
    sensor[-1, -1] = np.eye(2 ** n)
    for array in (kets, probes, sensor):
        array.setflags(write=False)
    return frame, kets, probes, sensor


def _encoders(n, phi):
    """The identity and the phase encoding at ``phi``, stacked so that
    ``_SETTING_ENCODER`` indexes them; a list of phases gives each its own."""
    enc = qcore.encoding_unitary(n, phi)
    return np.stack([np.broadcast_to(np.eye(2 ** n, dtype=complex), enc.shape), enc])


def _push(n, fwd):
    """The one forward push: the six probes of size n through every branch
    of the instrument ``fwd``, a read-only (probe label, branch, d, d)
    stack; None for no instrument (a memory attack).  It maps
    the pure probes' kets: w Z^T Z* for a ket's images Z = K psi, m d^2 work,
    a slice of operators (64 KB of images) at a time to keep temporaries small."""
    if fwd is None:
        return None
    kets, states = _sensor_model(n)[1], []
    step = max(1, 4096 // kets.size)
    for weight, kraus in fwd:
        parts = ((kets @ np.asarray(kraus[i:i + step]).swapaxes(-1, -2)).swapaxes(0, 1)
                 for i in range(0, len(kraus), step))  # (probe, operator, d) each
        states.append(weight * sum(z.swapaxes(-1, -2) @ z.conj() for z in parts))
    states = np.stack(states, axis=1)
    states.setflags(write=False)
    return states


def _legs(config, attack):
    """Start ``attack`` on a run of ``config`` (UnsupportedAttackError if it
    cannot run under it): a memoryless attack's forward push (``_push``) and
    backward instrument (None: identity), None for a memory attack."""
    frame, *_ = _sensor_model(config.n)
    try:
        attack.on_run_start(config.public(), frame)
    except ValueError as exc:
        raise UnsupportedAttackError(f"attack {attack.name!r}: {exc}") from exc
    pushed = _push(config.n, attack.forward_branches(config.n, frame))
    if pushed is None:
        return None
    return pushed, (attack.backward_branches(config.n, frame)
                    if config.direction == "two_way" else None)


# A table's total may differ from 1 by roundoff only; an instrument whose
# tables miss it by more does not preserve trace.
_TABLE_TOLERANCE = 1e-9


def _build_tables(n, phis, pushed, bwd):
    """Exact outcome tables of every cell at each phase of ``phis`` from the
    pushed probe states of ``_push`` and the backward instrument ``bwd``
    (None: identity), shape (phase, setting, probe label, forward branch,
    backward branch, outcome slot): the probabilities of a round's branches
    and of its cell's outcome slot, a discarded round's mass on slot +1.
    The pushed stack is encoded at every phase and pushed through ``bwd``,
    contracted with every sensor projector, and each setting gathers its
    encoder and projectors.  A total off 1, or an entry below 0, by more than
    ``_TABLE_TOLERANCE`` raises UnsupportedAttackError; roundoff negatives
    are set to 0."""
    sensor = _sensor_model(n)[3]
    enc = _encoders(n, phis)[..., None, None, :, :]
    states = enc @ pushed @ enc.conj().swapaxes(-1, -2)
    states = states[..., None, :, :] if bwd is None else qcore.apply_instrument(states, bwd)
    # Tr(P rho) is the sum over the entries of P^T times rho
    d = 2 ** n
    probs = (states.reshape(states.shape[:-2] + (d * d,))
             @ sensor.swapaxes(-1, -2).reshape(-1, d * d).T).real
    probs = probs.reshape(probs.shape[:-1] + sensor.shape[:2])
    tables = probs[_SETTING_ENCODER, ..., _SETTING_AXIS, :]
    totals, least = tables.sum(axis=(-3, -2, -1)), tables.min()
    total = totals.flat[np.argmax(np.abs(totals - 1.0))]
    if not (abs(total - 1.0) <= _TABLE_TOLERANCE and least >= -_TABLE_TOLERANCE):
        raise UnsupportedAttackError(
            f"the attack's instrument does not preserve trace: an outcome "
            f"table sums to {total:.12g} with least entry {least:.3g}")
    return np.clip(tables, 0.0, None).swapaxes(0, 1)


def _prior(config):
    """P(setting, probe label) of one round, shape (setting, label): the
    action's probability shared evenly among its settings and the labels."""
    p = np.array([config.p_c, config.p_e, config.p_d])[_SETTING_ACTION]
    p = p / np.bincount(_SETTING_ACTION)[_SETTING_ACTION] / len(qcore.SIGNED_LABELS)
    return np.repeat(p[:, None], len(qcore.SIGNED_LABELS), axis=1)


# The round draw's guide table splits [0, 1) into at most this many equal
# buckets, a power of two so that scaling by it is exact, and it draws the
# uniforms this many at a time.
_GUIDE_BUCKETS = 2 ** 12
_DRAW_CHUNK = 2 ** 14
# numpy's tolerance on a categorical distribution's total
_TOTAL_TOL = math.sqrt(np.finfo(float).eps)


def _cdf(weights):
    """numpy's CDF of a categorical draw from the probability array
    ``weights``: ``cumsum / total`` over its flattened entries.  Weights
    with a non-finite or negative entry, or whose total is off 1 by more
    than sqrt(eps), raise ValueError, as in ``rng.choice``."""
    p = np.asarray(weights, dtype=float).ravel()
    if not np.isfinite(p).all():
        raise ValueError("probabilities must be finite")
    if (p < 0).any():
        raise ValueError("probabilities must be nonnegative")
    if not abs(p.sum() - 1.0) <= _TOTAL_TOL:
        raise ValueError("probabilities must sum to 1")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


def _draw(weights, rng, T):
    """T independent draws of an entry of the probability array ``weights``,
    one uniform each: the entries' flat indices, in the smallest integer
    dtype that holds ``weights.size``.

    The draw is the one ``rng.choice(weights.size, T, p=weights.ravel())``
    makes, index for index, and it leaves ``rng`` in the same state: the
    uniforms come from ``rng.random`` in order, and each round takes the
    inverse CDF ``searchsorted(cdf, u, side="right")`` of ``_cdf``.  A
    guide table (indexed search) finds most of them without a search.
    Scaled by a power of two m (the least >= T, at most ``_GUIDE_BUCKETS``),
    the CDF and the uniforms keep their order exactly, and a uniform u in
    bucket k = floor(u m) has #(cdf m <= k) <= result <= #(cdf m < k + 1);
    where the two counts agree the table holds the result, and the other
    rounds, fewer than ``weights.size`` buckets' worth, search the scaled CDF.
    """
    cdf, buckets = _cdf(weights), min(_GUIDE_BUCKETS, 1 << (T - 1).bit_length())
    cdf *= buckets
    edges = np.arange(buckets + 1, dtype=float)
    lo = cdf.searchsorted(edges[:-1], side="right")
    hi = cdf.searchsorted(edges[1:], side="left")
    # an ambiguous bucket holds cdf.size, which no draw returns
    dtype = np.min_scalar_type(cdf.size)
    guide = np.where(lo == hi, lo, cdf.size).astype(dtype)
    out = np.empty(T, dtype=dtype)
    for start in range(0, T, _DRAW_CHUNK):
        u = rng.random(min(_DRAW_CHUNK, T - start))
        u *= buckets
        chunk = out[start:start + u.size]
        np.take(guide, u.astype(np.intp), out=chunk)
        ambiguous = np.flatnonzero(chunk == cdf.size)
        chunk[ambiguous] = cdf.searchsorted(u[ambiguous], side="right")
    return out


def _pair_law(weights_a, weights_b):
    """The joint law of the entries ``_draw`` picks from ``weights_a`` and
    from ``weights_b`` with one shared uniform u.  Each inverts its
    ``_cdf``, so the pair is constant between the two CDFs' merged
    breakpoints: each interval's width (its probability, 0 between equal
    breakpoints), and the entry ``searchsorted(cdf, u, side="right")`` of
    each on it, the count of the CDF's values below the interval's end,
    shape (2, interval)."""
    cdfs = [_cdf(weights_a), _cdf(weights_b)]
    edges = np.sort(np.concatenate([[0.0], *cdfs]))
    return np.diff(edges), np.stack([cdf.searchsorted(edges[1:], side="left") for cdf in cdfs])


def _run_fast(config, attack, rng, legs) -> Transcript:
    """Memoryless attacks: every round's setting, probe label, branches and
    outcome are one draw from the round law ``_law`` of the attack's
    ``_legs``, and the attack records every round's branches in one
    ``record_round`` call.  Draw order: one uniform per round (``_draw``)."""
    tables = _law(config, [config.true_phi], legs)[0]
    # each table entry's (cell, forward branch, backward branch)
    setting, label, forward, backward, slot = np.indices(tables.shape)
    cell = np.ravel_multi_index((setting, label, slot), _CELL_SHAPE)
    entries = np.stack([cell, forward, backward]).reshape(3, -1)
    entries = entries.astype(np.min_scalar_type(max(_N_CELLS, *tables.shape)))
    cell, forward, backward = np.take(entries, _draw(tables, rng, config.T), axis=1)
    attack.record_round(forward, None if legs[1] is None else backward)
    return Transcript(config, cell)


# The memory engines draw their uniforms a batch of max(1, _BATCH_BYTES // (16 (2d)^2 L))
# blocks of L rounds at a time (probe dimension d): a stream constant only.
_BATCH_BYTES = 1 << 18


def _batches(config, L):
    """Per batch of blocks of L rounds: whether it is the run's last, and
    the round indices at each position in the blocks (the last may be short)."""
    per_batch = max(1, _BATCH_BYTES // (16 * (2 * 2 ** config.n) ** 2 * L))
    n_blocks = -(-config.T // L)
    for first in range(0, n_blocks, per_batch):
        rounds = np.arange(first, min(first + per_batch, n_blocks)) * L + np.arange(L)[:, None]
        yield first + per_batch >= n_blocks, [t[t < config.T] for t in rounds]


def _memory_maps(config, coupling):
    """Each cell's linear map on a block-memory attack's ancilla qubit under
    the coupling C, M(sigma) = Tr_probe[(P_k U_s (x) I) C (rho_l (x) sigma)
    C^dagger (U_s^dagger P_k (x) I)], as a matrix on the flattened sigma,
    shape (setting, label, outcome slot, 4, 4).  A coupling off unitary by
    more than 1e-10, or maps whose traces summed over the outcomes miss the
    trace by more than ``_TABLE_TOLERANCE``, raise UnsupportedAttackError."""
    _frame, _kets, probes, sensor = _sensor_model(config.n)
    d, c = 2 ** config.n, np.asarray(coupling, dtype=complex)
    if not (c.shape == (2 * d, 2 * d) and np.abs(c @ c.conj().T - np.eye(2 * d)).max() <= 1e-10):
        raise UnsupportedAttackError("the attack's coupling is not unitary on probe and qubit")
    encoders = _encoders(config.n, config.true_phi)[_SETTING_ENCODER]
    measured = sensor[_SETTING_AXIS] @ encoders[:, None]
    w = np.einsum("skpr,reqg->skpeqg", measured, c.reshape(d, 2, d, 2))
    path = ["einsum_path", (0, 2), (0, 1)]  # optimize=True's pick, without its per-run search
    maps = np.einsum("skpeqg,lqr,skpfrh->slkefgh", w, probes, w.conj(), optimize=path)
    maps = maps.reshape(maps.shape[:3] + (4, 4))
    # each map's trace row, Tr M(sigma) = row . sigma, summed over the outcomes
    if not np.abs(maps[..., [0, 3], :].sum(axis=(2, 3)) - [1, 0, 0, 1]).max() <= _TABLE_TOLERANCE:
        raise UnsupportedAttackError("the attack's coupling does not preserve trace")
    return maps


def _run_memory(config, attack, rng, coupling, setting, label, slot):
    """Block-memory attacks: each block's ancilla starts in |0>, and the round's
    cell maps give its outcome slot's law and the ancilla after it.  Draw
    order, batch by batch: position by position, one uniform per round for
    the sensor's outcome; then, in "measure" mode, one per block but the
    run's last, all of whose readouts go to one ``record_readouts`` call."""
    maps, readouts = _memory_maps(config, coupling), []
    for last, positions in _batches(config, attack.block_length):
        sigma = np.empty((positions[0].size, 4), dtype=complex)
        for i, t in enumerate(positions):  # sigma starts as |0><0|, flattened e0
            after = (maps[setting[t], label[t], ..., 0] if i == 0 else
                     (maps[setting[t], label[t]] @ sigma[:t.size, None, :, None])[..., 0])
            probs = (after[..., 0] + after[..., 3]).real
            slot[t] = k = qcore.pick(probs, rng)
            b = np.arange(t.size)
            sigma[:t.size] = after[b, k] / probs[b, k, None]
        if attack.ancilla_mode == "measure":
            p1 = sigma[:sigma.shape[0] - last, 3].real
            readouts.append(np.where(rng.random(p1.size) < p1, -1, 1))
    if attack.ancilla_mode == "measure":
        attack.record_readouts(np.concatenate(readouts))


def _run_register(config, attack, rng, setting, label, slot):
    """Register attacks: a batch of rounds at a time on a register state
    holding each round's probe, through the attack's ``forward_state`` and,
    in two-way runs, ``backward_state`` hooks around the sensor's encoding.
    Draw order, batch by batch: one uniform per round for each measurement
    the hooks make, in call order, then one per round for the sensor's."""
    _frame, kets, _probes, sensor = _sensor_model(config.n)
    encoders = _encoders(config.n, config.true_phi)[_SETTING_ENCODER]
    for _last, (t,) in _batches(config, 1):
        world = qcore.RegisterState(["B"], [2 ** config.n], kets[label[t]])
        attack.forward_state(world, rng)
        world.apply_unitary(encoders[setting[t]], [world.probe])
        if config.direction == "two_way":
            attack.backward_state(world, rng)
        projectors = sensor[_SETTING_AXIS[setting[t]]]  # read out, with no post-state
        slot[t] = qcore.pick(world.probabilities(projectors, world.probe), rng)


def _law(config, phis, legs):
    """A memoryless attack's round law at each phase of ``phis`` from its ``_legs``."""
    tables = _build_tables(config.n, phis, *legs)
    return _prior(config)[..., None, None, None] * tables


def exact_cells(config, attack):
    """The exact law of one round's cell under a memoryless attack, shape
    _CELL_SHAPE: its round law (``_law``) at ``config.true_phi`` summed over
    the branches.  A memory attack, whose rounds have no one law, raises
    UnsupportedAttackError."""
    legs = _legs(config, attack)
    if legs is None:
        raise UnsupportedAttackError(f"attack {attack.name!r} keeps a memory: "
                                     "its rounds have no one exact law")
    return _law(config, [config.true_phi], legs)[0].sum(axis=(2, 3))


# Bytes of a slice of phases' encoded states, after the backward leg, that a sweep builds at once.
_SLICE_BYTES = 1 << 20


def _twin_draw(weights, sizes, rng):
    """Both twins' cell counts and their windows' product classes, shape (2,
    _N_CELLS) and (2, window, 3), from their round laws ``weights``: each pair
    of cells, and so each of the nine (attacked, identity) pairs of product
    classes, has an exact law (``_pair_law``).  Draw order: a multinomial of the
    window ``sizes`` over the classes holding pairs, then one per such class over its pairs."""
    probs, entries = _pair_law(*weights)
    # each interval's cells, from its entries (setting, label, branches, slot)
    a, b = (e // (w.size * 3 // _N_CELLS) * 3 + e % 3 for w, e in zip(weights, entries))
    law = np.bincount(a * _N_CELLS + b, probs, _N_CELLS ** 2)
    pairs = np.flatnonzero(law)
    (a, b), law = divmod(pairs, _N_CELLS), law[pairs]
    kind = 3 * _CELL_CLASS[a] + _CELL_CLASS[b]
    class_law = np.bincount(kind, law, 9)
    classes = np.flatnonzero(class_law)  # holding pairs: no roundoff remainder lands elsewhere
    kinds, drawn = np.zeros((len(sizes), 9), dtype=np.int64), np.zeros(pairs.size)
    kinds[:, classes] = rng.multinomial(sizes, class_law[classes])
    for k in classes:
        drawn[kind == k] = rng.multinomial(kinds[:, k].sum(), law[kind == k] / class_law[k])
    kinds = kinds.reshape(len(sizes), 3, 3)
    return ([np.bincount(c, drawn, _N_CELLS) for c in (a, b)],
            [kinds.sum(axis=2), kinds.sum(axis=1)])


def twin_counts(config, attack, phis):
    """The ``counts`` of ``run(cfg, attack)`` and of its identity-attack twin,
    ``cfg`` being ``config`` at each ``true_phi`` of ``phis``, shape (phase,
    twin, *_CELL_SHAPE), and the ``product_classes`` of their
    ``VARIANCE_WINDOWS`` windows of rounds (``_window_sizes``), shape (phase,
    twin, window, 3).  A memoryless attack, which never learns the phase, is
    started and pushed once; each phase is a ``_twin_draw`` seeded by
    ``config.seed``.  Under a memory attack both twins run at each phase, the
    attacked one on ``attack``."""
    legs, identity = _legs(config, attack), adversary.IdentityAttack()
    if legs is None:  # the twins share the seed's prior draw
        counts = np.array([[run(replace(config, true_phi=float(phi)), a).window_counts()
                            for a in (attack, identity)] for phi in phis])
        return counts.sum(axis=2), product_classes(counts)
    ideal_legs, sizes, out = _legs(config, identity), _window_sizes(config.T, VARIANCE_WINDOWS), []
    step = max(1, _SLICE_BYTES // (32 * legs[0].size * (len(legs[1]) if legs[1] else 1)))
    for start in range(0, len(phis), step):
        laws = [_law(config, phis[start:start + step], lg) for lg in (legs, ideal_legs)]
        out += [_twin_draw(w, sizes, np.random.default_rng(config.seed)) for w in zip(*laws)]
    counts, classes = (np.array([o[i] for o in out], dtype=np.int64) for i in (0, 1))
    return (counts.reshape(len(phis), 2, *_CELL_SHAPE),
            classes.reshape(len(phis), 2, VARIANCE_WINDOWS, 3))


def run(config: ProtocolConfig, attack) -> Transcript:
    """Execute T rounds against the given adversary; deterministic per seed."""
    legs = _legs(config, attack)
    rng = np.random.default_rng(config.seed)
    if legs is not None:
        return _run_fast(config, attack, rng, legs)
    coupling = attack.block_coupling(config.n)
    setting, label = np.divmod(_draw(_prior(config), rng, config.T), len(qcore.SIGNED_LABELS))
    slot = np.zeros(config.T, dtype=np.int8)
    if coupling is None:
        try:
            _run_register(config, attack, rng, setting, label, slot)
        except ValueError as exc:  # a state the hooks made is not a pure state
            raise UnsupportedAttackError(f"attack {attack.name!r}: {exc}") from exc
    else:
        _run_memory(config, attack, rng, coupling, setting, label, slot)
    return Transcript(config, np.ravel_multi_index((setting, label, slot), _CELL_SHAPE))


# ---------------------------------------------------------------- reconciliation

def _pool(rounds, pooled):
    """The names of {name: probe axis or signed label pooled} and the (cell, 2 x
    correlator) integer matrix that takes cell counts to their signed sums and
    round counts: a kept ``rounds`` cell adds its label's sign times its outcome
    (0: leak), and that product's square, to each correlator pooling its label."""
    member = np.array([[p in (label, qcore.parse_probe_label(label)[0]) for p in pooled.values()]
                       for label in qcore.SIGNED_LABELS])[_CELL_LABEL]
    kept = _CELL_STATUS == SIFT_STATUSES.index("kept_" + rounds)
    signed = np.where(kept, _LABEL_SIGN[_CELL_LABEL] * _CELL_OUT, 0)[:, None] * member
    return tuple(pooled), np.hstack([signed, np.abs(signed)]).astype(np.int64)


# How each variant pools its kept check and estimation rounds.  An
# entanglement-variant correlator, named by (provider axis, sensor axis),
# pools both signs of the sensor's axis; the direct-probe check keeps every
# signed label apart.
_POOLS = {
    ("entanglement", "check"): _pool("check", {a + b: b for a, b in CHECK_PAIRS}),
    ("mub", "check"): _pool("check", {label: label for label in qcore.SIGNED_LABELS}),
    ("entanglement", "estimation"): _pool("estimation", {a + b: b for a, b in ESTIMATION_PAIRS}),
    ("mub", "estimation"): _pool("estimation", {axis: axis for axis in ENCODE_AXES}),
}


def _correlators(cells, rounds, result, analyse):
    """The ``result`` of ``analyse(means, counts, pooled)`` for each run of
    ``cells``, each field nested as its leading axes: each correlator's mean and
    round count by name and their pooled mean, from the kept ``rounds``."""
    names, pool = _POOLS[cells.config.variant, rounds]

    def per_run(totals, depth):
        if depth:
            runs = [per_run(t, depth - 1) for t in totals]
            return result(*([getattr(r, f.name) for r in runs] for f in fields(result)))
        sums, counts = totals[:len(names)], totals[len(names):]
        missing = [name for name, count in zip(names, counts) if count == 0]
        if missing:
            raise InsufficientRoundsError(
                f"no kept {rounds} rounds for correlator(s) {', '.join(missing)}")
        means = dict(zip(names, [s / c for s, c in zip(sums, counts)]))
        return result(*analyse(means, dict(zip(names, counts)), sum(sums) / sum(counts)))

    totals = cells.counts.reshape(*cells.counts.shape[:-3], -1) @ pool
    return per_run(totals.tolist(), totals.ndim - 1)


def estimation_products(transcript):
    """Pooled +-1 values from kept estimation rounds, in round order, as
    int8: one gather from the per-cell product table.  Each is the sensor
    outcome times the probe label's sign, which in the entanglement variant
    is the provider's outcome.  Leak outcomes excluded."""
    products = _CELL_PRODUCT[transcript.cell]
    return products[products != 0]


def product_classes(counts):
    """Rounds per ``estimation_products`` value -1, 0 (no product: every other
    round) and +1, shape (..., 3), from cell counts (..., *_CELL_SHAPE)."""
    flat = np.reshape(counts, np.shape(counts)[:-3] + (_N_CELLS,))
    return flat @ (_CELL_CLASS[:, None] == np.arange(3))


def check_fidelity(transcript) -> CheckResult:
    """Fidelity estimate from the kept check rounds, with the pass decision;
    for counts with leading axes, each field holds every run's value.

    Entanglement variant: (1 + sum of the three check correlators) / 4
    against 1 - eps^2.  Direct-probe variant: per-label fidelities
    (mean + 1) / 2, all of which must clear 1 - eps^2.
    """
    cfg = transcript.config
    floor = 1.0 - stats.squared(cfg.epsilon_threshold)

    def analyse(means, counts, _pooled):
        if cfg.variant == "entanglement":
            estimate = worst = (1.0 + sum(means.values())) / 4.0
        else:
            estimate = {k: (m + 1.0) / 2.0 for k, m in means.items()}
            worst = min(estimate.values())
        eps_implied = math.sqrt(min(1.0, max(0.0, 1.0 - worst)))
        return estimate, worst >= floor, eps_implied, means, counts

    return _correlators(transcript, "check", CheckResult, analyse)


def estimate_phase(transcript) -> EstimateResult:
    """Pooled-correlator phase estimate arccos(m) / (2n) from kept
    estimation rounds, with its propagated standard error; for counts with
    leading axes, each field holds every run's value."""
    n = transcript.config.n

    def analyse(means, counts, pooled):
        phi_hat = math.acos(min(1.0, max(-1.0, pooled))) / (2.0 * n)
        variances = [(1.0 - c ** 2) / counts[k] for k, c in means.items()]
        mean_sum = min(2.0, max(-2.0, sum(means.values())))
        var = stats.phase_variance(tuple(variances), mean_sum) / n ** 2
        return phi_hat, means, counts, math.sqrt(var)

    return _correlators(transcript, "estimation", EstimateResult, analyse)


# ---------------------------------------------------------------- equivalence

@dataclass(frozen=True)
class EquivalenceReport:
    """One run under one attack, analysed as both protocol variants."""

    entanglement_fidelity: float
    mub_fidelities: dict
    combined_from_mub: float
    identity_sigma: float
    identity_holds: bool
    entanglement_passed: bool
    mub_passed: bool
    entanglement_phi_hat: float | None
    mub_phi_hat: float | None


def run_mub_equivalence(config: ProtocolConfig, attack) -> EquivalenceReport:
    """Analyse one simulation as both protocol variants and compare their
    fidelity estimates.

    Neither engine reads the variant, so one run under the attack,
    seeded from config.seed, gives the columns of both: the
    entanglement-variant transcript and, with the same cells, the
    direct-probe view.  The entanglement-variant estimate should equal
    (1 + (1/2) sum_P (2 F_P - 1)) / 4 built from the six per-label
    fidelities, within Monte Carlo error.  The direct-probe view uses the
    rescaled threshold epsbar = sqrt(2/3) * eps so both analyses implement
    the same safety margin.
    """
    cfg_ent = replace(config, variant="entanglement")
    cfg_mub = replace(config, variant="mub",
                      epsilon_threshold=math.sqrt(2.0 / 3.0) * config.epsilon_threshold)
    t_ent = run(cfg_ent, attack)
    t_mub = CellCounts(cfg_mub, t_ent.counts)
    c_ent = check_fidelity(t_ent)
    c_mub = check_fidelity(t_mub)

    combined = (1.0 + 0.5 * sum(2.0 * f - 1.0 for f in c_mub.fidelity_estimate.values())) / 4.0
    var_ent = sum((1.0 - c ** 2) / c_ent.sample_counts[k]
                  for k, c in c_ent.correlator_means.items()) / 16.0
    var_mub = sum((1.0 - m ** 2) / c_mub.sample_counts[k]
                  for k, m in c_mub.correlator_means.items()) / 64.0
    sigma = math.sqrt(var_ent + var_mub)
    holds = abs(c_ent.fidelity_estimate - combined) <= 4.0 * sigma + 1e-12

    def phi_or_none(transcript):
        try:
            return estimate_phase(transcript).phi_hat
        except InsufficientRoundsError:
            return None

    return EquivalenceReport(c_ent.fidelity_estimate, c_mub.fidelity_estimate, combined,
                             sigma, holds, c_ent.passed, c_mub.passed, phi_or_none(t_ent),
                             phi_or_none(t_mub))
