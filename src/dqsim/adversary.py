"""Pluggable eavesdropper strategies.

An attack intercepts the probe on its way to the sensor (forward leg) and,
in two-way operation, again on its way back (backward leg).  Memoryless
attacks describe each leg as a weighted quantum instrument on the probe
register: a list of (label, weight, kraus_operators) branches, where the
weight carries the adversary's own classical randomization and the branch
label is what her classical memory records.  The round engine samples
branch and measurement outcomes from the exact joint distribution.

Attacks that keep quantum memory across rounds instead implement the
stateful hooks and run on explicit register-machine states.  Their quantum
memory never outlives a block of at most three rounds, so blocks are
independent: the engine runs a batch of blocks at once, one position inside
the block after another, on a ``qcore.RegisterState`` whose leading batch
axis holds that position's round of every block.  This is exact but limited
to small blocks.

In one-way operation an attack object never sees measurement outcomes or
reconciliation data before acting on the probe: the engine only calls the
forward hook with the in-flight state.  Attacks that need the return leg
declare ``requires_two_way`` and are rejected outright in one-way runs.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from . import qcore


@dataclass(frozen=True)
class EveEstimate:
    """Adversary-side phase estimate, for attacks that extract one."""

    phi_hat_eve: float | None
    samples_used: int
    standard_error: float = math.inf


class AttackModel:
    """Base class; subclasses override either the instrument or the stateful
    interface."""

    name = "abstract"
    block_length = 1
    requires_two_way = False

    def clone(self):
        return copy.deepcopy(self)

    def on_run_start(self, public_config: dict, frame) -> None:
        """Called once per run with the protocol's public parameters."""

    # -- instrument interface (memoryless attacks) --------------------------
    def forward_branches(self, n, frame):
        """Weighted instrument for the forward leg, or None if stateful."""
        return None

    def backward_branches(self, n, frame):
        """Weighted instrument for the return leg; None means identity."""
        return None

    def record_round(self, index, forward_label, backward_label=None):
        """Classical-memory hook; called per round on the fast path."""

    # -- stateful interface (quantum-memory attacks) -------------------------
    # begin_block opens ``blocks`` independent blocks of ``block_length``
    # rounds.  Then, for each position inside a block, the round hooks get a
    # RegisterState whose batch axis holds that position's round of every
    # block still running, in block order: all of them, or all but the
    # last when the run's final block is short.
    def begin_block(self, blocks, rng) -> None:
        pass

    def forward_state(self, world, rng) -> None:
        raise NotImplementedError

    def backward_state(self, world, rng) -> None:
        pass

    def end_round(self, world, rng) -> None:
        pass

    def eve_estimate(self) -> EveEstimate | None:
        return None


class _InstrumentAttack(AttackModel):
    def __init__(self, name):
        self.name = name

    def forward_state(self, world, rng):
        raise RuntimeError("instrument attacks run on the fast path")


class IdentityAttack(_InstrumentAttack):
    def __init__(self):
        super().__init__("identity")

    def forward_branches(self, n, frame):
        return [("identity", 1.0, [np.eye(2 ** n, dtype=complex)])]


def identity_attack() -> AttackModel:
    """Null adversary: the probe passes unchanged."""
    return IdentityAttack()


class DepolarizingAttack(_InstrumentAttack):
    def __init__(self, p):
        super().__init__(f"depolarizing(p={p:.6g})")
        if not 0.0 <= p <= 1.0:
            raise ValueError("depolarizing probability must lie in [0, 1]")
        self.p = float(p)

    def forward_branches(self, n, frame):
        channel = qcore.depolarizing_channel(self.p, n)
        return [("depolarizing", 1.0, list(channel.kraus_operators))]


def depolarizing_attack(p: float) -> AttackModel:
    """Per-round register depolarizing noise of strength p on the probe."""
    return DepolarizingAttack(p)


class UnitaryTamperAttack(_InstrumentAttack):
    def __init__(self, axis, angle):
        super().__init__(f"unitary_tamper({axis}, {angle:.6g})")
        self.axis = axis.upper()
        if self.axis not in qcore.PAULI_AXES:
            raise ValueError(f"unknown Pauli axis {axis!r}")
        self.angle = float(angle)

    def forward_branches(self, n, frame):
        p = qcore.pauli_matrix(self.axis)
        single = math.cos(self.angle) * np.eye(2) + 1j * math.sin(self.angle) * p
        return [("tamper", 1.0, [qcore.kron_power(single, n)])]


def unitary_tamper(axis: str, angle: float) -> AttackModel:
    """Coherent per-qubit rotation exp(i*angle*P) applied to every probe.

    Uses the same generator convention as the phase encoding, so a Y-axis
    tamper by angle t shifts the retrieved phase by exactly t.
    """
    return UnitaryTamperAttack(axis, angle)


class InterceptResendAttack(_InstrumentAttack):
    def __init__(self, basis_strategy):
        super().__init__(f"intercept_resend({basis_strategy})")
        strategy = basis_strategy.upper() if isinstance(basis_strategy, str) else basis_strategy
        if strategy == "RANDOM":
            self.axes = list(qcore.PAULI_AXES)
        elif strategy in qcore.PAULI_AXES:
            self.axes = [strategy]
        else:
            raise ValueError("basis strategy must be 'random' or a Pauli axis name")
        self.memory = []

    def forward_branches(self, n, frame):
        weight = 1.0 / len(self.axes)
        branches = []
        for axis in self.axes:
            obs = qcore.bold_pauli(frame, axis)
            for value, proj in zip(obs.eigenvalues, obs.eigenprojectors):
                branches.append((f"{axis}:{int(round(value)):+d}", weight, [proj]))
        return branches

    def record_round(self, index, forward_label, backward_label=None):
        self.memory.append((index, forward_label))


def intercept_resend(basis_strategy="random") -> AttackModel:
    """Measure the probe in a fixed or uniformly random logical Pauli basis
    and resend the collapsed state; outcomes land in classical memory."""
    return InterceptResendAttack(basis_strategy)


def _controlled_rotation(theta):
    # ancilla rotates by exp(-i*theta*Y) iff the probe qubit is |1>
    ry = math.cos(theta) * np.eye(2) - 1j * math.sin(theta) * qcore.pauli_matrix("Y")
    out = np.zeros((4, 4), dtype=complex)
    out[:2, :2] = np.eye(2)
    out[2:, 2:] = ry
    return out


class EntanglingMemoryAttack(AttackModel):
    """Couples each probe in a block to one persistent ancilla qubit.

    The ancilla is reset at block boundaries, either silently (traced out)
    or after a recorded Z measurement.  The reset makes blocks independent,
    so the attack carries one ancilla state per block of the batch, a
    (blocks, 2, 2) stack, and splices it into each position's register
    state.  Exact simulation is limited to single-qubit probes and short
    blocks.
    """

    max_block_length = 3

    def __init__(self, coupling_angle, block_length=2, ancilla_mode="trace"):
        self.name = f"entangling_memory({coupling_angle:.6g}, block={block_length})"
        if block_length < 1 or block_length > self.max_block_length:
            raise ValueError(
                f"block length beyond exact-simulation limit {self.max_block_length}")
        if ancilla_mode not in ("trace", "measure"):
            raise ValueError("ancilla_mode must be 'trace' or 'measure'")
        self.coupling_angle = float(coupling_angle)
        self.block_length = int(block_length)
        self.ancilla_mode = ancilla_mode
        self._rho_e = None
        self._position = 0
        self._blocks_left = 0
        self.memory = []

    def on_run_start(self, public_config, frame):
        if public_config["n"] != 1:
            raise ValueError("entangling memory attack supports single-qubit probes only")
        self._rho_e = None
        self._blocks_left = -(-public_config["T"] // self.block_length)

    def begin_block(self, blocks, rng):
        self._rho_e = np.zeros((blocks, 2, 2), dtype=complex)
        self._rho_e[:, 0, 0] = 1.0
        self._position = 0
        self._blocks_left -= blocks

    def forward_state(self, world, rng):
        world.attach("eve_mem", self._rho_e[:world.batch])
        world.apply_unitary(_controlled_rotation(self.coupling_angle),
                            [world.probe, "eve_mem"])

    def end_round(self, world, rng):
        self._rho_e[:world.batch] = world.reduced("eve_mem")
        world.trace_out("eve_mem")
        self._position += 1
        if self._position == self.block_length and self.ancilla_mode == "measure":
            # every block but the run's last is followed by a block start,
            # where its ancilla is measured before the reset
            ended = self._rho_e if self._blocks_left else self._rho_e[:-1]
            p1 = ended[:, 1, 1].real
            self.memory.extend(np.where(rng.random(p1.size) < p1, -1, 1).tolist())


def entangling_memory_attack(coupling_angle, block_length=2,
                             ancilla_mode="trace") -> AttackModel:
    """Block-collective attack: controlled rotation onto a persistent ancilla."""
    return EntanglingMemoryAttack(coupling_angle, block_length, ancilla_mode)


class TwoWaySwapLeakAttack(AttackModel):
    """Substitute the probe on the forward leg, read the encoding off the
    returned substitute, and forward the stored original.

    The substitute is the +1 eigenstate of the equatorial logical Pauli X,
    so on encoded rounds the returned substitute has expectation
    cos(2 n phi) for that observable while unencoded rounds return it
    untouched (outcome +1 with certainty).  A -1 outcome therefore certifies
    an encoded round; those get re-encoded with the adversary's running
    estimate (from every outcome up to and including the round's own)
    before the original is released, and check rounds are always forwarded
    faithfully.  The outcome depends only on the sensor's action and phi,
    never on earlier re-encodings, so a batch of rounds is read out at once
    and its running estimates come from prefix sums; the outcome sum and
    count carry over between batches.
    """

    requires_two_way = True
    _min_samples_for_reencoding = 50

    def __init__(self):
        self.name = "two_way_swap_leak"
        self._sum = 0
        self._count = 0
        self._p_e = None
        self._n = None
        self._frame = None
        self._xbar = None
        self._substitute = None
        self._original_probe = None

    def on_run_start(self, public_config, frame):
        self._p_e = public_config["p_e"]
        if self._p_e <= 0:
            raise ValueError("swap-leak attack needs a nonzero encoding probability")
        self._n = public_config["n"]
        self._frame = frame
        self._xbar = qcore.bold_pauli(frame, "X")
        self._substitute = qcore.mub_probe(frame, "+X").density()
        self._sum = 0
        self._count = 0

    def forward_state(self, world, rng):
        self._original_probe = world.probe
        world.attach("eve_sub", self._substitute)
        world.probe = "eve_sub"

    def backward_state(self, world, rng):
        outcome = np.rint(world.measure(self._xbar, "eve_sub", rng)).astype(np.int64)
        # running sum and count of the nonzero outcomes, this round included
        total = self._sum + np.cumsum(outcome)
        count = self._count + np.cumsum(outcome != 0)
        self._sum, self._count = int(total[-1]), int(count[-1])
        mean = total / np.maximum(count, 1)
        c = np.clip(1.0 - (1.0 - mean) / self._p_e, -1.0, 1.0)
        phi_hat = np.arccos(c) / (2.0 * self._n)
        reencode = (outcome == -1) & (count >= self._min_samples_for_reencoding) & (phi_hat > 0)
        if reencode.any():
            world.apply_unitary(qcore.encoding_unitary(self._n, np.where(reencode, phi_hat, 0.0)),
                                [self._original_probe])
        world.trace_out("eve_sub")
        world.probe = self._original_probe

    def eve_estimate(self) -> EveEstimate:
        if self._count == 0:
            return EveEstimate(None, 0)
        mean, count = self._sum / self._count, self._count
        c = min(1.0, max(-1.0, 1.0 - (1.0 - mean) / self._p_e))
        phi_hat = math.acos(c) / (2.0 * self._n)
        var_mean = (1.0 - mean ** 2) / count
        slope_sq = 1.0 - c ** 2
        if slope_sq < 1e-12:
            se = math.inf
        else:
            se = math.sqrt(var_mean) / (self._p_e * 2.0 * self._n * math.sqrt(slope_sq))
        return EveEstimate(phi_hat, count, se)


def two_way_swap_leak() -> AttackModel:
    """Return-leg interception that estimates the phase; two-way mode only."""
    return TwoWaySwapLeakAttack()


# ---------------------------------------------------------------- calibration

def expected_check_fidelity(attack: AttackModel, n: int, variant="entanglement"):
    """Exact expectation of the check-round fidelity estimate under a
    memoryless attack's forward instrument.

    Entanglement variant: returns the scalar combination of the three check
    correlators.  Direct-probe variant: returns the map from signed probe
    label to its per-label fidelity.
    """
    frame = qcore.LogicalFrame.standard(n)
    branches = attack.forward_branches(n, frame)
    if branches is None:
        raise ValueError("expected fidelity is defined for memoryless attacks only")

    def push(rho):
        out = np.zeros_like(rho)
        for _label, weight, kraus in branches:
            for k in kraus:
                out += weight * (k @ rho @ k.conj().T)
        return out

    if variant == "entanglement":
        rho = qcore.resource_state(n).density().data
        d = 2 ** n
        rho = rho.reshape(2, d, 2, d)
        # apply the instrument on the probe factor only
        out = np.einsum("arbs->abrs", rho).reshape(4, d, d)
        pushed = np.stack([push(out[i]) for i in range(4)])
        rho = np.einsum("abrs->arbs", pushed.reshape(2, 2, d, d)).reshape(2 * d, 2 * d)
        total = 0.0
        for a_axis, b_axis in (("X", "Z"), ("Z", "X"), ("Y", "Y")):
            op = np.kron(qcore.pauli_matrix(a_axis), qcore.bold_pauli(frame, b_axis).matrix)
            total += float(np.trace(op @ rho).real)
        return (1.0 + total) / 4.0

    fidelities = {}
    for label in qcore.SIGNED_LABELS:
        axis, sign = qcore.parse_probe_label(label)
        probe = qcore.mub_probe(frame, label).density().data
        pushed = push(probe)
        mean = sign * float(np.trace(qcore.bold_pauli(frame, axis).matrix @ pushed).real)
        fidelities[label] = (mean + 1.0) / 2.0
    return fidelities


def calibrate_depolarizing(target_fidelity: float, n: int = 1, tol: float = 1e-10) -> float:
    """Bisection for the depolarizing strength whose expected check fidelity
    matches the target (entanglement variant)."""
    if not 0.25 <= target_fidelity <= 1.0:
        raise ValueError("reachable targets lie in [0.25, 1]")
    lo, hi = 0.0, 1.0

    def value(p):
        return expected_check_fidelity(depolarizing_attack(p), n)

    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if value(mid) > target_fidelity:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
