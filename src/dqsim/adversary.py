"""Pluggable eavesdropper strategies.

An attack, an ``AttackModel`` subclass whose class is its one
constructor, intercepts the probe on its way to the sensor (forward leg)
and, in two-way operation, again on its way back (backward leg).  It is
one of three kinds:

- A memoryless attack describes each leg as a weighted quantum instrument
  on the probe register: a list of (weight, kraus_operators) branches,
  where the weight carries the adversary's own classical randomization.
  The engine samples every round's branches and outcome from the exact
  joint distribution and hands the attack every round's branch, as an
  index into the instrument it gave, in one ``record_round`` call: that
  index is what the adversary's classical memory records.
- A block-memory attack couples each probe of a block of at most three
  rounds to one ancilla qubit reset to |0> at the block's start, which is
  traced out or read out in Z at the block's end: it gives the coupling
  unitary and that readout mode.
- A register attack (two-way swap-leak) acts on a ``qcore.RegisterState``
  holding a batch of rounds' probes as kets: ``forward_state`` before the
  sensor encodes and, in two-way runs, ``backward_state`` after.  It acts on
  pure states only and keeps what it stores between the legs itself.

In one-way operation an attack never sees a measurement outcome or
reconciliation data before acting on the probe: ``forward_state`` sees
only the prepared probes, and only a block-memory attack's own ancilla
readouts come back to an attack.  An attack that cannot run under a
configuration, such as one that needs the return leg in a one-way run,
refuses it in ``on_run_start``.

An attack object holds one run's state: ``on_run_start`` resets it, and
each run's records replace the last run's, so one object run twice on one
configuration gives the same run twice.

``expected_check_fidelity`` is the exact check fidelity under a memoryless
attack's forward instrument, applied densely by ``qcore.apply_instrument``
(an independent check of the engine's ket push).  Depolarizing noise shrinks
every check correlator by 1 - p (the logical Paulis are traceless), so
``calibrate_depolarizing`` inverts the fidelity 1 - 3p/4 in closed form.
"""

from __future__ import annotations

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
    """Base class; subclasses override one of the three interfaces."""

    name = "abstract"
    block_length = 1

    def on_run_start(self, public_config: dict, frame) -> None:
        """Called once per run with the protocol's public parameters, and
        once for all phases of a memoryless attack's ``twin_counts`` call;
        a ValueError refuses the configuration."""

    # -- instrument interface (memoryless attacks) --------------------------
    def forward_branches(self, n, frame):
        """Weighted instrument for the forward leg, or None for a memory attack."""
        return None

    def backward_branches(self, n, frame):
        """Weighted instrument for the return leg; None means identity."""
        return None

    def record_round(self, forward_branch, backward_branch=None):
        """Classical-memory hook, called once per fast-path ``protocol.run``
        with every round's forward branch, an integer array in round order
        indexing the branches ``forward_branches`` gave; the backward branch
        is None when no backward instrument acts (one-way runs, or
        ``backward_branches`` None).  A sweep point's counts-first twins
        (``protocol.twin_counts``) draw no rounds and never call it."""

    # -- block-memory interface -----------------------------------------------
    # The coupling acts on (probe, ancilla) on each round's forward leg; the
    # ancilla starts each block of ``block_length`` rounds in |0>.  In
    # ``ancilla_mode`` "measure" a run's Z readouts (+-1, in block order, the
    # run's last block left out) go to ``record_readouts`` in one call.
    ancilla_mode = "trace"

    def block_coupling(self, n):
        """Coupling unitary of shape (2^(n+1), 2^(n+1)), or None."""
        return None

    def record_readouts(self, outcomes) -> None:
        pass

    # -- register interface (two-way substitution) -----------------------------
    # Both hooks get a RegisterState whose batch axis holds a batch of
    # rounds' kets, in round order, and may draw from ``rng`` in call order.
    def forward_state(self, world, rng) -> None:
        raise NotImplementedError("the attack gives no instrument, coupling or register hooks")

    def backward_state(self, world, rng) -> None:
        pass

    def eve_estimate(self) -> EveEstimate | None:
        return None


class IdentityAttack(AttackModel):
    """Null adversary: the probe passes unchanged."""

    name = "identity"

    def forward_branches(self, n, frame):
        return [(1.0, [np.eye(2 ** n, dtype=complex)])]


class DepolarizingAttack(AttackModel):
    """Per-round register depolarizing noise of strength p on the probe."""

    def __init__(self, p):
        self.p = qcore.real("p", p, 0, 1)
        self.name = f"depolarizing(p={self.p:.6g})"

    def forward_branches(self, n, frame):
        return [(1.0, qcore.depolarizing_channel(self.p, n))]


class UnitaryTamperAttack(AttackModel):
    """Coherent per-qubit rotation exp(i*angle*P) applied to every probe.

    Uses the same generator convention as the phase encoding, so a Y-axis
    tamper by angle t shifts the retrieved phase by exactly t.
    """

    def __init__(self, axis, angle):
        self.angle = qcore.real("angle", angle)
        self.name = f"unitary_tamper({axis}, {self.angle:.6g})"
        self.axis = qcore.pauli_axis(axis)

    def forward_branches(self, n, frame):
        p = qcore.pauli_matrix(self.axis)
        single = math.cos(self.angle) * np.eye(2) + 1j * math.sin(self.angle) * p
        return [(1.0, [qcore.kron_power(single, n)])]


class InterceptResendAttack(AttackModel):
    """Measure the probe in a fixed or uniformly random logical Pauli basis
    and resend the collapsed state; outcomes land in classical memory.

    Each axis A measured gives three branches, the outcome slots of
    ``qcore.logical_projectors``, which ``labels`` names "A:-1", "A:+0"
    (leak; the zero operator at n = 1) and "A:+1"."""

    def __init__(self, basis_strategy="random"):
        self.name = f"intercept_resend({basis_strategy})"
        strategy = basis_strategy.upper() if isinstance(basis_strategy, str) else basis_strategy
        if strategy == "RANDOM":
            self.axes = list(qcore.PAULI_AXES)
        elif strategy in qcore.PAULI_AXES:
            self.axes = [strategy]
        else:
            raise ValueError("basis strategy must be 'random' or a Pauli axis name")
        # the branches' outcome labels, and the last run's branch of every
        # round as an index into them, in round order
        self.labels = tuple(f"{axis}:{slot:+d}" for axis in self.axes for slot in (-1, 0, 1))
        self.memory = np.zeros(0, dtype=np.uint8)

    def forward_branches(self, n, frame):
        weight = 1.0 / len(self.axes)
        projectors = [proj for axis in self.axes for proj in qcore.logical_projectors(frame, axis)]
        return [(weight, [proj]) for proj in projectors]

    def record_round(self, forward_branch, backward_branch=None):
        self.memory = forward_branch.copy()  # not a view that keeps the engine's draw


class EntanglingMemoryAttack(AttackModel):
    """Couples each probe in a block to one persistent ancilla qubit.

    The ancilla is reset at block boundaries, either silently (traced out)
    or after a Z measurement, whose outcomes (+-1) in the last run ``memory``
    holds in block order.  The attack runs on single-qubit probes only, and
    blocks of 1 to 3 rounds: the lengths at which the exact per-cell engine
    is pinned byte for byte to the block register walk.
    """

    max_block_length = 3

    def __init__(self, coupling_angle, block_length=2, ancilla_mode="trace"):
        self.coupling_angle = qcore.real("coupling_angle", coupling_angle)
        self.name = f"entangling_memory({self.coupling_angle:.6g}, block={block_length})"
        if not qcore.real("block_length", block_length, 1, self.max_block_length).is_integer():
            raise ValueError(f"block_length must be a whole number, not {block_length!r}")
        if ancilla_mode not in ("trace", "measure"):
            raise ValueError("ancilla_mode must be 'trace' or 'measure'")
        self.block_length = int(block_length)
        self.ancilla_mode = ancilla_mode
        self.memory = np.zeros(0, dtype=np.intp)

    def on_run_start(self, public_config, frame):
        if public_config["n"] != 1:
            raise ValueError("entangling memory attack supports single-qubit probes only")

    def block_coupling(self, n):
        # the ancilla rotates by exp(-i theta Y) iff the probe qubit is |1>
        coupling = np.eye(4, dtype=complex)
        coupling[2:, 2:] = qcore.encoding_unitary(1, -self.coupling_angle)
        return coupling

    def record_readouts(self, outcomes):
        self.memory = outcomes


class TwoWaySwapLeakAttack(AttackModel):
    """Two-way runs only: substitute the probe on the forward leg, read the
    encoding off the returned substitute, and forward the stored original.

    The substitute is the +1 eigenstate of the equatorial logical Pauli X, so
    on encoded rounds the returned substitute has expectation cos(2 n phi)
    for that observable while unencoded rounds return it untouched (outcome
    +1 with certainty).  The outcome is ``pick``ed from the substitute's Born
    probabilities, with no post-measurement state: the substitute is dropped.
    A -1 outcome certifies an encoded round; those get re-encoded with the
    adversary's running estimate (from every outcome up to and including the
    round's own) before the original is released, and check rounds are
    forwarded faithfully.  The outcome depends only on the sensor's action and
    phi, so a batch of rounds is read out at once, its running estimates from
    prefix sums; the outcome sum and count carry over between batches.
    """

    name = "two_way_swap_leak"
    _min_samples_for_reencoding = 50
    _sum = _count = 0  # the running outcome sum and count, reset by each run

    def on_run_start(self, public_config, frame):
        if public_config["direction"] != "two_way":
            raise ValueError("swap-leak attack needs two-way operation")
        self._p_e = public_config["p_e"]
        if self._p_e <= 0:
            raise ValueError("swap-leak attack needs a nonzero encoding probability")
        self._n = public_config["n"]
        self._xbar = qcore.logical_projectors(frame, "X")
        self._substitute = qcore.mub_probe(frame, "+X")
        self._sum = 0
        self._count = 0

    def forward_state(self, world, rng):
        self._original = world.trace_out(world.probe)
        world.attach(world.probe, self._substitute)

    def backward_state(self, world, rng):
        outcome = qcore.pick(world.probabilities(self._xbar, world.probe), rng) - 1  # as -1, 0, +1
        # running sum and count of the nonzero outcomes, this round included
        total = self._sum + np.cumsum(outcome)
        count = self._count + np.cumsum(outcome != 0)
        self._sum, self._count = int(total[-1]), int(count[-1])
        mean = total / np.maximum(count, 1)
        c = np.clip(1.0 - (1.0 - mean) / self._p_e, -1.0, 1.0)
        phi_hat = np.arccos(c) / (2.0 * self._n)
        reencode = (outcome == -1) & (count >= self._min_samples_for_reencoding) & (phi_hat > 0)
        world.trace_out(world.probe)
        world.attach(world.probe, self._original)
        if reencode.any():
            world.apply_unitary(qcore.encoding_unitary(self._n, np.where(reencode, phi_hat, 0.0)),
                                [world.probe])

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


# ---------------------------------------------------------------- calibration

def expected_check_fidelity(attack: AttackModel, n: int, variant="entanglement"):
    """Exact expectation of the check-round fidelity estimate under a
    memoryless attack's forward instrument.

    Entanglement variant: returns the scalar combination of the three check
    correlators.  Direct-probe variant: returns the map from signed probe
    label to its per-label fidelity.
    """
    if variant not in ("entanglement", "mub"):
        raise ValueError(f"unknown variant {variant!r}")
    frame = qcore.LogicalFrame.standard(n)
    branches = attack.forward_branches(n, frame)
    if branches is None:
        raise ValueError("expected fidelity is defined for memoryless attacks only")

    if variant == "entanglement":
        d = 2 ** n
        rho = qcore.resource_state(n).density().data.reshape(2, d, 2, d)
        # the instrument acts on the probe factor of each provider block
        blocks = np.einsum("arbs->abrs", rho)
        pushed = qcore.apply_instrument(blocks, branches).sum(axis=-3)
        rho = np.einsum("abrs->arbs", pushed).reshape(2 * d, 2 * d)
        total = 0.0
        for a_axis, b_axis in (("X", "Z"), ("Z", "X"), ("Y", "Y")):
            minus, _leak, plus = qcore.logical_projectors(frame, b_axis)
            op = np.kron(qcore.pauli_matrix(a_axis), plus - minus)
            total += float(np.trace(op @ rho).real)
        return (1.0 + total) / 4.0

    probes = np.array([qcore.mub_probe(frame, label).density().data
                       for label in qcore.SIGNED_LABELS])
    pushed = qcore.apply_instrument(probes, branches).sum(axis=-3)
    fidelities = {}
    for label, rho in zip(qcore.SIGNED_LABELS, pushed):
        axis, sign = qcore.parse_probe_label(label)
        minus, _leak, plus = qcore.logical_projectors(frame, axis)
        mean = sign * float(np.trace((plus - minus) @ rho).real)
        fidelities[label] = (mean + 1.0) / 2.0
    return fidelities


def calibrate_depolarizing(target_fidelity: float) -> float:
    """The depolarizing strength whose expected check fidelity (entanglement
    variant) is the target F: 4 (1 - F) / 3 at every n."""
    return 4.0 * (1.0 - qcore.real("target_fidelity", target_fidelity, 0.25, 1)) / 3.0
