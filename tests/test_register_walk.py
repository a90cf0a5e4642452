"""The block register walk: a byte-level oracle for the block-memory engine
and the register engine.

The walk runs an attack's rounds on explicit register states: a batch of
independent blocks at a time, one position inside the block after another,
on a ``DenseRegisterState``, the register engine on dense density-matrix
stacks, whose leading batch axis holds that position's round of every
block, through four attack hooks (``RegisterHooks``).  It draws its
uniforms in the order the memory engines of ``protocol.run`` draw theirs,
so for a seed the walk and ``protocol.run`` give the same transcript byte
for byte; a chi-square test would not see an engine that gets the laws
subtly wrong.  With blocks of one round and no block hooks the walk is
``protocol.run``'s own register engine, run densely: the engine holds kets
(``qcore.RegisterState``), and swap-leak gives the same bytes on both.
Memoryless instruments run on the ket engine as register attacks
(``StatefulAdapter``, checked against the exact outcome tables in
``test_protocol``).
"""

import functools
import hashlib
import io
import math
import operator

import numpy as np
import pytest

from dqsim import adversary, protocol, qcore


def _partial_trace_stack(rho, dims, keep):
    """Reduced stack (B, d_keep, d_keep) of a (B, d, d) stack on the
    subsystems at the positions ``keep`` (indices into dims), by one einsum."""
    n, keep = len(dims), sorted(keep)
    rows = list(range(1, n + 1))
    cols = [r if i not in keep else n + r for i, r in enumerate(rows)]
    out = [0] + [rows[i] for i in keep] + [cols[i] for i in keep]
    tensor = rho.reshape([rho.shape[0]] + list(dims) * 2)
    d_keep = int(np.prod([dims[i] for i in keep]))
    return np.einsum(tensor, [0] + rows + cols, out).reshape(rho.shape[0], d_keep, d_keep)


class DenseRegisterState:
    """The register engine on one dense (B, d, d) stack of density matrices:
    the oracle of ``qcore.RegisterState``, which holds kets, and the walk's
    register, which holds the entangling-memory ancilla's mixed states.

    ``rho`` is one dense stack over the registers ``labels`` of dimensions
    ``dims``, in that order: B independent rounds undergo the same
    operations.  ``attach`` appends a register by one Kronecker product,
    and an operator (one matrix, or a stack of B) or a measurement (one
    projector stack, or a stack of B) acts on its registers lifted to the
    whole stack (``qcore.embed_operator``).  ``apply_kraus`` applies a
    channel, which may leave a mixed state; attached stacks and the states
    ``trace_out`` hands back and keeps are checked as density matrices.
    """

    def __init__(self, labels, dims, rho):
        rho = np.asarray(rho, dtype=complex)
        d = int(np.prod(dims))
        if rho.ndim != 3 or rho.shape[1:] != (d, d):
            raise qcore.DimensionMismatchError(
                f"register stack of shape {rho.shape} does not match dims {list(dims)}")
        self.labels, self.dims, self.rho = list(labels), list(dims), rho
        self.probe = self.labels[-1]

    @property
    def batch(self) -> int:
        return self.rho.shape[0]

    def attach(self, label, state):
        """Append register ``label`` in ``state``: one state for every
        element, or a (B, d, d) stack of checked density matrices."""
        if isinstance(state, (qcore.PureState, qcore.DensityMatrix)) or np.ndim(state) < 3:
            new = qcore.as_density(state).data
        else:
            new = qcore._check_density_stack(np.asarray(state, dtype=complex))
        # a non-finite stack from the unchecked constructor is left for
        # trace_out's check to reject
        with np.errstate(invalid="ignore"):
            self.rho = qcore._kron_stack(self.rho, new)
        self.labels.append(label)
        self.dims.append(new.shape[-1])

    def apply_unitary(self, u, labels):
        """Conjugate registers ``labels`` by ``u``, or element b by ``u[b]``
        for a stack; elements whose unitary is exactly I keep their bits."""
        u = qcore.embed_operator(u, self.dims, [self.labels.index(label) for label in labels])
        u = np.broadcast_to(u, self.rho.shape)
        moving = np.flatnonzero((u != np.eye(u.shape[-1])).any(axis=(1, 2)))
        if moving.size:
            u, self.rho = u[moving], self.rho.copy()
            self.rho[moving] = u @ self.rho[moving] @ u.conj().swapaxes(1, 2)

    def apply_kraus(self, kraus_list, labels):
        targets = [self.labels.index(label) for label in labels]
        lifted = (qcore.embed_operator(k, self.dims, targets) for k in kraus_list)
        terms = (k @ self.rho @ k.conj().swapaxes(-1, -2) for k in lifted)
        self.rho = functools.reduce(operator.iadd, terms)  # in place: no 0 + array copy

    def _born(self, projectors, label):
        """Each element's projectors on the whole stack (B, K, d, d) and their probabilities."""
        projs = np.broadcast_to(projectors, (self.batch,) + np.shape(projectors)[-3:])
        full = qcore.embed_operator(projs, self.dims, [self.labels.index(label)])
        return full, np.einsum("bkij,bji->bk", full, self.rho).real

    def probabilities(self, projectors, label):
        """The Born probabilities (B, K) that ``measure`` picks from; the state is kept."""
        return self._born(projectors, label)[1]

    def measure(self, projectors, label, rng):
        """Projective measurement of register ``label`` in every element.

        ``projectors`` is one (K, d, d) stack of outcome projectors, or a
        (B, K, d, d) stack, element b measuring ``projectors[b]``.  Each
        element's outcome is ``pick``ed from its Born probabilities.
        Returns the outcome indices, shape (B,).
        """
        full, probs = self._born(projectors, label)
        k = qcore.pick(probs, rng)
        sel = full[np.arange(self.batch), k]
        post = sel @ self.rho @ sel
        self.rho = post / np.einsum("bii->b", post).real[:, None, None]
        return k

    def trace_out(self, label):
        """Drop register ``label``; returns the checked (B, d, d) stack of
        its reduced states.  Dropping the only register leaves a stack of
        1 x 1 ones."""
        target = self.labels.index(label)
        rho = qcore._check_density_stack(self.rho)
        if len(self.dims) == 1:
            dropped, self.rho = rho, np.ones((self.batch, 1, 1), dtype=complex)
        else:
            keep = [i for i in range(len(self.dims)) if i != target]
            reduced = (_partial_trace_stack(rho, self.dims, part) for part in ([target], keep))
            dropped, self.rho = map(qcore._check_density_stack, reduced)
        del self.labels[target], self.dims[target]
        return dropped


class RegisterHooks:
    """The walk's attack interface.  ``begin_block`` opens ``blocks``
    independent blocks of ``block_length`` rounds.  Then, for each position
    inside a block, the round hooks get a DenseRegisterState whose batch axis
    holds that position's round of every block still running, in block
    order: all of them, or all but the last when the run's final block is
    short."""

    def begin_block(self, blocks, rng):
        pass

    def forward_state(self, world, rng):
        raise NotImplementedError

    def backward_state(self, world, rng):
        pass

    def end_round(self, world, rng):
        pass


def run_register_walk(config, attack):
    """T rounds against an attack with the hooks of ``RegisterHooks``,
    deterministic per seed.

    Draw order: the setting and probe label of all T rounds (one uniform
    per round, through ``protocol._draw``), then, batch by batch and
    position by position, one uniform per round for each measurement the
    hooks and the sensor make, in call order.
    """
    rng = np.random.default_rng(config.seed)
    frame, _kets, probes, sensor = protocol._sensor_model(config.n)
    attack.on_run_start(config.public(), frame)
    T, L, d = config.T, attack.block_length, 2 ** config.n
    encoders = protocol._encoders(config.n, config.true_phi)
    setting, label = np.divmod(protocol._draw(protocol._prior(config), rng, T),
                               len(qcore.SIGNED_LABELS))
    bob_axis = protocol._SETTING_AXIS[setting]
    slot = np.zeros(T, dtype=np.int8)

    per_batch = max(1, protocol._BATCH_BYTES // (16 * (2 * d) ** 2 * L))
    n_blocks = -(-T // L)
    for first in range(0, n_blocks, per_batch):
        blocks = np.arange(first, min(first + per_batch, n_blocks))
        attack.begin_block(blocks.size, rng)
        for pos in range(L):
            t = blocks * L + pos
            t = t[t < T]
            if t.size == 0:
                break
            world = DenseRegisterState(["B"], [d], probes[label[t]])
            attack.forward_state(world, rng)
            world.apply_unitary(encoders[protocol._SETTING_ENCODER[setting[t]]], [world.probe])
            if config.direction == "two_way":
                attack.backward_state(world, rng)
            slot[t] = world.measure(sensor[bob_axis[t]], world.probe, rng)
            attack.end_round(world, rng)
    return protocol.Transcript(
        config, np.ravel_multi_index((setting, label, slot), protocol._CELL_SHAPE))


class HookedEntanglingMemory(RegisterHooks, adversary.EntanglingMemoryAttack):
    """Entangling memory on the walk: it carries one ancilla state per block
    of the batch, a (blocks, 2, 2) stack, attaches it to each position's
    register for the coupling and takes it back out after the sensor's
    measurement."""

    def on_run_start(self, public_config, frame):
        super().on_run_start(public_config, frame)
        self._rho_e = None
        self._blocks_left = -(-public_config["T"] // self.block_length)

    def begin_block(self, blocks, rng):
        self._rho_e = np.zeros((blocks, 2, 2), dtype=complex)
        self._rho_e[:, 0, 0] = 1.0
        self._position = 0
        self._blocks_left -= blocks

    def forward_state(self, world, rng):
        world.attach("eve_mem", self._rho_e[:world.batch])
        world.apply_unitary(self.block_coupling(1), [world.probe, "eve_mem"])

    def end_round(self, world, rng):
        self._rho_e[:world.batch] = world.trace_out("eve_mem")
        self._position += 1
        if self._position == self.block_length and self.ancilla_mode == "measure":
            # every block but the run's last is followed by a block start,
            # where its ancilla is measured before the reset
            ended = self._rho_e if self._blocks_left else self._rho_e[:-1]
            p1 = ended[:, 1, 1].real
            self.memory = np.concatenate([self.memory, np.where(rng.random(p1.size) < p1, -1, 1)])


class StatefulAdapter(adversary.AttackModel):
    """A memoryless attack run on the register engine: each leg's weighted
    instrument becomes one Kraus set, the branch weight w folded in as
    sqrt(w), whose pure trajectory ``measure`` follows, one draw per round:
    averaged over the draws, each round's state is the instrument's image."""

    def __init__(self, inner):
        self.inner = inner
        self.name = f"stateful({inner.name})"

    def on_run_start(self, public_config, frame):
        n = public_config["n"]

        def kraus(branches):
            return np.array([math.sqrt(w) * k for w, ks in branches for k in ks])

        self.fwd = kraus(self.inner.forward_branches(n, frame))
        bwd = self.inner.backward_branches(n, frame)
        self.bwd = None if bwd is None else kraus(bwd)

    def forward_state(self, world, rng):
        world.measure(self.fwd, world.probe, rng)

    def backward_state(self, world, rng):
        if self.bwd is not None:
            world.measure(self.bwd, world.probe, rng)


# ---------------------------------------------------------------- byte identity

def blocks_per_batch(n, L):
    return max(1, protocol._BATCH_BYTES // (16 * (2 * 2 ** n) ** 2 * L))


def edge_lengths(n, L):
    """Round counts at the engines' edges: one round, one block short of a
    round, a batch's rounds and one either side, and a run of two batches
    and more ending mid-block."""
    batch = blocks_per_batch(n, L) * L
    return sorted({1, max(L - 1, 1), batch - 1, batch, batch + 1, 2 * batch + L // 2 + 1})


def serialized(transcript):
    """The transcript's serialized bytes, decoded as ASCII."""
    buf = io.BytesIO()
    transcript.serialize(buf)
    return buf.getvalue().decode("ascii")


def make_config(variant, direction, n, T, seed):
    return protocol.ProtocolConfig(variant, direction, n, T, 0.4, 0.4, 0.2, 0.25,
                                   0.37 / n, seed)


def assert_same_run(config, attack, hooked):
    """protocol.run under ``attack`` and the walk under its hooked twin give
    the same transcript bytes, classical memory and phase estimate."""
    ours, walk = protocol.run(config, attack), run_register_walk(config, hooked)
    assert (hashlib.sha256(serialized(ours).encode()).hexdigest()
            == hashlib.sha256(serialized(walk).encode()).hexdigest()), config
    assert hasattr(attack, "memory") == hasattr(hooked, "memory"), config
    if hasattr(attack, "memory"):
        np.testing.assert_array_equal(attack.memory, hooked.memory, err_msg=str(config))
    assert attack.eve_estimate() == hooked.eve_estimate(), config


@pytest.mark.parametrize("variant", protocol.VARIANTS)
@pytest.mark.parametrize("direction", protocol.DIRECTIONS)
@pytest.mark.parametrize("mode", ["trace", "measure"])
@pytest.mark.parametrize("L", [1, 2, 3])
def test_memory_engine_matches_register_walk(variant, direction, mode, L):
    for seed, T in enumerate(edge_lengths(1, L)):
        config = make_config(variant, direction, 1, T, 40 + seed)
        angle = 0.3 + 0.1 * seed
        assert_same_run(config, adversary.EntanglingMemoryAttack(angle, L, mode),
                        HookedEntanglingMemory(angle, L, mode))


class WalkedSwapLeak(adversary.TwoWaySwapLeakAttack, RegisterHooks):
    """Swap-leak with the walk's block hooks, which it leaves as they are."""


@pytest.mark.parametrize("n", [1, 2])
def test_register_engine_matches_register_walk(n):
    # blocks of one round: the walk draws as the register engine draws
    for seed, T in enumerate(edge_lengths(n, 1) + [300]):
        config = make_config("mub", "two_way", n, T, 60 + seed)
        assert_same_run(config, adversary.TwoWaySwapLeakAttack(), WalkedSwapLeak())


def test_grid_reaches_ancilla_readouts():
    # the byte-identity grid would prove little if no ancilla were read out
    T = edge_lengths(1, 3)[-1]
    memory = adversary.EntanglingMemoryAttack(0.5, 3, "measure")
    protocol.run(make_config("mub", "one_way", 1, T, 46), memory)
    assert len(memory.memory) == -(-T // 3) - 1 and set(memory.memory) == {-1, 1}
