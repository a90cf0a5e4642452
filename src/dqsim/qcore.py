"""Exact linear-algebra substrate for small multi-qubit protocol simulations.

States, Kraus instruments and measurements for registers of up to a few
qubits, plus the specific entangled resource states, logical-subspace Pauli
measurements and phase-encoding unitaries used by the sensing protocols.
Everything is dense complex linear algebra, sized for probes of up to
``MAX_QUBITS`` = 5 qubits.  An instrument is a list of weighted
Kraus branches and a measurement a stack of outcome projectors; a logical
Pauli's measurement is ``logical_projectors``' closed-form stack in the
outcome slots (-1, leak, +1), and every sampled outcome comes from one
inverse-CDF rule, ``pick``.

``PureState``, ``DensityMatrix`` and ``LogicalFrame`` are frozen,
``RegisterState`` is the one mutable object, and every function that
samples takes an explicit rng.  The register holds a stack of kets: what
acts on it acts on pure states, ``trace_out`` returns kets, and it refuses
a mixed state.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

# Tolerances for type invariants.
HERMITIAN_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-10
NORM_TOL = 1e-12

# Largest probe simulated exactly: register depolarizing noise has 4^n + 1
# Kraus operators of size 2^n, 16 MB of them at n = 5 and 268 MB at n = 6.
MAX_QUBITS = 5

PAULI_AXES = ("X", "Y", "Z")

_I2 = np.eye(2, dtype=complex)
_PAULI = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# |R/L> = (|0> +- i|1>)/sqrt(2): the circular (Y-eigenstate) basis.
KET_R = np.array([1, 1j], dtype=complex) / np.sqrt(2)
KET_L = np.array([1, -1j], dtype=complex) / np.sqrt(2)


class DimensionMismatchError(ValueError):
    """Operands act on different Hilbert-space dimensions."""


def _frozen(a):
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def kron_power(op, n):
    out = np.array([[1.0 + 0j]]) if op.ndim == 2 else np.array([1.0 + 0j])
    for _ in range(integer("n", n, 0)):
        out = np.kron(out, op)
    return out


@dataclass(frozen=True)
class PureState:
    """Unit-norm state vector on a Hilbert space of dimension ``dim``."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = _frozen(np.asarray(self.amplitudes, dtype=complex).reshape(-1))
        object.__setattr__(self, "amplitudes", _check_kets(amps))

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def density(self) -> "DensityMatrix":
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()))


def _check_kets(kets):
    """``kets`` (..., d) if each is a unit vector within NORM_TOL, the one rule of
    ``PureState`` and ``RegisterState`` (a non-finite ket fails it); ValueError otherwise."""
    with np.errstate(invalid="ignore", over="ignore"):  # inf * 0 in |inf|^2
        norms = np.atleast_1d(np.sqrt(np.einsum("...i,...i->...", kets.conj(), kets).real))
    off = norms[~(np.abs(norms - 1.0) <= NORM_TOL)]
    if off.size:
        raise ValueError(f"state vector norm {off[0]} deviates from 1 by more than {NORM_TOL}")
    return kets


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix."""

    data: np.ndarray

    def __post_init__(self):
        m = _frozen(np.asarray(self.data, dtype=complex))
        object.__setattr__(self, "data", m)
        if m.ndim != 2:
            raise ValueError("density matrix must be square")
        _check_density_stack(m)

    @property
    def dim(self) -> int:
        return self.data.shape[0]


def _check_density_stack(m):
    """Raise ValueError unless every matrix of the stack ``m`` (shape
    (..., d, d)) is Hermitian, of unit trace and positive semidefinite
    within tolerance; returns ``m``.  Non-finite entries fail first.  Every
    eigenvalue exceeds -PSD_TOL exactly when m + PSD_TOL * I has a Cholesky
    factor, so one batched Cholesky covers the whole stack."""
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError("density matrix must be square")
    if not np.isfinite(m).all():
        raise ValueError("density matrix has a non-finite entry")
    if not np.abs(m - m.conj().swapaxes(-1, -2)).max() <= HERMITIAN_TOL:
        raise ValueError("density matrix is not Hermitian within tolerance")
    tr = np.einsum("...ii->...", m)
    if not (np.abs(tr.real - 1.0).max() <= TRACE_TOL and np.abs(tr.imag).max() <= TRACE_TOL):
        raise ValueError("density matrix trace deviates from 1")
    try:
        np.linalg.cholesky(m + PSD_TOL * np.eye(m.shape[-1]))
    except np.linalg.LinAlgError:
        raise ValueError("density matrix has a negative eigenvalue below tolerance") from None
    return m


def as_density(state) -> DensityMatrix:
    """Coerce a PureState, DensityMatrix or raw array to a DensityMatrix."""
    if isinstance(state, DensityMatrix):
        return state
    if isinstance(state, PureState):
        return state.density()
    arr = np.asarray(state, dtype=complex)
    if arr.ndim == 1:
        return PureState(arr).density()
    return DensityMatrix(arr)


def pauli_axis(axis):
    """``axis`` as one of PAULI_AXES, in any case; ValueError otherwise."""
    if not isinstance(axis, str) or axis.upper() not in PAULI_AXES:
        raise ValueError(f"unknown Pauli axis {axis!r}")
    return axis.upper()


def _within(name, kind, value, low, high):
    """``value`` if in [low, high], else ValueError "{name} must lie in [low, high], not v" or,
    with no high, "{name} must be {kind} >= low, not v"; an int past float range shows its bits."""
    if low <= value <= high:
        return value
    big = isinstance(value, int) and not abs(value) <= sys.float_info.max  # str may refuse it
    shown = f"a {'negative ' * (value < 0)}{value.bit_length()}-bit integer" if big else repr(value)
    shape = f"be {kind} >= {low}" if high == math.inf else f"lie in [{low}, {high}]"
    raise ValueError(f"{name} must {shape}, not {shown}")


def integer(name, value, low, high=math.inf) -> int:
    """``value`` as an int if it is an integer, not a bool, in [low, high] (``_within``)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer >= {low}, not {value!r}")
    return int(_within(name, "an integer", value, low, high))


def real(name, value, low=-math.inf, high=math.inf) -> float:
    """``value`` as a float if it is finite and real, not a bool, in [low, high] (``_within``)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, not {value!r}")
    if not abs(value) <= sys.float_info.max:  # a huge integer is not finite either
        raise ValueError(f"{name} must be finite")
    return float(_within(name, "a real number", value, low, high))


def pauli_matrix(axis: str):
    """Single-qubit Pauli matrix in the computational basis."""
    return _PAULI[pauli_axis(axis)].copy()


@dataclass(frozen=True)
class LogicalFrame:
    """The protocol's two-dimensional logical subspace of an n-qubit
    register, spanned by the orthogonal poles R^n and L^n of the per-qubit
    circular states: the per-qubit phase encoding acts inside it as a
    rotation about logical Y, and at n = 1 all three logical operators reduce
    to the ordinary Paulis.

    ``mub_probe`` holds the axis convention: the poles are the +1/-1
    eigenstates of logical Y, and the logical Z and X eigenstates are their
    real and imaginary equal-weight superpositions.  ``logical_projectors``
    measures each logical Pauli through those probes.
    """

    n: int
    pole0: PureState = field(init=False, compare=False, repr=False)
    pole1: PureState = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        n = integer("n", self.n, 1, MAX_QUBITS)  # before the 2^n-entry poles are built
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "pole0", PureState(kron_power(KET_R, n)))
        object.__setattr__(self, "pole1", PureState(kron_power(KET_L, n)))

    @property
    def dim(self) -> int:
        return 2 ** self.n

    @classmethod
    def standard(cls, n: int) -> "LogicalFrame":
        """The frame of n qubits, ``LogicalFrame(n)``."""
        return cls(n)


def parse_probe_label(label) -> tuple:
    """Normalize a signed Pauli label, a string like '+X', '-z' or 'Y' with
    at most one sign before a ``pauli_axis``, to (axis, sign).  Anything
    else raises ValueError."""
    if not isinstance(label, str):
        raise ValueError(f"invalid signed Pauli label {label!r}")
    text = label.strip()
    axis = text[1:] if text.startswith(("+", "-")) else text
    return pauli_axis(axis), -1 if text.startswith("-") else 1


SIGNED_LABELS = ("+X", "-X", "+Y", "-Y", "+Z", "-Z")


def mub_probe(frame: LogicalFrame, label) -> PureState:
    """+1 eigenvector of the signed logical Pauli within the frame subspace."""
    axis, sign = parse_probe_label(label)
    p0, p1 = frame.pole0.amplitudes, frame.pole1.amplitudes
    if axis == "Y":
        vec = p0 if sign == 1 else p1
    elif axis == "Z":
        vec = (p0 + sign * p1) / np.sqrt(2)
    else:
        vec = (p0 + sign * 1j * p1) / np.sqrt(2)
    return PureState(vec)


def logical_projectors(frame: LogicalFrame, axis: str):
    """The measurement of a logical Pauli, one read-only (3, d, d) stack in
    outcome-slot order: |-a><-a|, the leak projector I - (subspace
    projector), |+a><+a|.  At n = 1 the frame spans the qubit and the leak
    slot is exactly zero."""
    axis = pauli_axis(axis)
    minus, plus = (mub_probe(frame, sign + axis).amplitudes for sign in "-+")
    p0, p1 = frame.pole0.amplitudes, frame.pole1.amplitudes
    leak = (np.eye(frame.dim) - (np.outer(p0, p0.conj()) + np.outer(p1, p1.conj()))
            if frame.n > 1 else np.zeros((2, 2)))
    return _frozen([np.outer(minus, minus.conj()), leak, np.outer(plus, plus.conj())])


def _kron_stack(a, b):
    """Kronecker product of the last two axes, broadcast over the leading ones."""
    rows, cols = a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (rows, cols))


def encoding_unitary(n: int, phi):
    """Per-qubit phase rotation exp(i*phi*Y), tensored over n qubits.

    Restricted to span{R^n, L^n} it acts as diag(e^{i n phi}, e^{-i n phi}).
    An array of angles gives the stack of their unitaries.
    """
    n = integer("n", n, 1, MAX_QUBITS)
    phi = np.asarray(phi, dtype=float)[..., None, None]
    single = np.cos(phi) * _I2 + 1j * np.sin(phi) * _PAULI["Y"]
    out = single
    for _ in range(n - 1):
        out = _kron_stack(out, single)
    return out


@functools.lru_cache(maxsize=None)
def resource_state(n: int) -> PureState:
    """Entangled (1+n)-qubit probe shared between the provider and sensor:
    (|0>|a> + |1> Zb|a>)/sqrt(2), with |a> the +X probe of the standard
    frame and Zb = P+ - P- of its logical Z measurement.

    It is the joint +1 eigenstate of the commuting checks: Xb a = a and
    Xb Zb a = -Zb a give Z (x) Xb, Zb^2 a = a gives X (x) Zb, and Y (x) Yb
    is their product.  For n = 1 this is (|0>|+> + |1>|->)/sqrt(2) up to a
    global phase; at every n the first qubit's reduced state is maximally mixed.
    """
    frame = LogicalFrame.standard(n)
    minus, _leak, plus = logical_projectors(frame, "Z")
    a = mub_probe(frame, "+X").amplitudes
    return PureState(np.concatenate([a, (plus - minus) @ a]) / np.sqrt(2))


def depolarizing_channel(p: float, n_qubits: int = 1):
    """Kraus operators of the register depolarizing map
    rho -> (1-p) rho + p I/d on n qubits, one read-only (4^n + 1, d, d) stack.

    Kraus form: sqrt(1-p) I, then the d^2 matrix units |i><j| scaled by
    sqrt(p/d), since sum_ij |i><j| rho |j><i| = Tr(rho) I; the units are
    the rows of a d^2 x d^2 diagonal.
    """
    real("p", p, 0, 1)
    d = 2 ** integer("n_qubits", n_qubits, 1, MAX_QUBITS)
    kraus = np.zeros((d * d + 1, d, d), dtype=complex)
    np.fill_diagonal(kraus[0], np.sqrt(1.0 - p))
    np.fill_diagonal(kraus[1:].reshape(d * d, d * d), np.sqrt(p / d))
    kraus.setflags(write=False)
    return kraus


def apply_instrument(states, branches):
    """A stack of states (..., d, d) through every branch of a weighted
    instrument, a list of (weight, kraus_operators) branches: the
    weighted branch images, shape (..., branch, d, d), densely: m d^3 per state
    for m Kraus operators, for the backward leg's mixed states and the fidelity
    oracle, while the forward push maps the probes' kets (``protocol._push``)."""
    return np.stack([weight * sum(k @ states @ k.conj().T for k in kraus)
                     for weight, kraus in branches], axis=-3)


def fidelity_stack(a, b):
    """``fidelity`` of each pair of checked states of two (..., d, d) stacks."""
    vals, vecs = np.linalg.eigh(a)
    sa = (vecs * np.sqrt(np.clip(vals, 0.0, None))[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
    vals = np.clip(np.linalg.eigvalsh(sa @ b @ sa), 0.0, None)
    # drop each matrix's numerical noise floor; sqrt amplifies it otherwise
    vals[vals < vals[..., -1:] * 1e-13] = 0.0
    return np.sqrt(vals).sum(axis=-1) ** 2


def trace_distance_stack(a, b):
    """``trace_distance`` of each pair of states of two (..., d, d) stacks."""
    return 0.5 * np.abs(np.linalg.eigvalsh(a - b)).sum(axis=-1)


def fidelity(a, b) -> float:
    """F(rho, sigma) = ||sqrt(rho) sqrt(sigma)||_1^2, which is |<a|b>|^2
    for pure inputs and <psi|rho|psi> for one pure input."""
    ra, rb = as_density(a), as_density(b)
    if ra.dim != rb.dim:
        raise DimensionMismatchError("states have different dimensions")
    return float(fidelity_stack(ra.data, rb.data))


def trace_distance(a, b) -> float:
    """D(rho, sigma) = (1/2) ||rho - sigma||_1."""
    ra, rb = as_density(a), as_density(b)
    if ra.dim != rb.dim:
        raise DimensionMismatchError("states have different dimensions")
    return float(trace_distance_stack(ra.data, rb.data))


def partial_trace(state, dims, keep) -> DensityMatrix:
    """Reduced state over the subsystems listed in ``keep`` (indices into
    dims), by one einsum that sums each other subsystem's row and column."""
    rho = as_density(state)
    if int(np.prod(dims)) != rho.dim:
        raise DimensionMismatchError("subsystem dims do not multiply to the state dim")
    n, keep = len(dims), sorted(keep)
    cols = [n + i if i in keep else i for i in range(n)]
    d_keep = math.prod(dims[i] for i in keep)
    reduced = np.einsum(rho.data.reshape(list(dims) * 2), list(range(n)) + cols,
                        keep + [cols[i] for i in keep])
    return DensityMatrix(reduced.reshape(d_keep, d_keep))


def embed_operator(op, dims, targets):
    """Lift ``op`` acting on the listed subsystems to the full product space,
    as its Kronecker product with the identity on the others moved into
    place; a stack (..., d_t, d_t) is lifted matrix by matrix.  On every
    subsystem in order the result is ``op`` itself (the input, if complex)."""
    op = np.asarray(op, dtype=complex)
    order = list(targets) + [i for i in range(len(dims)) if i not in targets]
    d, d_t = math.prod(dims), math.prod(dims[i] for i in targets)
    if op.ndim < 2 or op.shape[-2:] != (d_t, d_t):
        raise DimensionMismatchError("operator does not match target register dims")
    if list(targets) == list(range(len(dims))):
        return op
    n, lead = len(dims), op.shape[:-2]
    full = _kron_stack(op, np.eye(d // d_t)).reshape(lead + tuple(dims[i] for i in order) * 2)
    back = [len(lead) + order.index(i) for i in range(n)]
    return full.transpose(*range(len(lead)), *back, *(b + n for b in back)).reshape(lead + (d, d))


def ginibre_states(normals):
    """Checked Ginibre-induced (..., d, d) states from (..., 2, d, d) normals,
    real then imaginary parts; ``random_density_matrix`` is the one-state case."""
    g = normals[..., 0, :, :] + 1j * normals[..., 1, :, :]
    m = g @ g.conj().swapaxes(-1, -2)
    return _check_density_stack(m / np.trace(m, axis1=-2, axis2=-1).real[..., None, None])


def random_density_matrix(dim: int, rng) -> DensityMatrix:
    """Ginibre-induced random state of full rank."""
    return DensityMatrix(ginibre_states(rng.normal(size=(2, dim, dim))))


def pick(probs, rng):
    """One outcome index per row of ``probs`` (B, K), one uniform per row
    in row order: the inverse CDF of the row with its negative (roundoff)
    entries clipped to 0.  A uniform that lands on a CDF step goes to the
    next outcome, and an all-zero row picks the last outcome."""
    cdf = np.cumsum(np.clip(probs, 0.0, None), axis=1)
    u = rng.random(len(cdf)) * cdf[:, -1]
    return np.minimum((cdf <= u[:, None]).sum(axis=1), cdf.shape[1] - 1)


class RegisterState:
    """Mutable stack of multi-register pure states, for round-by-round
    simulation (the protocol's register engine, which makes one per batch).

    ``psi`` is one (B, d) stack of kets over the registers ``labels`` of
    dimensions ``dims``, in that order: B independent rounds undergo the
    same operations.  Every ket it takes in passes ``PureState``'s rule
    (``_check_kets``), and a mixed state is refused with ValueError.  An
    operator (one matrix, or a stack of B) or a measurement (one operator
    stack, or a stack of B) acts on its registers lifted to the whole stack
    (``embed_operator``).  The engine reads each outcome as ``pick`` over
    ``probabilities``, so ``measure``, which also keeps the post-measurement
    ket, has no engine caller.
    """

    def __init__(self, labels, dims, psi):
        psi = np.asarray(psi, dtype=complex)
        if psi.ndim != 2 or psi.shape[1] != math.prod(dims):
            raise DimensionMismatchError(
                f"register stack of shape {psi.shape} does not match dims {list(dims)}")
        self.labels, self.dims, self.psi = list(labels), list(dims), _check_kets(psi)
        self.probe = self.labels[-1]

    @property
    def batch(self) -> int:
        return self.psi.shape[0]

    def attach(self, label, state):
        """Append register ``label`` in ``state``, a PureState for every
        element or a (B, d) stack of kets; a density matrix raises ValueError."""
        if isinstance(state, PureState):
            new = state.amplitudes[None]  # checked when it was made
        elif np.ndim(state) == 2:
            new = _check_kets(np.asarray(state, dtype=complex))
        else:
            raise ValueError("the register holds pure states: attach a PureState "
                             "or a (B, d) stack of kets")
        out = self.psi[:, :, None] * new[:, None, :]
        self.psi = out.reshape(out.shape[0], -1)
        self.labels.append(label)
        self.dims.append(new.shape[-1])

    def apply_unitary(self, u, labels):
        """Apply ``u`` to registers ``labels``, or ``u[b]`` to element b for a stack."""
        u = embed_operator(u, self.dims, [self.labels.index(label) for label in labels])
        self.psi = (u @ self.psi[:, :, None])[..., 0]

    def _born(self, operators, label):
        """Each element's images K_k psi, (B, K, d), and their squared norms (B, K)."""
        full = embed_operator(operators, self.dims, [self.labels.index(label)])
        d = full.shape[-1]
        images = (self.psi @ full.reshape(-1, d).T if full.ndim == 3  # one stack: one product
                  else full.reshape(self.batch, -1, d) @ self.psi[:, :, None])
        images = images.reshape(self.batch, -1, d)
        return images, np.einsum("bki,bki->bk", images.conj(), images).real

    def probabilities(self, operators, label):
        """The Born probabilities (B, K) that ``measure`` picks from; the state is kept."""
        return self._born(operators, label)[1]

    def measure(self, operators, label, rng):
        """Measure register ``label`` with Kraus operators, one (K, d, d) stack
        or one per element, (B, K, d, d): each element's outcome k, returned,
        is ``pick``ed from ||K_k psi||^2, and it keeps K_k psi normalized (for
        a Kraus set that is not projective, one pure trajectory of its channel)."""
        images, probs = self._born(operators, label)
        k = pick(probs, rng)
        b = np.arange(self.batch)
        self.psi = images[b, k] / np.sqrt(probs[b, k])[:, None]
        return k

    def trace_out(self, label):
        """Drop register ``label``; returns its (B, d) kets, each element's
        leading Schmidt vector against the other registers, which keep theirs.
        A leading Schmidt coefficient off 1 by more than NORM_TOL, which an
        entangled register leaves, raises ValueError: the rest would be mixed.
        The only register is returned as it is."""
        target = self.labels.index(label)
        if len(self.dims) == 1:
            dropped, self.psi = _check_kets(self.psi), np.ones((self.batch, 1), dtype=complex)
        else:
            d = self.dims[target]
            m = _check_kets(self.psi).reshape(self.batch, math.prod(self.dims[:target]), d, -1)
            u, schmidt, vh = np.linalg.svd(m.swapaxes(1, 2).reshape(self.batch, d, -1),
                                           full_matrices=False)
            if not (np.abs(schmidt[:, 0] - 1.0) <= NORM_TOL).all():
                raise ValueError(f"register {label!r} is entangled with the others: "
                                 "dropping it would leave a mixed state")
            dropped, self.psi = u[:, :, 0], schmidt[:, :1] * vh[:, 0]
        del self.labels[target], self.dims[target]
        return dropped
