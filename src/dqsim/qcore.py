"""Exact linear-algebra substrate for small multi-qubit protocol simulations.

States, observables, channels and measurements for registers of up to a few
qubits, plus the specific entangled resource states, logical-subspace Pauli
operators and phase-encoding unitaries used by the sensing protocols.
Everything is dense complex linear algebra; nothing here scales past n = 4
probe qubits and nothing needs to.

All objects are immutable after construction and all operations are pure
functions taking an explicit rng where sampling is involved, so concurrent
read access is safe.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

# Tolerances for type invariants.
HERMITIAN_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-10
NORM_TOL = 1e-12
KRAUS_TOL = 1e-10
EIGENVALUE_GROUP_TOL = 1e-8

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
    for _ in range(n):
        out = np.kron(out, op)
    return out


@dataclass(frozen=True)
class PureState:
    """Unit-norm state vector on a Hilbert space of dimension ``dim``."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = _frozen(np.asarray(self.amplitudes, dtype=complex).reshape(-1))
        object.__setattr__(self, "amplitudes", amps)
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state vector norm {norm} deviates from 1 by more than {NORM_TOL}")

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def density(self) -> "DensityMatrix":
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()))


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
    within tolerance; returns ``m``.  One eigvalsh covers the whole stack."""
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError("density matrix must be square")
    if np.abs(m - m.conj().swapaxes(-1, -2)).max() > HERMITIAN_TOL:
        raise ValueError("density matrix is not Hermitian within tolerance")
    tr = m.trace(axis1=-2, axis2=-1)
    if np.abs(tr.real - 1.0).max() > TRACE_TOL or np.abs(tr.imag).max() > TRACE_TOL:
        raise ValueError("density matrix trace deviates from 1")
    if np.linalg.eigvalsh(m)[..., 0].min() < -PSD_TOL:
        raise ValueError("density matrix has a negative eigenvalue below tolerance")
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


def canonical_eigh(matrix):
    """Eigendecomposition with a reproducible convention.

    Eigenvalues ascending; each eigenvector's phase is fixed so that its
    first component with magnitude above 1e-9 is real and positive.
    """
    vals, vecs = np.linalg.eigh(matrix)
    for k in range(vecs.shape[1]):
        col = vecs[:, k]
        nz = np.flatnonzero(np.abs(col) > 1e-9)
        if nz.size:
            phase = col[nz[0]] / abs(col[nz[0]])
            vecs[:, k] = col / phase
    return vals, vecs


@dataclass(frozen=True)
class Observable:
    """Hermitian operator with cached spectral decomposition.

    ``eigenvalues`` holds the distinct eigenvalues (ascending) and
    ``eigenprojectors`` the matching orthogonal projectors, complete on the
    whole space.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenprojectors: tuple

    def __post_init__(self):
        m = _frozen(np.asarray(self.matrix, dtype=complex))
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "eigenvalues", _frozen(np.asarray(self.eigenvalues, dtype=float)))
        object.__setattr__(self, "eigenprojectors", tuple(_frozen(p) for p in self.eigenprojectors))
        if np.max(np.abs(m - m.conj().T)) > HERMITIAN_TOL:
            raise ValueError("observable is not Hermitian within tolerance")
        recon = sum(l * p for l, p in zip(self.eigenvalues, self.eigenprojectors))
        if np.max(np.abs(recon - m)) > HERMITIAN_TOL:
            raise ValueError("spectral decomposition does not reproduce the matrix")
        total = sum(self.eigenprojectors)
        if np.max(np.abs(total - np.eye(self.dim))) > HERMITIAN_TOL:
            raise ValueError("eigenprojectors are not complete")
        for i, p in enumerate(self.eigenprojectors):
            for q in self.eigenprojectors[i + 1:]:
                if np.max(np.abs(p @ q)) > HERMITIAN_TOL:
                    raise ValueError("eigenprojectors are not orthogonal")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_matrix(cls, matrix) -> "Observable":
        matrix = np.asarray(matrix, dtype=complex)
        vals, vecs = canonical_eigh(matrix)
        distinct = []
        projectors = []
        k = 0
        while k < len(vals):
            j = k
            while j + 1 < len(vals) and vals[j + 1] - vals[k] < EIGENVALUE_GROUP_TOL:
                j += 1
            block = vecs[:, k:j + 1]
            distinct.append(float(np.mean(vals[k:j + 1])))
            projectors.append(block @ block.conj().T)
            k = j + 1
        return cls(matrix, np.array(distinct), tuple(projectors))


def pauli(axis: str) -> Observable:
    """Single-qubit Pauli observable in the computational basis."""
    axis = axis.upper()
    if axis not in PAULI_AXES:
        raise ValueError(f"unknown Pauli axis {axis!r}")
    return Observable.from_matrix(_PAULI[axis])


def pauli_matrix(axis: str):
    return _PAULI[axis.upper()].copy()


# Cyclic successor on (X, Y, Z): successor(X)=Y, successor(Y)=Z, successor(Z)=X.
_SUCC = {"X": "Y", "Y": "Z", "Z": "X"}


@dataclass(frozen=True)
class LogicalFrame:
    """Two-dimensional logical subspace of an n-qubit register.

    ``pole0``/``pole1`` span the subspace and are the +1/-1 eigenstates of
    the logical Pauli named by ``pole_axis``.  The other two logical Paulis
    are fixed by the cyclic algebra: the successor axis of ``pole_axis`` acts
    as the flip |pole0><pole1| + h.c., the predecessor as the corresponding
    -i/+i combination, so that the three operators square to the subspace
    projector and anticommute pairwise on it.

    The protocol frame (``standard``) uses the per-qubit circular states
    R^n / L^n as poles with pole_axis Y: the per-qubit phase encoding then
    acts inside the subspace as a rotation about the diagonal logical Pauli,
    and at n = 1 all three logical operators reduce to the ordinary Paulis.
    """

    n: int
    pole0: PureState
    pole1: PureState
    pole_axis: str = "Y"

    def __post_init__(self):
        if self.pole_axis not in PAULI_AXES:
            raise ValueError(f"invalid pole axis {self.pole_axis!r}")
        if self.pole0.dim != 2 ** self.n or self.pole1.dim != 2 ** self.n:
            raise ValueError("pole dimension does not match qubit count")
        overlap = np.vdot(self.pole0.amplitudes, self.pole1.amplitudes)
        if abs(overlap) > NORM_TOL * 10:
            raise ValueError("poles are not orthogonal")

    @property
    def dim(self) -> int:
        return 2 ** self.n

    @classmethod
    def standard(cls, n: int) -> "LogicalFrame":
        """Protocol frame: poles R^n and L^n, diagonal axis Y."""
        return cls(n, PureState(kron_power(KET_R, n)), PureState(kron_power(KET_L, n)), "Y")

    @classmethod
    def computational(cls, n: int) -> "LogicalFrame":
        """Frame with poles |0...0> and |1...1>, diagonal axis Z."""
        e0 = np.zeros(2 ** n, dtype=complex)
        e0[0] = 1.0
        e1 = np.zeros(2 ** n, dtype=complex)
        e1[-1] = 1.0
        return cls(n, PureState(e0), PureState(e1), "Z")

    def subspace_projector(self):
        p0, p1 = self.pole0.amplitudes, self.pole1.amplitudes
        return np.outer(p0, p0.conj()) + np.outer(p1, p1.conj())

    def _bold_matrix(self, axis: str):
        p0, p1 = self.pole0.amplitudes, self.pole1.amplitudes
        m00 = np.outer(p0, p0.conj())
        m11 = np.outer(p1, p1.conj())
        m01 = np.outer(p0, p1.conj())
        m10 = np.outer(p1, p0.conj())
        if axis == self.pole_axis:
            return m00 - m11
        if axis == _SUCC[self.pole_axis]:
            return m01 + m10
        return -1j * m01 + 1j * m10


def bold_pauli(frame: LogicalFrame, axis: str) -> Observable:
    """Logical Pauli of the frame: +-1 on the subspace, 0 on its complement."""
    axis = axis.upper()
    if axis not in PAULI_AXES:
        raise ValueError(f"unknown Pauli axis {axis!r}")
    return Observable.from_matrix(frame._bold_matrix(axis))


def parse_probe_label(label) -> tuple:
    """Normalize a signed Pauli label like '+X' or ('Z', -1) to (axis, sign)."""
    if isinstance(label, str):
        label = label.strip()
        sign = -1 if label.startswith("-") else 1
        axis = label.lstrip("+-").upper()
    else:
        axis, sign = label
        axis = axis.upper()
        sign = int(sign)
    if axis not in PAULI_AXES or sign not in (1, -1):
        raise ValueError(f"invalid signed Pauli label {label!r}")
    return axis, sign


SIGNED_LABELS = ("+X", "-X", "+Y", "-Y", "+Z", "-Z")


def mub_probe(frame: LogicalFrame, label) -> PureState:
    """+1 eigenvector of the signed logical Pauli within the frame subspace."""
    axis, sign = parse_probe_label(label)
    p0, p1 = frame.pole0.amplitudes, frame.pole1.amplitudes
    if axis == frame.pole_axis:
        vec = p0 if sign == 1 else p1
    elif axis == _SUCC[frame.pole_axis]:
        vec = (p0 + sign * p1) / np.sqrt(2)
    else:
        vec = (p0 + sign * 1j * p1) / np.sqrt(2)
    return PureState(vec)


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
    phi = np.asarray(phi, dtype=float)[..., None, None]
    single = np.cos(phi) * _I2 + 1j * np.sin(phi) * _PAULI["Y"]
    out = single
    for _ in range(n - 1):
        out = _kron_stack(out, single)
    return out


@functools.lru_cache(maxsize=None)
def resource_state(n: int) -> PureState:
    """Entangled (1+n)-qubit probe shared between the provider and sensor.

    Defined operationally as the unique joint +1 eigenstate of the three
    commuting check operators X (x) Zb, Z (x) Xb, Y (x) Yb, with the logical
    operators taken in the standard frame.  For n = 1 this is
    (|0>|+> + |1>|->)/sqrt(2); the reduced state on the first qubit is
    maximally mixed for every n.
    """
    frame = LogicalFrame.standard(n)
    s_total = sum(
        np.kron(_PAULI[a], frame._bold_matrix(b))
        for a, b in (("X", "Z"), ("Z", "X"), ("Y", "Y"))
    )
    vals, vecs = canonical_eigh(s_total)
    if abs(vals[-1] - 3.0) > 1e-9 or vals[-2] > 3.0 - 1e-6:
        raise RuntimeError("resource state eigenproblem is degenerate")
    return PureState(vecs[:, -1])


@dataclass(frozen=True)
class Channel:
    """Completely positive trace-preserving map in Kraus form."""

    dim_in: int
    dim_out: int
    kraus_operators: tuple

    def __post_init__(self):
        ops = tuple(_frozen(np.asarray(k, dtype=complex)) for k in self.kraus_operators)
        object.__setattr__(self, "kraus_operators", ops)
        for k in ops:
            if k.shape != (self.dim_out, self.dim_in):
                raise DimensionMismatchError("Kraus operator shape does not match channel dims")
        total = sum(k.conj().T @ k for k in ops)
        if np.max(np.abs(total - np.eye(self.dim_in))) > KRAUS_TOL:
            raise ValueError("Kraus operators do not satisfy the completeness relation")


def identity_channel(dim: int) -> Channel:
    return Channel(dim, dim, (np.eye(dim, dtype=complex),))


def _pauli_strings(n: int):
    ops = [np.array([[1.0 + 0j]])]
    for _ in range(n):
        ops = [np.kron(o, m) for o in ops for m in (_I2, _PAULI["X"], _PAULI["Y"], _PAULI["Z"])]
    return ops


def depolarizing_channel(p: float, n_qubits: int = 1) -> Channel:
    """Register depolarizing map rho -> (1-p) rho + p I/d on n qubits."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("depolarizing probability must lie in [0, 1]")
    d = 2 ** n_qubits
    strings = _pauli_strings(n_qubits)
    kraus = [np.sqrt(1.0 - p + p / d ** 2) * strings[0]]
    kraus += [np.sqrt(p / d ** 2) * s for s in strings[1:]]
    return Channel(d, d, tuple(kraus))


def expectation(obs: Observable, state) -> float:
    """Tr[O rho]."""
    rho = as_density(state)
    if obs.dim != rho.dim:
        raise DimensionMismatchError("observable and state dimensions differ")
    val = np.trace(obs.matrix @ rho.data)
    return float(val.real)


def _sqrtm_psd(m):
    vals, vecs = np.linalg.eigh(m)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def fidelity(a, b) -> float:
    """F(rho, sigma) = ||sqrt(rho) sqrt(sigma)||_1^2; |<a|b>|^2 for pure inputs."""
    if isinstance(a, PureState) and isinstance(b, PureState):
        if a.dim != b.dim:
            raise DimensionMismatchError("states have different dimensions")
        return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)
    if isinstance(a, PureState) or isinstance(b, PureState):
        psi, rho = (a, b) if isinstance(a, PureState) else (b, a)
        rho = as_density(rho)
        if psi.dim != rho.dim:
            raise DimensionMismatchError("states have different dimensions")
        return float((psi.amplitudes.conj() @ rho.data @ psi.amplitudes).real)
    ra, rb = as_density(a), as_density(b)
    if ra.dim != rb.dim:
        raise DimensionMismatchError("states have different dimensions")
    sa = _sqrtm_psd(ra.data)
    prod = sa @ rb.data @ sa
    vals = np.clip(np.linalg.eigvalsh(prod), 0.0, None)
    # drop the numerical noise floor; sqrt amplifies it otherwise
    if vals.size and vals[-1] > 0:
        vals[vals < vals[-1] * 1e-13] = 0.0
    return float(np.sum(np.sqrt(vals)) ** 2)


def trace_distance(a, b) -> float:
    """D(rho, sigma) = (1/2) ||rho - sigma||_1."""
    ra, rb = as_density(a), as_density(b)
    if ra.dim != rb.dim:
        raise DimensionMismatchError("states have different dimensions")
    vals = np.linalg.eigvalsh(ra.data - rb.data)
    return float(0.5 * np.sum(np.abs(vals)))


def partial_trace(state, dims, keep) -> DensityMatrix:
    """Reduced state over the subsystems listed in ``keep`` (indices into dims)."""
    rho = as_density(state)
    dims = list(dims)
    if int(np.prod(dims)) != rho.dim:
        raise DimensionMismatchError("subsystem dims do not multiply to the state dim")
    keep = sorted(keep)
    n = len(dims)
    tensor = rho.data.reshape(dims + dims)
    cur = n
    # Trace highest non-kept axis first so remaining axis positions stay valid.
    for idx in sorted((i for i in range(n) if i not in keep), reverse=True):
        tensor = np.trace(tensor, axis1=idx, axis2=idx + cur)
        cur -= 1
    d_keep = int(np.prod([dims[i] for i in keep])) if keep else 1
    return DensityMatrix(tensor.reshape(d_keep, d_keep))


@functools.lru_cache(maxsize=None)
def _lift_plan(dims, targets):
    """Index map lifting an operator on ``targets`` to the product space.

    Entry (i, j) of the lifted operator is entry ``plan[i, j]`` of the
    operator's flattened matrix with one zero appended: the operator's
    element for the target parts of basis states i and j where their other
    parts agree, the zero where they differ.
    """
    rest = [i for i in range(len(dims)) if i not in targets]
    d = int(np.prod(dims))
    multi = np.unravel_index(np.arange(d), dims)
    t_idx, r_idx = np.zeros(d, dtype=np.intp), np.zeros(d, dtype=np.intp)
    for i in targets:
        t_idx = t_idx * dims[i] + multi[i]
    for i in rest:
        r_idx = r_idx * dims[i] + multi[i]
    d_t = int(np.prod([dims[i] for i in targets]))
    plan = t_idx[:, None] * d_t + t_idx[None, :]
    plan[r_idx[:, None] != r_idx[None, :]] = d_t * d_t
    plan.setflags(write=False)
    return plan, d_t


def embed_operator(op, dims, targets):
    """Lift ``op`` acting on the listed subsystems to the full product space.

    ``op`` may be a stack (..., d_t, d_t); each matrix is lifted.
    """
    op = np.asarray(op, dtype=complex)
    plan, d_t = _lift_plan(tuple(dims), tuple(targets))
    if op.ndim < 2 or op.shape[-2:] != (d_t, d_t):
        raise DimensionMismatchError("operator does not match target register dims")
    flat = op.reshape(op.shape[:-2] + (d_t * d_t,))
    padded = np.concatenate([flat, np.zeros(flat.shape[:-1] + (1,), dtype=complex)], axis=-1)
    return padded[..., plan]


def random_pure_state(dim: int, rng) -> PureState:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return PureState(v / np.linalg.norm(v))


def random_density_matrix(dim: int, rng, rank=None) -> DensityMatrix:
    """Ginibre-induced random state (full rank unless ``rank`` given)."""
    rank = dim if rank is None else rank
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real)


def _dagger(m):
    return m.conj().swapaxes(-1, -2)


class RegisterState:
    """Mutable stack of multi-register density matrices used by the round engine.

    ``rho`` has shape (B, d, d): a leading batch axis over B independent
    rounds that undergo the same sequence of operations, then the product
    space of the registers (dimension d).  An operator applied to the stack
    is either one matrix for every element or a stack of B matrices, one
    per element.  Registers are addressed by label; attach/trace operations
    let an adversary splice its own ancillas into the rounds' quantum state.
    This is the one deliberately mutable object in the module; the engine
    makes a fresh instance for every batch of rounds.
    """

    def __init__(self, labels, dims, rho):
        self.labels = list(labels)
        self.dims = list(dims)
        self.rho = np.asarray(rho, dtype=complex)
        d = int(np.prod(self.dims))
        if self.rho.ndim != 3 or self.rho.shape[1:] != (d, d):
            raise DimensionMismatchError(
                f"register stack of shape {self.rho.shape} does not match dims {self.dims}")
        self.probe = self.labels[-1]

    @classmethod
    def from_state(cls, labels, dims, state, batch=1):
        """``batch`` copies of one state."""
        rho = as_density(state).data
        return cls(labels, dims, np.broadcast_to(rho, (batch,) + rho.shape).copy())

    @property
    def batch(self) -> int:
        return self.rho.shape[0]

    def index(self, label):
        return self.labels.index(label)

    def attach(self, label, state):
        """Append register ``label`` in ``state``: one state for every
        element, or a (B, d, d) stack of checked density matrices."""
        if isinstance(state, (PureState, DensityMatrix)) or np.ndim(state) < 3:
            new = as_density(state).data
        else:
            new = _check_density_stack(np.asarray(state, dtype=complex))
        self.rho = _kron_stack(self.rho, new)
        self.labels.append(label)
        self.dims.append(new.shape[-1])

    def apply_unitary(self, u, labels):
        full = embed_operator(u, self.dims, [self.index(l) for l in labels])
        self.rho = full @ self.rho @ _dagger(full)

    def apply_kraus(self, kraus_list, labels):
        targets = [self.index(l) for l in labels]
        acc = np.zeros_like(self.rho)
        for k in kraus_list:
            full = embed_operator(k, self.dims, targets)
            acc += full @ self.rho @ _dagger(full)
        self.rho = acc

    def measure(self, obs: Observable, label, rng, which=None):
        """Projective measurement of register ``label`` in every element.

        ``obs`` is one Observable, or a list of Observables sharing one
        spectrum, element b measuring ``obs[which[b]]``.  One uniform per
        element picks its outcome by inverse CDF of the Born probabilities.
        Returns the eigenvalues found, shape (B,).
        """
        if which is None:
            obs, which = [obs], np.zeros(self.batch, dtype=np.intp)
        values = obs[0].eigenvalues
        if any(o.eigenvalues.shape != values.shape
               or np.max(np.abs(o.eigenvalues - values)) > EIGENVALUE_GROUP_TOL for o in obs):
            raise ValueError("observables measured in one batch must share a spectrum")
        projs = np.array([o.eigenprojectors for o in obs])[np.asarray(which)]
        # (k, B, d, d): outcome k's projector for every element
        full = embed_operator(projs.swapaxes(0, 1), self.dims, [self.index(label)])
        probs = np.einsum("kbij,bji->bk", full, self.rho).real
        cdf = np.cumsum(np.clip(probs, 0.0, None), axis=1)
        u = rng.random(self.batch) * cdf[:, -1]
        k = np.minimum((cdf <= u[:, None]).sum(axis=1), len(values) - 1)
        sel = full[k, np.arange(self.batch)]
        post = sel @ self.rho @ sel
        self.rho = post / np.trace(post, axis1=1, axis2=2).real[:, None, None]
        return values[k]

    def _reduced(self, keep):
        """Checked reduced stack on the registers at the positions ``keep``."""
        _check_density_stack(self.rho)
        n, keep = len(self.dims), sorted(keep)
        rows = list(range(1, n + 1))
        cols = [r if i not in keep else n + r for i, r in enumerate(rows)]
        out = [0] + [rows[i] for i in keep] + [cols[i] for i in keep]
        tensor = self.rho.reshape([self.batch] + self.dims + self.dims)
        d_keep = int(np.prod([self.dims[i] for i in keep]))
        red = np.einsum(tensor, [0] + rows + cols, out).reshape(self.batch, d_keep, d_keep)
        return _check_density_stack(red)

    def reduced(self, label):
        """Checked (B, d, d) stack of the reduced states of one register."""
        return self._reduced([self.index(label)])

    def trace_out(self, label):
        idx = self.index(label)
        self.rho = self._reduced([i for i in range(len(self.dims)) if i != idx])
        del self.labels[idx]
        del self.dims[idx]
