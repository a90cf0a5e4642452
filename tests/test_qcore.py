"""Tests for the linear-algebra substrate.

Expected values tagged as derived below were computed with independent
oracles (raw-numpy constructions, scipy.linalg.expm, closed-form algebra)
rather than with the code under test.
"""

import pathlib

import numpy as np
import pytest
import scipy.linalg

from dqsim import adversary
from dqsim import qcore as q
from test_register_walk import DenseRegisterState

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)

KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)
PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)
MINUS = np.array([1, -1], dtype=complex) / np.sqrt(2)
KET_R = np.array([1, 1j], dtype=complex) / np.sqrt(2)
KET_L = np.array([1, -1j], dtype=complex) / np.sqrt(2)


def register(*states):
    """One-register ket stack holding the given pure states, one per element."""
    return q.RegisterState(["A"], [states[0].dim], [s.amplitudes for s in states])


def copies(labels, dims, state, batch=1):
    """A register ket stack of ``batch`` copies of one pure state."""
    return q.RegisterState(labels, dims, np.broadcast_to(state.amplitudes, (batch, state.dim)))


def dense_register(*states):
    """The dense oracle register holding the given states, one per element."""
    stack = np.array([q.as_density(s).data for s in states])
    return DenseRegisterState(["A"], [stack.shape[-1]], stack)


def dense_copies(labels, dims, state, batch=1):
    """A dense oracle register of ``batch`` copies of one state."""
    rho = q.as_density(state).data
    return DenseRegisterState(labels, dims, np.broadcast_to(rho, (batch,) + rho.shape))


def densities(kets):
    """|psi><psi| of each ket of a (..., d) stack."""
    return kets[..., :, None] * kets[..., None, :].conj()


def random_pure_state(dim, rng):
    """A Haar-random pure state: normalized complex Gaussian amplitudes."""
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return q.PureState(v / np.linalg.norm(v))


def spectrum(matrix):
    """Oracle: a Hermitian matrix's distinct eigenvalues, ascending (within
    1e-8 of each other counts as one), each with its eigenprojector, by
    numpy's eigh."""
    vals, vecs = np.linalg.eigh(matrix)
    groups = np.split(np.arange(len(vals)), np.flatnonzero(np.diff(vals) > 1e-8) + 1)
    return [(float(vals[g].mean()), vecs[:, g] @ vecs[:, g].conj().T) for g in groups]


# the logical axes in the pole basis: Y diagonal, Z the flip, X the -i/+i flip
POLE_BASIS_PAULI = {"X": Y, "Y": Z, "Z": X}


def pole_pauli(frame, axis):
    """Oracle: a logical Pauli written in the frame's pole basis, V s V^dagger
    with the poles as the columns of V, +-1 on the subspace and 0 off it."""
    poles = np.stack([frame.pole0.amplitudes, frame.pole1.amplitudes], axis=1)
    return poles @ POLE_BASIS_PAULI[axis] @ poles.conj().T


def bold_pauli(frame, axis):
    """The logical Pauli P+ - P- of ``logical_projectors``."""
    minus, _leak, plus = q.logical_projectors(frame, axis)
    return plus - minus


def subspace_projector(frame):
    """Oracle: the projector onto the span of the frame's poles."""
    p0, p1 = frame.pole0.amplitudes, frame.pole1.amplitudes
    return np.outer(p0, p0.conj()) + np.outer(p1, p1.conj())


def measured_values(world, matrix, label, rng):
    """The eigenvalues of ``matrix`` that measuring it on register ``label`` finds."""
    values, projectors = zip(*spectrum(matrix))
    return np.array(values)[world.measure(np.array(projectors), label, rng)]


def expect(matrix, state):
    """Tr[O rho]."""
    return np.trace(matrix @ q.as_density(state).data).real


# ---------------------------------------------------------------- paulis

def test_pauli_z_on_ket0():
    assert expect(q.pauli_matrix("Z"), q.PureState(KET0)) == pytest.approx(1.0)


def test_pauli_y_eigenstates_are_circular():
    # Y = |R><R| - |L><L|
    py = q.pauli_matrix("Y")
    assert np.allclose(py @ KET_R, KET_R)
    assert np.allclose(py @ KET_L, -KET_L)


def test_pauli_commutator_algebra():
    px, py, pz = (q.pauli_matrix(a) for a in "XYZ")
    assert np.allclose(px @ py - py @ px, 2j * pz)


def test_pauli_rejects_unknown_axis():
    # one rule, pauli_axis, for every function that takes an axis name
    assert np.array_equal(q.pauli_matrix("z"), Z)
    assert q.pauli_axis("y") == "Y"
    frame = q.LogicalFrame.standard(1)
    takers = (q.pauli_axis, q.pauli_matrix, lambda a: q.logical_projectors(frame, a),
              lambda a: adversary.UnitaryTamperAttack(a, 0.1))
    for axis in ("W", "", None, 3, ("X",)):
        for take in takers:
            with pytest.raises(ValueError, match="unknown Pauli axis"):
                take(axis)


def test_real_range_is_inclusive_and_checked_after_type_and_finiteness():
    assert q.real("x", 0, 0, 1) == 0.0 and q.real("x", 1, 0, 1) == 1.0
    assert q.real("x", 0.25, 0.25) == 0.25 and q.real("x", -1e308) == -1e308
    with pytest.raises(ValueError, match=r"^x must lie in \[0, 1\], not 1.5$"):
        q.real("x", 1.5, 0, 1)
    with pytest.raises(ValueError, match=r"^x must lie in \[0, 1\], not -0.5$"):
        q.real("x", -0.5, 0, 1)
    with pytest.raises(ValueError, match=r"^x must be a real number >= 0, not -1e-300$"):
        q.real("x", -1e-300, 0)
    # bool, nan and inf fail their own rules first, whatever the range
    with pytest.raises(ValueError, match=r"^x must be a real number, not True$"):
        q.real("x", True, 0, 1)
    for value in (np.nan, np.inf, -np.inf, 10 ** 400):
        with pytest.raises(ValueError, match=r"^x must be finite$"):
            q.real("x", value, 0, 1)


def test_range_messages_have_one_owner():
    # every range check in the package goes through qcore.integer or qcore.real
    sources = sorted(pathlib.Path(q.__file__).parent.glob("*.py"))
    assert [p.name for p in sources if "must lie in [" in p.read_text(encoding="utf-8")] == \
        ["qcore.py"]


# ---------------------------------------------------------------- logical frames

def test_bold_pauli_n1_standard_frame_reduces_to_pauli():
    frame = q.LogicalFrame.standard(1)
    for axis in "XYZ":
        assert np.allclose(bold_pauli(frame, axis), q.pauli_matrix(axis))


def test_bold_z_spectrum_n2():
    frame = q.LogicalFrame.standard(2)
    assert np.allclose([v for v, _p in spectrum(bold_pauli(frame, "Z"))], [-1.0, 0.0, 1.0])
    # the zero eigenvalue carries the rank-2 complement, the leak slot
    assert np.trace(q.logical_projectors(frame, "Z")[1]).real == pytest.approx(2.0)


def test_bold_z_is_logical_flip():
    frame = q.LogicalFrame.standard(2)
    zb = bold_pauli(frame, "Z")
    val = frame.pole0.amplitudes.conj() @ zb @ frame.pole1.amplitudes
    assert val == pytest.approx(1.0)


@pytest.mark.parametrize("make_frame", [q.LogicalFrame.standard])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_bold_pauli_subspace_algebra(make_frame, n):
    frame = make_frame(n)
    proj = subspace_projector(frame)
    mats = {a: bold_pauli(frame, a) for a in "XYZ"}
    for a in "XYZ":
        assert np.allclose(mats[a] @ mats[a], proj, atol=1e-10)
    for a, b in (("X", "Y"), ("Y", "Z"), ("Z", "X")):
        anti = mats[a] @ mats[b] + mats[b] @ mats[a]
        assert np.max(np.abs(anti)) < 1e-10


@pytest.mark.parametrize("axis", q.PAULI_AXES)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_logical_projectors_match_eigh_oracle(n, axis):
    # slots (-1, leak, +1): a read-only complete orthogonal stack whose
    # outer slots are the eigh oracle's +-1 eigenprojectors of the logical
    # Pauli and whose leak slot is the rank d - 2 rest, exactly 0 at n = 1
    frame, d = q.LogicalFrame.standard(n), 2 ** n
    stack = q.logical_projectors(frame, axis)
    assert stack.shape == (3, d, d)
    with pytest.raises(ValueError):
        stack[0, 0, 0] = 0.0
    assert np.abs(stack.sum(axis=0) - np.eye(d)).max() <= 1e-12
    for i in range(3):
        for j in range(3):
            product = stack[i] @ stack[j]
            assert np.abs(product - (stack[i] if i == j else 0.0)).max() <= 1e-12
    eig = dict((round(v), p) for v, p in spectrum(pole_pauli(frame, axis)))
    assert np.abs(stack[0] - eig[-1]).max() <= 1e-12
    assert np.abs(stack[2] - eig[1]).max() <= 1e-12
    assert np.trace(stack[1]).real == pytest.approx(d - 2, abs=1e-12)
    if n == 1:
        assert np.all(stack[1] == 0.0)


# ---------------------------------------------------------------- encoding

def test_encoding_phi_zero_is_identity():
    assert np.allclose(q.encoding_unitary(3, 0.0), np.eye(8))


def test_encoding_phi_pi_is_global_phase():
    u = q.encoding_unitary(1, np.pi)
    assert np.allclose(u, -I2)
    psi = random_pure_state(2, np.random.default_rng(0))
    w = register(psi)
    w.apply_unitary(u, ["A"])
    for axis in "XYZ":
        assert expect(q.pauli_matrix(axis), q.PureState(w.psi[0])) == pytest.approx(
            expect(q.pauli_matrix(axis), psi))


def test_encoding_eigenvalue_on_rr_matches_expm_oracle():
    # independent oracle: expm of the summed generator
    n, phi = 2, 0.3
    gen = np.kron(Y, I2) + np.kron(I2, Y)
    oracle = scipy.linalg.expm(1j * phi * gen)
    u = q.encoding_unitary(n, phi)
    assert np.allclose(u, oracle, atol=1e-12)
    rr = np.kron(KET_R, KET_R)
    ratio = (u @ rr)[np.argmax(np.abs(rr))] / rr[np.argmax(np.abs(rr))]
    assert ratio == pytest.approx(np.exp(0.6j))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_encoding_preserves_logical_span(n):
    frame = q.LogicalFrame.standard(n)
    proj = subspace_projector(frame)
    u = q.encoding_unitary(n, 0.41)
    assert np.max(np.abs(u @ proj - proj @ u)) < 1e-12


# ---------------------------------------------------------------- resource state

def stabilizer_ops(n):
    frame = q.LogicalFrame.standard(n)
    return [
        np.kron(X, pole_pauli(frame, "Z")),
        np.kron(Z, pole_pauli(frame, "X")),
        np.kron(Y, pole_pauli(frame, "Y")),
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_resource_state_stabilizer_expectations(n):
    psi = q.resource_state(n).amplitudes
    for s in stabilizer_ops(n):
        assert (psi.conj() @ s @ psi).real == pytest.approx(1.0, abs=1e-10)
    # fidelity-check combination evaluates to 1 on the ideal state
    total = sum((psi.conj() @ s @ psi).real for s in stabilizer_ops(n))
    assert (1 + total) / 4 == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_resource_state_alice_marginal_maximally_mixed(n):
    red = q.partial_trace(q.resource_state(n), [2, 2 ** n], [0])
    assert np.allclose(red.data, I2 / 2, atol=1e-10)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_resource_state_is_the_unique_stabilizer_state(n):
    # the closed form is the top eigenvector of the summed checks, whose
    # eigenvalue 3 is non-degenerate with a gap of at least 1
    vals, vecs = np.linalg.eigh(sum(stabilizer_ops(n)))
    assert vals[-1] == pytest.approx(3.0, abs=1e-12)
    assert vals[-1] - vals[-2] >= 1.0
    psi = q.resource_state(n).amplitudes
    assert abs(np.vdot(vecs[:, -1], psi)) == pytest.approx(1.0, abs=1e-12)


def test_resource_state_n1_matches_polarization_form():
    # (|H>|D> + |V>|A>)/sqrt(2) under H->0, V->1, D->+, A->-
    target = (np.kron(KET0, PLUS) + np.kron(KET1, MINUS)) / np.sqrt(2)
    psi = q.resource_state(1).amplitudes
    assert abs(np.vdot(target, psi)) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_stabilizer_product_identity():
    # (X x Zb)(Z x Xb) equals +(Y x Yb) on the logical subspace
    for n in (1, 2):
        s1, s2, s3 = stabilizer_ops(n)
        frame = q.LogicalFrame.standard(n)
        proj_full = np.kron(I2, subspace_projector(frame))
        assert np.allclose(s1 @ s2, s3 @ proj_full, atol=1e-10)


# ---------------------------------------------------------------- MUB probes

def test_mub_probe_pole_axis():
    frame = q.LogicalFrame.standard(2)
    assert np.allclose(q.mub_probe(frame, "+Y").amplitudes, frame.pole0.amplitudes)
    assert np.allclose(q.mub_probe(frame, "-Y").amplitudes, frame.pole1.amplitudes)
    plus = (frame.pole0.amplitudes + frame.pole1.amplitudes) / np.sqrt(2)
    assert np.allclose(q.mub_probe(frame, "+Z").amplitudes, plus)


def test_logical_frame_is_fixed_by_the_qubit_count():
    # the poles are R^n and L^n, built from n alone after its range check
    frame = q.LogicalFrame(3)
    assert frame == q.LogicalFrame.standard(3) and frame.dim == 8
    assert np.allclose(frame.pole0.amplitudes, np.kron(np.kron(KET_R, KET_R), KET_R))
    assert np.allclose(frame.pole1.amplitudes, np.kron(np.kron(KET_L, KET_L), KET_L))
    with pytest.raises(TypeError):
        q.LogicalFrame(1, q.PureState(KET0), q.PureState(KET1))
    for n in (0, q.MAX_QUBITS + 1, True):
        with pytest.raises(ValueError, match="^n must"):
            q.LogicalFrame(n)


@pytest.mark.parametrize("label, parsed", [
    ("+X", ("X", 1)), ("-y", ("Y", -1)), (" z ", ("Z", 1)),
])
def test_parse_probe_label_accepts_signed_axes(label, parsed):
    assert q.parse_probe_label(label) == parsed
    assert all(type(v) in (str, int) for v in q.parse_probe_label(label))


@pytest.mark.parametrize("label", [
    (3, 1), ("X", None), 5, None, ("X", 1.5), ("X", -1.9), ("X", True), ("X", False),
    ("X", "1"), ("X", 0), ("X", 2), ("W", 1), "+W", ("X",), ("X", 1, 2), ["X", 1],
    "--X", "+-X", "-+-z", "+", "", "+ X", ("Z", -1), ("x", 1), ("Y", np.int64(-1)),
])
def test_parse_probe_label_rejects_malformed_labels(label):
    # a string only, with at most one sign before an axis; everything else,
    # a well-formed (axis, sign) tuple too, is the documented ValueError,
    # never AttributeError or TypeError
    with pytest.raises(ValueError):
        q.parse_probe_label(label)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("label", q.SIGNED_LABELS)
def test_mub_probe_is_signed_plus_one_eigenvector(n, label):
    frame = q.LogicalFrame.standard(n)
    axis, sign = q.parse_probe_label(label)
    probe = q.mub_probe(frame, label)
    mat = sign * pole_pauli(frame, axis)
    assert np.allclose(mat @ probe.amplitudes, probe.amplitudes, atol=1e-12)


# ---------------------------------------------------------------- apply / channels

def test_apply_identity_channel():
    rho = q.random_density_matrix(4, np.random.default_rng(1))
    w = dense_register(rho)
    w.apply_kraus([np.eye(4)], ["A"])
    assert np.allclose(w.rho[0], rho.data)


def test_full_depolarizing_gives_maximally_mixed():
    rng = np.random.default_rng(2)
    w = dense_register(q.random_density_matrix(2, rng), q.random_density_matrix(2, rng))
    w.apply_kraus(q.depolarizing_channel(1.0, 1), ["A"])
    assert np.allclose(w.rho, I2 / 2, atol=1e-12)


def test_depolarized_resource_state_fidelity_oracle():
    # analytic oracle: (1-p)|psi><psi| + p/4 I has fidelity 1 - 3p/4 to |psi>
    psi = q.resource_state(1)
    for p in (0.084, 0.2, 0.5):
        w = dense_copies(["A", "B"], [2, 2], psi)
        w.apply_kraus(q.depolarizing_channel(p, 1), ["B"])
        assert q.fidelity(psi, w.rho[0]) == pytest.approx(1 - 3 * p / 4, abs=1e-12)


@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_depolarizing_channel_action(n, p):
    # closed form: rho -> (1-p) rho + p I/d on random states
    d = 2 ** n
    rng = np.random.default_rng(10 * n + int(10 * p))
    kraus = q.depolarizing_channel(p, n)
    assert len(kraus) == d * d + 1
    for _ in range(3):
        rho = q.random_density_matrix(d, rng).data
        out = sum(k @ rho @ k.conj().T for k in kraus)
        assert np.max(np.abs(out - ((1 - p) * rho + p * np.eye(d) / d))) < 1e-12
    if p < 1:
        # without its identity operator the set is not complete: the
        # incomplete-instrument tests rely on that
        partial = sum(k.conj().T @ k for k in kraus[1:])
        assert np.max(np.abs(partial - np.eye(d))) > 1e-3


def test_apply_instrument_stacks_weighted_branches():
    # oracle: each branch's weighted Kraus sum on each state, one by one
    rng = np.random.default_rng(4)
    states = np.array([q.random_density_matrix(4, rng).data for _ in range(3)])[:, None]
    u = q.encoding_unitary(2, 0.4)
    branches = [(0.25, q.depolarizing_channel(0.5, 2)),
                (0.75, [u])]
    out = q.apply_instrument(states, branches)
    assert out.shape == (3, 1, 2, 4, 4)
    for rho, images in zip(states[:, 0], out[:, 0]):
        assert np.allclose(images[0], 0.25 * (0.5 * rho + 0.5 * np.eye(4) / 4), atol=1e-12)
        assert np.allclose(images[1], 0.75 * u @ rho @ u.conj().T, atol=1e-12)


def test_apply_dimension_mismatch():
    w = dense_register(q.random_density_matrix(4, np.random.default_rng(3)))
    with pytest.raises(q.DimensionMismatchError):
        w.apply_kraus([np.eye(2)], ["A"])
    with pytest.raises(q.DimensionMismatchError):
        register(q.PureState(KET0)).apply_unitary(np.eye(4), ["A"])
    with pytest.raises(q.DimensionMismatchError):
        register(q.PureState(KET0)).measure(np.eye(4)[None], "A", np.random.default_rng(3))


def test_depolarizing_kraus_stack_is_complete_and_read_only():
    # the instrument tables check trace preservation at run time; this is
    # the stack itself: 4^n + 1 operators with sum K^dagger K = I
    for n in range(1, 6):
        d = 2 ** n
        kraus = q.depolarizing_channel(0.3, n)
        assert kraus.shape == (4 ** n + 1, d, d)
        gram = np.einsum("kji,kjl->il", kraus.conj(), kraus)
        assert np.max(np.abs(gram - np.eye(d))) < 1e-10
        with pytest.raises(ValueError):
            kraus[0, 0, 0] = 0.0


def test_depolarizing_channel_caps_n_qubits():
    # the (4^n + 1, 2^n, 2^n) stack is not built past the largest probe
    with pytest.raises(ValueError, match=r"^n_qubits must lie in \[1, 5\], not 6$"):
        q.depolarizing_channel(0.1, q.MAX_QUBITS + 1)


# ---------------------------------------------------------------- measurement

def test_encoded_probe_expectation_matches_rotation_oracle():
    # oracle: raw-numpy evolution of |+> under cos(phi) I + i sin(phi) Y
    phi = 0.37
    u = np.cos(phi) * I2 + 1j * np.sin(phi) * Y
    evolved = u @ PLUS
    oracle = (evolved.conj() @ X @ evolved).real
    assert oracle == pytest.approx(np.cos(2 * phi))

    frame = q.LogicalFrame.standard(1)
    w = register(q.mub_probe(frame, "+X"))
    w.apply_unitary(q.encoding_unitary(1, phi), ["A"])
    assert expect(bold_pauli(frame, "X"), q.PureState(w.psi[0])) == pytest.approx(oracle)


def test_measurement_frequencies_match_born_rule():
    rng = np.random.default_rng(123)
    state = q.PureState(np.array([np.cos(0.4), np.sin(0.4)], dtype=complex))
    obs = Z
    # eigenvalues ascending: -1 (amplitude sin 0.4 on |1>), then +1
    probs = [np.sin(0.4) ** 2, np.cos(0.4) ** 2]
    shots = 100_000
    outcomes = measured_values(copies(["A"], [2], state, batch=shots), obs, "A", rng)
    counts = np.array([(outcomes < 0).sum(), (outcomes > 0).sum()])
    for k in range(2):
        sigma = np.sqrt(shots * probs[k] * (1 - probs[k]))
        assert abs(counts[k] - shots * probs[k]) < 4 * sigma


def test_measurement_reproducible_for_fixed_seed():
    obs = Z

    def outcomes(rng, batch=20):
        return measured_values(copies(["A"], [2], q.PureState(PLUS), batch), obs, "A", rng)

    a = outcomes(np.random.default_rng(9))
    assert np.array_equal(a, outcomes(np.random.default_rng(9)))
    assert set(a.tolist()) == {-1.0, 1.0}
    # one uniform per element, in element order
    assert a[0] == outcomes(np.random.default_rng(9), batch=1)[0]


def test_measurement_post_state_is_eigenstate():
    rng = np.random.default_rng(5)
    w = copies(["A"], [2], q.PureState(KET0), batch=8)
    vals = measured_values(w, X, "A", rng)
    for val, post in zip(vals, w.psi):
        assert expect(X, q.PureState(post)) == pytest.approx(val)


def test_measurement_per_element_observables():
    # element b measures projectors[b]: X on |+> (outcome +1, the second)
    # and Z on |1> (outcome -1, the first) are certain
    w = register(q.PureState(PLUS), q.PureState(KET1), q.PureState(PLUS))
    x, z = (np.array([p for _v, p in spectrum(m)]) for m in (X, Z))
    assert w.measure(np.array([x, z, x]), "A", np.random.default_rng(7)).tolist() == [1, 0, 1]


class FixedUniforms:
    """An rng whose ``random(size)`` hands out the given uniforms in order."""

    def __init__(self, *uniforms):
        self.uniforms = list(uniforms)

    def random(self, size):
        out, self.uniforms = self.uniforms[:size], self.uniforms[size:]
        return np.array(out)


def test_pick_is_one_clipped_inverse_cdf_per_row():
    probs = np.array([[0.0, 0.0, 0.0],     # all zero: the last outcome
                      [0.25, -1e-3, 0.75],  # the negative entry counts as 0
                      [0.25, 0.5, 0.25],    # u * total on a CDF step: the next outcome
                      [0.5, 0.5, 0.0]])
    assert q.pick(probs, FixedUniforms(0.3, 0.25, 0.75, 0.99)).tolist() == [2, 2, 2, 1]
    # one uniform per row, in row order, and no more
    probs = np.random.default_rng(4).random((50, 4))
    rng, twin = np.random.default_rng(5), np.random.default_rng(5)
    picked = q.pick(probs, rng)
    u = twin.random(len(probs))
    assert picked.tolist() == [np.cumsum(p).searchsorted(x * np.cumsum(p)[-1], side="right")
                               for p, x in zip(probs, u)]
    assert rng.random() == twin.random()


def test_measurement_dimension_guard():
    rng = np.random.default_rng(6)
    psi4 = random_pure_state(4, rng)
    with pytest.raises(q.DimensionMismatchError):
        register(psi4).measure(np.array([p for _v, p in spectrum(Z)]), "A", rng)


# ---------------------------------------------------------------- distances

def test_fidelity_and_distance_of_identical_states():
    rho = q.random_density_matrix(4, np.random.default_rng(11))
    assert q.fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)
    assert q.trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-12)


def test_orthogonal_pure_states():
    assert q.fidelity(q.PureState(KET0), q.PureState(KET1)) == pytest.approx(0.0)
    assert q.trace_distance(q.PureState(KET0), q.PureState(KET1)) == pytest.approx(1.0)


def test_ket0_vs_plus():
    # pure-state formula: F = 1/2, D = sqrt(1 - F) = sqrt(0.5)
    a, b = q.PureState(KET0), q.PureState(PLUS)
    assert q.fidelity(a, b) == pytest.approx(0.5)
    assert q.trace_distance(a, b) == pytest.approx(np.sqrt(0.5), abs=1e-12)


def test_fidelity_matches_pure_closed_forms():
    # the one general formula against |<a|b>|^2 and <psi|rho|psi>
    rng = np.random.default_rng(13)
    for d in range(2, 33):
        for _ in range(5):
            a, b = random_pure_state(d, rng), random_pure_state(d, rng)
            rho = q.random_density_matrix(d, rng)
            overlap = abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2
            inside = (a.amplitudes.conj() @ rho.data @ a.amplitudes).real
            assert abs(q.fidelity(a, b) - overlap) <= 1e-10
            assert abs(q.fidelity(a, rho) - inside) <= 1e-10
            assert abs(q.fidelity(rho, a) - inside) <= 1e-10


def test_fuchs_van_de_graaf_random_pairs():
    rng = np.random.default_rng(17)
    for dim in (2, 4, 8):
        for _ in range(200):
            a = q.random_density_matrix(dim, rng)
            b = q.random_density_matrix(dim, rng)
            f = q.fidelity(a, b)
            d = q.trace_distance(a, b)
            assert 1 - np.sqrt(f) <= d + 1e-9
            assert d <= np.sqrt(1 - f) + 1e-9


def test_stack_kernels_match_per_pair_calls():
    # per-matrix noise floor: pure, orthogonal and full-rank pairs share a stack
    rng = np.random.default_rng(23)
    for d in (2, 4, 8):
        states = q.ginibre_states(rng.normal(size=(20, 2, 2, d, d)))
        pure = np.zeros((2, 2, d, d), dtype=complex)
        pure[0, :, 0, 0] = pure[1, 0, 0, 0] = pure[1, 1, -1, -1] = 1.0
        states = np.concatenate([pure, states])
        a, b = states[:, 0], states[:, 1]
        np.testing.assert_allclose(q.fidelity_stack(a, b),
                                   [q.fidelity(x, y) for x, y in zip(a, b)], rtol=0, atol=1e-12)
        np.testing.assert_allclose(q.trace_distance_stack(a, b),
                                   [q.trace_distance(x, y) for x, y in zip(a, b)],
                                   rtol=0, atol=1e-12)


def test_ginibre_states_are_the_random_density_matrix_draws():
    for d in (2, 4, 8):
        rng, per_call = np.random.default_rng(d), np.random.default_rng(d)
        stack = q.ginibre_states(rng.normal(size=(30, 2, d, d)))
        np.testing.assert_array_equal(
            stack, [q.random_density_matrix(d, per_call).data for _ in range(30)])
        assert rng.bit_generator.state == per_call.bit_generator.state


def test_ginibre_states_checks_every_state():
    normals = np.random.default_rng(0).normal(size=(3, 2, 2, 2))
    normals[1] = np.nan
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="non-finite"):
        q.ginibre_states(normals)


def test_trace_distance_unitary_invariance():
    rng = np.random.default_rng(19)
    for _ in range(50):
        a = q.random_density_matrix(4, rng)
        b = q.random_density_matrix(4, rng)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        u = np.linalg.qr(g)[0]
        ua, ub = (u @ rho.data @ u.conj().T for rho in (a, b))
        assert q.trace_distance(ua, ub) == pytest.approx(q.trace_distance(a, b), abs=1e-10)


# ---------------------------------------------------------------- type invariants

def test_pure_state_norm_enforced():
    for amplitudes in ([1.0, 1.0], [np.nan, 0.0], [np.inf, 0.0]):
        with pytest.raises(ValueError):
            q.PureState(np.array(amplitudes))


def test_density_matrix_invariants_enforced():
    with pytest.raises(ValueError):
        q.DensityMatrix(np.array([[1.0, 0.5], [0.2, 0.0]]))  # not Hermitian
    with pytest.raises(ValueError):
        q.DensityMatrix(np.array([[0.7, 0.0], [0.0, 0.7]]))  # trace != 1
    with pytest.raises(ValueError):
        q.DensityMatrix(np.array([[1.5, 0.0], [0.0, -0.5]]))  # negative eigenvalue
    with pytest.raises(ValueError):
        q.DensityMatrix(np.diag([1.0 + 2e-10, -2e-10]))  # just below -PSD_TOL
    q.DensityMatrix(np.diag([1.0 + 0.5e-10, -0.5e-10]))  # within tolerance
    for bad in (np.full((2, 2), np.nan), np.diag([np.inf, 1.0 - np.inf]),
                np.array([[0.5, np.inf], [np.inf, 0.5]])):
        with pytest.raises(ValueError):
            q.DensityMatrix(bad)


# ---------------------------------------------------------------- register machine

def test_register_state_stabilizer_round_is_deterministic():
    rng = np.random.default_rng(23)
    frame = q.LogicalFrame.standard(1)
    w = copies(["A", "B"], [2, 2], q.resource_state(1), batch=20)
    a = measured_values(w, X, "A", rng)
    b = measured_values(w, pole_pauli(frame, "Z"), "B", rng)
    assert set(a.tolist()) == {-1.0, 1.0}
    assert np.allclose(a * b, 1.0)


def test_register_attach_apply_trace_roundtrip():
    w = copies(["B"], [2], q.PureState(KET0))
    w.attach("E", q.PureState(KET0))
    # CNOT from B onto E, but B is |0>, so E stays |0>
    cx = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    w.apply_unitary(cx, ["B", "E"])
    assert np.allclose(w.trace_out("E"), [KET0])
    assert w.labels == ["B"]
    assert np.allclose(w.psi, [KET0])


def test_register_kraus_matches_channel_apply():
    # oracle: the channel lifted by kron and applied to the raw matrix; a
    # channel leaves mixed states, so it runs on the dense oracle register
    ch = q.depolarizing_channel(0.3, 1)
    w = dense_copies(["A", "B"], [2, 2], q.resource_state(1))
    w.apply_kraus(ch, ["B"])
    rho = q.resource_state(1).density().data
    lifted = [np.kron(I2, k) for k in ch]
    direct = sum(k @ rho @ k.conj().T for k in lifted)
    assert np.allclose(w.rho[0], direct, atol=1e-12)


def test_register_stack_operators_and_checks():
    # a stack of unitaries acts element by element; the constructor and
    # attach check every ket of a stack as PureState checks one, attach
    # refuses a density stack, and trace_out refuses to drop a register
    # entangled with the others, leaving the state as it was, and refuses a
    # non-finite state
    w = register(q.PureState(KET0), q.PureState(KET0))
    w.apply_unitary(np.stack([I2, X]), ["A"])
    assert np.allclose(w.psi, [KET0, KET1])
    for bad in (0.7, np.nan, np.inf):
        kets = np.array([KET0, [bad, 0.0]])
        with pytest.raises(ValueError, match="state vector norm"):
            w.attach("E", kets)
        with pytest.raises(ValueError, match="state vector norm"):
            q.RegisterState(["A"], [2], kets)
    with pytest.raises(ValueError, match="holds pure states"):
        w.attach("E", np.array([np.outer(KET0, KET0), np.outer(KET1, KET1)]))
    assert w.labels == ["A"]
    w.attach("E", q.PureState(KET0))
    w.apply_unitary(scipy.linalg.expm(-0.25j * np.pi * Y), ["A"])
    w.apply_unitary(np.eye(4)[[0, 1, 3, 2]], ["A", "E"])  # CNOT: entangles A and E
    before = w.psi
    for label in ("A", "E"):
        with pytest.raises(ValueError, match="entangled"):
            w.trace_out(label)
    assert w.labels == ["A", "E"] and w.psi is before
    w.apply_unitary(np.full((4, 4), np.nan), ["A", "E"])  # no unitary: a non-finite state
    with pytest.raises(ValueError, match="state vector norm nan"):
        w.trace_out("E")


def test_pure_state_and_register_share_one_ket_rule():
    # PureState, the register's constructor and attach apply one unit-norm
    # rule: the same kets pass and fail, at the same NORM_TOL edge, with the
    # same message; a non-finite ket fails it, and so does a mixed state
    # given as a matrix (its rows, or its flattened entries, are not unit)
    w = register(q.PureState(KET0))
    tol = q.NORM_TOL
    mixed = (np.eye(2) / 2, np.diag([0.75, 0.25]))
    refused = [PLUS * (1 - 2 * tol), PLUS * (1 + 2 * tol), np.array([1.0, 1.0]),
               np.array([np.nan, 0.0]), np.array([np.inf, 0.0]), np.array([0.6, np.inf])]
    for ket in refused:
        for take in (q.PureState, lambda k: q.RegisterState(["A"], [2], k[None]),
                     lambda k: w.attach("E", k[None])):
            with pytest.raises(ValueError, match="^state vector norm .* by more than 1e-12$"):
                take(ket)
    for matrix in mixed:
        for take in (q.PureState, lambda m: w.attach("E", m)):
            with pytest.raises(ValueError, match="^state vector norm"):
                take(matrix)
        for take in (lambda m: w.attach("E", q.DensityMatrix(m)), lambda m: w.attach("E", m[None])):
            with pytest.raises(ValueError, match="holds pure states"):
                take(matrix)
    assert w.labels == ["A"]
    for scale in (1 - tol / 2, 1 + tol / 2):
        ket = PLUS * scale
        assert np.array_equal(q.PureState(ket).amplitudes, ket)
        assert np.array_equal(q.RegisterState(["A"], [2], ket[None]).psi, ket[None])
        w = register(q.PureState(KET0))
        w.attach("E", ket[None])
        assert w.labels == ["A", "E"]


def test_embed_operator_on_noncontiguous_targets():
    # CNOT with control register 0 and target register 2 out of three qubits
    cx = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    full = q.embed_operator(cx, [2, 2, 2], [0, 2])
    psi = np.zeros(8, dtype=complex)
    psi[0b100] = 1.0
    out = full @ psi
    assert np.argmax(np.abs(out)) == 0b101


# ---------------------------------------------------------------- ket register vs dense oracle

def random_unitaries(rng, batch, d):
    g = rng.normal(size=(batch, d, d)) + 1j * rng.normal(size=(batch, d, d))
    return np.linalg.qr(g)[0]


def random_kets(rng, batch, d):
    """``batch`` Haar-random kets of dimension d, a (batch, d) stack."""
    g = rng.normal(size=(batch, d)) + 1j * rng.normal(size=(batch, d))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


@pytest.mark.parametrize("probe_dim", [2, 4])
@pytest.mark.parametrize("seed", range(4))
def test_register_matches_dense_oracle(probe_dim, seed):
    # the same seeded pure sequence on the ket register and on the dense
    # oracle: attach, unitaries on one, two and four registers, stacked
    # measurements with the same draws (rank-one ones free the measured
    # register of its entanglement), the kets trace_out returns against the
    # oracle's reduced states, a refused trace-out of an entangled register,
    # and swap-leak's pattern of dropping the only register and attaching a
    # new one under its label
    rng = np.random.default_rng(seed)
    batch = 16
    psi0 = random_kets(rng, batch, probe_dim)
    reg = q.RegisterState(["B"], [probe_dim], psi0)
    dense = DenseRegisterState(["B"], [probe_dim], densities(psi0))

    def agree():
        assert reg.labels == dense.labels
        assert np.abs(densities(reg.psi) - dense.rho).max() < 1e-12

    def attached(label, state):
        reg.attach(label, state)
        dense.attach(label, state if isinstance(state, q.PureState) else densities(state))
        agree()

    def unitary(u, labels):
        reg.apply_unitary(u, labels)
        dense.apply_unitary(u, labels)
        agree()

    def dropped(label):
        kets = reg.trace_out(label)
        assert np.abs(densities(kets) - dense.trace_out(label)).max() < 1e-12
        agree()

    def measured(projectors, label):
        draw = int(rng.integers(2 ** 32))
        a = reg.measure(projectors, label, np.random.default_rng(draw))
        b = dense.measure(projectors, label, np.random.default_rng(draw))
        assert np.array_equal(a, b)
        agree()

    frame = q.LogicalFrame.standard(probe_dim.bit_length() - 1)
    sensor = np.array([q.logical_projectors(frame, a) for a in q.PAULI_AXES])
    z_basis = np.array([p for _v, p in spectrum(Z)])

    attached("E1", random_kets(rng, batch, 2))
    attached("E2", random_pure_state(2, rng))
    attached("E4", random_kets(rng, batch, 2))
    dropped("E4")
    unitary(random_unitaries(rng, batch, 2), ["E1"])
    unitary(random_unitaries(rng, batch, 2 * probe_dim), ["E2", "B"])
    with pytest.raises(ValueError, match="entangled"):
        reg.trace_out("E2")
    agree()
    measured(sensor[rng.integers(len(sensor), size=batch)], "B")
    measured(z_basis, "E2")
    attached("E3", random_kets(rng, batch, 2))
    unitary(random_unitaries(rng, batch, 8 * probe_dim), ["E3", "E1", "B", "E2"])
    measured(z_basis, "E3")
    measured(z_basis, "E1")
    dropped("E1")  # a middle register
    dropped("E3")  # the last
    measured(np.array([np.diag(row) for row in np.eye(probe_dim)]), "B")
    dropped("B")  # the first
    assert reg.labels == dense.labels == ["E2"]
    dropped("E2")  # the only one
    attached("E1", random_kets(rng, batch, probe_dim))
    unitary(random_unitaries(rng, batch, probe_dim), ["E1"])
    measured(sensor[rng.integers(len(sensor), size=batch)], "E1")
    assert reg.labels == dense.labels == ["E1"]


def test_measure_follows_one_pure_trajectory_of_a_kraus_set():
    # a Kraus set that is not projective: outcome k with probability
    # ||K_k psi||^2, then the ket K_k psi normalized; averaged over the
    # outcomes the states give the channel's image (the dense oracle's)
    rng = np.random.default_rng(47)
    kraus = q.depolarizing_channel(0.6, 1)
    psi = random_kets(rng, 3, 2)
    reg = q.RegisterState(["B"], [2], psi)
    images = np.einsum("kij,bj->bki", kraus, psi)
    probs = (np.abs(images) ** 2).sum(axis=2)
    assert np.abs(reg.probabilities(kraus, "B") - probs).max() < 1e-15
    dense = DenseRegisterState(["B"], [2], densities(psi))
    dense.apply_kraus(kraus, ["B"])
    assert np.abs(np.einsum("bki,bkj->bij", images, images.conj()) - dense.rho).max() < 1e-15
    k = reg.measure(kraus, "B", np.random.default_rng(5))
    assert k.tolist() == q.pick(probs, np.random.default_rng(5)).tolist()
    b = np.arange(3)
    np.testing.assert_allclose(reg.psi, images[b, k] / np.sqrt(probs[b, k])[:, None],
                               rtol=0, atol=1e-15)


# ---------------------------------------------------------------- what the register computes

def test_apply_unitary_leaves_exact_identity_elements_bit_for_bit():
    # I psi = psi: an element whose unitary is exactly the identity keeps
    # its bits (1 x + 0 y = x; only a zero's sign could move, and these kets
    # have no zero), and every other element matches the dense oracle
    rng = np.random.default_rng(41)
    batch = 12
    psi0 = random_kets(rng, batch, 2)
    for labels, d in ((["B", "E"], 4), (["E"], 2)):
        for moving in (np.array([1, 4, 5, 11]), np.arange(batch), np.array([], dtype=int)):
            u = np.broadcast_to(np.eye(d, dtype=complex), (batch, d, d)).copy()
            u[moving] = random_unitaries(rng, len(moving), d)
            reg = q.RegisterState(["B"], [2], psi0)
            dense = DenseRegisterState(["B"], [2], densities(psi0))
            reg.attach("E", q.PureState(PLUS))
            dense.attach("E", q.PureState(PLUS))
            before = reg.psi
            reg.apply_unitary(u, labels)
            dense.apply_unitary(u, labels)
            still = np.setdiff1d(np.arange(batch), moving)
            assert np.array_equal(reg.psi[still].view(np.uint64), before[still].view(np.uint64))
            assert np.abs(densities(reg.psi) - dense.rho).max() < 1e-12
    # swap-leak's rounds that are not re-encoded get encoding_unitary(n, 0):
    # exactly the identity
    for n in (1, 2, 3):
        eye = np.broadcast_to(np.eye(2 ** n), (3, 2 ** n, 2 ** n))
        assert np.array_equal(q.encoding_unitary(n, np.zeros(3)), eye)


def test_embed_operator_on_every_register_is_the_kronecker_lift():
    # nothing to lift: the operator itself, equal to its general lift; a
    # permuted or partial target list is still lifted
    rng = np.random.default_rng(43)
    ops = random_unitaries(rng, 5, 4)
    whole = q.embed_operator(ops, [2, 2], [0, 1])
    assert whole is ops
    assert np.array_equal(whole, q._kron_stack(ops, np.eye(1)))
    assert np.array_equal(q.embed_operator(ops[0], [4], [0]),
                          np.kron(ops[0], np.eye(1)))
    swap = np.eye(4)[[0, 2, 1, 3]]
    assert np.allclose(q.embed_operator(ops, [2, 2], [1, 0]), swap @ ops @ swap, atol=1e-15)
    assert q.embed_operator(ops, [2, 2, 2], [0, 1]).shape == (5, 8, 8)


@pytest.mark.parametrize("seed", range(3))
def test_probabilities_are_the_born_probabilities_measure_picks_from(seed):
    rng = np.random.default_rng(seed)
    batch = 16
    frame = q.LogicalFrame.standard(2)
    sensor = np.array([q.logical_projectors(frame, a) for a in q.PAULI_AXES])
    psi0 = random_kets(rng, batch, 4)
    for projectors, labels in ((sensor[rng.integers(3, size=batch)], ["B"]),
                               (sensor[1], ["B"]),
                               (sensor[0], ["B", "E"])):
        reg = q.RegisterState(["B"], [4], psi0)
        dense = DenseRegisterState(["B"], [4], densities(psi0))
        if labels == ["B", "E"]:
            reg.attach("E", q.PureState(KET1))
            dense.attach("E", q.PureState(KET1))
        before = reg.psi.copy()
        probs = reg.probabilities(projectors, "B")
        assert probs.shape == (batch, 3)
        assert np.abs(probs - dense.probabilities(projectors, "B")).max() < 1e-12
        assert np.array_equal(reg.psi, before)  # the state is left as it is
        # from equal generator states: the same outcomes and the same draws
        draw = int(rng.integers(2 ** 32))
        picker, measurer = np.random.default_rng(draw), np.random.default_rng(draw)
        assert np.array_equal(q.pick(probs, picker), reg.measure(projectors, "B", measurer))
        assert picker.random() == measurer.random()


@pytest.mark.parametrize("n,T,batches", [(1, 1000, 1), (3, 200, 4)])
def test_swap_leak_run_measures_once_per_batch(monkeypatch, n, T, batches):
    # no measure at all: each batch reads Eve's outcome, then the sensor's,
    # as a pick over Born probabilities (Eve drops the substitute that a
    # measure would keep), and the run gives its pinned transcript and estimate
    import hashlib

    from dqsim import protocol
    from test_protocol import SWAP_LEAK_DIGESTS, make_config
    from test_register_walk import serialized
    calls = {"measure": [], "probabilities": []}

    def counting(method):
        original = getattr(q.RegisterState, method)

        def counted(self, *args):
            calls[method].append(self.batch)
            return original(self, *args)
        monkeypatch.setattr(q.RegisterState, method, counted)

    counting("measure")
    counting("probabilities")
    config = make_config(direction="two_way", n=n, T=T, p_c=0.4, p_e=0.4, p_d=0.2, seed=2024)
    attack = adversary.TwoWaySwapLeakAttack()
    digest = hashlib.sha256(serialized(protocol.run(config, attack)).encode()).hexdigest()
    assert calls["measure"] == []
    assert len(calls["probabilities"]) == 2 * batches and sum(calls["probabilities"]) == 2 * T
    assert (digest, attack.eve_estimate()) == SWAP_LEAK_DIGESTS["entanglement", n, T]
