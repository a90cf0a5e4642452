"""Tests for the linear-algebra substrate.

Expected values tagged as derived below were computed with independent
oracles (raw-numpy constructions, scipy.linalg.expm, closed-form algebra)
rather than with the code under test.
"""

import numpy as np
import pytest
import scipy.linalg

from dqsim import qcore as q

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
    """One-register state stack holding the given states, one per element."""
    stack = np.array([q.as_density(s).data for s in states])
    return q.RegisterState(["A"], [stack.shape[-1]], stack)


# ---------------------------------------------------------------- paulis

def test_pauli_z_on_ket0():
    assert q.expectation(q.pauli("Z"), q.PureState(KET0)) == pytest.approx(1.0)


def test_pauli_y_eigenstates_are_circular():
    # Y = |R><R| - |L><L|
    py = q.pauli("Y")
    assert np.allclose(py.matrix @ KET_R, KET_R)
    assert np.allclose(py.matrix @ KET_L, -KET_L)


def test_pauli_commutator_algebra():
    px, py, pz = (q.pauli(a).matrix for a in "XYZ")
    assert np.allclose(px @ py - py @ px, 2j * pz)


def test_pauli_rejects_unknown_axis():
    with pytest.raises(ValueError):
        q.pauli("W")


# ---------------------------------------------------------------- logical frames

def test_bold_pauli_n1_computational_frame_reduces_to_pauli():
    frame = q.LogicalFrame.computational(1)
    for axis in "XYZ":
        assert np.allclose(q.bold_pauli(frame, axis).matrix, q.pauli(axis).matrix)


def test_bold_pauli_n1_standard_frame_reduces_to_pauli():
    frame = q.LogicalFrame.standard(1)
    for axis in "XYZ":
        assert np.allclose(q.bold_pauli(frame, axis).matrix, q.pauli(axis).matrix)


def test_bold_z_spectrum_n2():
    frame = q.LogicalFrame.computational(2)
    obs = q.bold_pauli(frame, "Z")
    assert np.allclose(obs.eigenvalues, [-1.0, 0.0, 1.0])
    # the zero eigenvalue carries the rank-2 complement
    zero_proj = obs.eigenprojectors[1]
    assert np.trace(zero_proj).real == pytest.approx(2.0)


def test_bold_x_is_logical_flip():
    frame = q.LogicalFrame.computational(2)
    xb = q.bold_pauli(frame, "X").matrix
    val = frame.pole0.amplitudes.conj() @ xb @ frame.pole1.amplitudes
    assert val == pytest.approx(1.0)


@pytest.mark.parametrize("make_frame", [q.LogicalFrame.standard, q.LogicalFrame.computational])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_bold_pauli_subspace_algebra(make_frame, n):
    frame = make_frame(n)
    proj = frame.subspace_projector()
    mats = {a: q.bold_pauli(frame, a).matrix for a in "XYZ"}
    for a in "XYZ":
        assert np.allclose(mats[a] @ mats[a], proj, atol=1e-10)
    for a, b in (("X", "Y"), ("Y", "Z"), ("Z", "X")):
        anti = mats[a] @ mats[b] + mats[b] @ mats[a]
        assert np.max(np.abs(anti)) < 1e-10


# ---------------------------------------------------------------- encoding

def test_encoding_phi_zero_is_identity():
    assert np.allclose(q.encoding_unitary(3, 0.0), np.eye(8))


def test_encoding_phi_pi_is_global_phase():
    u = q.encoding_unitary(1, np.pi)
    assert np.allclose(u, -I2)
    rho = q.random_density_matrix(2, np.random.default_rng(0))
    w = register(rho)
    w.apply_unitary(u, ["A"])
    for axis in "XYZ":
        assert q.expectation(q.pauli(axis), w.rho[0]) == pytest.approx(
            q.expectation(q.pauli(axis), rho))


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
    proj = frame.subspace_projector()
    u = q.encoding_unitary(n, 0.41)
    assert np.max(np.abs(u @ proj - proj @ u)) < 1e-12


# ---------------------------------------------------------------- resource state

def stabilizer_ops(n):
    frame = q.LogicalFrame.standard(n)
    return [
        np.kron(X, q.bold_pauli(frame, "Z").matrix),
        np.kron(Z, q.bold_pauli(frame, "X").matrix),
        np.kron(Y, q.bold_pauli(frame, "Y").matrix),
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
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
        proj_full = np.kron(I2, frame.subspace_projector())
        assert np.allclose(s1 @ s2, s3 @ proj_full, atol=1e-10)


# ---------------------------------------------------------------- MUB probes

def test_mub_probe_pole_axis():
    frame = q.LogicalFrame.computational(2)
    assert np.allclose(q.mub_probe(frame, "+Z").amplitudes, frame.pole0.amplitudes)
    assert np.allclose(q.mub_probe(frame, "-Z").amplitudes, frame.pole1.amplitudes)
    plus = (frame.pole0.amplitudes + frame.pole1.amplitudes) / np.sqrt(2)
    assert np.allclose(q.mub_probe(frame, "+X").amplitudes, plus)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("label", q.SIGNED_LABELS)
def test_mub_probe_is_signed_plus_one_eigenvector(n, label):
    frame = q.LogicalFrame.standard(n)
    axis, sign = q.parse_probe_label(label)
    probe = q.mub_probe(frame, label)
    mat = sign * q.bold_pauli(frame, axis).matrix
    assert np.allclose(mat @ probe.amplitudes, probe.amplitudes, atol=1e-12)


# ---------------------------------------------------------------- apply / channels

def test_apply_identity_channel():
    rho = q.random_density_matrix(4, np.random.default_rng(1))
    w = register(rho)
    w.apply_kraus(q.identity_channel(4).kraus_operators, ["A"])
    assert np.allclose(w.rho[0], rho.data)


def test_full_depolarizing_gives_maximally_mixed():
    rng = np.random.default_rng(2)
    w = register(q.random_density_matrix(2, rng), q.random_density_matrix(2, rng))
    w.apply_kraus(q.depolarizing_channel(1.0, 1).kraus_operators, ["A"])
    assert np.allclose(w.rho, I2 / 2, atol=1e-12)


def test_depolarized_resource_state_fidelity_oracle():
    # analytic oracle: (1-p)|psi><psi| + p/4 I has fidelity 1 - 3p/4 to |psi>
    psi = q.resource_state(1)
    for p in (0.084, 0.2, 0.5):
        w = q.RegisterState.from_state(["A", "B"], [2, 2], psi)
        w.apply_kraus(q.depolarizing_channel(p, 1).kraus_operators, ["B"])
        assert q.fidelity(psi, w.rho[0]) == pytest.approx(1 - 3 * p / 4, abs=1e-12)


def test_apply_dimension_mismatch():
    w = register(q.random_density_matrix(4, np.random.default_rng(3)))
    with pytest.raises(q.DimensionMismatchError):
        w.apply_kraus(q.identity_channel(2).kraus_operators, ["A"])
    with pytest.raises(q.DimensionMismatchError):
        register(q.PureState(KET0)).apply_unitary(np.eye(4), ["A"])


def test_channel_completeness_enforced():
    with pytest.raises(ValueError):
        q.Channel(2, 2, (0.5 * I2,))


# ---------------------------------------------------------------- measurement

def test_expectation_z_ket0():
    assert q.expectation(q.pauli("Z"), q.PureState(KET0)) == pytest.approx(1.0)


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
    assert q.expectation(q.bold_pauli(frame, "X"), w.rho[0]) == pytest.approx(oracle)


def test_measurement_frequencies_match_born_rule():
    rng = np.random.default_rng(123)
    state = q.PureState(np.array([np.cos(0.4), np.sin(0.4)], dtype=complex))
    obs = q.pauli("Z")
    # eigenvalues ascending: -1 (amplitude sin 0.4 on |1>), then +1
    probs = [np.sin(0.4) ** 2, np.cos(0.4) ** 2]
    shots = 100_000
    outcomes = q.RegisterState.from_state(["A"], [2], state, batch=shots).measure(obs, "A", rng)
    counts = np.array([(outcomes < 0).sum(), (outcomes > 0).sum()])
    for k in range(2):
        sigma = np.sqrt(shots * probs[k] * (1 - probs[k]))
        assert abs(counts[k] - shots * probs[k]) < 4 * sigma


def test_measurement_reproducible_for_fixed_seed():
    obs = q.pauli("Z")

    def outcomes(rng, batch=20):
        return q.RegisterState.from_state(["A"], [2], q.PureState(PLUS), batch).measure(
            obs, "A", rng)

    a = outcomes(np.random.default_rng(9))
    assert np.array_equal(a, outcomes(np.random.default_rng(9)))
    assert set(a.tolist()) == {-1.0, 1.0}
    # one uniform per element, in element order
    assert a[0] == outcomes(np.random.default_rng(9), batch=1)[0]


def test_measurement_post_state_is_eigenstate():
    rng = np.random.default_rng(5)
    obs = q.pauli("X")
    w = q.RegisterState.from_state(["A"], [2], q.PureState(KET0), batch=8)
    vals = w.measure(obs, "A", rng)
    for val, post in zip(vals, w.rho):
        assert q.expectation(obs, post) == pytest.approx(val)


def test_measurement_per_element_observables():
    # element b measures obs[which[b]]: X on |+> and Z on |1> are certain
    w = register(q.PureState(PLUS), q.PureState(KET1), q.PureState(PLUS))
    vals = w.measure([q.pauli("X"), q.pauli("Z")], "A", np.random.default_rng(7),
                     which=[0, 1, 0])
    assert vals.tolist() == [1.0, -1.0, 1.0]
    with pytest.raises(ValueError):
        w.measure([q.pauli("X"), q.Observable.from_matrix(np.diag([0.0, 2.0]))], "A",
                  np.random.default_rng(7), which=[0, 1, 0])


def test_measurement_dimension_guard():
    rng = np.random.default_rng(6)
    rho4 = q.random_density_matrix(4, rng)
    with pytest.raises(q.DimensionMismatchError):
        register(rho4).measure(q.pauli("Z"), "A", rng)
    with pytest.raises(q.DimensionMismatchError):
        q.expectation(q.pauli("Z"), rho4)


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


def test_mixed_fidelity_consistent_with_pure_overloads():
    rng = np.random.default_rng(13)
    psi = q.random_pure_state(4, rng)
    rho = q.random_density_matrix(4, rng)
    assert q.fidelity(psi, rho) == pytest.approx(q.fidelity(psi.density(), rho), abs=1e-9)


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


def test_trace_distance_unitary_invariance():
    rng = np.random.default_rng(19)
    for _ in range(50):
        a = q.random_density_matrix(4, rng)
        b = q.random_density_matrix(4, rng)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        u = np.linalg.qr(g)[0]
        w = register(a, b)
        w.apply_unitary(u, ["A"])
        assert q.trace_distance(w.rho[0], w.rho[1]) == pytest.approx(
            q.trace_distance(a, b), abs=1e-10)


# ---------------------------------------------------------------- type invariants

def test_pure_state_norm_enforced():
    with pytest.raises(ValueError):
        q.PureState(np.array([1.0, 1.0]))


def test_density_matrix_invariants_enforced():
    with pytest.raises(ValueError):
        q.DensityMatrix(np.array([[1.0, 0.5], [0.2, 0.0]]))  # not Hermitian
    with pytest.raises(ValueError):
        q.DensityMatrix(np.array([[0.7, 0.0], [0.0, 0.7]]))  # trace != 1
    with pytest.raises(ValueError):
        q.DensityMatrix(np.array([[1.5, 0.0], [0.0, -0.5]]))  # negative eigenvalue


def test_observable_spectral_invariants():
    obs = q.Observable.from_matrix(np.kron(Z, Z))
    recon = sum(l * p for l, p in zip(obs.eigenvalues, obs.eigenprojectors))
    assert np.max(np.abs(recon - obs.matrix)) < 1e-10
    assert np.allclose(sum(obs.eigenprojectors), np.eye(4), atol=1e-10)


def test_canonical_eigh_phase_convention():
    h = np.array([[1.0, 0.3 - 0.2j], [0.3 + 0.2j, -0.5]])
    _, v1 = q.canonical_eigh(h)
    _, v2 = q.canonical_eigh(h)
    assert np.allclose(v1, v2)
    for k in range(2):
        first = v1[np.flatnonzero(np.abs(v1[:, k]) > 1e-9)[0], k]
        assert first.imag == pytest.approx(0.0, abs=1e-12)
        assert first.real > 0


# ---------------------------------------------------------------- register machine

def test_register_state_stabilizer_round_is_deterministic():
    rng = np.random.default_rng(23)
    frame = q.LogicalFrame.standard(1)
    w = q.RegisterState.from_state(["A", "B"], [2, 2], q.resource_state(1), batch=20)
    a = w.measure(q.pauli("X"), "A", rng)
    b = w.measure(q.bold_pauli(frame, "Z"), "B", rng)
    assert set(a.tolist()) == {-1.0, 1.0}
    assert np.allclose(a * b, 1.0)


def test_register_attach_apply_trace_roundtrip():
    rng = np.random.default_rng(29)
    w = q.RegisterState.from_state(["B"], [2], q.PureState(KET0))
    w.attach("E", q.PureState(KET0))
    # CNOT from B onto E, but B is |0>, so E stays |0>
    cx = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    w.apply_unitary(cx, ["B", "E"])
    assert np.allclose(w.reduced("E").data, np.outer(KET0, KET0.conj()))
    w.trace_out("E")
    assert w.labels == ["B"]
    assert np.allclose(w.rho, np.outer(KET0, KET0.conj()))


def test_register_kraus_matches_channel_apply():
    # oracle: the channel lifted by kron and applied to the raw matrix
    ch = q.depolarizing_channel(0.3, 1)
    w = q.RegisterState.from_state(["A", "B"], [2, 2], q.resource_state(1))
    w.apply_kraus(ch.kraus_operators, ["B"])
    rho = q.resource_state(1).density().data
    lifted = [np.kron(I2, k) for k in ch.kraus_operators]
    direct = sum(k @ rho @ k.conj().T for k in lifted)
    assert np.allclose(w.rho[0], direct, atol=1e-12)


def test_register_stack_operators_and_checks():
    # a stack of unitaries acts element by element; attach and trace_out
    # check every element of a stack like DensityMatrix checks one matrix
    w = register(q.PureState(KET0), q.PureState(KET0))
    w.apply_unitary(np.stack([I2, X]), ["A"])
    assert np.allclose(w.rho, [np.outer(KET0, KET0), np.outer(KET1, KET1)])
    bad = np.array([np.outer(KET0, KET0), np.diag([1.5, -0.5])]).astype(complex)
    with pytest.raises(ValueError):
        w.attach("E", bad)
    w.rho = w.rho * np.array([1.0, 0.7])[:, None, None]
    w.attach("E", q.PureState(KET0))
    with pytest.raises(ValueError):
        w.trace_out("E")


def test_embed_operator_on_noncontiguous_targets():
    # CNOT with control register 0 and target register 2 out of three qubits
    cx = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    full = q.embed_operator(cx, [2, 2, 2], [0, 2])
    psi = np.zeros(8, dtype=complex)
    psi[0b100] = 1.0
    out = full @ psi
    assert np.argmax(np.abs(out)) == 0b101
