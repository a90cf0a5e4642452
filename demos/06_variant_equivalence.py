"""The entangled and direct-probe formulations measure the same thing.

The entanglement-based protocol keeps one qubit at the provider; the
direct-probe formulation sends a random signed Pauli eigenstate instead.
Their fidelity estimates are linked by an exact identity, and matching the
safety thresholds as eps^2 = 1.5 * epsbar^2 makes their pass/fail
decisions coincide.  Both facts are demonstrated here under calibrated
depolarizing noise.
"""

import numpy as np

from dqsim import adversary, protocol

config = protocol.ProtocolConfig(
    variant="entanglement", direction="one_way", n=1, T=100_000,
    p_c=0.5, p_e=0.5, p_d=0.0, epsilon_threshold=0.35,
    true_phi=0.3, seed=606,
)

print("fidelity identity under depolarizing noise:")
for p in (0.05, 0.2):
    rep = protocol.run_mub_equivalence(config, adversary.DepolarizingAttack(p))
    print(f"  p={p}: entangled {rep.entanglement_fidelity:.5f}  "
          f"combined from per-label {rep.combined_from_mub:.5f}  "
          f"(4 sigma = {4 * rep.identity_sigma:.5f})  holds: {rep.identity_holds}")

print("\nmatched threshold decisions across a noise grid:")
grid = np.concatenate([np.linspace(0.02, 0.12, 4), np.linspace(0.21, 0.31, 4)])
for i, p in enumerate(grid):
    rep = protocol.run_mub_equivalence(
        protocol.ProtocolConfig(
            variant="entanglement", direction="one_way", n=1, T=60_000,
            p_c=0.9, p_e=0.1, p_d=0.0, epsilon_threshold=0.35,
            true_phi=0.3, seed=700 + i),
        adversary.DepolarizingAttack(float(p)))
    agree = "agree" if rep.entanglement_passed == rep.mub_passed else "DISAGREE"
    print(f"  p={p:.4f}: entangled {str(rep.entanglement_passed):5s} "
          f"direct-probe {str(rep.mub_passed):5s}  [{agree}]")
