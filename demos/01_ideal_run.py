"""A clean protocol run: no adversary on the channel.

The provider shares an entangled pair with the sensor each round.  The
sensor randomly checks, encodes the phase, or discards; after sifting, the
check rounds certify the channel and the estimation rounds retrieve the
phase.  With nothing on the line the fidelity estimate is exactly 1 and
the phase comes back unbiased.
"""

from dqsim import adversary, protocol

config = protocol.ProtocolConfig(
    variant="entanglement", direction="one_way", n=1, T=100_000,
    p_c=0.5, p_e=0.5, p_d=0.0, epsilon_threshold=0.251,
    true_phi=0.3, seed=2024,
)

transcript = protocol.run(config, adversary.IdentityAttack())
check = protocol.check_fidelity(transcript)
estimate = protocol.estimate_phase(transcript)

print(f"rounds: {config.T}  kept check: {transcript.N_c}  "
      f"kept estimation: {transcript.N_e}  sifted away: {transcript.N_sifted_away}")
print(f"fidelity estimate: {check.fidelity_estimate:.6f}  "
      f"(threshold {1 - config.epsilon_threshold**2:.4f})  passed: {check.passed}")
print(f"true phase: {config.true_phi}")
print(f"retrieved:  {estimate.phi_hat:.5f} +- {estimate.standard_error:.5f}")
for name, mean in estimate.correlator_means.items():
    print(f"  correlator {name}: {mean:+.5f} over {estimate.sample_counts[name]} rounds")
