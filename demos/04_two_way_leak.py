"""Why the two-way protocol cannot be private.

When the probe has to travel back to the provider, the adversary touches
it both before and after the phase is imprinted.  Here she swaps the probe
out for her own state on the way in, reads the encoding off it on the way
back, and forwards the stored original so the fidelity check sees nothing.
She ends up with a phase estimate as good as the legitimate one, while the
check passes at fidelity 1.

The same construction is rejected outright in one-way operation, where the
probe never comes back to her.
"""

from dqsim import adversary, protocol

config = protocol.ProtocolConfig(
    variant="mub", direction="two_way", n=1, T=20_000,
    p_c=0.4, p_e=0.5, p_d=0.1, epsilon_threshold=0.251,
    true_phi=0.3, seed=404,
)

attack = adversary.TwoWaySwapLeakAttack()
transcript = protocol.run(config, attack)
check = protocol.check_fidelity(transcript)
alice = protocol.estimate_phase(transcript)
eve = attack.eve_estimate()

print(f"true phase:                 {config.true_phi}")
print(f"eavesdropper's estimate:    {eve.phi_hat_eve:.4f} +- {eve.standard_error:.4f} "
      f"({eve.samples_used} returns sampled)")
print(f"provider's estimate:        {alice.phi_hat:.4f}  <- ruined, and she cannot tell")
print(f"fidelity check:             min {min(check.fidelity_estimate.values()):.4f}, "
      f"passed: {check.passed}")

print("\none-way operation rejects the construction:")
try:
    protocol.run(protocol.ProtocolConfig(
        variant="mub", direction="one_way", n=1, T=100,
        p_c=0.4, p_e=0.5, p_d=0.1, epsilon_threshold=0.251,
        true_phi=0.3, seed=405), adversary.TwoWaySwapLeakAttack())
except ValueError as exc:
    print(f"  ValueError: {exc}")
