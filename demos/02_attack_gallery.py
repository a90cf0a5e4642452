"""What the fidelity check sees under each adversary.

Runs the same protocol against every built-in attack and tabulates the
measured fidelity, the implied tamper level sqrt(1 - F), and whether the
check at threshold 0.251 still passes.  The depolarizing strength 0.084 is
calibrated so the expected fidelity sits exactly at the 0.937 operating
point; anything stronger should trip the check.
"""

import numpy as np

from dqsim import adversary, protocol

THRESHOLD = 0.251

attacks = [
    adversary.IdentityAttack(),
    adversary.DepolarizingAttack(adversary.calibrate_depolarizing(0.937)),
    adversary.DepolarizingAttack(0.5),
    adversary.UnitaryTamperAttack("Y", 0.15),
    adversary.InterceptResendAttack("random"),
    adversary.InterceptResendAttack("Z"),
    adversary.EntanglingMemoryAttack(np.pi / 2, block_length=2),
]

print(f"{'attack':42s} {'F_hat':>8s} {'implied':>8s} {'passed':>7s}")
for i, attack in enumerate(attacks):
    config = protocol.ProtocolConfig(
        variant="entanglement", direction="one_way", n=1, T=30_000,
        p_c=0.5, p_e=0.5, p_d=0.0, epsilon_threshold=THRESHOLD,
        true_phi=0.3, seed=500 + i,
    )
    transcript = protocol.run(config, attack)
    check = protocol.check_fidelity(transcript)
    print(f"{attack.name:42s} {check.fidelity_estimate:8.4f} "
          f"{check.epsilon_implied:8.4f} {str(check.passed):>7s}")

print("\ncalibrated depolarizing sits right at the threshold; the rest of")
print("the tampering strategies are caught with growing margin.")
