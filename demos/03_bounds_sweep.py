"""Faithfulness bounds versus what actually happens to the estimate.

Twin runs at each phase point: one attacked (depolarizing calibrated to
fidelity 0.937), one ideal, sharing the same seed.  The bias of the
attacked estimator relative to its ideal twin is compared with the
individual-attack bound computed from the *measured* fidelity.  The bounds
hold everywhere but overshoot the observed deviations by a large factor --
the price of certifying faithfulness from a single scalar check.

Writes bounds_sweep.csv next to this script and prints the table.
"""

import json
import math
import pathlib
import tempfile

from dqsim import cli

out_csv = pathlib.Path(__file__).with_name("bounds_sweep.csv")
scenario = {
    "protocol": {"variant": "entanglement", "direction": "one_way", "n": 1,
                 "T": 30_000, "p_c": 0.5, "p_e": 0.5, "p_d": 0.0,
                 "epsilon_threshold": 0.251, "true_phi": 0.3, "seed": 91},
    "attack": {"name": "depolarizing", "params": {"p": 0.084}},
    "sweep": {"variable": "phi", "start": 0.12, "stop": math.pi / 2 - 0.12,
              "steps": 12},
    "output": {"csv": str(out_csv)},
}

with tempfile.TemporaryDirectory() as tmp:
    scenario_path = pathlib.Path(tmp) / "scenario.json"
    scenario_path.write_text(json.dumps(scenario))
    rc = cli.main(["sweep", str(scenario_path)])
assert rc == 0

rows = out_csv.read_text().splitlines()
header = rows[0].split(",")
print(f"{'phi':>6s} {'bias_emp':>10s} {'bias_bound':>10s} "
      f"{'var_disc':>10s} {'var_bound':>10s}")
ratios = []
for line in rows[1:]:
    row = dict(zip(header, line.split(",")))
    print(f"{float(row['phi']):6.3f} {float(row['bias_emp']):10.5f} "
          f"{float(row['bias_bound']):10.5f} {float(row['var_discrepancy']):10.2e} "
          f"{float(row['var_bound']):10.2e}")
    ratios.append(float(row["bias_bound"]) / max(float(row["bias_emp"]), 1e-12))

print(f"\nwrote {out_csv}")
print(f"bound/empirical bias ratio: median {sorted(ratios)[len(ratios)//2]:.1f}")
