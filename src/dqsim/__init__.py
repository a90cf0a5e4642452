"""Distributed quantum sensing simulator with tamper-detection thresholds.

Library layout:

- ``qcore``     exact states, observables, channels, measurements
- ``metrics``   faithfulness bounds, sequential-measurement distance tools
- ``stats``     counts-based correlators and error propagation
- ``adversary`` pluggable eavesdropper strategies
- ``protocol``  round-by-round execution of the sensing protocols
- ``cli``       scenario runner, sweeps and bound reports
"""

import importlib

from . import adversary, metrics, protocol, qcore, stats

__all__ = ["qcore", "metrics", "stats", "adversary", "protocol", "cli"]
__version__ = "0.1.0"


def __getattr__(name):
    # cli loads on first use, so that ``python -m dqsim.cli`` runs it as a
    # module the package has not imported already
    if name == "cli":
        return importlib.import_module(f"{__name__}.cli")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
