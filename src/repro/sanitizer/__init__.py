"""Schedule-independence check for the simulated systems.

:mod:`repro.sanitizer.perturb` is the schedule-perturbation harness
behind ``python -m repro sanitize``: the tier-1 scenarios under N
seeded tie shuffles, diffing final-state digests.  It is the one check
that a replica's final state does not depend on the schedule.

This package is untrusted host tooling: ``repro.sim`` never imports it
(BND001); it reaches the kernel only through the public
``Simulator.perturb_ties`` seam.
"""

from repro.sanitizer.perturb import (
    DEFAULT_SEEDS,
    SCENARIOS,
    SanitizeReport,
    ScenarioResult,
    derive_seed,
    run_sanitize,
)

__all__ = [
    "DEFAULT_SEEDS",
    "SCENARIOS",
    "SanitizeReport",
    "ScenarioResult",
    "derive_seed",
    "run_sanitize",
]
