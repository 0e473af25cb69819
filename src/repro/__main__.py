"""``python -m repro`` entry point.

Dispatches to :mod:`repro.cli`; see ``python -m repro --help`` for the
demo/benchmark commands, ``python -m repro lint`` for the
static-analysis gate (determinism, trusted boundaries, taint, hot-path
cost, liveness), and ``python -m repro sanitize`` for the
schedule-perturbation harness, the one check of schedule independence.
"""

import sys

from repro.cli import main

if __name__ == "__main__":
    sys.exit(main())
