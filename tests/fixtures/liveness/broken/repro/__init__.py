"""Seeded-broken liveness corpus: every LIV rule fires here.

Each module under this package stages exactly one liveness bug class;
the exact findings (rule, module, line) are enumerated in
``tests/test_liveness.py``.  ``repro/roce/`` exists because LIV005 is
scoped to the network-facing packages.
"""
