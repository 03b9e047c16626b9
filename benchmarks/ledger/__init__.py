"""The repository benchmark ("performance ledger").

``run.py`` is the entry point; ``workloads.py`` holds the workload table
and the closed-loop load generator, ``speed.py`` the machine-speed probe
its timings are scaled by, ``trace.py`` the span tracer behind
``--trace`` and ``compare.py`` the parent-vs-change comparison.  See
``README.md`` for the metric glossary.
"""
