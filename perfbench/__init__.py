"""End-to-end and per-layer benchmark of the LogGrep reproduction.

``run.py`` is the entry point; ``workloads`` holds the four workloads,
``oracle`` the seeded query families and their expected answers,
``tracing`` the out-of-program span recorder and ``layers`` the table of
wrap targets and per-layer metrics.
"""
