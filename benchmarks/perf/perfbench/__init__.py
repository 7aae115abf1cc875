"""The repo benchmark's harness (see ``benchmarks/perf/README.md``).

Importing this package loads nothing heavy: ``run.py`` must be able to pin
the BLAS thread count (:func:`perfbench.env.pin_threads`) *before* numpy —
and therefore before any ``repro`` module — is imported.
"""
