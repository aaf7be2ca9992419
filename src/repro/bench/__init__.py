"""Benchmark harness: every paper table/figure, ablation and scenario is
one declaration (see :mod:`repro.bench.reporting`), printed by
``python -m repro.bench`` and recorded in ``bench_results/``."""
