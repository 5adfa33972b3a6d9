"""Shared helpers for the benchmark suite.

Every benchmark regenerates one paper artifact (table or figure),
prints the reproduced rows/series, and asserts the qualitative shape
the paper reports.  The files are named ``bench_*.py``, so pytest
collects them only with
``PYTHONPATH=src python -m pytest -q -o python_files='bench_*.py' benchmarks/``;
each uses a single measured round since the simulations are
deterministic.
"""

from __future__ import annotations


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1,
                              iterations=1)


def show(result) -> None:
    """Print a reproduced artifact beneath the benchmark output."""
    print()
    print(result.render())
