"""The sanctioned spellings of everything safety_violation.py does."""

import math


def enqueue(item, queue=None):
    if queue is None:
        queue = []
    queue.append(item)
    return queue


def close_enough(a):
    # Dyadic literals compare exactly; non-dyadic ones use a tolerance.
    return a == 0.5 or math.isclose(a, 0.3, rel_tol=1e-12)


def check(result):
    assert result == 0.25  # dyadic, therefore exact
    assert math.isclose(result, 1e-9, rel_tol=1e-12)
