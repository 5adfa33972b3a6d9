"""Violates the safety rules (REPRO601/602/604).

REPRO601 is unscoped and fires at any relpath, so this file also
serves as the CI fixture-smoke target (linted by explicit path, which
bypasses the fixture exclusion).  REPRO602/604 need synthetic relpaths
(``src/repro/sim/...`` / ``tests/...``) supplied by the tests.
"""


def enqueue(item, queue=[]):             # REPRO601: mutable default
    queue.append(item)
    return queue


def tally(counts={}):                    # REPRO601: mutable default
    return counts


def close_enough(a):
    return a == 0.3                      # REPRO602 (under src/repro/sim/)


def check(result):
    assert result == 1e-9                # REPRO604 (under tests/)
