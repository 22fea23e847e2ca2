"""Fixtures shared by the test modules.

One verification suite serves the whole session, so the order-8 left Bol
search runs once, however many tests and claims need its tables.  The
repository root goes on ``sys.path`` here, so that ``refcheck`` and
``mutants`` import under a plain ``pytest`` run too.
"""

import sys
from pathlib import Path

import pytest

ROOT = str(Path(__file__).resolve().parents[1])
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

import refcheck  # noqa: E402
from bolkit.verify import VerificationSuite  # noqa: E402


@pytest.fixture(scope="session")
def suite():
    """The verification suite behind ``bolkit verify-paper``."""
    return VerificationSuite()


@pytest.fixture(scope="session")
def order8_tables(suite):
    """Every identity-normalized left Bol loop of order 8, in search order."""
    return tuple(suite.order8_tables)


@pytest.fixture(scope="session")
def order8_classes(order8_tables):
    """The order-8 tables as their 11 isomorphism classes, each in search order.

    Tables are grouped by an isomorphism invariant written here (per
    element: order, orders along its row, commuting partners, right
    alternative partners).  Order 8 has exactly 11 classes, so 11 groups
    means the invariant separates them and each group is one class.
    """
    groups = {}
    for Q in order8_tables:
        c, n = Q.cells, Q.order
        orders = [refcheck.order(c, a) for a in Q.elements()]
        key = tuple(
            sorted(
                (
                    orders[a],
                    tuple(sorted(orders[v - 1] for v in c[a])),
                    sum(c[a][b] == c[b][a] for b in range(n)),
                    sum(c[c[b][a] - 1][a] == c[b][c[a][a] - 1] for b in range(n)),
                )
                for a in range(n)
            )
        )
        groups.setdefault(key, []).append(Q)
    assert len(groups) == 11
    return tuple(tuple(g) for g in groups.values())
