"""Fixtures shared by the test modules.

One verification suite serves the whole session, so the order-8 left Bol
search runs once, however many tests and claims need its tables.
"""

import pytest

import refcheck
from bolkit.verify import VerificationSuite


@pytest.fixture(scope="session")
def suite():
    """The verification suite behind ``bolkit verify-paper``."""
    return VerificationSuite()


@pytest.fixture(scope="session")
def order8_tables(suite):
    """Every identity-normalized left Bol loop of order 8, in search order."""
    return tuple(suite.order8_search.tables)


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
