"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro import TVGBuilder, figure1_automaton
from repro.core.generators import periodic_random_tvg


@pytest.fixture(scope="session")
def fig1():
    """The Figure 1 automaton with the default primes (p=2, q=3)."""
    return figure1_automaton()


@pytest.fixture()
def line_graph():
    """a -> b -> c with staggered presence: a->b at t in [0,2), b->c at
    t in [5,7).  A journey a->c exists only with waiting."""
    return (
        TVGBuilder(name="line")
        .lifetime(0, 10)
        .edge("a", "b", present=[(0, 2)], key="ab")
        .edge("b", "c", present=[(5, 7)], key="bc")
        .build()
    )


@pytest.fixture()
def periodic_graph():
    """A small random periodic labeled TVG (period 4)."""
    return periodic_random_tvg(4, period=4, density=0.5, labels="ab", seed=11)
