"""Palette budgets: 2*Delta+7 for Delta >= 9, 21 for Delta <= 6, and the
Delta in {7,8} range is run with the Delta=9 machinery (palette 25)."""

from __future__ import annotations

from dataclasses import dataclass

LARGE = "large"   # Delta >= 9 configuration catalog
SMALL = "small"   # Delta <= 6 configuration catalog


@dataclass(frozen=True)
class Budget:
    """A run's palette, regime, and `delta_context`: the largest degree the
    regime's catalog is proven for.  That is Delta in the large regime (9
    for Delta in {7,8}) and the class bound 6 in the small regime.  The
    reducer fails a run whose reductions raise the degree past it."""

    palette_size: int
    delta_context: int
    regime: str

    @staticmethod
    def for_graph(g):
        return Budget.for_delta(g.max_degree())

    @staticmethod
    def for_delta(delta):
        if delta >= 9:
            return Budget(2 * delta + 7, delta, LARGE)
        if delta >= 7:
            return Budget(25, 9, LARGE)
        return Budget(21, 6, SMALL)
