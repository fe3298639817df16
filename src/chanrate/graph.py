"""Directed neighborhood graph over decision pairs and structure checkers.

The graph encodes which pairs must be compared to certify a pair's local
optimality: from (c, k) the out-neighbors are the adjacent rates on the same
channel, the same rate on every other channel, and the next-higher rate on
every other channel.  Out-of-range rate indices are dropped at the edges of
the rate grid, so interior vertices have out-degree 2C and the maximum
out-degree ``gamma`` never exceeds 2C.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    DecisionPair,
    DegenerateOptimumError,
    LinkModel,
    compute_optima,
    throughput_matrix,
)

__all__ = [
    "GraphicalUnimodalityReport",
    "NeighborhoodGraph",
    "UnimodalityReport",
    "build_graph",
    "check_graphically_unimodal",
    "check_monotone",
    "check_unimodal",
]


@dataclass(frozen=True)
class NeighborhoodGraph:
    channels: int
    n_rates: int
    #: adjacency[flat id] = out-neighbors in deterministic order:
    #: same-channel rate neighbors first, then other channels ascending.
    adjacency: tuple[tuple[DecisionPair, ...], ...]
    #: maximum out-degree over all vertices
    gamma: int

    def neighbors(self, pair: DecisionPair | tuple[int, int]) -> tuple[DecisionPair, ...]:
        c, k = pair
        return self.adjacency[(c - 1) * self.n_rates + (k - 1)]


def build_graph(channels: int, n_rates: int) -> NeighborhoodGraph:
    """Build the neighborhood graph for a channels x rates decision grid."""
    if channels < 1 or n_rates < 1:
        raise ValueError("need at least one channel and one rate")
    adjacency: list[tuple[DecisionPair, ...]] = []
    for c in range(1, channels + 1):
        for k in range(1, n_rates + 1):
            nbrs: list[DecisionPair] = []
            if k > 1:
                nbrs.append(DecisionPair(c, k - 1))
            if k < n_rates:
                nbrs.append(DecisionPair(c, k + 1))
            for other in range(1, channels + 1):
                if other == c:
                    continue
                nbrs.append(DecisionPair(other, k))
                if k < n_rates:
                    nbrs.append(DecisionPair(other, k + 1))
            adjacency.append(tuple(nbrs))
    gamma = max(len(nbrs) for nbrs in adjacency)
    return NeighborhoodGraph(channels, n_rates, tuple(adjacency), gamma)


def check_monotone(model: LinkModel) -> tuple[bool, ...]:
    """Per-channel flag: effective success probabilities nonincreasing in rate."""
    theta = model.effective_theta()
    return tuple(bool(np.all(np.diff(row) <= 0.0)) for row in theta)


def _strictly_unimodal(row: np.ndarray) -> bool:
    # Strict rise to a single peak, then strict fall; plateaus disqualify.
    n = len(row)
    i = 0
    while i + 1 < n and row[i + 1] > row[i]:
        i += 1
    while i + 1 < n and row[i + 1] < row[i]:
        i += 1
    return i == n - 1


def _relaxed_unimodal(row: np.ndarray) -> bool:
    # Strict unimodality on the prefix up to the last positive entry,
    # tolerating an exactly-zero tail (dead high rates tie at zero).
    positive = np.nonzero(row > 0.0)[0]
    if len(positive) == 0:
        return True
    last = int(positive[-1])
    if np.any(row[last + 1 :] != 0.0):
        return False
    return _strictly_unimodal(row[: last + 1])


@dataclass(frozen=True)
class UnimodalityReport:
    """Per-channel strict and relaxed unimodality of the throughput rows."""

    strict: tuple[bool, ...]
    relaxed: tuple[bool, ...]


def check_unimodal(model: LinkModel) -> UnimodalityReport:
    """Check each channel's throughput row for a single strict peak.

    The strict flag demands strictly increasing then strictly decreasing
    throughput.  The relaxed flag allows ties only among trailing
    zero-throughput entries, which real tables produce whenever a high rate
    never succeeds.  strict implies relaxed.
    """
    mu = throughput_matrix(model)
    strict = tuple(bool(_strictly_unimodal(row)) for row in mu)
    relaxed = tuple(bool(_relaxed_unimodal(row)) for row in mu)
    return UnimodalityReport(strict=strict, relaxed=relaxed)


@dataclass(frozen=True)
class GraphicalUnimodalityReport:
    unimodal: bool
    best: DecisionPair
    #: a non-best pair with no strictly better out-neighbor, when one exists
    witness: DecisionPair | None


def check_graphically_unimodal(
    model: LinkModel, graph: NeighborhoodGraph | None = None
) -> GraphicalUnimodalityReport:
    """Check that every non-best pair has a strictly better out-neighbor.

    On a finite graph this greedy-ascent criterion is equivalent to the
    existence of a strictly throughput-increasing path from every pair to the
    best pair: ascent steps cannot cycle, so following any strictly better
    neighbor terminates, and only the best pair can be terminal when the
    criterion holds.

    Raises:
        DegenerateOptimumError: if the best throughput is attained by more
            than one pair; the criterion is not defined in that case.
    """
    opt = compute_optima(model)
    if not opt.unique_global:
        raise DegenerateOptimumError(
            "graphical unimodality requires a unique best pair; "
            f"throughput {opt.mu_star} is tied"
        )
    if graph is None:
        graph = build_graph(model.channels, model.n_rates)
    elif graph.channels != model.channels or graph.n_rates != model.n_rates:
        raise ValueError("graph shape does not match the model")
    mu = opt.mu
    for c in range(1, model.channels + 1):
        for k in range(1, model.n_rates + 1):
            if (c, k) == opt.best:
                continue
            here = mu[c - 1, k - 1]
            if not any(mu[nc - 1, nk - 1] > here for nc, nk in graph.neighbors((c, k))):
                return GraphicalUnimodalityReport(
                    unimodal=False, best=opt.best, witness=DecisionPair(c, k)
                )
    return GraphicalUnimodalityReport(unimodal=True, best=opt.best, witness=None)
