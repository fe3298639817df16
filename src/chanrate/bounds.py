"""Closed-form performance constants for a link model.

Four quantities calibrate how hard an instance is and how much structure is
worth:

* ``c_I``: the structure-blind constant.  Sums, over every viable-rate pair
  other than the best, the throughput gap divided by the KL distance the
  pair's success probability must travel to look optimal.
* ``c_U_prime``: an explicit upper bound for the (non-operationalized)
  per-channel-unimodal constant; scales with the number of channels and not
  with the number of rates.
* ``c_GU``: the graph-structured constant, summing only over the best
  pair's out-neighbors with viable rates.
* CRS-T finite-time constants: the minimal adjacent-rate throughput
  separation, per-channel midpoints between leader and best neighbor, and
  the resulting asymptotic slope.

Conventions shared by every formula here: a KL term that comes out infinite
contributes zero to its sum (the corresponding pair needs essentially no
exploration), KL arguments that would leave [0, 1] are clamped to the
boundary, and minima over empty index sets drop out of the expression.
Sums are accumulated with ``math.fsum``, so they are exact up to one final
rounding and term-subset inequalities hold without order caveats.

Instances failing a precondition (tied optima, a channel with no usable
separation) yield results marked undefined with a machine-readable reason
rather than raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .graph import build_graph, check_graphically_unimodal
from .klstats import kl_bernoulli
from .model import DecisionPair, LinkModel, OptimaSummary, compute_optima

__all__ = [
    "BoundOutcome",
    "BoundReport",
    "BoundTerm",
    "CrsTConstants",
    "c_GU",
    "c_I",
    "c_U_prime",
    "compute_bound_report",
    "crst_constants",
]


@dataclass(frozen=True)
class BoundTerm:
    """One summand: throughput gap over KL divergence for a single pair."""

    pair: DecisionPair
    gap: float
    divergence: float
    value: float

    def to_json_dict(self) -> dict:
        return {
            "channel": self.pair.channel,
            "rate_index": self.pair.rate_index,
            "gap": self.gap,
            "divergence": None if math.isinf(self.divergence) else self.divergence,
            "value": self.value,
        }


@dataclass(frozen=True)
class BoundOutcome:
    name: str
    defined: bool
    value: float | None = None
    reason: str | None = None
    terms: tuple[BoundTerm, ...] = field(default=(), repr=False)

    def to_json_dict(self) -> dict:
        if not self.defined:
            return {"defined": False, "reason": self.reason}
        return {
            "defined": True,
            "value": self.value,
            "terms": [t.to_json_dict() for t in self.terms],
        }


def _term(pair: DecisionPair, gap: float, divergence: float) -> BoundTerm:
    value = 0.0 if math.isinf(divergence) else gap / divergence
    return BoundTerm(pair=pair, gap=gap, divergence=divergence, value=value)


def _undefined(name: str, reason: str) -> BoundOutcome:
    return BoundOutcome(name=name, defined=False, reason=reason)


def _defined(name: str, terms: list[BoundTerm]) -> BoundOutcome:
    return BoundOutcome(
        name=name,
        defined=True,
        value=math.fsum(t.value for t in terms),
        terms=tuple(terms),
    )


def _optimality_terms(
    name: str, model: LinkModel, opt: OptimaSummary, pairs
) -> list[BoundTerm] | BoundOutcome:
    """The terms ``gap / kl(theta, mu_star / r)`` of the 1-based ``(c, k)``
    ``pairs``, in order; or, at the first pair whose divergence is zero (a
    throughput tie), the undefined outcome ``name``."""
    theta = model.effective_theta()
    rates = model.rates.as_array()
    terms: list[BoundTerm] = []
    for c, k in pairs:
        gap = opt.mu_star - float(opt.mu[c - 1, k - 1])
        div = kl_bernoulli(float(theta[c - 1, k - 1]), opt.mu_star / rates[k - 1])
        if div == 0.0:
            return _undefined(name, f"throughput tie at channel {c}, rate {k}")
        terms.append(_term(DecisionPair(c, k), gap, div))
    return terms


def c_I(model: LinkModel) -> BoundOutcome:
    """Structure-blind constant: sum over viable-rate pairs off the optimum.

    Only rates whose raw value reaches the best throughput enter the sum;
    slower rates can never look optimal and are skipped entirely, which is
    what makes this constant invariant to how the low-rate tail is filled.
    """
    opt = compute_optima(model)
    if not opt.unique_global:
        return _undefined("c_I", "best pair not unique")
    c_star = opt.best.channel
    channel_order = [c_star] + [c for c in range(1, model.channels + 1) if c != c_star]
    pairs = [(c, k) for c in channel_order for k in opt.viable_rates if (c, k) != opt.best]
    terms = _optimality_terms("c_I", model, opt, pairs)
    return terms if isinstance(terms, BoundOutcome) else _defined("c_I", terms)


def _channel_separation(mu_row: np.ndarray, k_best: int) -> float:
    """Half the smallest throughput drop from a channel's peak to a rate neighbor.

    Infinite when the peak has no in-range neighbor (single-rate model).
    """
    K = len(mu_row)
    gaps = [
        (mu_row[k_best - 1] - mu_row[k - 1]) / 2.0
        for k in (k_best - 1, k_best + 1)
        if 1 <= k <= K
    ]
    return min(gaps) if gaps else math.inf


def c_U_prime(model: LinkModel) -> BoundOutcome:
    """Explicit channel-count-scaling bound for unimodal-per-channel models.

    Undefined when the best pair or any channel's peak is tied, or when a
    channel offers no positive separation between its peak and the adjacent
    rates (an all-zero row being the common culprit).
    """
    opt = compute_optima(model)
    if not opt.unique_global:
        return _undefined("c_U_prime", "best pair not unique")
    theta = model.effective_theta()
    rates = model.rates.as_array()
    C = model.channels
    seps: list[float] = []
    for c in range(1, C + 1):
        row = opt.mu[c - 1]
        if not opt.unique_per_channel[c - 1] or not np.any(row > 0.0):
            return _undefined("c_U_prime", f"degenerate channel {c}")
        sep = _channel_separation(row, opt.best_rate_by_channel[c - 1])
        if sep <= 0.0:
            return _undefined("c_U_prime", f"degenerate channel {c}")
        seps.append(sep)

    c_star = opt.best.channel
    # Rate neighbors of the best pair on the best channel.
    terms = _optimality_terms("c_U_prime", model, opt, [(c_star, k) for k in opt.viable_adjacent])
    if isinstance(terms, BoundOutcome):
        return terms
    # Every other channel: its peak plus the peak's viable rate neighbors.
    for c in range(1, C + 1):
        if c == c_star:
            continue
        sep = seps[c - 1]
        k_c = opt.best_rate_by_channel[c - 1]
        th_peak = float(theta[c - 1, k_c - 1])
        div_opt = kl_bernoulli(th_peak, min(opt.mu_star / rates[k_c - 1], 1.0))
        div_sep = (
            kl_bernoulli(th_peak, max(th_peak - sep / rates[k_c - 1], 0.0))
            if math.isfinite(sep)
            else math.inf
        )
        div = min(div_opt, div_sep)
        if div == 0.0:
            return _undefined("c_U_prime", f"degenerate channel {c}")
        gap = opt.mu_star - float(opt.mu[c - 1, k_c - 1])
        terms.append(_term(DecisionPair(c, k_c), gap, div))
        for k in opt.viable_adjacent_by_channel[c - 1]:
            th = float(theta[c - 1, k - 1])
            div_k = kl_bernoulli(th, min(th + sep / rates[k - 1], 1.0))
            if div_k == 0.0:
                return _undefined("c_U_prime", f"degenerate channel {c}")
            gap_k = opt.mu_star - float(opt.mu[c - 1, k - 1])
            terms.append(_term(DecisionPair(c, k), gap_k, div_k))
    return _defined("c_U_prime", terms)


def c_GU(model: LinkModel) -> BoundOutcome:
    """Graph-structured constant over the best pair's viable out-neighbors."""
    opt = compute_optima(model)
    if not opt.unique_global:
        return _undefined("c_GU", "best pair not unique")
    graph = build_graph(model.channels, model.n_rates)
    report = check_graphically_unimodal(model, graph)
    if not report.unimodal:
        w = report.witness
        return _undefined(
            "c_GU",
            f"not graphically unimodal: no strictly better neighbor from "
            f"channel {w.channel}, rate {w.rate_index}",
        )
    viable = set(opt.viable_rates)
    pairs = [(c, k) for c, k in graph.neighbors(opt.best) if k in viable]
    terms = _optimality_terms("c_GU", model, opt, pairs)
    return terms if isinstance(terms, BoundOutcome) else _defined("c_GU", terms)


@dataclass(frozen=True)
class CrsTConstants:
    """Finite-time constants of the per-channel leader policy.

    ``min_gap`` is the smallest adjacent-rate throughput separation over all
    channels; a zero sets ``degenerate`` (the regret guarantee becomes
    vacuous but every quantity is still reported).  ``midpoints`` holds, per
    channel, the value halfway between the channel peak and its best rate
    neighbor (NaN when the channel has a single rate); ``separations`` the
    per-channel KL separation scales; ``value`` the asymptotic slope, which
    is infinite when some channel's separation vanishes.
    """

    min_gap: float
    degenerate: bool
    midpoints: tuple[float, ...]
    separations: tuple[float, ...]
    value: float
    unique_per_channel: bool

    def to_json_dict(self) -> dict:
        def enc(x: float):
            if math.isnan(x):
                return None
            if math.isinf(x):
                return "inf"
            return x

        return {
            "min_gap": self.min_gap,
            "degenerate": self.degenerate,
            "unique_per_channel": self.unique_per_channel,
            "midpoints": [enc(m) for m in self.midpoints],
            "separations": [enc(s) for s in self.separations],
            "value": enc(self.value),
        }


def crst_constants(model: LinkModel) -> CrsTConstants:
    """Compute the leader-policy constants; degeneracies flag, never raise."""
    opt = compute_optima(model)
    theta = model.effective_theta()
    rates = model.rates.as_array()
    C, K = model.channels, model.n_rates
    c_star = opt.best.channel

    adjacent_gaps = [
        abs(float(opt.mu[c, k]) - float(opt.mu[c, k + 1]))
        for c in range(C)
        for k in range(K - 1)
    ]
    min_gap = min(adjacent_gaps) if adjacent_gaps else math.inf
    degenerate = min_gap == 0.0 or not all(opt.unique_per_channel)

    midpoints: list[float] = []
    separations: list[float] = []
    channel_sums: list[float] = []
    for c in range(1, C + 1):
        k_c = opt.best_rate_by_channel[c - 1]
        row = opt.mu[c - 1]
        nbrs = [k for k in (k_c - 1, k_c + 1) if 1 <= k <= K]
        if nbrs:
            midpoint = (float(row[k_c - 1]) + max(float(row[k - 1]) for k in nbrs)) / 2.0
        else:
            midpoint = math.nan
        midpoints.append(midpoint)

        # Candidates for the channel's KL separation scale: distance of each
        # neighborhood rate from the midpoint, plus (off the best channel)
        # the peak's distance from global optimality.
        cands: list[float] = []
        if not math.isnan(midpoint):
            for k in [k_c, *nbrs]:
                cands.append(
                    kl_bernoulli(float(theta[c - 1, k - 1]), min(midpoint / rates[k - 1], 1.0))
                )
        if c != c_star:
            cands.append(
                kl_bernoulli(
                    float(theta[c - 1, k_c - 1]), min(opt.mu_star / rates[k_c - 1], 1.0)
                )
            )
        tau = min(cands) if cands else math.inf
        separations.append(tau)
        channel_sums.append(
            math.fsum(opt.mu_star - float(row[k - 1]) for k in [k_c, *nbrs])
        )

    total = 0.0
    for tau, s in zip(separations, channel_sums):
        if math.isinf(tau):
            continue
        if tau == 0.0:
            if s > 0.0:
                total = math.inf
                degenerate = True
                break
            continue
        total += s / tau
    return CrsTConstants(
        min_gap=min_gap,
        degenerate=degenerate,
        midpoints=tuple(midpoints),
        separations=tuple(separations),
        value=total,
        unique_per_channel=all(opt.unique_per_channel),
    )


@dataclass(frozen=True)
class BoundReport:
    """All four bound computations for one model, JSON-serializable."""

    structure_blind: BoundOutcome
    channel_unimodal: BoundOutcome
    graph_structured: BoundOutcome
    crst: CrsTConstants

    def to_json_dict(self) -> dict:
        out = {
            "c_I": self.structure_blind.to_json_dict(),
            "c_U_prime": self.channel_unimodal.to_json_dict(),
            "c_GU": self.graph_structured.to_json_dict(),
            "crst": self.crst.to_json_dict(),
        }
        # The exact channel-unimodal constant solves a nonconvex program we
        # do not attempt; its computable upper bound stands in for it.
        if self.channel_unimodal.defined:
            out["c_U"] = {
                "computed": False,
                "upper_bound": self.channel_unimodal.value,
                "note": "c_U <= c_U_prime",
            }
        else:
            out["c_U"] = {"computed": False, "note": "c_U <= c_U_prime (undefined here)"}
        return out


def compute_bound_report(model: LinkModel) -> BoundReport:
    return BoundReport(
        structure_blind=c_I(model),
        channel_unimodal=c_U_prime(model),
        graph_structured=c_GU(model),
        crst=crst_constants(model),
    )
