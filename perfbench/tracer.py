"""Span tracing around chanrate's public entry points, from outside the program.

``Tracer.install`` rebinds each traced function under every name a chanrate
module holds it by, and wraps methods on the classes that define them, so
the calls the program makes on its own are caught: ``policies`` imports
``ucb_probability`` by name, ``emit_outputs`` calls the
``compute_bound_report`` bound in ``harness``.  ``uninstall`` puts the
originals back.  Spans (name, start, end, parent) stay in memory; a span's
self time is its duration minus the durations of its direct children,
which in one thread cover disjoint parts of it.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# Steps per outcome-tape block; fixed by chanrate's reproducibility contract.
TAPE_CHUNK = 512


class Tracer:
    def __init__(self) -> None:
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.self_s: defaultdict = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._chunks_seen: set = set()
        # Open spans: [span index, start, summed child durations].
        self._stack: list[list] = []

    # -- span recording ---------------------------------------------------

    def _wrap(self, name: str, fn, count=None):
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                # Counting is tracing work: book it to no layer's self time.
                c0 = clock()
                count(*args, **kwargs)
                if self._stack:
                    self._stack[-1][2] += clock() - c0
            parent = self._stack[-1][0] if self._stack else -1
            index = len(self.spans)
            self.spans.append((name, 0.0, 0.0, parent))
            frame = [index, clock(), 0.0]
            self._stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                duration = end - frame[1]
                self.spans[index] = (name, frame[1], end, parent)
                self.self_s[name] += duration - frame[2]
                self.calls[name] += 1
                if self._stack:
                    self._stack[-1][2] += duration

        return traced

    # -- work counters, taken from each call's inputs --------------------

    def _solver_counter(self, name: str):
        def count(p_hat, pulls, budget):
            p, t, _ = np.broadcast_arrays(
                np.asarray(p_hat, dtype=float),
                np.asarray(pulls, dtype=float),
                np.asarray(budget, dtype=float),
            )
            self.counts[name + ".elements"] += p.size
            self.counts[name + ".bisected_elements"] += int(
                np.count_nonzero((t > 0) & (p > 0.0) & (p < 1.0))
            )

        return count

    def _tape_counter(self, tape, start, stop):
        blocks = range(start // TAPE_CHUNK, (stop - 1) // TAPE_CHUNK + 1)
        seeds = tape.seeds
        self.counts["environments.tape.chunks"] += len(seeds) * len(blocks)
        for b in blocks:
            key = (seeds, b)
            if key not in self._chunks_seen:
                self._chunks_seen.add(key)
                self.counts["environments.tape.unique_chunks"] += len(seeds)

    # -- installation -----------------------------------------------------

    def _rebind(self, original, wrapper) -> None:
        """Replace ``original`` under every name a chanrate module binds it to."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "chanrate" or mod_name.startswith("chanrate.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _wrap_methods(self, module, base, method: str, name: str, count=None) -> None:
        """Wrap ``method`` on every subclass of ``base`` in ``module`` that defines it."""
        for cls in vars(module).values():
            if isinstance(cls, type) and issubclass(cls, base) and method in cls.__dict__:
                original = cls.__dict__[method]
                self._patches.append((cls, method, original))
                setattr(cls, method, self._wrap(name, original, count))

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        import chanrate.bounds as bounds
        import chanrate.environments as environments
        import chanrate.harness as harness
        import chanrate.klstats as klstats
        import chanrate.policies as policies

        for fn, name in (
            (klstats.ucb_probability, "klstats.ucb"),
            (klstats.lcb_probability, "klstats.lcb"),
        ):
            self._rebind(fn, self._wrap(name, fn, self._solver_counter(name)))
        self._rebind(harness.run_experiment, self._wrap("harness.run", harness.run_experiment))
        self._rebind(harness.emit_outputs, self._wrap("harness.emit", harness.emit_outputs))
        self._rebind(
            bounds.compute_bound_report,
            self._wrap("bounds.report", bounds.compute_bound_report),
        )
        self._wrap_methods(policies, policies.BasePolicy, "select_batch", "policies.select")
        self._wrap_methods(policies, policies.BasePolicy, "update_batch", "policies.update")
        self._wrap_methods(
            environments, environments.Environment, "theta_block", "environments.theta"
        )
        self._wrap_methods(
            environments,
            environments.OutcomeTape,
            "block",
            "environments.tape",
            self._tape_counter,
        )

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write_spans(self, path) -> None:
        """Write the recorded spans as CSV: index, name, start, end, parent."""
        with open(path, "w") as fh:
            fh.write("index,name,start,end,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{start!r},{end!r},{parent}\n")
