"""The benchmark's fixed workloads: one CLI invocation each.

Each workload is a ``python -m curvemotive`` argument list over a graph
pinned in ``perfbench/graphs`` (copies, so that edits to the demos cannot
change the benchmark's inputs).  ``bound`` is the truncation bound that is
timed; ``small_bound`` is the tiny bound the benchmark's own tests use.

Random graphs are deliberately absent: at a fixed bound their cost swings
by orders of magnitude with the seed, so such a workload is never steady.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    graph: str  # relative to the checkout root
    command: tuple[str, ...]  # CLI arguments before --bound/--input
    bound: int
    small_bound: int
    options: tuple[str, ...] = ()  # CLI arguments after --input

    def argv(self, bound: int) -> list[str]:
        return [*self.command, "--bound", str(bound), "--input", self.graph, *self.options]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="pg-cusp2",
            why="integral, symbol-free, two-branch pg: strata scan and codimensions dominate,"
            " ring work is small",
            graph="perfbench/graphs/cusp2.json",
            command=("compute", "--series", "pg"),
            # At 14 each layer's share is within 2 points of its share at 16,
            # and a sample takes half as long: twice the samples per run.
            bound=14,
            small_bound=4,
        ),
        Workload(
            name="pg-h2",
            why="pg with fractional exponents and wide symbolic coefficients:"
            " stratum classes, ring products and rendering dominate",
            graph="perfbench/graphs/chain2_h12.json",
            command=("compute", "--series", "pg"),
            # At 14 ring work (classes, reduction, display products) is still
            # about two thirds of the time, as at 16, and a sample takes under
            # half as long: more than twice the samples per run.
            bound=14,
            small_bound=4,
        ),
        Workload(
            name="check-sat5",
            why="every cross-check on 5 components with 2 workers: divisorial routes,"
            " closed-form expansion, codim identities, oracles and the thread pool",
            graph="perfbench/graphs/satellite5.json",
            command=("check",),
            # At 40 each layer's share of the time is within 2 points of its
            # share at 60, and a sample takes a third as long, so a run holds
            # three times the samples.
            bound=40,
            small_bound=8,
            options=("--workers", "2"),
        ),
    )
}
