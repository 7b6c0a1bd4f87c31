"""The three SPMD workloads: seeded inputs, programs, reference checks.

Each workload is one CAF program run through ``repro.runtime.run_spmd``
on a prebuilt machine.  Image 1 of each team that loops appends a
``(team, perf_counter())`` stamp when its loop starts and after each
iteration it completes; the gaps between a team's stamps are the
per-iteration latency of the run.  Every iteration does the same work,
so the gaps have one mode, and their median does not jump between kinds
of step.  Nothing else in the
programs is instrumented: layer attribution comes from the profiler in
``layers``.

Inputs depend only on the seed.  Payload lengths (and CG row counts)
are drawn from a narrow range so that the simulated completion time
changes slightly from seed to seed without changing the character of
the workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, List, Optional, Tuple

import numpy as np

from repro.apps import cg_solve
from repro.machine import build_machine, paper_cluster
from repro.runtime.program import SpmdResult, run_spmd
from repro.sim import Engine

#: relative tolerance of the distributed CG solution against NumPy CG at
#: the same iteration count (dot products are summed in another order)
CG_RTOL = 1e-9


@dataclass
class Check:
    """Reference-check tally: values compared, and how many differed."""

    attempted: int = 0
    failed: int = 0

    def add(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def merge(self, other: "Check") -> None:
        self.attempted += other.attempted
        self.failed += other.failed


@dataclass
class Spmd:
    """One SPMD workload at one size, with its seeded inputs."""

    name: str
    nodes: int
    images_per_node: int
    program: Callable
    #: program arguments after the context, except the stamp list
    args: Tuple
    #: image-level sync/collective/RMA calls of one pass, over all images
    image_ops: int
    #: ``check(results) -> Check`` against the closed form or NumPy
    check: Callable[[List[Any]], Check]
    #: ``run_spmd(macro_events=...)``; None keeps the config default (on)
    macro_events: Optional[bool] = None

    @property
    def num_images(self) -> int:
        return self.nodes * self.images_per_node

    def build(self):
        """A fresh machine (and engine) of this workload's shape."""
        engine = Engine()
        machine = build_machine(engine, paper_cluster(self.nodes),
                                self.num_images,
                                images_per_node=self.images_per_node)
        return engine, machine

    def run(self, stamps: Optional[list] = None,
            profiler=None) -> Tuple[SpmdResult, Engine, float]:
        """One measured pass on a fresh machine: ``(result, engine,
        run_spmd wall seconds)``; ``profiler`` is enabled around the
        ``run_spmd`` call only."""
        engine, machine = self.build()
        if profiler is not None:
            profiler.enable()
        t0 = perf_counter()
        result = run_spmd(self.program, machine=machine,
                          args=self.args + (stamps,),
                          macro_events=self.macro_events)
        wall = perf_counter() - t0
        if profiler is not None:
            profiler.disable()
        return result, engine, wall


def idle_program(ctx):
    """The zero-iteration program: images start and return at once."""
    return None
    yield  # pragma: no cover — makes this a generator function


def _stamper(ctx, stamps, team: int = 0):
    """On image 1 of the current team when stamping, a ``stamp()`` that
    appends ``(team, perf_counter())`` to ``stamps``; else None."""
    if stamps is None or ctx.this_image() != 1:
        return None
    return lambda: stamps.append((team, perf_counter()))


# ----------------------------------------------------------------------
# coll_fine: TDLB barrier, two-level reduce and broadcast on a sub-team
# ----------------------------------------------------------------------
def fine_program(ctx, iters, base, root, stamps):
    number = 1 + (ctx.this_image() - 1) % 2
    team = yield from ctx.form_team(number)
    yield from ctx.change_team(team)
    # the two teams loop side by side: each team's image 1 stamps its own
    stamp = _stamper(ctx, stamps, number)
    me = ctx.this_image()
    out = []
    if stamp:
        stamp()
    for k in range(iters):
        yield from ctx.sync_all()
        total = yield from ctx.co_sum(base * me + k)
        got = yield from ctx.co_broadcast(base * me + k, root)
        if stamp:
            stamp()
        out.append((total, got))
    yield from ctx.end_team()
    return out


def coll_fine(seed: int, tiny: bool = False) -> Spmd:
    nodes, ipn, iters = (2, 4, 2) if tiny else (64, 8, 6)
    rng = np.random.default_rng(seed)
    base = rng.integers(1, 100, 16 + int(rng.integers(4))).astype(float)
    # two interleaved teams of equal size, one per image parity
    team_size = nodes * ipn // 2
    root = 1 + int(rng.integers(team_size))

    def check(results: List[Any]) -> Check:
        tally = Check()
        expected_sum = base * (team_size * (team_size + 1) // 2)
        for out in results:
            tally.add(len(out) == iters)
            for k, (total, got) in enumerate(out):
                tally.add(np.array_equal(total, expected_sum + team_size * k))
                tally.add(np.array_equal(got, base * root + k))
        return tally

    return Spmd("coll_fine", nodes, ipn, fine_program,
                (iters, base, root),
                image_ops=nodes * ipn * (3 + 3 * iters), check=check,
                macro_events=False)


# ----------------------------------------------------------------------
# coll_macro: chained barrier + allreduce windows on a flat 1024-image team
# ----------------------------------------------------------------------
def macro_program(ctx, windows, base, stamps):
    stamp = _stamper(ctx, stamps)
    me = ctx.this_image()
    out = []
    # no stamp before the loop: the first window takes about 40 % longer
    # than each later one, and as one sample in ten it would sit right at
    # the 90th percentile
    for k in range(windows):
        yield from ctx.sync_all()
        # a contribution that does not grow with k keeps every window's
        # sum exact in float64
        total = yield from ctx.co_sum(base * me + k)
        if stamp:
            stamp()
        out.append(total)
    return out


def coll_macro(seed: int, tiny: bool = False) -> Spmd:
    images, windows = (16, 3) if tiny else (1024, 10)
    rng = np.random.default_rng(seed)
    base = rng.integers(1, 100, 16 + int(rng.integers(4))).astype(float)

    def check(results: List[Any]) -> Check:
        tally = Check()
        expected = base * (images * (images + 1) // 2)
        for out in results:
            tally.add(len(out) == windows)
            for k, total in enumerate(out):
                tally.add(np.array_equal(total, expected + images * k))
        return tally

    return Spmd("coll_macro", images, 1, macro_program, (windows, base),
                image_ops=images * 2 * windows, check=check)


# ----------------------------------------------------------------------
# app_cg: conjugate gradient (put + sync images halos, co_sum dots)
# ----------------------------------------------------------------------
class _Stamped:
    """Image 1's context as seen by ``cg_solve``, which makes one
    ``co_sum`` before its loop and two per iteration: every odd
    ``co_sum`` is stamped when it completes, marking the loop's start
    and the end of each iteration."""

    def __init__(self, ctx, stamp):
        self._ctx = ctx
        self._stamp = stamp
        self._sums = 0

    def __getattr__(self, name):
        return getattr(self._ctx, name)

    def co_sum(self, *args, **kwargs):
        value = yield from self._ctx.co_sum(*args, **kwargs)
        self._sums += 1
        if self._sums % 2:
            self._stamp()
        return value


def cg_program(ctx, b, iters, stamps):
    stamp = _stamper(ctx, stamps)
    if stamp:
        ctx = _Stamped(ctx, stamp)
    result = yield from cg_solve(ctx, b, max_iters=iters)
    return result


def poisson_cg(b: np.ndarray, iters: int) -> np.ndarray:
    """Sequential NumPy CG on the [-1, 2, -1] operator — the same
    recurrence as ``repro.apps.cg_solve``, at the same iteration count."""

    def apply(v):
        y = 2.0 * v
        y[1:] -= v[:-1]
        y[:-1] -= v[1:]
        return y

    x = np.zeros_like(b)
    r = b - apply(x)
    p = r.copy()
    rs = r @ r
    for _ in range(iters):
        ap = apply(p)
        alpha = rs / (p @ ap)
        x += alpha * p
        r -= alpha * ap
        rs_new = r @ r
        p = r + (rs_new / rs) * p
        rs = rs_new
    return x


def app_cg(seed: int, tiny: bool = False) -> Spmd:
    nodes, ipn, iters = (2, 4, 3) if tiny else (64, 8, 5)
    images = nodes * ipn
    rng = np.random.default_rng(seed)
    rows = (4 if tiny else 16) + int(rng.integers(4))
    b = rng.standard_normal(images * rows)
    reference = poisson_cg(b, iters)
    scale = float(np.max(np.abs(reference)))

    def check(results: List[Any]) -> Check:
        tally = Check()
        for image, (x, done, _residual) in enumerate(results):
            tally.add(done == iters)
            block = reference[image * rows:(image + 1) * rows]
            tally.add(x.shape == block.shape and
                      float(np.max(np.abs(x - block))) <= CG_RTOL * scale)
        return tally

    # per matvec: a put to each existing neighbour, then one sync images;
    # one co_sum before the loop and two per iteration; one allocate
    matvec_ops = 2 * (images - 1) + images
    ops = images + (iters + 1) * matvec_ops + images * (1 + 2 * iters)
    return Spmd("app_cg", nodes, ipn, cg_program, (b, iters),
                image_ops=ops, check=check)


WORKLOADS = {"coll_fine": coll_fine, "coll_macro": coll_macro,
             "app_cg": app_cg}
