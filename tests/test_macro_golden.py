"""Golden-trace matrix for macro-events (:mod:`repro.collectives.macro`).

Macro-on and macro-off runs must agree on final coarray states, final
simulated time, and fabric traffic across every conformance machine
shape — for barriers *and* for the data-carrying reduce/broadcast
windows; macro mode must auto-disable whenever an observer (HB monitor,
trace, tiebreak seed, fault schedule) is attached; and the one documented
exactness boundary — a zero-compute hierarchical barrier loop, where a
committed window's virtual release ladder cannot feel the next window's
fine-grained traffic — must be *detected* (``inexact``/``"overlap"``)
rather than silently absorbed.  Flat tight collective loops are the
chained-window case: every window must collapse from a single analysis
(the extreme-scale sweep's whole premise), which the sustained-collapse
tests pin with exact replay counts.  Flat windows evaluated once per
symmetry class must match both the per-message replay and macro-off,
and must fall back wherever grouping would not be exact.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults import FaultSchedule, ImageFailure, Stat
from repro.machine import build_machine, paper_cluster
from repro.runtime.config import UHCAF_2LEVEL
from repro.runtime.program import run_spmd
from repro.sim.engine import Engine
from repro.verify import HBMonitor
from repro.verify.conformance import SHAPES

ALL_SHAPES = sorted(SHAPES)

#: per-iteration compute larger than any shape's release-ladder span, so
#: re-arrivals land after the previous window's last virtual delivery —
#: inside the exactness envelope (see docs/simulation.md)
SEPARATING_FLOPS = 3000.0

#: the data windows (reduce fold/unfold, broadcast tree) span much more
#: than a barrier's release ladder, so their separated loops need a
#: proportionally larger compute block between windows
DATA_SEPARATING_FLOPS = 500000.0


# ----------------------------------------------------------------------
# Programs
# ----------------------------------------------------------------------
def _barrier_once(ctx):
    yield from ctx.sync_all()
    return ctx.now


def _barrier_loop(ctx, iters):
    for _ in range(iters):
        yield from ctx.sync_all()
    return ctx.now


def _separated_loop(ctx, iters):
    for _ in range(iters):
        yield ctx.compute_cost(SEPARATING_FLOPS)
        yield from ctx.sync_all()
    return ctx.now


def _ring_stencil(ctx, iters):
    """Puts between compute-separated barriers: real coarray state.

    Compute brackets the put on both sides: ``allocate`` ends in an
    internal barrier, so work must separate its window from the first
    put, and the put's own fabric traffic from the next window.
    """
    me = ctx.this_image()
    n = ctx.num_images()
    co = yield from ctx.allocate("gold", (4,))
    for it in range(iters):
        yield ctx.compute_cost(SEPARATING_FLOPS)
        target = me % n + 1
        yield from ctx.put(co, target, float(me * 100 + it), index=it % 4)
        yield ctx.compute_cost(SEPARATING_FLOPS)
        yield from ctx.sync_all()
    return ctx.local(co).tolist()


def _sep_reduce(ctx, iters):
    me = float(ctx.this_image())
    acc = me
    for _ in range(iters):
        yield ctx.compute_cost(DATA_SEPARATING_FLOPS)
        acc = yield from ctx.co_sum(acc + me)
    return acc


def _tight_reduce(ctx, iters):
    acc = float(ctx.this_image())
    for _ in range(iters):
        acc = yield from ctx.co_sum(acc * 0.5)
    return acc


def _tight_reduce_arr(ctx, iters):
    acc = np.arange(4, dtype=float) + ctx.this_image()
    for _ in range(iters):
        acc = yield from ctx.co_max(acc)
        acc = acc - 0.25
    return acc.tolist()


def _sep_bcast(ctx, iters):
    me = ctx.this_image()
    out = []
    for it in range(iters):
        yield ctx.compute_cost(DATA_SEPARATING_FLOPS)
        v = yield from ctx.co_broadcast(
            float(me * 10 + it), source_image=1 + it % ctx.num_images())
        out.append(v)
    return out


def _tight_bcast(ctx, iters):
    me = ctx.this_image()
    out = []
    for it in range(iters):
        v = yield from ctx.co_broadcast(float(me + it), source_image=1)
        out.append(v)
    return out


def _mixed_collectives(ctx, iters):
    me = ctx.this_image()
    acc = float(me)
    for it in range(iters):
        yield ctx.compute_cost(DATA_SEPARATING_FLOPS)
        acc = yield from ctx.co_sum(acc)
        yield ctx.compute_cost(DATA_SEPARATING_FLOPS)
        acc = yield from ctx.co_broadcast(acc + it, source_image=1)
    return acc


def _tight_mixed_flat(ctx, iters):
    acc = float(ctx.this_image())
    for _ in range(iters):
        acc = yield from ctx.co_sum(acc * 0.5)
        acc = yield from ctx.co_min(acc + 1.0)
    return acc


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def _run(shape_name, main, args=(), macro=None, tiebreak_seed=None, **kw):
    shape = SHAPES[shape_name]
    engine = Engine(tiebreak_seed=tiebreak_seed)
    machine = build_machine(engine, shape.spec, shape.num_images,
                            images_per_node=shape.images_per_node)
    return run_spmd(main, machine=machine, args=args,
                    macro_events=macro, **kw)


def _run_flat(num_images, main, args=(), macro=None, config=None, **kw):
    """A flat team (one image per node) of any size — the shape where
    chained windows sustain collapse; not limited to conformance SHAPES."""
    engine = Engine()
    machine = build_machine(engine, paper_cluster(num_images), num_images,
                            images_per_node=1)
    if config is not None:
        kw["config"] = config
    return run_spmd(main, machine=machine, args=args,
                    macro_events=macro, **kw)


def _grants(result):
    """Grant counters of every fabric resource, by kind: conduit progress
    engines, NICs, memory buses."""
    world = result.world
    machine = world.machine
    buses = [bus for node in machine.shared_memory._buses for bus in node]
    return [[r._granted for r in kind] for kind in (
        world.conduit._engines, machine.interconnect._nics, buses)]


def _assert_golden(on, off):
    assert on.time == off.time  # bit-identical, not approx
    assert on.results == off.results
    assert on.traffic == off.traffic
    assert _grants(on) == _grants(off)
    assert on.world.conduit.counts == off.world.conduit.counts


# ----------------------------------------------------------------------
# The matrix
# ----------------------------------------------------------------------
class TestGoldenMatrix:
    @pytest.mark.parametrize("shape", ALL_SHAPES)
    def test_single_barrier_identical(self, shape):
        on = _run(shape, _barrier_once, macro=True)
        off = _run(shape, _barrier_once, macro=False)
        _assert_golden(on, off)
        assert on.world.macro.replays == 1
        assert not on.world.macro.inexact
        assert off.world.macro.replays == 0

    @pytest.mark.parametrize("shape", ALL_SHAPES)
    def test_compute_separated_loop_identical(self, shape):
        on = _run(shape, _separated_loop, args=(4,), macro=True)
        off = _run(shape, _separated_loop, args=(4,), macro=False)
        _assert_golden(on, off)
        assert on.world.macro.replays >= 1
        assert not on.world.macro.inexact

    @pytest.mark.parametrize("shape", ALL_SHAPES)
    def test_coarray_states_identical(self, shape):
        on = _run(shape, _ring_stencil, args=(5,), macro=True)
        off = _run(shape, _ring_stencil, args=(5,), macro=False)
        _assert_golden(on, off)
        assert not on.world.macro.inexact

    def test_flat_tight_loop_sustains_collapse(self):
        # Flat teams exit every window at one instant: collapse must
        # sustain across the whole loop and stay exact with no compute
        # separating the barriers at all.
        iters = 6
        on = _run("flat4", _barrier_loop, args=(iters,), macro=True)
        off = _run("flat4", _barrier_loop, args=(iters,), macro=False)
        _assert_golden(on, off)
        assert on.world.macro.replays == iters
        assert not on.world.macro.inexact
        assert on.world.macro.disabled_reason is None


class TestExactnessBoundary:
    def test_tight_hierarchical_loop_is_detected(self):
        # Zero-compute loop on a hierarchical shape: the first window
        # commits, the re-arrival traffic overlaps its virtual release
        # ladder, and the coordinator must notice (post-commit grant
        # audit), flag the run inexact, and disable itself.
        on = _run("2x4", _barrier_loop, args=(6,), macro=True)
        off = _run("2x4", _barrier_loop, args=(6,), macro=False)
        m = on.world.macro
        # semantic state never drifts — only timestamps can
        assert on.results is not None
        assert m.replays <= 1  # at most the first window was bet on
        if on.time != off.time:
            assert m.inexact
            assert m.disabled_reason == "overlap"

    def test_lost_bet_disables_for_rest_of_run(self):
        def loop_then_separated(ctx, iters):
            for _ in range(iters):
                yield from ctx.sync_all()
            for _ in range(2):
                yield ctx.compute_cost(SEPARATING_FLOPS)
                yield from ctx.sync_all()
            return ctx.now

        on = _run("2x4", loop_then_separated, args=(4,), macro=True)
        m = on.world.macro
        if m.inexact:
            # once the bet is lost nothing replays again
            assert m.disabled_reason is not None
            assert m.replays <= 1


class TestAutoDisable:
    def test_monitor_disables(self):
        on = _run("2x4", _barrier_once, macro=True, monitor=HBMonitor())
        assert on.world.macro.replays == 0

    def test_trace_disables(self):
        on = _run("2x4", _barrier_once, macro=True, trace=True)
        assert on.world.macro.replays == 0
        assert on.trace  # the trace actually recorded fine-grained ops

    def test_tiebreak_seed_disables(self):
        on = _run("2x4", _barrier_once, macro=True, tiebreak_seed=3)
        assert on.world.macro.replays == 0

    def test_faults_disable_and_match_fine_grained(self):
        def survivor_loop(ctx, iters):
            st = Stat()
            for _ in range(iters):
                yield ctx.compute_cost(SEPARATING_FLOPS)
                yield from ctx.sync_all(stat=st)
            return (ctx.now, st.code, tuple(st.failed_indices))

        sched = FaultSchedule(failures=(ImageFailure(3, 20e-6),))
        on = _run("2x4", survivor_loop, args=(30,), macro=True,
                  faults=sched)
        off = _run("2x4", survivor_loop, args=(30,), macro=False,
                   faults=sched)
        assert on.world.macro.replays == 0
        assert on.time == off.time
        assert on.results == off.results

    def test_config_flag_disables(self):
        on = _run("2x4", _barrier_once, macro=False)
        assert on.world.macro.replays == 0
        assert on.world.macro.fine_pins == 0  # never even consulted

    def test_monitor_disables_data_windows(self):
        # The data-carrying kinds go through the same engage gate: an
        # attached observer must pin reduce/broadcast windows fine too.
        on = _run("2x4", _sep_reduce, args=(3,), macro=True,
                  monitor=HBMonitor())
        assert on.world.macro.replays == 0


# ----------------------------------------------------------------------
# Reduce / broadcast windows (the macro-collectives generalization)
# ----------------------------------------------------------------------
class TestGoldenMatrixCollectives:
    @pytest.mark.parametrize("shape", ALL_SHAPES)
    def test_separated_reduce_identical(self, shape):
        on = _run(shape, _sep_reduce, args=(4,), macro=True)
        off = _run(shape, _sep_reduce, args=(4,), macro=False)
        _assert_golden(on, off)
        assert not on.world.macro.inexact

    @pytest.mark.parametrize("shape", ALL_SHAPES)
    def test_separated_broadcast_identical(self, shape):
        on = _run(shape, _sep_bcast, args=(4,), macro=True)
        off = _run(shape, _sep_bcast, args=(4,), macro=False)
        _assert_golden(on, off)
        assert not on.world.macro.inexact

    @pytest.mark.parametrize("shape", ALL_SHAPES)
    def test_mixed_collectives_identical(self, shape):
        on = _run(shape, _mixed_collectives, args=(3,), macro=True)
        off = _run(shape, _mixed_collectives, args=(3,), macro=False)
        _assert_golden(on, off)
        assert not on.world.macro.inexact


class TestSustainedCollapseFlat:
    def test_tight_reduce_pow2(self):
        iters = 6
        on = _run_flat(4, _tight_reduce, args=(iters,), macro=True)
        off = _run_flat(4, _tight_reduce, args=(iters,), macro=False)
        _assert_golden(on, off)
        assert on.world.macro.replays == iters
        assert not on.world.macro.inexact
        assert on.world.macro.disabled_reason is None

    @pytest.mark.parametrize("num_images", [6, 12, 25])
    def test_tight_reduce_non_pow2(self, num_images):
        # Non-power-of-two teams stagger the two-level fold/unfold exit
        # instants; chained windows must still collapse every iteration
        # — the extreme-scale acceptance scenario in miniature.
        iters = 5
        on = _run_flat(num_images, _tight_reduce, args=(iters,), macro=True)
        off = _run_flat(num_images, _tight_reduce, args=(iters,), macro=False)
        _assert_golden(on, off)
        assert on.world.macro.replays == iters
        assert not on.world.macro.inexact

    def test_tight_reduce_array_payload(self):
        iters = 4
        on = _run_flat(12, _tight_reduce_arr, args=(iters,), macro=True)
        off = _run_flat(12, _tight_reduce_arr, args=(iters,), macro=False)
        _assert_golden(on, off)
        assert on.world.macro.replays == iters

    def test_tight_mixed_reduce_kinds(self):
        # co_sum and co_min alternating: both windows join the same
        # macro kind and every one must replay.
        iters = 4
        on = _run_flat(12, _tight_mixed_flat, args=(iters,), macro=True)
        off = _run_flat(12, _tight_mixed_flat, args=(iters,), macro=False)
        _assert_golden(on, off)
        assert on.world.macro.replays == 2 * iters
        assert not on.world.macro.inexact

    @pytest.mark.parametrize("num_images", [8, 12])
    def test_tight_reduce_recursive_doubling(self, num_images):
        rd = UHCAF_2LEVEL.with_(name="rd", reduce="recursive-doubling")
        iters = 5
        on = _run_flat(num_images, _tight_reduce, args=(iters,),
                       macro=True, config=rd)
        off = _run_flat(num_images, _tight_reduce, args=(iters,),
                        macro=False, config=rd)
        _assert_golden(on, off)
        assert on.world.macro.replays == iters
        assert not on.world.macro.inexact


class TestCollectiveBoundaries:
    def test_tight_broadcast_chain_stays_semantically_exact(self):
        # Chained broadcast windows open under the previous window's
        # staggered wakes, which a broadcast cannot commit — window 1
        # collapses, the rest pin fine (or the audit flags the run).
        # Results and final time must match either way.
        on = _run_flat(8, _tight_bcast, args=(4,), macro=True)
        off = _run_flat(8, _tight_bcast, args=(4,), macro=False)
        assert on.results == off.results
        assert on.time == off.time
        assert on.world.macro.replays >= 1

    def test_tight_hierarchical_reduce_boundary(self):
        # Zero-compute reduce loop on a hierarchical shape: same
        # exactness boundary as the barrier case — semantic state never
        # drifts, and any timestamp drift must be flagged.
        on = _run("2x4", _tight_reduce, args=(5,), macro=True)
        off = _run("2x4", _tight_reduce, args=(5,), macro=False)
        assert on.results == off.results
        if on.time != off.time:
            assert on.world.macro.inexact


class TestExtremeScaleSweepPath:
    def test_registry_capability_map(self):
        from repro.bench.xscale import assert_macro_capable
        from repro.collectives.registry import macro_kind
        kinds = assert_macro_capable(UHCAF_2LEVEL)
        assert kinds == {"barrier": "tdlb", "reduce": "reduce-2l",
                         "broadcast": "bcast-2l"}
        assert macro_kind("reduce", "linear-flat") is None
        from repro.runtime.config import UHCAF_1LEVEL
        with pytest.raises(ValueError, match="not macro-capable"):
            assert_macro_capable(UHCAF_1LEVEL)

    def test_duplicate_rung_is_byte_identical(self):
        # The sweep path must be deterministic: the same rung run twice
        # yields byte-identical rows (wall-clock fields aside) and an
        # identical rendered table.
        from repro.bench.xscale import xscale_sweep

        def strip(rows):
            return [{k: v for k, v in row.items()
                     if not k.startswith("wall_")} for row in rows]

        table_a, rows_a = xscale_sweep([24], ab_max=10_000)
        table_b, rows_b = xscale_sweep([24], ab_max=10_000)
        assert strip(rows_a) == strip(rows_b)
        assert repr(strip(rows_a)) == repr(strip(rows_b))  # same bits
        assert table_a.render() == table_b.render()
        assert all(row["exactness"] == "exact" for row in rows_a)

    def test_ab_bound_skips_fine_leg(self):
        from repro.bench.xscale import xscale_sweep
        _table, rows = xscale_sweep([16, 32], ab_max=16,
                                    shapes=["reduce"])
        by_n = {row["images"]: row for row in rows}
        assert by_n[16]["exactness"] == "exact"
        assert by_n[32]["exactness"] == "skipped"
        assert "events_fine" not in by_n[32]


# ----------------------------------------------------------------------
# Symmetry-class evaluation of flat windows
# ----------------------------------------------------------------------
def _bits(value):
    """A comparable, bit-exact key of an image's result: NaN payloads and
    signed zeros compare as their bytes."""
    if isinstance(value, list):
        return [_bits(v) for v in value]
    arr = np.asarray(value)
    return (arr.dtype.str, arr.shape, arr.tobytes())


def _nan(payload):
    return np.array([payload], dtype=np.uint64).view(np.float64)[0]


def _sync_reduce(ctx, op, payloads, iters):
    """``sync_all`` + one ``op`` reduction per iteration; image ``i``
    contributes ``payloads[(i - 1) % len(payloads)]`` every time."""
    mine = np.asarray(payloads[(ctx.this_image() - 1) % len(payloads)])
    out = []
    for _ in range(iters):
        yield from ctx.sync_all()
        out.append((yield from ctx.co_reduce(mine, op)))
    return out


def _staggered_reduce(ctx):
    """A first reduction whose payloads differ in size (image 1 sends one
    element, the rest four) exits at staggered instants, so the barrier
    and reduction chained under it see staggered arrivals."""
    me = ctx.this_image()
    first = yield from ctx.co_sum(np.arange(1.0 if me == 1 else 4.0))
    yield from ctx.sync_all()
    second = yield from ctx.co_sum(np.arange(3.0) + me)
    return [first, second]


class TestGroupedEvaluation:
    """Flat, node-symmetric windows evaluated once per symmetry class
    (``MacroCollectives._replay_grouped``) against the per-message
    replay of the same window and against macro-off."""

    @pytest.fixture()
    def grouped(self, monkeypatch):
        """Count grouped evaluations: each call appends its member count."""
        from repro.collectives.macro import MacroCollectives
        calls = []
        replay = MacroCollectives._replay_grouped

        def spy(self, st, view, members, *args):
            calls.append(len(members))
            return replay(self, st, view, members, *args)

        monkeypatch.setattr(MacroCollectives, "_replay_grouped", spy)
        return calls

    @staticmethod
    def _per_message(monkeypatch, num_images, main, args, config=None):
        """The same run with the grouped evaluation switched off."""
        from repro.collectives.macro import MacroCollectives
        with monkeypatch.context() as m:
            m.setattr(MacroCollectives, "_symmetric",
                      lambda self, view, members, ready: False)
            return _run_flat(num_images, main, args, macro=True,
                             config=config)

    def _check(self, monkeypatch, num_images, main, args, config=None,
               fine=True):
        """Run macro-on and compare it with the per-message replay and,
        when ``fine``, with macro-off."""
        on = _run_flat(num_images, main, args, macro=True, config=config)
        refs = [self._per_message(monkeypatch, num_images, main, args,
                                  config)]
        if fine:
            refs.append(_run_flat(num_images, main, args, macro=False,
                                  config=config))
        for other in refs:
            assert on.time == other.time
            assert _bits(on.results) == _bits(other.results)
            assert on.traffic == other.traffic
            assert _grants(on) == _grants(other)
            assert on.world.conduit.counts == other.world.conduit.counts
        assert not on.world.macro.inexact
        return on

    @pytest.mark.parametrize("num_images", [2, 16, 24, 1024])
    def test_flat_sizes(self, monkeypatch, grouped, num_images):
        iters = 2
        payloads = [np.arange(5.0) * k + 0.1 for k in range(1, 8)]
        on = self._check(monkeypatch, num_images, _sync_reduce,
                         ("sum", payloads, iters), fine=num_images <= 24)
        assert on.world.macro.replays == 2 * iters
        if num_images == 24:
            # recursive doubling folds and unfolds off a power of two and
            # falls back; its staggered exits make every later barrier
            # window staggered too, so only the first barrier is grouped
            assert grouped == [24]
        else:
            assert grouped == [num_images] * (2 * iters)

    @pytest.mark.parametrize("num_images", [8, 24])
    def test_recursive_doubling_kind(self, monkeypatch, grouped, num_images):
        rd = UHCAF_2LEVEL.with_(name="rd", reduce="recursive-doubling")
        self._check(monkeypatch, num_images, _tight_reduce, (3,), config=rd)
        assert len(grouped) == (3 if num_images == 8 else 0)

    def test_unserialized_sender_overhead(self, monkeypatch, grouped):
        # IB verbs charges its per-message overhead as a plain delay, not
        # as a hold on the node's conduit engine, so no engine grants
        from repro.calibration import IB_VERBS
        verbs = UHCAF_2LEVEL.with_(name="verbs", conduit_profile=IB_VERBS)
        payloads = [np.arange(3.0) + k for k in range(4)]
        self._check(monkeypatch, 16, _sync_reduce, ("sum", payloads, 1),
                    config=verbs)
        assert grouped == [16, 16]

    @pytest.mark.parametrize("op", ["sum", "prod", "max", "min"])
    @pytest.mark.parametrize("case", ["signed_zeros", "nan_payloads",
                                      "plain"])
    def test_bitwise_commutativity_is_checked(self, monkeypatch, grouped,
                                              op, case):
        if case == "signed_zeros":
            payloads = [[0.0, 1.5], [-0.0, 1.5]]
        elif case == "nan_payloads":
            payloads = [[_nan(0x7FF8000000000001), 2.0],
                        [_nan(0x7FF8000000000002), 2.0]]
        else:
            payloads = [[1.25, -3.0], [0.5, 2.0], [-7.0, 0.0]]
        self._check(monkeypatch, 16, _sync_reduce, (op, payloads, 1))
        from repro.collectives.reduce import _combine
        a, b = np.asarray(payloads[0]), np.asarray(payloads[1])
        commutes = (_combine(op, a, b).tobytes()
                    == _combine(op, b, a).tobytes())
        if case == "plain":
            assert commutes
        if case != "plain" and op in ("max", "min"):
            assert not commutes
        # the barrier is always grouped; the reduction only when every
        # block merge was bitwise commutative
        assert grouped == [16] * (2 if commutes else 1)

    def test_unequal_payload_lengths_fall_back(self, monkeypatch, grouped):
        payloads = [[1.0], [1.0, 2.0, 3.0, 4.0]]
        self._check(monkeypatch, 16, _sync_reduce, ("sum", payloads, 1))
        assert grouped == [16]  # the barrier only

    def test_staggered_arrivals_fall_back(self, monkeypatch, grouped):
        on = self._check(monkeypatch, 16, _staggered_reduce, ())
        assert on.world.macro.replays == 3
        assert grouped == []

    def test_each_image_owns_its_result(self, grouped):
        payloads = [np.arange(4.0) + k for k in range(3)]
        on = _run_flat(16, _sync_reduce, ("sum", payloads, 1), macro=True)
        assert grouped == [16, 16]
        first, second = on.results[0][0], on.results[1][0]
        expected = second.copy()
        assert not np.shares_memory(first, second)
        first[:] = -1.0
        assert np.array_equal(second, expected)
