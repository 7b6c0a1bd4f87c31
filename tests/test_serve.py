"""The experiment-grid job server: specs, jobs, dedup, end-to-end.

The server's contract has three load-bearing clauses, each pinned here:

* a spec expands into *the same* cells (same tasks, same order, same
  cache keys) the sequential CLI would run, so rendering the streamed
  outcomes reproduces the CLI's output byte for byte;
* overlapping jobs from different tenants cost one execution per unique
  cell (in-flight dedup + result cache), visible in ``/stats``;
* the whole loop works over real HTTP with concurrent clients.
"""

import asyncio
import json
import queue
import threading

import pytest

from repro.bench.cells import plan_experiment, plan_tasks, render_results
from repro.exec import run_tasks
from repro.serve.client import (
    ServerError,
    get_stats,
    run_bench_remote,
    shutdown_server,
    submit_job,
    wait_server,
)
from repro.serve.jobs import Job, JobRegistry
from repro.serve.server import JobServer, serve_forever
from repro.serve.spec import SpecError, expand, outcome_shims


# ----------------------------------------------------------------------
class TestSpecValidation:
    def test_rejects_non_object(self):
        with pytest.raises(SpecError):
            expand([1, 2])

    def test_rejects_unknown_kind(self):
        with pytest.raises(SpecError):
            expand({"kind": "hpl"})

    def test_rejects_bad_nodes(self):
        with pytest.raises(SpecError):
            expand({"kind": "bench", "experiment": "barrier", "nodes": []})
        with pytest.raises(SpecError):
            expand({"kind": "bench", "experiment": "barrier",
                    "nodes": [2, -1]})

    def test_barrier_has_no_payload_axis(self):
        with pytest.raises(SpecError):
            expand({"kind": "bench", "experiment": "barrier",
                    "nelems": [1, 64]})

    def test_verify_empty_filter_rejected(self):
        with pytest.raises(SpecError):
            expand({"kind": "verify", "kinds": ["no-such-kind"]})


class TestBenchExpansion:
    def test_cells_match_the_sequential_plan(self):
        spec = {"kind": "bench", "experiment": "barrier", "nodes": [2, 4]}
        expanded = expand(spec)
        plans = plan_experiment("barrier", [2, 4])
        tasks = plan_tasks(plans)
        assert len(expanded.cells) == len(tasks)
        for cell, task in zip(expanded.cells, tasks):
            assert cell.index == tasks.index(task)
            assert cell.task.fn.func is task.fn.func
            assert cell.task.args == task.args

    def test_payload_bands_expand_in_order(self):
        spec = {"kind": "bench", "experiment": "reduce", "nodes": [2],
                "nelems": [1, 64]}
        expanded = expand(spec)
        single = expand({"kind": "bench", "experiment": "reduce",
                         "nodes": [2], "nelems": 1})
        assert len(expanded.cells) == 2 * len(single.cells)

    def test_render_parity_with_sequential_cli(self):
        """Server-style JSON records, rendered, equal the sequential
        CLI's tables byte for byte."""
        spec = {"kind": "bench", "experiment": "barrier", "nodes": [2]}
        expanded = expand(spec)
        plans = plan_experiment("barrier", [2])
        sequential = render_results(plans, run_tasks(plan_tasks(plans),
                                                     jobs=1))
        local = run_tasks([c.task for c in expanded.cells], jobs=1)
        records = [{"index": i, "ok": r.ok, "error": r.error,
                    "value": expanded.summarize(r.value) if r.ok else None}
                   for i, r in enumerate(local)]
        assert expanded.render(records) == sequential

    def test_outcome_shims_round_trip(self):
        shims = outcome_shims([{"ok": True, "value": 1.5, "error": None},
                               {"ok": False, "value": None, "error": "boom"}])
        assert shims[0].ok and shims[0].value == 1.5
        assert not shims[1].ok and shims[1].error == "boom"


class TestVerifyExpansion:
    def test_cells_match_the_matrix(self):
        from repro.verify.conformance import build_matrix

        spec = {"kind": "verify", "quick": True, "seeds": 2,
                "kinds": ["barrier"]}
        expanded = expand(spec)
        cases = build_matrix(quick=True, kinds=["barrier"])
        assert len(expanded.cells) == len(cases)
        assert [c.label for c in expanded.cells] == [c.label for c in cases]

    def test_summarize_is_json_safe(self):
        from repro.verify.conformance import build_matrix, run_case

        spec = {"kind": "verify", "quick": True, "seeds": 1,
                "kinds": ["barrier"]}
        expanded = expand(spec)
        case = build_matrix(quick=True, kinds=["barrier"])[0]
        summary = expanded.summarize(run_case(case, seeds=1))
        json.dumps(summary)  # must not raise
        assert summary["ok"] is True


# ----------------------------------------------------------------------
class TestJobPlumbing:
    def _job(self, cells=2):
        spec = {"kind": "bench", "experiment": "barrier",
                "nodes": [2] if cells == 8 else [2]}
        expanded = expand(spec)
        return Job("j000001", "t", spec, expanded)

    def test_subscribe_replays_then_terminates(self):
        async def scenario():
            job = self._job()
            n = len(job.expanded.cells)
            early = job.subscribe()
            for i in range(n):
                job.record({"event": "cell", "index": i, "ok": True,
                            "value": 1.0, "error": None})
            job.finish()
            late = job.subscribe()  # after completion: full replay

            async def drain(q):
                events = []
                while True:
                    event = await q.get()
                    if event is None:
                        return events
                    events.append(event)

            a = await drain(early)
            b = await drain(late)
            assert a == b
            assert a[-1]["event"] == "done"
            assert a[-1]["status"] == "done"
            assert len(a) == n + 1

        asyncio.run(scenario())

    def test_snapshot_includes_table_only_when_done(self):
        job = self._job()
        assert "table" not in job.snapshot()
        for i in range(len(job.expanded.cells)):
            job.record({"event": "cell", "index": i, "ok": True,
                        "value": 1.0, "error": None})
        job.finish()
        assert "us" in job.snapshot()["table"]  # a rendered latency table

    def test_registry_counts_tenants(self):
        registry = JobRegistry()
        spec = {"kind": "bench", "experiment": "barrier", "nodes": [2]}
        registry.create("alice", spec, expand(spec))
        registry.create("alice", spec, expand(spec))
        registry.create("bob", spec, expand(spec))
        stats = registry.stats()
        assert stats["total"] == 3
        assert stats["tenants"]["alice"]["jobs"] == 2
        assert stats["tenants"]["bob"]["jobs"] == 1


# ----------------------------------------------------------------------
class TestSourceGeneration:
    def test_generation_fixed_at_start_and_source_current_reported(
            self, tmp_path):
        """A server keys under the source it started with — the code its
        workers run — and ``/stats`` says when an edit calls for a
        restart."""
        src_root = tmp_path / "src"
        src_root.mkdir()
        (src_root / "mod.py").write_text("X = 1\n")
        app = JobServer(jobs=1, cache_root=tmp_path / "cache",
                        source_roots=[src_root])
        try:
            before = app.stats()["cache"]
            assert before["source_current"] is True
            (src_root / "mod.py").write_text("X = 22\n")
            after = app.stats()["cache"]
            assert after["generation"] == before["generation"]
            assert after["source_current"] is False
        finally:
            app.close()
        restarted = JobServer(jobs=1, cache_root=tmp_path / "cache",
                              source_roots=[src_root])
        try:
            cache = restarted.stats()["cache"]
            assert cache["generation"] != before["generation"]
            assert cache["source_current"] is True
        finally:
            restarted.close()


# ----------------------------------------------------------------------
def _serve(tmp_path, jobs):
    """A real JobServer on an OS-assigned port, in a daemon thread."""
    announced: queue.Queue = queue.Queue()
    thread = threading.Thread(
        target=lambda: asyncio.run(serve_forever(
            host="127.0.0.1", port=0, jobs=jobs,
            cache_root=tmp_path / "cache", namespace="test-serve",
            announce=announced.put)),
        daemon=True)
    thread.start()
    url = announced.get(timeout=30).replace("serving on ", "")
    assert wait_server(url, timeout=30)
    yield url
    try:
        shutdown_server(url)
    except (ServerError, OSError):
        pass
    thread.join(timeout=15)


@pytest.fixture
def live_server(tmp_path):
    yield from _serve(tmp_path, jobs=1)


@pytest.fixture
def pooled_server(tmp_path):
    yield from _serve(tmp_path, jobs=2)


class TestEndToEnd:
    SPEC = {"kind": "bench", "experiment": "barrier", "nodes": [2]}

    def test_bad_spec_is_a_400(self, live_server):
        with pytest.raises(ServerError, match="HTTP 400"):
            submit_job(live_server, {"kind": "nope"})

    def test_unknown_job_is_a_404(self, live_server):
        from repro.serve.client import get_job

        with pytest.raises(ServerError, match="HTTP 404"):
            get_job(live_server, "j999999")

    def test_two_tenants_one_execution_per_unique_cell(self, live_server):
        """The acceptance scenario: two concurrent clients with fully
        overlapping grids produce byte-identical tables, and the server
        executed each unique cell exactly once."""
        plans = plan_experiment("barrier", [2])
        expected = render_results(plans, run_tasks(plan_tasks(plans),
                                                   jobs=1))
        unique_cells = len(plan_tasks(plans))
        outputs: dict = {}

        def client(tenant):
            shims = run_bench_remote(live_server, dict(self.SPEC),
                                     tenant=tenant)
            outputs[tenant] = render_results(
                plan_experiment("barrier", [2]), shims)

        threads = [threading.Thread(target=client, args=(t,))
                   for t in ("alice", "bob")]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert outputs["alice"] == expected
        assert outputs["bob"] == expected

        stats = get_stats(live_server)
        tenants = stats["jobs"]["tenants"]
        executed = sum(t["executed"] for t in tenants.values())
        shared = sum(t["deduped"] + t["cache_hits"]
                     for t in tenants.values())
        assert executed == unique_cells  # exactly once per unique cell
        assert shared == unique_cells    # the other tenant paid nothing
        assert stats["pool"]["submitted"] == unique_cells
        assert stats["cache"]["unkeyed"] == 0

    def test_third_run_is_served_entirely_from_cache(self, live_server):
        run_bench_remote(live_server, dict(self.SPEC), tenant="warm")
        before = get_stats(live_server)["pool"]["submitted"]
        run_bench_remote(live_server, dict(self.SPEC), tenant="cold")
        stats = get_stats(live_server)
        assert stats["pool"]["submitted"] == before  # nothing re-executed
        assert stats["jobs"]["tenants"]["cold"]["cache_hits"] == len(
            plan_tasks(plan_experiment("barrier", [2])))

    def test_stats_pool_schema(self, pooled_server):
        """The ``/stats`` pool keys that perfbench, the perf harness and
        CI read, and worker task counts that add up to the cells run."""
        run_bench_remote(pooled_server, dict(self.SPEC), tenant="schema")
        stats = get_stats(pooled_server)
        pool = stats["pool"]
        for key in ("submitted", "respawns", "per_worker_busy_s",
                    "per_worker_tasks"):
            assert key in pool
        executed = sum(t["executed"]
                       for t in stats["jobs"]["tenants"].values())
        assert executed == len(plan_tasks(plan_experiment("barrier", [2])))
        assert pool["submitted"] == executed
        if not pool["inline"]:
            assert sum(pool["per_worker_tasks"]) == executed
            assert len(pool["per_worker_busy_s"]) == len(
                pool["per_worker_tasks"])
