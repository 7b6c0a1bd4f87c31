"""End-to-end, layer-attributed benchmark of the simulated CAF runtime.

    python3 perfbench/run.py --workload coll_fine --seed 1 --seconds 20 --trace 0

Run from the root of a checkout (it imports ``src/repro``).  Workloads:
``coll_fine``, ``coll_macro``, ``app_cg`` (SPMD programs through
``run_spmd``) and ``grid_serve`` (the quick conformance grid through the
job server).  ``--trace 0`` measures the end-to-end metrics with nothing
attached; ``--trace 1`` makes a separate profiled run and reports the
per-layer metrics.  Metric names and units are those of
``BENCHMARK.json``.  Untraced timings are scaled to a reference host
speed (``hostspeed.py``).  A human-readable table goes to stderr; the
last line of stdout is the JSON result.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import pstats
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: a run's measuring time is cut into this many slots; each slot starts
#: with a fresh process (one set-up and one cold sample) and fills the
#: rest with warm samples, so every metric samples the whole run.  An
#: SPMD run also needs MIN_SAMPLES iterations of warm passes (20 passes
#: on app_cg), so each slot added makes it longer
SLOTS = 4
#: warm passes per run, at least
MIN_WARM_PASSES = 3
#: latency samples per run, at least: ten beyond the 90th percentile
MIN_SAMPLES = 100
#: an SPMD run goes on for its latency samples up to this many times
#: --seconds, no further: on a very slow host p90 then has fewer than
#: ten samples beyond it, but a full set of runs keeps its time limit
MAX_STRETCH = 2.0
#: repetitions of each outside-timed span in a traced run
SPAN_REPEATS = 5
#: traced grid_serve cycle: warm passes
TRACE_WARM_PASSES = 2


def _median_time(fn: Callable[[], object], repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def _latencies(stamps: List[Tuple[int, float]]) -> List[float]:
    """The gaps between consecutive ``(stream, time)`` stamps of each
    stream."""
    last: Dict[int, float] = {}
    gaps = []
    for stream, stamp in stamps:
        if stream in last:
            gaps.append(stamp - last[stream])
        last[stream] = stamp
    return gaps


def _summary(setup: List[float], cold: List[float], warm: List[float],
             ops: float, samples: List[float], sim_time_s: float,
             peak_rss_mb: float):
    print(f"samples: setup {len(setup)}, cold {len(cold)}, warm "
          f"{len(warm)}, latency {len(samples)}", file=sys.stderr)
    wall_s = statistics.median(warm)
    return {
        "setup_s": statistics.median(setup),
        "cold_s": statistics.median(cold),
        "wall_s": wall_s,
        "ops_per_s": ops / wall_s,
        "latency_p50_ms": statistics.median(samples) * 1e3,
        "latency_p90_ms": statistics.quantiles(samples, n=10)[-1] * 1e3,
        "sim_time_us": sim_time_s * 1e6,
        "peak_rss_mb": peak_rss_mb,
    }


def _layer_metrics(stats, per: int) -> Tuple[Dict[str, float], float]:
    """Per-layer self time and profiled total per ``per`` passes, and
    the profiled calls per pass."""
    from layers import self_times
    selfs, total, calls = self_times(stats)
    out = {f"{layer}.self_s": s / per for layer, s in selfs.items()}
    out["trace.profiled_s"] = total / per
    return out, calls / per


# ----------------------------------------------------------------------
# SPMD workloads
# ----------------------------------------------------------------------
def _spmd_probe(name: str, seed: int, tiny: bool, env: dict, tally,
                speed) -> Tuple[float, float, float]:
    """One fresh-interpreter ``(setup_s, cold_s, peak_rss_mb)`` sample
    (``probe.py``), times scaled by ``speed`` (a ``hostspeed.HostSpeed``)."""
    from spmd import Check
    speed.start()
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "probe.py"), name, str(seed)]
        + (["--tiny"] if tiny else []),
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - t0
        rest = proc.stdout.readline()
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    factor = speed.scale()
    report = json.loads(rest)
    tally.merge(Check(report["attempted"], report["failed"]))
    return (setup_s * factor, report["cold_s"] * factor,
            report["peak_rss_mb"])


def run_spmd_workload(name: str, seed: int, seconds: float, speed,
                      tiny: bool, env: dict, tally) -> Dict[str, float]:
    """``speed`` is a ``hostspeed.HostSpeed``, or None for a traced run."""
    import spmd
    wl = spmd.WORKLOADS[name](seed, tiny)
    expected: dict = {}

    def measured(**kwargs):
        """One pass: ``(result, engine, wall, factor)``, where ``wall``
        is scaled to the reference host speed by ``factor``."""
        # every pass starts from the same heap: nothing of the previous
        # pass alive, no collection pending
        gc.collect()
        if speed is not None:
            speed.start()
        result, engine, wall = wl.run(**kwargs)
        factor = 1.0 if speed is None else speed.scale()
        wall *= factor
        tally.merge(wl.check(result.results))
        # the simulation is deterministic: every pass must agree exactly
        outcome = (result.time, result.traffic, engine.events_processed)
        tally.add(outcome == expected.setdefault("outcome", outcome))
        return result, engine, wall, factor

    measured()  # warm-up; cold passes run in fresh interpreters
    if speed is None:
        return _spmd_trace(wl, measured, perf_counter() + seconds)

    setup, cold, warm, samples, peaks = [], [], [], [], []
    start = perf_counter()
    for slot in range(1, SLOTS + 1):
        setup_s, cold_s, peak = _spmd_probe(name, seed, tiny, env, tally,
                                            speed)
        setup.append(setup_s)
        cold.append(cold_s)
        peaks.append(peak)
        end = start + seconds * slot / SLOTS
        while perf_counter() < end or (slot == SLOTS and (
                len(warm) < MIN_WARM_PASSES or (
                    len(samples) < MIN_SAMPLES
                    and perf_counter() < start + MAX_STRETCH * seconds))):
            stamps: List[Tuple[int, float]] = []
            _, _, wall, factor = measured(stamps=stamps)
            warm.append(wall)
            samples.extend(gap * factor for gap in _latencies(stamps))
    return _summary(setup, cold, warm, wl.image_ops, samples,
                    expected["outcome"][0], max(peaks))


def _spmd_trace(wl, measured, deadline: float) -> Dict[str, float]:
    import spmd
    from repro.runtime.program import run_spmd

    result, engine, untraced_s, _ = measured()
    events = engine.events_processed
    traffic = result.traffic
    macro = result.world.macro
    out = {
        "collectives.macro.replays": macro.replays,
        "collectives.macro.wake_events": macro.wake_events,
        "collectives.macro.fine_pins": macro.fine_pins,
        "collectives.macro.demotions": macro.demotions,
        "collectives.macro.inexact": int(macro.inexact),
        "machine.intra_messages": traffic.intra_messages,
        "machine.inter_messages": traffic.inter_messages,
        "machine.intra_bytes": traffic.intra_bytes,
        "machine.inter_bytes": traffic.inter_bytes,
    }
    del result, engine, macro

    def spawn():
        _engine, machine = wl.build()
        t0 = perf_counter()
        run_spmd(spmd.idle_program, machine=machine)
        return perf_counter() - t0

    build_s = _median_time(wl.build, SPAN_REPEATS)
    spawn_s = statistics.median(spawn() for _ in range(SPAN_REPEATS))

    profiler = cProfile.Profile()
    traced: List[float] = []
    while not traced or perf_counter() < deadline:
        traced.append(measured(profiler=profiler)[2])
    layers, calls = _layer_metrics(pstats.Stats(profiler), len(traced))
    out.update(layers)
    out.update({
        "sim.events": events,
        "sim.events_per_s": events / untraced_s,
        "sim.calls_per_event": calls / events,
        "trace.overhead_frac": statistics.median(traced) / untraced_s - 1.0,
        "machine.build_s": build_s,
        "runtime.spawn_s": spawn_s,
    })
    return out


# ----------------------------------------------------------------------
# grid_serve
# ----------------------------------------------------------------------
def run_grid_workload(seed: int, seconds: float, speed, tiny: bool,
                      env: dict, work: Path, tally) -> Dict[str, float]:
    """``speed`` is a ``hostspeed.HostSpeed``, or None for a traced run."""
    import grid
    from rss import tree_peak_rss_mb
    jobs = grid.pool_jobs()
    inputs = grid.make_inputs(seed, tiny)
    ref = grid.reference(inputs)
    if speed is None:
        return _grid_trace(inputs, ref, jobs, work, tally)

    cycle = grid.Cycle()
    order = iter(inputs.loop_order)
    setup: List[float] = []
    peaks: List[float] = []
    start = perf_counter()
    for slot in range(1, SLOTS + 1):
        end = start + seconds * slot / SLOTS
        speed.start()
        server = grid.ServerProcess(ROOT, work / f"cache-{slot}", jobs, env)
        # the last slot makes up any shortfall of samples
        last = slot == SLOTS
        warm_passes = max(1, MIN_WARM_PASSES - len(cycle.warm_s)) if last else 1
        requests = MIN_SAMPLES - len(cycle.rtt_s) if last else 0
        try:
            setup.append(server.setup_s * speed.scale())
            grid.run_cycle(server.url, inputs, ref, cycle, order, end,
                           warm_passes=warm_passes, min_requests=requests,
                           server_pid=server.proc.pid, speed=speed)
            peaks.append(tree_peak_rss_mb(server.proc.pid))
        finally:
            server.close()
    tally.merge(cycle.check)
    return _summary(setup, cycle.cold_s, cycle.warm_s, cycle.cells,
                    cycle.rtt_s, cycle.sim_time_s, max(peaks))


def _grid_trace(inputs, ref, jobs: int, work: Path, tally) -> Dict[str, float]:
    import grid
    from layers import ThreadProfiles
    from repro.exec.cache import ResultCache, source_fingerprint
    from repro.serve.spec import expand

    def cycle_on(server):
        cycle = grid.Cycle()
        try:
            t0 = perf_counter()
            grid.run_cycle(server.url, inputs, ref, cycle,
                           iter(inputs.loop_order), 0.0,
                           warm_passes=TRACE_WARM_PASSES,
                           min_requests=MIN_SAMPLES)
            return cycle, perf_counter() - t0
        finally:
            server.close()

    untraced, untraced_s = cycle_on(grid.Server(work / "cache-u", jobs))
    tally.merge(untraced.check)

    # outside-timed spans over the cache layer's public calls, on a key
    # the untraced cycle left warm
    cache = ResultCache(root=work / "cache-u", namespace="serve")
    task = expand(inputs.verify).cells[0].task
    key = cache.task_key(task)
    fingerprint_s = _median_time(source_fingerprint, 10 * SPAN_REPEATS)
    task_key_s = _median_time(lambda: cache.task_key(task), 10 * SPAN_REPEATS)
    hits = []
    get_s = _median_time(lambda: hits.append(cache.get(key)[0]),
                         10 * SPAN_REPEATS)
    tally.add(all(hits))

    # CPU time per thread: wall time would charge each thread for the
    # time it waits on the others
    profiles = ThreadProfiles(timer=time.thread_time)
    profiles.skip_thread(grid.SERVER_THREAD)
    profiles.hook_new_threads(True)
    try:
        server = grid.Server(work / "cache-t", jobs, profiles=profiles)
        profiles.enable_here()
        traced, traced_s = cycle_on(server)
    finally:
        profiles.hook_new_threads(False)
    tally.merge(traced.check)
    out, _calls = _layer_metrics(profiles.stats(), 1)
    stats = untraced.stats
    busy = untraced.cold_stats["busy_s"]
    out.update({
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
        "exec.cache.fingerprint_ms": fingerprint_s * 1e3,
        "exec.cache.task_key_ms": task_key_s * 1e3,
        "exec.cache.get_ms": get_s * 1e3,
        "exec.cache.hits": stats["hits"],
        "exec.cache.misses": stats["misses"],
        "exec.pool.busy_s": busy,
        "exec.pool.utilization": busy / (jobs * untraced.cold_s[0]),
        "exec.pool.respawns": stats["respawns"],
        "serve.cells_executed": stats["executed"],
        "serve.cache_hits": stats["cache_hits"],
        "serve.deduped": stats["deduped"],
        "serve.failed": stats["failed"],
    })
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["coll_fine", "coll_macro", "app_cg",
                                 "grid_serve"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (not comparable numbers)")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print("perfbench: src/repro not found; run from the root of a "
              "repository checkout", file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(HERE))
    speed = None
    if not args.trace:
        from hostspeed import HostSpeed
        speed = HostSpeed()
        # nothing that exists now, the loop's nodes above all, is
        # scanned by a collection during a measured pass
        gc.freeze()
    from spmd import Check

    work = ROOT / ".bench_build" / "perfbench" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, "PYTHONPATH": str(src), "TMPDIR": str(work)}
    tally = Check()
    cpus = os.sched_getaffinity(0)
    try:
        if args.workload == "grid_serve":
            values = run_grid_workload(args.seed, args.seconds, speed,
                                       args.tiny, env, work, tally)
        else:
            # the passes, the probes and the host-speed loop share one
            # CPU: the loop measures the CPU the program runs on
            os.sched_setaffinity(0, {max(cpus)})
            values = run_spmd_workload(args.workload, args.seed,
                                       args.seconds, speed, args.tiny, env,
                                       tally)
    finally:
        os.sched_setaffinity(0, cpus)
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    if args.trace:
        values["error_frac"] = tally.failed / max(tally.attempted, 1)
    wanted = contract["per_layer" if args.trace else "end_to_end"]
    unknown = set(values) - {metric["name"] for metric in wanted}
    if unknown:
        raise RuntimeError(f"metrics not in BENCHMARK.json: {sorted(unknown)}")
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        # a per-layer metric the workload does not produce belongs to a
        # layer it never reaches (the grid runs no simulation in-process,
        # the SPMD workloads never touch the server)
        value = values.get(name, 0) if args.trace else values[name]
        metrics[name] = {"value": value, "unit": metric["unit"]}
        print(f"{name:<32} {value:>16.6g} {metric['unit']}", file=sys.stderr)
    print(json.dumps({"correct": tally.failed == 0 and tally.attempted > 0,
                      "attempted": max(tally.attempted, 1),
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
