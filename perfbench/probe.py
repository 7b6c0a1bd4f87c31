"""Fresh-interpreter probe of one SPMD workload, run by ``run.py``.

    python3 perfbench/probe.py WORKLOAD SEED [--tiny]

Imports the runtime, builds the workload's machine and runs the
zero-iteration program on it, then prints ``ready``: the parent's time
to that line is the ``setup_s`` sample.  Then it runs one full pass of
the workload, checks it, and prints ``{"cold_s", "peak_rss_mb",
"attempted", "failed"}`` as JSON: the ``cold_s`` sample and the
interpreter's peak resident set.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))

from repro.runtime.program import run_spmd  # noqa: E402

import spmd  # noqa: E402
from rss import peak_rss_mb  # noqa: E402


def main() -> None:
    wl = spmd.WORKLOADS[sys.argv[1]](int(sys.argv[2]), "--tiny" in sys.argv)
    _engine, machine = wl.build()
    run_spmd(spmd.idle_program, machine=machine)
    print("ready", flush=True)
    result, _engine, wall = wl.run()
    tally = wl.check(result.results)
    print(json.dumps({"cold_s": wall, "peak_rss_mb": peak_rss_mb(),
                      "attempted": tally.attempted,
                      "failed": tally.failed}), flush=True)


if __name__ == "__main__":
    main()
