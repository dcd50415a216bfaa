"""One benchmark invocation in a fresh interpreter.

Usage: ``python child.py REQUEST.json`` with ``PERFBENCH_SPAWN`` set to the
parent's ``time.monotonic()`` just before it started this process (the
clock is system-wide, so the difference is the set-up time).  The request
names the CLI arguments, whether to trace and where to write the result.

Timeline of one invocation:

1. interpreter start, ``import repro.cli`` and parsing of the workload's
   inputs (the CLI arguments and, for a scenario run, the scenario file):
   ``setup_s``;
2. ``gc.collect()``, then the timed ``repro.cli.main(argv)`` call with its
   report captured: ``wall_s``;
3. after timing: peak RSS.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import sys
import time
from pathlib import Path


def peak_rss() -> float:
    """This process's peak resident set size in KiB.

    ``VmHWM`` counts only this program's own memory.  ``ru_maxrss`` (the
    fallback off Linux) also keeps the parent's resident size from before
    ``exec``, so a large parent would inflate it.
    """
    status = Path("/proc/self/status")
    if status.exists():
        for line in status.read_text().splitlines():
            if line.startswith("VmHWM:"):
                return float(line.split()[1])
    return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def main() -> None:
    request = json.loads(Path(sys.argv[1]).read_text())
    argv = request["argv"]

    import repro.cli
    from repro.api import ScenarioSpec

    args = repro.cli.build_parser().parse_args(argv)
    if getattr(args, "scenario", None) is not None:
        ScenarioSpec.from_toml(args.scenario)
    setup_s = time.monotonic() - float(os.environ["PERFBENCH_SPAWN"])

    tracer = None
    if request["trace"]:
        from tracer import ROOT_SPAN, Tracer

        tracer = Tracer().install()

    report = io.StringIO()
    error = None
    gc.collect()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(report):
            if tracer is None:
                code = repro.cli.main(argv)
            else:
                code = tracer.call(ROOT_SPAN, repro.cli.main, argv)
    except Exception as exc:  # a failed invocation is counted, not fatal
        code, error = None, f"{type(exc).__name__}: {exc}"
    wall_s = time.perf_counter() - start
    peak_rss_mb = peak_rss() / 1024.0

    result = {
        "code": code,
        "error": error,
        "wall_s": wall_s,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "report": report.getvalue(),
        "repro_file": repro.cli.__file__,
    }
    if tracer is not None:
        tracer.uninstall()
        tracer.write(Path(request["spans"]), request["run_id"])
        result["counts"] = {**tracer.counts, **tracer.runner_counts()}
    Path(request["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
