"""Start ``repro serve`` in this process, as the benchmark's server.

Runs ``repro.cli.main`` with the arguments given after ``--`` (exactly
what ``python -m repro ...`` would run), after installing a
``gc.callbacks`` monitor.  With ``--trace`` the layer wrappers of
:mod:`spans` are installed when the process receives SIGUSR1, so the
benchmark can alternate untraced and traced phases in one process
(SIGUSR2 removes them).
When the server has drained and stopped (SIGTERM), the process writes
its peak RSS, collector pauses and span summary as JSON to ``--dump``.

    python3 perfbench/serve_launcher.py --dump out.json [--trace] \\
        -- --seed 42 --scale 1.0 serve --port 0 --http-workers 2
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from time import perf_counter

import spans


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--dump", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("repro_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    repro_args = args.repro_args
    if repro_args[:1] == ["--"]:
        repro_args = repro_args[1:]

    gc_monitor = spans.GcMonitor()
    gc_monitor.install()
    recorder = spans.Recorder()
    warehouse_s: list = []
    if args.trace:
        signal.signal(
            signal.SIGUSR1, lambda signum, frame: recorder.install(server=True)
        )
        signal.signal(signal.SIGUSR2, lambda signum, frame: recorder.uninstall())
        _time_warehouse_build(warehouse_s)

    from repro.cli import main as repro_main

    code = repro_main(repro_args)
    payload = {
        "exit_code": code,
        "peak_rss_mb": spans.peak_rss_mb(),
        "gc_pauses": gc_monitor.pauses,
        "warehouse_s": warehouse_s[0] if warehouse_s else None,
        "spans": recorder.summary(),
    }
    recorder.uninstall()
    with open(args.dump, "w") as handle:
        json.dump(payload, handle)
    return code


def _time_warehouse_build(out: list) -> None:
    """Record how long ``serve`` spends in ``build_minibank``."""
    import repro.cli

    build = repro.cli.build_minibank

    def timed(*args, **kwargs):
        started = perf_counter()
        try:
            return build(*args, **kwargs)
        finally:
            out.append(perf_counter() - started)

    repro.cli.build_minibank = timed


if __name__ == "__main__":
    sys.exit(main())
