"""The cold-search program process: one caller, a fresh ``Soda`` per text.

Builds the minibank warehouses of the seed (``inputs.warehouse_seeds``;
flat storage, the library default), prints ``ready``, then runs the 13
Table 2 texts on every warehouse in seeded shuffled passes until
``--seconds`` have passed (whole passes only).  Each timed answer is
``Soda(warehouse).search(text)`` plus ``to_json(limit=5)``.
With ``--trace 1`` every other pass runs under the layer wrappers, so
traced and untraced latencies come from the same process.  After the
timed part it runs the ETL write probe through ``Database.execute``,
then prints one JSON object with everything the benchmark needs.

    python3 perfbench/cold_worker.py --seed 42 --seconds 20 --trace 0
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import time
from time import perf_counter

import spans
from measure import COUNTERS, counter_values

SCALE = 1.0


def answer_digest(answer_json: str) -> str:
    """Digest of an answer without its per-run timings."""
    payload = json.loads(answer_json)
    payload.pop("timings", None)
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    gc_monitor = spans.GcMonitor()
    gc_monitor.install()
    import inputs
    from repro.core.soda import Soda
    from repro.obs.metrics import registry
    from repro.warehouse.minibank import build_minibank

    started = perf_counter()
    warehouses = [build_minibank(seed=seed, scale=SCALE)
                  for seed in inputs.warehouse_seeds(args.seed)]
    warehouse_s = perf_counter() - started
    print("ready", flush=True)
    if args.setup_only:
        return 0

    # item k: Table 2 text k % 13 on warehouse k // 13
    texts = inputs.table2_texts()
    items = [(warehouse, text) for warehouse in warehouses for text in texts]
    rng = random.Random(f"{args.seed}:cold-order")
    recorder = spans.Recorder()
    searches: list = []  # (pass, item, traced, latency_s, failed, rid)
    answers: dict = {}  # item -> warm-up answer JSON
    digests: dict = {}
    mismatched = 0  # timed answers that differ from the warm-up one
    counters = dict.fromkeys(COUNTERS, 0)
    # one untimed pass fills the plan cache and any lazy warehouse
    # state; every timed pass then does the same work
    for index, (warehouse, text) in enumerate(items):
        answers[index] = Soda(warehouse).search(text).to_json(limit=5)
        digests[index] = answer_digest(answers[index])
    window_start = perf_counter()
    deadline = window_start + args.seconds
    passes = 0
    rid = 0
    while perf_counter() < deadline:
        traced = bool(args.trace) and passes % 2 == 1
        order = list(range(len(items)))
        rng.shuffle(order)
        if traced:
            before = counter_values(registry().to_dict())
            recorder.install()
        for index in order:
            rid += 1
            root = token = None
            if traced:
                root, token = recorder.root("request", rid)
            t0 = perf_counter()
            try:
                warehouse, text = items[index]
                answer = Soda(warehouse).search(text).to_json(limit=5)
                failed = False
            except Exception as exc:  # noqa: BLE001 - count, keep going
                answer, failed = repr(exc), True
            latency = perf_counter() - t0
            if traced:
                recorder.close(root, token)
            searches.append((passes, index, traced, latency, failed, rid))
            if failed:
                continue
            if answer_digest(answer) != digests[index]:
                mismatched += 1
        if traced:
            recorder.uninstall()
            after = counter_values(registry().to_dict())
            for name in COUNTERS:
                counters[name] += after[name] - before[name]
        passes += 1
    window_end = perf_counter()
    peak_rss = spans.peak_rss_mb()

    # ETL write probe on the seed's own warehouse: the same write stream
    # the serve workloads use, on an engine that is otherwise idle;
    # traced in --trace 1 runs, which measures the write path (DML
    # execution, index maintenance)
    database = warehouses[0].database
    stream = inputs.WriteStream(args.seed, database)
    writes: list = []  # (latency_s, ok)
    write_rids: list = []
    if args.trace:
        recorder.install()
    paced_from = None
    warmup = inputs.PROBE_WARMUP
    for index in range(warmup + inputs.PROBE_WINDOWS
                       * inputs.WRITES_PER_WINDOW):
        timed = index >= warmup
        if timed:
            if paced_from is None:
                paced_from = perf_counter()
            due = paced_from + (index - warmup) / inputs.PROBE_RATE
            while perf_counter() < due:
                time.sleep(due - perf_counter())
        sql, expected = stream.next()
        rid += 1
        if args.trace:
            root, token = recorder.root("request", rid)
        t0 = perf_counter()
        rowcount = database.execute(sql).rowcount
        latency = perf_counter() - t0
        if args.trace:
            recorder.close(root, token)
        if timed or rowcount != expected:
            writes.append((latency, rowcount == expected))
            write_rids.append(str(rid))
    recorder.uninstall()

    result = {
        "warehouse_s": warehouse_s,
        "window": [window_start, window_end],
        "passes": passes,
        "searches": searches,
        "answers": {str(k): v for k, v in answers.items()},
        "mismatched": mismatched,
        "writes": writes,
        "write_rids": write_rids,
        "peak_rss_mb": peak_rss,
        "gc": spans.gc_window(gc_monitor.pauses, window_start, window_end),
        "counters": counters,
        "spans": recorder.summary(),
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
