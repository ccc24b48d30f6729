"""The SODA benchmark: keyword text in, JSON answer out.

    python3 perfbench/run.py --workload cold-search --seed 42 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 42   # both modes, all

Run from the root of a checkout (``src/repro`` must be there).  Three
workloads, each putting a different layer at the top of the cost
breakdown; all use the minibank warehouse at scale 1.0 built with the
run's seed (``BENCHMARK.json`` lists the first two; serve-mixed runs
but its tails do not yet repeat across seeds):

* ``cold-search`` — the 13 Table 2 texts on each of 16 warehouses in
  seeded shuffled passes, a fresh ``Soda`` per search, one closed-loop
  caller in its own process: the metadata-graph tables step and SQL
  execution do the work.
* ``serve-hot`` — ``repro serve`` in its own process; GET /search with
  Zipf weights over the Table 2 texts, open loop, seeded Poisson
  arrivals at a fixed ladder of rates, then a closed-loop saturation
  phase: every text fits the result cache, so HTTP, admission, cache
  lookup and serialization cost.
* ``serve-mixed`` — the same server and generator; reads over a
  300-text long-tail population, and a tenth of the requests are ETL
  writes through POST /sql that stale the result cache, plan cache and
  lookup memos, so reads run the full pipeline.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes a
separate traced run (layer wrappers from :mod:`spans`) and prints the
per-layer metrics.  ``perfbench/README.md`` lists every metric and the
end-to-end metric and workload it should move.  Before the result the
run prints a ``record`` line (seed, versions, ladder, percentiles,
which counts repeat exactly) and a table of the metrics; the last line
is the JSON result.  Every process the benchmark starts runs with
``PYTHONHASHSEED=0`` and is stopped and waited for before exit.  The
exit code is 0 only when every answer was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import urllib.request
from dataclasses import dataclass
from time import perf_counter, sleep

import loadgen
import measure
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

HASH_SEED = "0"
SCALE = 1.0
#: program processes started per run to time set-up (median reported):
#: two before the measured process, the measured one, two after it, so
#: that a slow minute of a shared machine does not take all five
SETUPS_BEFORE = 2
SETUPS_AFTER = 2
#: engine threads of the server, and connections of the load generator
HTTP_WORKERS = 2
CONNECTIONS = 2
#: cold-search: tail limit behind its ``max_rps_at_slo`` (closed loop)
COLD_LIMIT_MS = 250.0
#: cold-search searches per second on the seed commit (2 cores; 36 to
#: 75 seen): with the run length it gives the sample count that fixes
#: the run's tail percentile, p99 at 40 s
COLD_EXPECTED_RPS = 40.0

PROCESS_TIMEOUT_S = 120.0

#: time windows per rung (and of the saturation phase): the steady ones
#: give the p50 (the capacity)
RUNG_WINDOWS = 20
#: searches a rung's tail window is expected to hold: 13.5 beyond its
#: p90.  The tail is the median of the steady windows' p90.  On a host
#: that took CPU time from the machine in bursts, a run's p99 read up to
#: four times, its windowed p95 up to 1.8 times and its windowed p90 up
#: to 1.6 times those of calm runs, its p50 1.45 times.
TAIL_SAMPLES = 135
#: untraced serve runs split the nominal rung into this many parts
#: spread over the run, between the other rungs, with (serve-hot) a
#: write-probe window before each part and the rest of the probe after
#: the ladder, so that a stretch of outside load on a shared machine
#: falls on a few of their windows rather than on all of them
PARTS = 8
#: share of a serve run spent in the closed-loop saturation phases
#: behind serve ``throughput_rps``, one before the ladder and one after
#: it, so that they catch a shared machine at two moments; the ladder
#: gets the rest
SATURATION_SHARE = 0.125

WORKLOADS = ("cold-search", "serve-hot", "serve-mixed")


@dataclass(frozen=True)
class Ladder:
    """Open-loop rates (req/s) of one serve workload."""

    rates: tuple
    nominal: float  # the rung behind search_p50_ms / search_tail_ms
    limit_ms: float  # the tail limit behind max_rps_at_slo
    write_share: float = 0.0

    def durations(self, seconds: float) -> list:
        """Seconds per rung: the nominal rung gets four shares, the top
        rung, which stops early once its backlog passes the
        generator's limits, half of one."""
        weights = [4.0 if rate == self.nominal
                   else 0.5 if rate == self.rates[-1] else 1.0
                   for rate in self.rates]
        return [seconds * w / sum(weights) for w in weights]


#: On the seed commit (2 cores) serve-hot saturates at roughly 1,500 to
#: 2,400 searches/s and serve-mixed at 450 to 600: the third rung runs
#: at half of that or less, the top rung above it, where the backlog
#: grows and the answered rate is the server's capacity.
LADDERS = {
    "serve-hot": Ladder(rates=(200, 400, 800, 3200), nominal=400,
                        limit_ms=25.0),
    "serve-mixed": Ladder(rates=(60, 120, 240, 720), nominal=120,
                          limit_ms=250.0, write_share=0.1),
}

#: self-time layers reported as ``<layer>.ms`` per search
TIMED_LAYERS = ("session", "lookup", "tables", "filters", "sqlgen", "plan",
                "execute", "explain", "serialize")

#: counts that repeat exactly between runs with the same seed
EXACT_COUNTS = {
    "cold-search": [
        "graph.match_calls", "lookup.interpretations", "rank.kept_ratio",
        "lookup.memo_hit_ratio", "tables.memo_plan_hit_ratio",
        "sqlgen.statements", "plan_cache.hit_ratio",
        "plan_cache.invalidations", "execute.rows_materialized",
        "execute.snippet_ratio", "engine.rows_scanned", "precision_mean",
        "recall_mean",
    ],
    "serve-hot": ["result_cache.hit_ratio", "precision_mean",
                  "recall_mean"],
    "serve-mixed": ["precision_mean", "recall_mean"],
}
#: counts that vary between same-seed runs because two connections
#: interleave requests (and, on serve-mixed, reads with writes)
INTERLEAVED_COUNTS = {
    "cold-search": [],
    "serve-hot": ["admission.shed"],
    "serve-mixed": [
        "result_cache.hit_ratio", "graph.match_calls",
        "lookup.interpretations", "rank.kept_ratio", "sqlgen.statements",
        "lookup.memo_hit_ratio", "tables.memo_plan_hit_ratio",
        "plan_cache.hit_ratio", "plan_cache.invalidations",
        "execute.rows_materialized", "execute.snippet_ratio",
        "engine.rows_scanned", "index_maint.calls", "admission.shed",
    ],
}


class BenchmarkError(Exception):
    """The run could not be measured (a process failed or hung)."""


# ----------------------------------------------------------------------
# process handling
# ----------------------------------------------------------------------
def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = HASH_SEED
    env["PYTHONPATH"] = SRC
    env["PYTHONUNBUFFERED"] = "1"
    return env


class Program:
    """A program process whose stdout is read line by line."""

    def __init__(self, argv: list, tmp: str, name: str) -> None:
        self.stderr_path = os.path.join(tmp, f"{name}.stderr")
        self.started = perf_counter()
        with open(self.stderr_path, "wb") as stderr:
            self.proc = subprocess.Popen(
                [sys.executable] + argv, stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE, stderr=stderr, env=child_env(),
                cwd=ROOT, bufsize=0,
            )
        self._buffer = b""

    def read_line(self, timeout: float = PROCESS_TIMEOUT_S) -> str:
        deadline = perf_counter() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buffer:
            left = deadline - perf_counter()
            if left <= 0:
                raise BenchmarkError(f"no output within {timeout:g}s")
            ready, __, __ = select.select([fd], [], [], left)
            if ready:
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    raise BenchmarkError(
                        "program exited early: " + self.stderr_tail()
                    )
                self._buffer += chunk
        line, __, self._buffer = self._buffer.partition(b"\n")
        return line.decode()

    def stderr_tail(self) -> str:
        with open(self.stderr_path, "rb") as handle:
            return handle.read()[-2000:].decode(errors="replace")

    def stop(self, sig=signal.SIGTERM, timeout: float = 30.0) -> int:
        """Signal (if still running) and wait; kill after *timeout*."""
        if self.proc.poll() is None:
            self.proc.send_signal(sig)
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        return self.proc.returncode

    def rest(self) -> str:
        """Wait for exit; everything printed after the last read line."""
        try:
            out, __ = self.proc.communicate(timeout=PROCESS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise BenchmarkError("program did not finish")
        if self.proc.returncode != 0:
            raise BenchmarkError(
                f"program exited {self.proc.returncode}: "
                + self.stderr_tail()
            )
        return (self._buffer + out).decode()


def steal_s() -> "float | None":
    """CPU seconds the host has taken from this machine's CPUs since
    boot (the steal column of ``/proc/stat``); None where unreadable."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


# ----------------------------------------------------------------------
# cold-search
# ----------------------------------------------------------------------
def run_cold(args, tmp: str) -> dict:
    import inputs
    import oracle
    from repro.warehouse.minibank import build_minibank

    worker = [os.path.join(HERE, "cold_worker.py"), "--seed", str(args.seed)]

    def setup_s(index: int) -> float:
        program = Program(worker + ["--setup-only"], tmp, f"setup{index}")
        try:
            program.read_line()
            seconds = perf_counter() - program.started
            program.rest()
        finally:
            program.stop()
        return seconds

    setups = [setup_s(i) for i in range(SETUPS_BEFORE)]
    program = Program(
        worker + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
        tmp, "cold",
    )
    try:
        program.read_line()
        setups.append(perf_counter() - program.started)
        out = json.loads(program.rest().strip().splitlines()[-1])
    finally:
        program.stop()
    setups += [setup_s(SETUPS_BEFORE + i) for i in range(SETUPS_AFTER)]

    # untimed checks, in this process: sqlite oracle, snippets, quality;
    # answer k is Table 2 text k % 13 on warehouse k // 13
    texts = len(inputs.table2_texts())
    warehouses = [build_minibank(seed=seed, scale=SCALE)
                  for seed in inputs.warehouse_seeds(args.seed)]
    checks = [oracle.Oracle(warehouse.database) for warehouse in warehouses]
    answers = {int(k): json.loads(v) for k, v in out["answers"].items()}
    problems = []
    for index, answer in sorted(answers.items()):
        problem = oracle.wire_problem(answer)
        if problem:
            problems.append(f"answer {index}: {problem}")
            continue
        for statement in answer["statements"]:
            if statement["snippet"] is None:
                continue
            expected = checks[index // texts].compare(statement["sql"])
            if not oracle.snippet_agrees(statement["snippet"], expected):
                problems.append(f"snippet of {statement['sql']!r}")
    # answer quality on the seed's own warehouse (a second per
    # warehouse, and the same on every run of the seed)
    precision, recall = oracle.quality(
        warehouses[0].database, {i: answers[i] for i in range(texts)})
    mismatches = [sql for check in checks for sql in check.mismatches]

    searches = out["searches"]
    untraced = [s[3] * 1000.0 for s in searches if not s[2]]
    traced = [s[3] * 1000.0 for s in searches if s[2]]
    failed_searches = sum(1 for s in searches if s[4])
    bad_writes = sum(1 for w in out["writes"] if not w[1])
    window = out["window"][1] - out["window"][0]
    attempted = len(searches) + len(out["writes"])
    failed = (failed_searches + out["mismatched"] + bad_writes
              + len(problems) + len(mismatches))
    # the percentile the run length fixes
    tail_q = measure.tail_percentile(args.seconds * COLD_EXPECTED_RPS)
    passes: dict = {}
    for s in searches:
        if not s[2]:
            passes.setdefault(s[0], []).append(s[3] * 1000.0)
    windows = [passes[p] for p in sorted(passes)]  # a window per pass
    steady = sum(measure.steady(windows), [])
    p50 = measure.median(steady)
    # one window, the whole run: the tail holds every text's slowest
    # searches
    tail = measure.percentile(untraced, tail_q)
    # searches per second of answering (the benchmark's own checks
    # between searches are not the program's time)
    throughput = len(steady) * 1000.0 / sum(steady)
    write_ms = [w[0] * 1000.0 for w in out["writes"]]
    write_windows = measure.chunks(write_ms, inputs.WRITES_PER_WINDOW)
    write_q = measure.tail_percentile(inputs.WRITES_PER_WINDOW, min_beyond=10)
    write_p50 = measure.steady_median(write_windows)
    write_tail = measure.windowed_tail(write_windows, write_q)
    metrics = {
        "setup_s": measure.median(setups),
        "search_p50_ms": p50,
        "search_tail_ms": tail,
        "write_p50_ms": write_p50,
        "write_tail_ms": write_tail,
        "throughput_rps": throughput,
        "max_rps_at_slo": throughput if tail <= COLD_LIMIT_MS else 0.0,
        "peak_rss_mb": out["peak_rss_mb"],
        "precision_mean": precision,
        "recall_mean": recall,
    }
    record = {
        "warehouse_seeds": inputs.warehouse_seeds(args.seed),
        "searches": len(searches), "passes": out["passes"],
        "window_s": window, "setups_s": setups,
        "tail_percentiles": {"search_tail_ms": tail_q,
                             "write_tail_ms": write_q},
        "samples": {"search": len(untraced), "steady": len(steady),
                    "write": len(write_ms)},
        "windows": {"search": [len(w) for w in windows],
                    "write": [len(w) for w in write_windows]},
        "statistic": f"p50 and throughput over the fastest "
                     f"{measure.STEADY_SHARE:g} of the windows; "
                     f"search_tail_ms over the run, write_tail_ms the "
                     f"median of the steady windows' tails",
        "write_source": f"post-run probe of {len(write_ms)} writes through "
                        f"Database.execute at {inputs.PROBE_RATE:g}/s",
        "latency_limit_ms": COLD_LIMIT_MS,
        "oracle": {"statements": sum(c.compared for c in checks),
                   "mismatches": mismatches, "problems": problems},
    }
    layers = None
    if args.trace:
        spans_by_rid = out["spans"]
        write_rids = set(out["write_rids"])
        layers = span_layers(
            spans_by_rid, [r for r in spans_by_rid if r not in write_rids], {})
        layers.update(write_layers(spans_by_rid, out["write_rids"]))
        counts = out["counters"]
        n = len(traced)
        layers.update(counter_layers(counts, n))
        layers.update({
            "server.http_ms": 0.0,
            "admission.wait_ms": 0.0,
            "admission.wait_top_ms": 0.0,
            "admission.shed": 0,
            "result_cache.hit_ratio": 0.0,
            "gc.pause_ms": out["gc"]["pause_ms"] / len(searches),
            "gc.max_pause_ms": out["gc"]["max_pause_ms"],
            "gc.gen2_collections": out["gc"]["gen2_collections"],
            "setup.warehouse_s": out["warehouse_s"],
            "setup.ready_s": measure.median(setups),
            "trace.overhead_frac": measure.median(traced)
            / measure.median(untraced) - 1.0,
            "loadgen.lateness_tail_ms": 0.0,
            "execute.sqlite_ratio": measure.ratio(
                sum(c.engine_s for c in checks),
                sum(c.sqlite_s for c in checks)),
        })
    return {"metrics": metrics, "layers": layers, "record": record,
            "attempted": attempted, "failed": failed}


# ----------------------------------------------------------------------
# per-layer metrics from span summaries and counters
# ----------------------------------------------------------------------
def span_layers(spans_by_rid: dict, rids: list, client_ms: dict) -> dict:
    """Per-search layer metrics over the search request ids *rids*.

    *client_ms* maps a request id to its client-side latency (serve
    workloads); the time outside the server's route span is
    ``server.http_ms``.  Without it the root span is the search.
    """
    searches = [spans_by_rid[r] for r in rids if r in spans_by_rid]
    n = max(1, len(searches))

    def total(kind: str, layer: str) -> float:
        return sum(entry[kind].get(layer, 0) for entry in searches)

    out = {f"{layer}.ms": total("self", layer) * 1000.0 / n
           for layer in TIMED_LAYERS}
    unattributed = total("self", "request")
    if client_ms:
        # everything outside the admission and engine-thread spans:
        # wire, parsing, routing, the hand-off to the engine pool and
        # back, and sending the JSON
        client = sum(client_ms[r] for r in rids if r in spans_by_rid) / 1000.0
        handler = sum(entry["root"] for entry in searches) - total(
            "self", "route")
        out["server.http_ms"] = (client - handler) * 1000.0 / n
        whole = client
    else:
        whole = sum(entry["root"] for entry in searches)
    out["admission.wait_ms"] = total("self", "admission") * 1000.0 / n
    interpretations = total("notes", "lookup")
    executed = total("calls", "execute")
    rows = total("notes", "execute")
    out.update({
        "lookup.interpretations": interpretations / n,
        "rank.kept_ratio": measure.ratio(total("calls", "tables"),
                                         interpretations),
        "graph.match_calls": sum(e["matches"] for e in searches) / n,
        "sqlgen.statements": total("notes", "sqlgen") / n,
        "execute.rows_materialized": measure.ratio(rows, executed),
        "execute.snippet_ratio": measure.ratio(
            sum(e["kept"] for e in searches), rows),
        "trace.unattributed_frac": measure.ratio(unattributed, whole),
    })
    return out


def write_layers(spans_by_rid: dict, rids: list) -> dict:
    writes = [spans_by_rid[r] for r in rids if r in spans_by_rid]
    n = max(1, len(writes))
    return {
        "write.ms": sum(e["self"].get("write", 0) for e in writes)
        * 1000.0 / n,
        "index_maint.ms": sum(e["self"].get("index_maint", 0) for e in writes)
        * 1000.0 / n,
        "index_maint.calls": sum(e["calls"].get("index_maint", 0)
                                 for e in writes) / n,
    }


def counter_layers(counts: dict, searches: int) -> dict:
    return {
        "lookup.memo_hit_ratio": measure.ratio(
            counts["lookup.memo.hits"],
            counts["lookup.memo.hits"] + counts["lookup.memo.misses"]),
        "tables.memo_plan_hit_ratio": measure.ratio(
            counts["tables.memo.plan_hits"],
            counts["tables.memo.plan_hits"] + counts["tables.memo.plan_misses"]),
        "plan_cache.hit_ratio": measure.ratio(
            counts["plan_cache.hits"],
            counts["plan_cache.hits"] + counts["plan_cache.misses"]),
        "plan_cache.invalidations": counts["plan_cache.invalidations"],
        "engine.rows_scanned": measure.ratio(counts["engine.rows_scanned"],
                                             searches),
        "result_cache.hit_ratio": measure.ratio(
            counts["serving.result_cache.hits"],
            counts["serving.result_cache.hits"]
            + counts["serving.result_cache.misses"]),
    }


# ----------------------------------------------------------------------
# serve-hot / serve-mixed
# ----------------------------------------------------------------------
class Server:
    """``repro serve`` started by :mod:`serve_launcher`."""

    def __init__(self, seed: int, tmp: str, name: str, trace: bool) -> None:
        self.dump = os.path.join(tmp, f"{name}.json")
        argv = [os.path.join(HERE, "serve_launcher.py"), "--dump", self.dump]
        if trace:
            argv.append("--trace")
        argv += ["--", "--seed", str(seed), "--scale", str(SCALE), "serve",
                 "--port", "0", "--http-workers", str(HTTP_WORKERS)]
        self.program = Program(argv, tmp, name)
        try:
            while True:
                line = self.program.read_line()
                if line.startswith("serving finbank on "):
                    self.port = int(line.rsplit(":", 1)[1])
                    break
            self._await_health()
        except BaseException:
            self.program.stop(signal.SIGKILL)
            raise
        self.setup_s = perf_counter() - self.program.started

    def _await_health(self) -> None:
        deadline = perf_counter() + PROCESS_TIMEOUT_S
        while perf_counter() < deadline:
            try:
                with urllib.request.urlopen(self.url("/healthz"),
                                            timeout=5) as reply:
                    if reply.status == 200:
                        return
            except OSError:
                pass
            sleep(0.005)
        raise BenchmarkError("server never became healthy")

    def url(self, path: str) -> str:
        return f"http://127.0.0.1:{self.port}{path}"

    def counters(self) -> dict:
        with urllib.request.urlopen(self.url("/metrics"), timeout=30) as reply:
            return measure.counter_values(json.loads(reply.read()))

    def signal(self, sig) -> None:
        self.program.proc.send_signal(sig)

    def stop(self) -> dict:
        """Drain and stop; the launcher's dump (peak RSS, gc, spans)."""
        code = self.program.stop()
        if code != 0:
            raise BenchmarkError(
                f"server exited {code}: {self.program.stderr_tail()}"
            )
        with open(self.dump) as handle:
            return json.load(handle)


def setup_servers(seed: int, tmp: str, names: list) -> list:
    """Set-up seconds of servers started and stopped one after another."""
    setups = []
    for name in names:
        server = Server(seed, tmp, name, False)
        setups.append(server.setup_s)
        server.stop()
    return setups


def plan_rung(rng: random.Random, rate: float, seconds: float, texts: list,
              weights: list, write_share: float) -> list:
    """``(offset, kind, key)`` for one rung; writes drawn when sent."""
    plan = []
    for offset in loadgen.poisson_schedule(rate, seconds, rng):
        if write_share and rng.random() < write_share:
            plan.append((offset, "write", None))
        else:
            plan.append((offset, "search", rng.choices(texts, weights)[0]))
    return plan


def part_windows(rung, n: int, requests: "list | None" = None) -> list:
    """*requests* (by default the rung's) in *n* windows by due time,
    ``n / parts`` over each part of the rung (see :func:`merge_rungs`)."""
    per = max(1, n // len(rung.windows))
    length = rung.seconds / len(rung.windows)  # planned, the same per part
    out: list = []
    for start, __ in rung.windows:
        out += measure.by_time(
            rung.requests if requests is None else requests, start,
            start + length, per, lambda r: r.due)
    return out


def rung_summary(rung, ladder: Ladder) -> dict:
    """One rung's p50 and tail (steady and windowed, see :mod:`measure`),
    its answered-search rate, and whether it meets the latency limit."""
    reads = [r for r in rung.requests if r.kind == "search"]
    # tail windows of about TAIL_SAMPLES searches, the same number in
    # each part, and the percentile their length fixes
    expected = rung.rate * rung.seconds * (1.0 - ladder.write_share)
    parts = len(rung.windows)
    tail_windows = parts * max(1, round(expected / parts / TAIL_SAMPLES))
    q = measure.tail_percentile(expected / tail_windows)

    def windows(n: int) -> list:
        # a failed request misses the limit
        return [
            [r.latency_ms if r.ok else float("inf") for r in window
             if r.kind == "search"]
            for window in part_windows(rung, n)
        ]

    p50 = measure.steady_median(windows(RUNG_WINDOWS))
    tail = measure.windowed_tail(windows(tail_windows), q)
    # the backlog grows when the searches of some part's last quarter
    # wait past the limit for a connection
    growing = rung.aborted or any(
        part and measure.median([(r.sent - r.due) * 1000.0 for r in part])
        > ladder.limit_ms
        for part in part_windows(rung, 4 * len(rung.windows), reads)[3::4]
    )
    failed = sum(1 for r in rung.requests if not r.ok)
    return {
        "rate": rung.rate,
        "seconds": rung.seconds,
        "searches": len(reads),
        "writes": len(rung.requests) - len(reads),
        "tail_percentile": q,
        "p50_ms": p50,
        "tail_ms": tail,
        "aborted": rung.aborted,
        "backlog_growing": growing,
        "failed": failed,
        "answered_rps": sum(1 for r in reads if r.ok) / sum(
            end - start for start, end in rung.windows),
        "meets_slo": tail <= ladder.limit_ms and not growing and not failed,
    }


def run_serve(args, tmp: str) -> dict:
    import inputs
    import oracle
    from repro.core.soda import Soda
    from repro.sqlengine.config import DEFAULT_SEGMENT_ROWS, EngineConfig
    from repro.warehouse.minibank import build_minibank

    name = args.workload
    ladder = LADDERS[name]
    mixed = name == "serve-mixed"
    # the benchmark's own copy: inputs now, the oracle after the run
    # (the configuration `repro serve` uses: segmented storage)
    config = EngineConfig(segment_rows=DEFAULT_SEGMENT_ROWS)
    warehouse = build_minibank(seed=args.seed, scale=SCALE,
                               engine_config=config)
    soda = Soda(warehouse)
    table2 = inputs.table2_texts()
    if mixed:
        texts = inputs.population(args.seed, soda.classification.terms(),
                                  inputs.base_values(warehouse.database))
    else:
        # Table 2 order is the Zipf rank order: the seed draws the
        # requests, but the mix is the same on every seed
        texts = list(dict.fromkeys(table2))
    weights = inputs.zipf_weights(
        len(texts),
        inputs.POPULATION_ZIPF_S if mixed else inputs.HOT_ZIPF_S)
    rng = random.Random(f"{args.seed}:{name}:schedule")
    stream = inputs.WriteStream(args.seed, warehouse.database)

    setups = setup_servers(args.seed, tmp, [
        f"setup{i}" for i in range(SETUPS_BEFORE)])
    server = Server(args.seed, tmp, "server", bool(args.trace))
    setups.append(server.setup_s)
    rungs, probes, finals, dump, warmup = [], [], [], None, None
    saturations: list = []
    unmeasured: list = []  # probe warm-up, cleanup and re-warm requests
    phase_counts: list = []  # repro counter deltas, one per rung
    baseline = None
    try:
        gen = loadgen.LoadGenerator("127.0.0.1", server.port, CONNECTIONS,
                                    writes=stream)

        def run(rate: float, seconds: float):
            before = server.counters()
            rung = gen.run_rung(rate, seconds, plan_rung(
                rng, rate, seconds, texts, weights, ladder.write_share))
            phase_counts.append(measure.counter_delta(
                before, server.counters()))
            return rung

        # warm-up: connections, threads and caches
        if not mixed:
            gen.run_closed([loadgen.Request("search", t) for t in texts])
        warm = ladder.nominal * (2.0 if mixed else 1.0)
        warmup = gen.run_rung(warm, 1.0, plan_rung(
            rng, warm, 1.0, texts, weights, ladder.write_share))

        def saturate() -> None:
            # every connection closed loop, the server never idle
            seconds = args.seconds * SATURATION_SHARE / 2
            saturations.append(gen.run_saturated(seconds, rng.choices(
                texts, weights, k=int(seconds * 10_000))))

        def probe(windows: int) -> None:
            # a part of the write probe (serve-hot), then the data and
            # the result cache as they were: later searches see the
            # answers of the data the run started from
            if not probes:
                unmeasured.extend(gen.run_closed([
                    loadgen.Request("write", None)
                    for __ in range(inputs.PROBE_WARMUP)]))
            probes.append(write_probe(gen, windows))
            restore()
            unmeasured.extend(gen.run_closed(
                [loadgen.Request("search", t) for t in texts]))

        def restore() -> None:
            unmeasured.extend(gen.run_closed([
                loadgen.Request("write", statement)
                for statement in stream.cleanup()]))

        # write-probe windows before each nominal part; the rest after
        # the ladder (all of them in a traced run)
        per_part = 0 if args.trace else inputs.PROBE_WINDOWS // (PARTS + 1)
        saturate()
        if args.trace:
            # untraced and traced chunks at the nominal rate alternate
            # in one server process (the traced minus the untraced p50
            # is the tracing overhead), then a traced top rung
            chunk = args.seconds * 0.1
            untraced, traced = [], []
            for __ in range(4):
                untraced.append(run(ladder.nominal, chunk))
                set_tracing(server, gen, True)
                traced.append(run(ladder.nominal, chunk))
                set_tracing(server, gen, False)
            baseline = merge_rungs(untraced)
            del phase_counts[0::2]
            phase_counts[:] = [sum_counts(phase_counts)]
            set_tracing(server, gen, True)
            rungs = [merge_rungs(traced),
                     run(ladder.rates[-1], args.seconds * 0.2)]
            set_tracing(server, gen, False)
            schedule = [(ladder.nominal, 4 * chunk),
                        (ladder.rates[-1], args.seconds * 0.2)]
        else:
            schedule = list(zip(ladder.rates, ladder.durations(
                args.seconds * (1.0 - SATURATION_SHARE))))
            seconds = dict(schedule)
            top = ladder.rates[-1]
            others = [r for r in ladder.rates[:-1] if r != ladder.nominal]
            parts: dict = {rate: [] for rate in ladder.rates}
            for index in range(PARTS):
                if not mixed:
                    probe(per_part)
                parts[ladder.nominal].append(
                    run(ladder.nominal, seconds[ladder.nominal] / PARTS))
                if index < len(others):
                    rate = others[index]
                    parts[rate].append(run(rate, seconds[rate]))
            parts[top].append(run(top, seconds[top]))
            rungs = [merge_rungs(parts[rate]) for rate in ladder.rates]
        saturate()
        # leave the data as it was: the Table 2 answers below and the
        # oracle's replay see the warehouse the run started from
        if mixed:
            restore()
        else:
            probe(inputs.PROBE_WINDOWS - PARTS * per_part)
        finals = gen.run_closed([loadgen.Request("search", t)
                                 for t in table2])
    finally:
        dump = server.stop()
    setups += setup_servers(args.seed, tmp, [
        f"setup{SETUPS_BEFORE + i}" for i in range(SETUPS_AFTER)])

    # ------------------------------------------------------------------
    # untimed checks: every answer's shape, hot answers against a
    # reference, snippets, writes and statements against the sqlite
    # oracle
    check = oracle.Oracle(warehouse.database)
    untimed = [] if warmup is None else list(warmup.requests)
    if baseline is not None:
        untimed += baseline.requests
    for part in probes + saturations:
        untimed += part.requests
    untimed += unmeasured
    requests = untimed + [r for rung in rungs for r in rung.requests] + finals
    problems = []
    statements: set = set()
    reference: dict = {}
    bodies: dict = {}
    # snippets served before the first write saw the data the run
    # started from: they are checked before the oracle replays writes
    first_write = min((r.sent for r in requests if r.kind == "write"),
                      default=float("inf"))
    early: dict = {}
    for request in requests:
        if request.kind != "search" or not request.ok:
            continue
        key = (request.key, request.body)
        if key in bodies:
            continue
        payload = json.loads(request.body)
        bodies[key] = payload
        problem = oracle.wire_problem(payload)
        if problem:
            problems.append(f"{request.key!r}: {problem}")
            continue
        for statement in payload["statements"]:
            if statement["snippet"] is not None:
                statements.add(statement["sql"])
                if request.done < first_write:
                    snippet = statement["snippet"]
                    early[(statement["sql"], json.dumps(snippet))] = snippet
        if not mixed:
            if request.key not in reference:
                reference[request.key] = strip_timings(
                    soda.search(request.key).to_dict(limit=5))
            if strip_timings(payload) != reference[request.key]:
                problems.append(f"{request.key!r}: answer differs from "
                                "the reference")
    for (sql, __), snippet in sorted(early.items()):
        if not oracle.snippet_agrees(snippet, check.compare(sql)):
            problems.append(f"snippet of {sql[:60]!r} before the writes")
    # replay every acknowledged write in the order the server applied it
    writes = sorted((r for r in requests if r.kind == "write" and r.ok),
                    key=lambda r: r.sent)
    for request in writes:
        sql, expected = request.key
        served = json.loads(request.body)["rowcount"]
        engine, lite = check.write(sql)
        if not served == engine == lite == expected:
            problems.append(f"write {sql[:60]!r}: rowcounts {served}, "
                            f"{engine}, {lite}, expected {expected}")
    rows = {sql: check.compare(sql) for sql in sorted(statements)}
    final_answers = {}  # well-formed ones (a malformed one is a problem)
    for index, request in enumerate(finals):
        if request.ok:
            answer = json.loads(request.body)
            if not oracle.wire_problem(answer):
                final_answers[index] = answer
    # the Table 2 answers after the run saw every write and the cleanup
    for answer in final_answers.values():
        for statement in answer["statements"]:
            snippet, sql = statement["snippet"], statement["sql"]
            if snippet is None:
                continue
            if sql not in rows:
                rows[sql] = check.compare(sql)
            if not oracle.snippet_agrees(snippet, rows[sql]):
                problems.append(f"snippet of {sql[:60]!r} after the run")
    if len(final_answers) == len(table2):
        precision, recall = oracle.quality(warehouse.database, final_answers)
    else:
        precision = recall = 0.0
        problems.append("a Table 2 answer failed after the run")

    summaries = [rung_summary(rung, ladder) for rung in rungs]
    attempted = sum(len(r.requests) for r in rungs) + len(untimed)
    failed = (sum(s["failed"] for s in summaries)
              + sum(1 for r in untimed if not r.ok)
              + len(problems) + len(check.mismatches))
    nominal_index = next(i for i, (rate, __) in enumerate(schedule)
                         if rate == ladder.nominal)
    nominal = rungs[nominal_index]
    summary = summaries[nominal_index]
    if mixed:
        # too few writes per window: the whole nominal rung
        write_ms = [r.latency_ms for r in nominal.requests
                    if r.kind == "write" and r.ok]
        write_q = measure.tail_percentile(
            ladder.nominal * nominal.seconds * ladder.write_share)
        write_windows = [write_ms]
        write_source = "ETL writes at the nominal rung, from due time"
    else:
        write_windows = [
            [r.latency_ms for r in window if r.ok]
            for part in probes
            for window in measure.by_time(
                part.requests, part.start, part.start + part.seconds,
                round(len(part.requests) / inputs.WRITES_PER_WINDOW),
                lambda r: r.due)
        ]
        write_ms = sum(write_windows, [])
        write_q = measure.tail_percentile(inputs.WRITES_PER_WINDOW,
                                          min_beyond=10)
        write_source = (f"probe of {len(write_ms)} POST /sql writes at "
                        f"{inputs.PROBE_RATE:g}/s in {len(probes)} parts, "
                        f"from due time")
    write_p50 = measure.steady_median(write_windows)
    write_tail = measure.windowed_tail(write_windows, write_q)
    capacity = sum((measure.window_rates(
        [r.done for r in part.requests if r.ok], part.start, part.end,
        RUNG_WINDOWS // 2) for part in saturations), [])
    passing = []  # rungs up to the first one that misses the limit
    for rung_stats in summaries:
        if not rung_stats["meets_slo"]:
            break
        passing.append(rung_stats["rate"])
    metrics = {
        "setup_s": measure.median(setups),
        "search_p50_ms": summary["p50_ms"],
        "search_tail_ms": summary["tail_ms"],
        "write_p50_ms": write_p50,
        "write_tail_ms": write_tail,
        "throughput_rps": measure.steady_rate(capacity),
        "max_rps_at_slo": max(passing, default=0.0),
        "peak_rss_mb": dump["peak_rss_mb"],
        "precision_mean": precision,
        "recall_mean": recall,
    }
    record = {
        "ladder": {"rates": list(ladder.rates), "nominal": ladder.nominal,
                   "latency_limit_ms": ladder.limit_ms,
                   "write_share": ladder.write_share,
                   "connections": CONNECTIONS,
                   "http_workers": HTTP_WORKERS},
        "rungs": summaries,
        "saturation": {"seconds": [p.end - p.start for p in saturations],
                       "searches": [len(p.requests) for p in saturations],
                       "window_rates": capacity},
        "setups_s": setups,
        "tail_percentiles": {"search_tail_ms": summary["tail_percentile"],
                             "write_tail_ms": write_q},
        "samples": {"search": summary["searches"], "write": len(write_ms)},
        "windows": {"write": [len(w) for w in write_windows]},
        "statistic": f"p50 and throughput over the fastest "
                     f"{measure.STEADY_SHARE:g} of the windows, tails the "
                     f"median of those windows' tails; throughput_rps "
                     f"answered in the saturation phases",
        "write_source": write_source,
        "population": len(texts),
        "oracle": {"statements": check.compared, "writes": len(writes),
                   "mismatches": check.mismatches,
                   "problems": problems[:20]},
    }
    layers = None
    if args.trace:
        layers = serve_layers(dump, rungs, summaries, phase_counts, baseline,
                              setups)
        layers["execute.sqlite_ratio"] = measure.ratio(check.engine_s,
                                                       check.sqlite_s)
    return {"metrics": metrics, "layers": layers, "record": record,
            "attempted": attempted, "failed": failed}


def write_probe(gen, windows: int) -> "loadgen.RungResult":
    """*windows* windows of the ETL stream through POST /sql, open loop
    at ``inputs.PROBE_RATE``."""
    import inputs

    count = windows * inputs.WRITES_PER_WINDOW
    rate = inputs.PROBE_RATE
    return gen.run_rung(rate, count / rate, [
        (i / rate, "write", None) for i in range(count)])


def set_tracing(server: Server, gen, on: bool) -> None:
    """Install (SIGUSR1) or remove (SIGUSR2) the server's layer wrappers."""
    server.signal(signal.SIGUSR1 if on else signal.SIGUSR2)
    sleep(0.1)  # the launcher's main thread handles the signal at once
    gen.tag_requests = on


def merge_rungs(parts: list):
    """Chunks at one rate as one rung (requests in order)."""
    merged = loadgen.RungResult(
        rate=parts[0].rate, seconds=sum(p.seconds for p in parts),
        aborted=any(p.aborted for p in parts),
        start=parts[0].start, end=parts[-1].end,
        windows=[(p.start, p.end) for p in parts],
    )
    for part in parts:
        merged.requests.extend(part.requests)
    return merged


def sum_counts(deltas: list) -> dict:
    return {name: sum(d[name] for d in deltas) for name in deltas[0]}


def strip_timings(payload: dict) -> dict:
    return {k: v for k, v in payload.items() if k != "timings"}


def serve_layers(dump, rungs, summaries, phase_counts, baseline,
                 setups) -> dict:
    """Per-layer metrics of a traced serve run (nominal and top rung)."""

    traced = dump["spans"]
    nominal, top = rungs[0], rungs[-1]

    def ids(rung, kind):
        return [str(r.rid) for r in rung.requests
                if r.kind == kind and r.ok]

    def client(rung):
        return {str(r.rid): (r.done - r.sent) * 1000.0
                for r in rung.requests if r.ok}

    reads = ids(nominal, "search")
    layers = span_layers(traced, reads, client(nominal))
    layers.update(write_layers(traced, ids(nominal, "write")))
    top_reads = [traced[r] for r in ids(top, "search") if r in traced]
    layers["admission.wait_top_ms"] = (
        sum(e["self"].get("admission", 0) for e in top_reads) * 1000.0
        / max(1, len(top_reads)))
    layers.update(counter_layers(phase_counts[0], len(reads)))
    layers["admission.shed"] = sum(c["serving.admission.shed"]
                                   for c in phase_counts)
    gc = {"pause_ms": 0.0, "max_pause_ms": 0.0, "gen2_collections": 0}
    for start, end in nominal.windows:
        part = spans.gc_window(dump["gc_pauses"], start, end)
        gc["pause_ms"] += part["pause_ms"]
        gc["max_pause_ms"] = max(gc["max_pause_ms"], part["max_pause_ms"])
        gc["gen2_collections"] += part["gen2_collections"]
    traced_p50 = measure.median([r.latency_ms for r in nominal.requests
                                 if r.kind == "search" and r.ok])
    untraced_p50 = measure.median([r.latency_ms for r in baseline.requests
                                   if r.kind == "search" and r.ok])
    layers.update({
        "gc.pause_ms": gc["pause_ms"] / max(1, len(reads)),
        "gc.max_pause_ms": gc["max_pause_ms"],
        "gc.gen2_collections": gc["gen2_collections"],
        "setup.warehouse_s": dump["warehouse_s"],
        "setup.ready_s": measure.median(setups),
        "trace.overhead_frac": traced_p50 / untraced_p50 - 1.0,
        "loadgen.lateness_tail_ms": measure.percentile(
            [(r.woke - r.due) * 1000.0 for r in nominal.requests],
            summaries[0]["tail_percentile"]),
    })
    return layers


# ----------------------------------------------------------------------
def benchmark() -> dict:
    """``BENCHMARK.json``: the metrics (names, units) a run prints."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_all(args) -> int:
    """Every workload of BENCHMARK.json, untraced and traced."""
    failures = 0
    for entry in benchmark()["workloads"]:
        for trace in (0, 1):
            print(f"== {entry['name']} --trace {trace}", flush=True)
            done = subprocess.run(
                [sys.executable, os.path.abspath(__file__),
                 "--workload", entry["name"], "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=ROOT,
            )
            failures += done.returncode != 0
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # the benchmark's own set and dict orders must not vary either
        os.execve(sys.executable, [sys.executable] + sys.argv, child_env())
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: {SRC}/repro not found; run from a checkout root",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)

    scratch = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=scratch)
    stolen = steal_s()
    try:
        runner = run_cold if args.workload == "cold-search" else run_serve
        result = runner(args, tmp)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass

    # a run on a host that steals much of the CPU is slow throughout
    after = steal_s()
    stolen = None if stolen is None or after is None else after - stolen
    record = {
        "workload": args.workload, "seed": args.seed, "scale": SCALE,
        "host_steal_cpu_s": stolen,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "pythonhashseed": HASH_SEED, "commit": commit(),
        "exact_counts": EXACT_COUNTS[args.workload],
        "interleaved_counts": INTERLEAVED_COUNTS[args.workload],
        **result["record"],
    }
    print("record " + json.dumps(record, sort_keys=True, default=str))
    values = result["layers"] if args.trace else result["metrics"]
    metrics = {
        entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
        for entry in benchmark()["per_layer" if args.trace else "end_to_end"]
    }
    for name, entry in metrics.items():
        print(f"  {name:<28} {entry['value']:>16.6f} {entry['unit']}")
    correct = result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
