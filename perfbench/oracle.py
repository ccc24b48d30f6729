"""Correctness checks: a stdlib ``sqlite3`` oracle, answer quality, wire shape.

The warehouse is mirrored into sqlite (same tables and rows, DATE
values as ISO text; sqlite's default ``LIKE`` is ASCII
case-insensitive, as the engine's is).  Every distinct statement a run
produced is re-run on the engine and on sqlite and the results are
compared as multisets of ``normalize_value``-normalized tuples.  The
same pass times both engines, giving the engine/sqlite time ratio.
"""

from __future__ import annotations

import datetime
import sqlite3
from collections import Counter
from time import perf_counter

from repro.core.evaluation import evaluate_sql, normalize_value
from repro.core.soda import SodaConfig
from repro.experiments.workload import WORKLOAD

_SQLITE_TYPES = {"INTEGER": "INTEGER", "REAL": "REAL", "TEXT": "TEXT",
                 "DATE": "TEXT"}


def _sqlite_value(value):
    if isinstance(value, (datetime.date, datetime.datetime)):
        return value.isoformat()
    return value


def mirror(database) -> sqlite3.Connection:
    """An in-memory sqlite copy of every table of *database*."""
    conn = sqlite3.connect(":memory:")
    for name in sorted(database.table_names()):
        table = database.table(name)
        columns = ", ".join(
            f"{column.name} {_SQLITE_TYPES.get(column.sql_type.value, 'TEXT')}"
            for column in table.columns
        )
        conn.execute(f"CREATE TABLE {name} ({columns})")
        marks = ", ".join("?" * len(table.columns))
        conn.executemany(
            f"INSERT INTO {name} VALUES ({marks})",
            [tuple(_sqlite_value(v) for v in row) for row in table.rows],
        )
    conn.commit()
    return conn


def _bag(rows) -> Counter:
    return Counter(tuple(normalize_value(v) for v in row) for row in rows)


def _same_bag(left: list, right: list) -> bool:
    """Equal as multisets after ``normalize_value``.

    Rows that are already equal (DATE values as ISO text) are equal
    after normalizing, so the per-value normalization runs only when
    the cheap comparison fails.
    """
    dates = sorted({
        i for row in left[:64] for i, v in enumerate(row)
        if isinstance(v, (datetime.date, datetime.datetime))
    })
    if dates:
        left = [_iso_dates(row, dates) for row in left]
    if Counter(left) == Counter(right):
        return True
    return _bag(left) == _bag(right)


def _iso_dates(row: tuple, positions: list) -> tuple:
    row = list(row)
    for i in positions:
        row[i] = _sqlite_value(row[i])
    return tuple(row)


class Oracle:
    """The engine and its sqlite mirror, kept in step through writes."""

    def __init__(self, database) -> None:
        self.database = database
        self.sqlite = mirror(database)
        self.engine_s = 0.0
        self.sqlite_s = 0.0
        self.compared = 0
        self.mismatches: list = []

    def write(self, sql: str) -> "tuple[int, int]":
        """Apply one DML statement to both; their rowcounts."""
        engine = self.database.execute(sql).rowcount
        cursor = self.sqlite.execute(sql)
        self.sqlite.commit()
        return engine, cursor.rowcount

    def compare(self, sql: str) -> list:
        """Run *sql* on both engines; record a mismatch; sqlite's rows."""
        t0 = perf_counter()
        engine_rows = self.database.execute(sql).rows
        t1 = perf_counter()
        sqlite_rows = self.sqlite.execute(sql).fetchall()
        t2 = perf_counter()
        self.engine_s += t1 - t0
        self.sqlite_s += t2 - t1
        self.compared += 1
        if not _same_bag(engine_rows, sqlite_rows):
            self.mismatches.append(sql)
        return sqlite_rows


def snippet_agrees(snippet: dict, expected_rows: list) -> bool:
    """A served snippet holds the first rows of the oracle's result:
    as many as ``SodaConfig.snippet_rows``, each one of the result's."""
    rows_shown = SodaConfig().snippet_rows
    if len(snippet["rows"]) != min(rows_shown, len(expected_rows)):
        return False
    shown = Counter(map(tuple, snippet["rows"]))
    expected = Counter(map(tuple, expected_rows))
    if all(expected[row] >= count for row, count in shown.items()):
        return True
    shown, expected = _bag(snippet["rows"]), _bag(expected_rows)
    return all(expected[row] >= count for row, count in shown.items())


def quality(database, answers: dict) -> "tuple[float, float]":
    """Mean best precision and recall over the Table 2 queries.

    *answers* maps a workload index to its answer payload (the
    ``SearchResult.to_dict`` wire shape); each query scores its best
    statement by (precision, recall), as the Table 3 runner does.
    """
    precisions, recalls = [], []
    for index, query in enumerate(WORKLOAD):
        best = (0.0, 0.0)
        for statement in answers[index]["statements"]:
            metrics = evaluate_sql(
                database, statement["sql"], query.gold,
                estimated_rows=statement["estimated_rows"],
            )
            best = max(best, (metrics.precision, metrics.recall))
        precisions.append(best[0])
        recalls.append(best[1])
    return sum(precisions) / len(precisions), sum(recalls) / len(recalls)


_STATEMENT_KEYS = {"sql", "score", "disconnected", "interpretation",
                   "estimated_rows", "execution_error", "snippet"}
_TIMING_KEYS = {"lookup", "rank", "tables", "filters", "sql", "execute",
                "soda_total", "total"}


def wire_problem(payload) -> "str | None":
    """Why *payload* is not a ``SearchResult.to_dict`` answer, or None."""
    if not isinstance(payload, dict):
        return "answer is not an object"
    if set(payload) - {"trace"} != {"query", "complexity", "statements",
                                    "timings"}:
        return f"answer keys {sorted(payload)}"
    query = payload["query"]
    if not isinstance(query, dict) or set(query) != {"text", "description"}:
        return "bad query object"
    if not isinstance(payload["complexity"], int):
        return "complexity is not an integer"
    if set(payload["timings"]) != _TIMING_KEYS:
        return "bad timings object"
    for statement in payload["statements"]:
        if set(statement) != _STATEMENT_KEYS:
            return f"statement keys {sorted(statement)}"
        snippet = statement["snippet"]
        if snippet is not None and set(snippet) != {"columns", "rows"}:
            return "bad snippet object"
        if snippet is None and statement["execution_error"] is None:
            return "statement with neither snippet nor error"
    return None
