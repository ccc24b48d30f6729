"""Seeded inputs: keyword texts, Zipf weights and the ETL write stream.

Everything here is a pure function of the seed and of the warehouse
built from that seed, and iterates only over sorted collections, so the
same seed gives the same inputs under any hash seed.
"""

from __future__ import annotations

import random

from repro.experiments.workload import WORKLOAD
from repro.sqlengine.types import SqlType

#: distinct keyword texts in the serve-mixed read population: more
#: than the result cache (64 entries) and the plan cache (128 plans)
POPULATION_SIZE = 300

#: Zipf exponents (rank r gets weight 1 / r**s): serve-hot's 12 texts
#: take the classic 1.0; the long-tail population a flatter 0.5, so that
#: which texts a seed puts at the head does not decide the mix
HOT_ZIPF_S = 1.0
POPULATION_ZIPF_S = 0.5

#: measures and dimensions of the paper's aggregate input pattern
#: ("sum(investments) group by (currency)")
_MEASURES = ("amount", "investments", "salary", "quantity")
_DIMENSIONS = ("currency", "city", "country", "legal form",
               "instrument type", "party type")
#: date-valued attributes for the paper's date pattern
#: ("trade order period > date(2011-09-01)")
_DATE_TERMS = ("birth date", "investment date", "trade order period",
               "transaction date", "signing date")

#: ETL writes: rows per INSERT batch, first synthetic key
WRITE_BATCH_ROWS = 4
_WRITE_KEY_BASE = 900_001

#: the ETL write probe of the workloads without writes of their own
#: (after the searches on cold-search, in parts between the rungs on
#: serve-hot): untimed warm-up writes, then windows of timed writes
#: (whole three-write cycles) paced at a fixed rate, as an intermittent
#: ETL writer sends them; back to back, sub-millisecond writes ride the
#: machine's speed swings of the moment.  A window of 195 writes puts
#: 19 beyond its tail, p90 (p95 would have 9).
PROBE_WARMUP = 42
PROBE_WINDOWS = 10
WRITES_PER_WINDOW = 195
PROBE_RATE = 300.0

#: cold-search warehouses per run.  The rows one Table 2 text
#: materializes differ up to twofold between warehouse seeds (Q7.0:
#: 23,000 to 42,000), and that text is the run's tail; searching
#: several warehouses in one run keeps one seed's data out of the tail.
COLD_WAREHOUSES = 16


def table2_texts() -> list:
    """The 13 Table 2 keyword texts, in workload order (one repeats)."""
    return [query.text for query in WORKLOAD]


def warehouse_seeds(seed: int) -> list:
    """The cold-search warehouse seeds of a run: *seed* itself first."""
    return [seed + 100_003 * i for i in range(COLD_WAREHOUSES)]


def zipf_weights(n: int, s: float) -> list:
    return [1.0 / (rank ** s) for rank in range(1, n + 1)]


def ranked(texts: list, seed: int, salt: str) -> list:
    """*texts* in a seeded rank order (rank 1 first)."""
    order = sorted(texts)
    random.Random(f"{seed}:{salt}").shuffle(order)
    return order


def base_values(database) -> list:
    """Sorted distinct TEXT values a user could type (no codes, ISINs)."""
    values: set = set()
    for name in sorted(database.table_names()):
        table = database.table(name)
        for position, column in enumerate(table.columns):
            if column.sql_type != SqlType.TEXT:
                continue
            if column.name.endswith("_cd") or column.name == "isin":
                continue
            values.update(
                row[position] for row in table.rows
                if row[position] is not None
            )
    return sorted(values)


def population(seed: int, terms: list, values: list) -> list:
    """``POPULATION_SIZE`` distinct texts in a seeded rank order.

    Composed from the warehouse's own vocabulary: classification terms
    (*terms*), base-data values (*values*), and the paper's aggregate
    and date input patterns.  The Table 2 texts are not included.
    Aggregates (``sum(...) group by (...)``, 40-100 ms each on the seed
    commit) are kept to about 4% of the texts, so the tail percentile a
    run reports lies inside the body of the cost distribution instead of
    on the step up to the aggregates, where it would jump between seeds.
    """
    rng = random.Random(f"{seed}:population")
    excluded = set(table2_texts())
    texts: set = set()
    while len(texts) < POPULATION_SIZE:
        kind = rng.random()
        if kind < 0.30:
            text = rng.choice(terms)
        elif kind < 0.60:
            text = f"{rng.choice(terms)} {rng.choice(values)}"
        elif kind < 0.75:
            text = rng.choice(values)
        elif kind < 0.88:
            text = f"count() {rng.choice(terms)}"
        elif kind < 0.92:
            text = (f"sum({rng.choice(_MEASURES)}) group by "
                    f"({rng.choice(_DIMENSIONS)})")
        else:
            text = (f"{rng.choice(_DATE_TERMS)} > date("
                    f"{rng.randint(1995, 2012)}-{rng.randint(1, 12):02d}-01)")
        if text not in excluded:
            texts.add(text)
    return ranked(sorted(texts), seed, "population-rank")


def _quote(value: str) -> str:
    return "'" + value.replace("'", "''") + "'"


class WriteStream:
    """An ETL-style writer that keeps row counts level.

    Each cycle *b* is three writes: INSERT batch *b*
    (``WRITE_BATCH_ROWS`` rows) into ``agreements_td`` or
    ``investments_td``, both read by searches; DELETE batch *b - 1*; and
    an UPDATE of one address's city (a dimension attribute and a
    base-data value lookup finds), which odd cycles set back.  Each kind
    is a third of the writes, so a median write lies inside one kind's
    latencies rather than on the step between two.  Every rowcount is
    known in advance; :meth:`cleanup` deletes the last batch.
    """

    def __init__(self, seed: int, database) -> None:
        self._rng = random.Random(f"{seed}:writes")
        self._party_ids = sorted(row[0] for row in database.table("parties").rows)
        addresses = database.table("addresses")
        city = addresses.column_index("city")
        self._addresses = sorted((row[0], row[city]) for row in addresses.rows)
        self._cities = sorted({city for __, city in self._addresses})
        self._words = sorted(
            {row[2].split()[0] for row in database.table("agreements_td").rows}
        )
        self._currencies = sorted(
            row[0] for row in database.table("currencies").rows
        )
        self._count = 0
        self._batches: list = []  # (table, first key), oldest first
        self._address: "tuple | None" = None  # (id, original city)

    def next(self) -> "tuple[str, int]":
        """The next statement and the rowcount it must report."""
        step, cycle = self._count % 3, self._count // 3
        self._count += 1
        if step == 0:
            return self._insert(cycle)
        if step == 1:
            if len(self._batches) < 2:
                return self._delete(None)
            return self._delete(self._batches.pop(0))
        if cycle % 2 == 0:
            address_id, city = self._rng.choice(self._addresses)
            self._address = (address_id, city)
            city = self._rng.choice([c for c in self._cities if c != city])
        else:
            address_id, city = self._address
        return (f"UPDATE addresses SET city = {_quote(city)} "
                f"WHERE id = {address_id}", 1)

    def cleanup(self) -> "list[tuple[str, int]]":
        """Statements that remove every batch still in the tables."""
        out = [self._delete(batch) for batch in self._batches]
        self._batches = []
        if (self._count // 3) % 2 == 1:
            # an odd number of city updates: set the last one back
            address_id, city = self._address
            out.append((f"UPDATE addresses SET city = {_quote(city)} "
                        f"WHERE id = {address_id}", 1))
        return out

    def _insert(self, cycle: int) -> "tuple[str, int]":
        rng = self._rng
        table = "agreements_td" if cycle % 2 == 0 else "investments_td"
        first = _WRITE_KEY_BASE + cycle * WRITE_BATCH_ROWS
        self._batches.append((table, first))
        rows = []
        for key in range(first, first + WRITE_BATCH_ROWS):
            party = rng.choice(self._party_ids)
            day = f"'{rng.randint(2005, 2012)}-{rng.randint(1, 12):02d}-15'"
            if table == "agreements_td":
                name = f"{rng.choice(self._words)} Batch Agreement {key}"
                rows.append(f"({key}, {party}, {_quote(name)}, {day})")
            else:
                amount = rng.randint(1, 500) * 1000
                currency = _quote(rng.choice(self._currencies))
                rows.append(f"({key}, {party}, {currency}, {amount}, {day})")
        return f"INSERT INTO {table} VALUES {', '.join(rows)}", len(rows)

    @staticmethod
    def _delete(batch) -> "tuple[str, int]":
        if batch is None:  # the first cycle: nothing older to delete
            return "DELETE FROM agreements_td WHERE id < 0", 0
        table, first = batch
        last = first + WRITE_BATCH_ROWS - 1
        return (f"DELETE FROM {table} WHERE id >= {first} AND id <= {last}",
                WRITE_BATCH_ROWS)
