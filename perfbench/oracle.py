"""Checks computed apart from the program under test.

- :class:`StructureOracle` scores a masked transcription against every
  indexed structure with a brute-force insert/delete DP (paper §3.4
  weights: keyword 1.2, SplChar 1.1, literal 1.0), vectorised over all
  structures with numpy.  Weights are held in tenths as integers, so
  the DP is exact and only the final division rounds.
- :class:`GoldExecutor` loads a catalog's rows into a stdlib ``sqlite3``
  database and compares a predicted query's result with the gold
  query's result.
- :func:`literal_violations` lists filled table/attribute literals that
  are not names from the catalog.

Token classes come from the paper's KeywordDict and SplCharDict, copied
here rather than imported, so a change to the program's vocabulary
cannot move the oracle along with it.
"""

from __future__ import annotations

import re
import itertools
import sqlite3
from collections.abc import Iterable, Sequence

import numpy as np

KEYWORDS = frozenset(
    "SELECT FROM WHERE ORDER GROUP BY NATURAL JOIN AND OR NOT LIMIT "
    "BETWEEN IN SUM COUNT MAX AVG MIN".split()
)
SPLCHARS = frozenset("* = < > ( ) . ,".split())

#: Operation weights in tenths (1.2 / 1.1 / 1.0).
KEYWORD_TENTHS = 12
SPLCHAR_TENTHS = 11
LITERAL_TENTHS = 10


def canonical(token: str) -> str:
    """Keywords compare case-insensitively, everything else exactly."""
    upper = token.upper()
    return upper if upper in KEYWORDS else token


def weight_tenths(token: str) -> int:
    if token.upper() in KEYWORDS:
        return KEYWORD_TENTHS
    if token in SPLCHARS:
        return SPLCHAR_TENTHS
    return LITERAL_TENTHS


def pair_distance(source: Sequence[str], target: Sequence[str]) -> float:
    """Insert/delete-only weighted distance of two token sequences.

    The plain two-row DP, used for single pairs and as the reference the
    vectorised form is tested against.
    """
    a = [canonical(t) for t in source]
    b = [canonical(t) for t in target]
    wa = [weight_tenths(t) for t in a]
    wb = [weight_tenths(t) for t in b]
    prev = [0] * (len(b) + 1)
    for j in range(1, len(b) + 1):
        prev[j] = prev[j - 1] + wb[j - 1]
    for i in range(1, len(a) + 1):
        cur = [prev[0] + wa[i - 1]]
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                cur.append(prev[j - 1])
            else:
                cur.append(min(prev[j] + wa[i - 1], cur[j - 1] + wb[j - 1]))
        prev = cur
    return prev[len(b)] / 10.0


class StructureOracle:
    """Brute-force nearest-structure distances over a fixed structure set."""

    def __init__(self, structures: Iterable[Sequence[str]]) -> None:
        self.structures = [tuple(s) for s in structures]
        if not self.structures:
            raise ValueError("the oracle needs at least one structure")
        self._members = set(self.structures)
        vocab: dict[str, int] = {}
        width = max(len(s) for s in self.structures)
        # Column-major: row j holds the j-th token of every structure, so
        # each DP step reads and writes contiguous memory.
        ids = np.full((width, len(self.structures)), -1, dtype=np.int16)
        weights = np.zeros((width, len(self.structures)), dtype=np.int16)
        for col, structure in enumerate(self.structures):
            keys = [canonical(token) for token in structure]
            ids[: len(keys), col] = [vocab.setdefault(k, len(vocab)) for k in keys]
            weights[: len(keys), col] = [weight_tenths(k) for k in keys]
        self._ids = ids
        self._weights = weights
        self._lengths = np.array([len(s) for s in self.structures])
        self._vocab = vocab

    def distances(self, masked: Sequence[str]) -> np.ndarray:
        """Distance from ``masked`` to every structure, in input order."""
        width, count = self._ids.shape
        ids = self._ids
        weights = self._weights
        # prev[j]: distance between the masked prefix and every b[:j].
        prev = np.zeros((width + 1, count), dtype=np.int16)
        np.cumsum(weights, axis=0, out=prev[1:])
        cur = np.empty_like(prev)
        inserted = np.empty(count, dtype=np.int16)
        for token in masked:
            key = canonical(token)
            match = ids == self._vocab.get(key, -2)
            wa = weight_tenths(key)
            deleted = prev[1:] + wa
            cur[0] = prev[0] + wa
            for j in range(1, width + 1):
                np.add(cur[j - 1], weights[j - 1], out=inserted)
                np.minimum(deleted[j - 1], inserted, out=cur[j])
                np.copyto(cur[j], prev[j - 1], where=match[j - 1])
            prev, cur = cur, prev
        final = prev[self._lengths, np.arange(count)]
        return final / 10.0

    def check(
        self,
        masked: Sequence[str],
        structure: Sequence[str],
        reported: float,
    ) -> list[str]:
        """Problems with a reported top-1 structure (empty when exact)."""
        problems: list[str] = []
        if tuple(structure) not in self._members:
            problems.append(f"structure {' '.join(structure)!r} is not indexed")
        best = float(self.distances(masked).min())
        if abs(best - reported) > 1e-9:
            problems.append(
                f"reported distance {reported} but the minimum over "
                f"{len(self.structures)} structures is {best}"
            )
        own = pair_distance(masked, structure)
        if abs(own - reported) > 1e-9:
            problems.append(
                f"reported distance {reported} but the structure's own "
                f"distance is {own}"
            )
        return problems


# -- gold execution ----------------------------------------------------------

#: sqlite opcodes per progress-handler call.
STEP_UNIT = 10_000

_ORDER_BY = re.compile(r"\bORDER\s+BY\b", re.IGNORECASE)


def _cell(value: object) -> object:
    if isinstance(value, bool):
        return int(value)
    if hasattr(value, "isoformat"):
        return value.isoformat()
    return value


def _normalized(rows: list[tuple]) -> list[tuple]:
    return [
        tuple(round(v, 6) if isinstance(v, float) else v for v in row)
        for row in rows
    ]


class GoldExecutor:
    """Runs gold and predicted SQL over one catalog's rows in sqlite3.

    A query is cut off after ``max_steps`` virtual-machine steps (counted
    in units of :data:`STEP_UNIT` opcodes), a budget that does not depend
    on how fast the machine is, so the same query always gets the same
    verdict.
    """

    def __init__(self, catalog, max_steps: int = 5_000) -> None:
        self.max_steps = max_steps
        self._conn = sqlite3.connect(":memory:")
        self._results: dict[str, object] = {}
        for table in catalog.tables():
            columns = ", ".join(f'"{c}"' for c in table.columns)
            self._conn.execute(f'CREATE TABLE "{table.name}" ({columns})')
            keys = table.column_keys
            marks = ", ".join("?" for _ in keys)
            self._conn.executemany(
                f'INSERT INTO "{table.name}" VALUES ({marks})',
                [tuple(_cell(row[k]) for k in keys) for row in table.rows],
            )
        self._conn.commit()

    def close(self) -> None:
        self._conn.close()

    def run(self, sql: str):
        """Normalised rows of ``sql``, or the error text if sqlite refuses."""
        if sql in self._results:
            return self._results[sql]
        steps = itertools.count(1)
        self._conn.set_progress_handler(
            lambda: 1 if next(steps) > self.max_steps else 0, STEP_UNIT
        )
        try:
            cursor = self._conn.execute(sql)
            rows = _normalized(cursor.fetchall())
            width = len(cursor.description or ())
            result: object = (width, rows)
        except sqlite3.Error as error:
            result = f"sqlite: {error}"
        finally:
            self._conn.set_progress_handler(None, 0)
        self._results[sql] = result
        return result

    def runnable(self, sql: str) -> bool:
        return not isinstance(self.run(sql), str)

    def same_result(self, gold_sql: str, predicted_sql: str) -> bool:
        """Whether ``predicted_sql`` returns what ``gold_sql`` returns.

        Rows are compared in order when the gold query orders them and
        as multisets otherwise.
        """
        gold = self.run(gold_sql)
        if isinstance(gold, str):
            raise ValueError(f"gold query does not run: {gold}")
        if not predicted_sql:
            return False
        predicted = self.run(predicted_sql)
        if isinstance(predicted, str):
            return False
        (gold_width, gold_rows), (width, rows) = gold, predicted
        if gold_width != width:
            return False
        if _ORDER_BY.search(gold_sql):
            return gold_rows == rows
        return sorted(map(repr, gold_rows)) == sorted(map(repr, rows))


# -- literal membership ------------------------------------------------------


def catalog_names(catalog) -> tuple[frozenset[str], frozenset[str]]:
    """(table names, attribute names) read straight off the catalog."""
    tables = frozenset(table.name for table in catalog.tables())
    attributes = frozenset(
        column for table in catalog.tables() for column in table.columns
    )
    return tables, attributes


def literal_violations(filled, tables, attributes) -> list[str]:
    """Filled literals whose text is not a name of their category.

    ``filled`` is an iterable of ``(category, text)`` pairs where the
    category is ``"T"`` (table), ``"A"`` (attribute) or ``"V"`` (value,
    not checked: values may be typed numbers and dates).
    """
    problems = []
    for category, text in filled:
        if category == "T" and text not in tables:
            problems.append(f"table literal {text!r} is not a catalog table")
        elif category == "A" and text not in attributes:
            problems.append(
                f"attribute literal {text!r} is not a catalog attribute"
            )
    return problems


#: One SQL token: a quoted string, a date, a number, a word or one
#: other character.  Clause splitting (``inputs.clause_split``) and the
#: identifier check use this one tokenizer.
SQL_TOKEN = re.compile(
    r"'[^']*'|\"[^\"]*\"|\d{4}-\d{2}-\d{2}|\d+(?:\.\d+)?|[A-Za-z_][\w$#-]*|\S"
)


def identifier_violations(sql: str, tables, attributes) -> list[str]:
    """Bare identifiers of ``sql`` that name no catalog table or attribute.

    Values are rendered quoted or numeric, so every other bare word of
    a decoded query must be a keyword or a schema name.
    """
    problems = []
    names = tables | attributes
    for token in SQL_TOKEN.findall(sql):
        if token[0] in "'\"" or token[0].isdigit() or token in SPLCHARS:
            continue
        if token.upper() in KEYWORDS:
            continue
        if token not in names:
            problems.append(f"identifier {token!r} is not a catalog name")
    return problems
