"""The brute-force structure oracle, gold execution and literal checks."""

import random
from types import SimpleNamespace

import pytest

from inputs import clause_split
from oracle import (
    GoldExecutor,
    StructureOracle,
    identifier_violations,
    literal_violations,
    pair_distance,
)


# -- the insert/delete DP, by hand -------------------------------------------


@pytest.mark.parametrize(
    ("source", "target", "expected"),
    [
        ("SELECT x", "SELECT x", 0.0),
        # one literal inserted
        ("SELECT", "SELECT x", 1.0),
        # keywords compare case-insensitively
        ("select x from x", "SELECT x FROM x", 0.0),
        # delete literal x (1.0), insert SplChar * (1.1)
        ("SELECT x FROM x", "SELECT * FROM x", 2.1),
        # everything deleted / everything inserted
        ("x x", "", 2.0),
        ("", "SELECT ( x", 3.3),
        # swapped keywords: LCS 1, so one delete and one insert of 1.2
        ("FROM SELECT", "SELECT FROM", 2.4),
        # a literal is never equal to the placeholder
        ("SELECT salary", "SELECT x", 2.0),
        # ( x ) dropped: 1.1 + 1.0 + 1.1
        ("SELECT AVG ( x ) FROM x", "SELECT AVG FROM x", 3.2),
    ],
)
def test_pair_distance_hand_computed(source, target, expected):
    assert pair_distance(source.split(), target.split()) == pytest.approx(
        expected, abs=1e-12
    )


def test_pair_distance_is_symmetric():
    a = "SELECT x , x FROM x WHERE x = x".split()
    b = "SELECT COUNT ( * ) FROM x".split()
    assert pair_distance(a, b) == pair_distance(b, a)


STRUCTURES = [
    tuple(s.split())
    for s in (
        "SELECT x FROM x",
        "SELECT * FROM x",
        "SELECT x , x FROM x",
        "SELECT AVG ( x ) FROM x",
        "SELECT x FROM x WHERE x = x",
        "SELECT x FROM x WHERE x = x AND x < x",
        "SELECT COUNT ( * ) FROM x GROUP BY x",
        "SELECT x FROM x ORDER BY x LIMIT x",
    )
]


def test_vectorised_distances_match_the_pair_dp():
    oracle = StructureOracle(STRUCTURES)
    rng = random.Random(3)
    vocabulary = ["SELECT", "FROM", "WHERE", "x", "x", "=", "(", ")", ",",
                  "*", "AVG", "BY", "salary", "select"]
    for _ in range(50):
        masked = [rng.choice(vocabulary) for _ in range(rng.randint(0, 12))]
        got = oracle.distances(masked)
        for structure, distance in zip(STRUCTURES, got):
            assert distance == pytest.approx(
                pair_distance(masked, structure), abs=1e-12
            )


def test_check_accepts_the_true_minimum():
    oracle = StructureOracle(STRUCTURES)
    masked = "select x from x where x = x".split()
    assert oracle.check(masked, STRUCTURES[4], 0.0) == []
    masked = "select x x from x".split()
    # nearest: SELECT x FROM x (delete one x) or SELECT x , x FROM x
    # (insert ,): 1.0 beats 1.1
    assert oracle.check(masked, STRUCTURES[0], 1.0) == []


def test_check_flags_a_wrong_distance_a_non_minimum_and_a_stranger():
    oracle = StructureOracle(STRUCTURES)
    masked = "select x from x where x = x".split()
    assert len(oracle.check(masked, STRUCTURES[4], 0.5)) == 2
    # a real structure with its own distance, but not the nearest one
    own = pair_distance(masked, STRUCTURES[0])
    problems = oracle.check(masked, STRUCTURES[0], own)
    assert len(problems) == 1 and "minimum" in problems[0]
    problems = oracle.check(masked, ("SELECT", "x"), 0.0)
    assert any("not indexed" in p for p in problems)


# -- gold execution ------------------------------------------------------------


def _catalog():
    table = SimpleNamespace(
        name="Salaries",
        columns=["EmployeeNumber", "salary"],
        column_keys=["employeenumber", "salary"],
        rows=[
            {"employeenumber": 1, "salary": 100},
            {"employeenumber": 2, "salary": 300},
            {"employeenumber": 3, "salary": 200},
        ],
    )
    other = SimpleNamespace(
        name="Titles",
        columns=["EmployeeNumber", "title"],
        column_keys=["employeenumber", "title"],
        rows=[{"employeenumber": 1, "title": "Engineer"}],
    )
    return SimpleNamespace(tables=lambda: [table, other])


def test_gold_executor_compares_results_not_text():
    gold = GoldExecutor(_catalog())
    try:
        assert gold.same_result(
            "SELECT salary FROM Salaries WHERE salary > 150",
            "SELECT salary FROM Salaries WHERE salary >= 200",
        )
        assert not gold.same_result(
            "SELECT salary FROM Salaries", "SELECT EmployeeNumber FROM Salaries"
        )
        # a predicted query sqlite refuses is simply wrong
        assert not gold.same_result("SELECT salary FROM Salaries", "SELECT FROM")
        assert not gold.same_result("SELECT salary FROM Salaries", "")
    finally:
        gold.close()


def test_gold_executor_respects_order_only_when_gold_orders():
    gold = GoldExecutor(_catalog())
    try:
        assert gold.same_result(
            "SELECT salary FROM Salaries",
            "SELECT salary FROM Salaries ORDER BY salary DESC",
        )
        assert not gold.same_result(
            "SELECT salary FROM Salaries ORDER BY salary",
            "SELECT salary FROM Salaries",
        )
    finally:
        gold.close()


def test_ambiguous_gold_is_unrunnable():
    gold = GoldExecutor(_catalog())
    try:
        assert not gold.runnable(
            "SELECT EmployeeNumber FROM Salaries , Titles"
        )
        assert "ambiguous column name" in gold.run(
            "SELECT EmployeeNumber FROM Salaries , Titles"
        )
        with pytest.raises(ValueError):
            gold.same_result("SELECT EmployeeNumber FROM Salaries , Titles",
                             "SELECT 1")
    finally:
        gold.close()


# -- literal membership --------------------------------------------------------


def test_literal_violations_by_category():
    tables = frozenset({"Salaries"})
    attributes = frozenset({"salary", "EmployeeNumber"})
    filled = [("T", "Salaries"), ("A", "salary"), ("V", "anything"),
              ("T", "Salary"), ("A", "Salaries")]
    problems = literal_violations(filled, tables, attributes)
    assert len(problems) == 2


def test_identifier_violations_skip_values_and_keywords():
    tables = frozenset({"Salaries"})
    attributes = frozenset({"salary", "FromDate"})
    sql = ("SELECT AVG ( salary ) FROM Salaries WHERE FromDate = "
           "'1993-01-20' AND salary > 5000.5")
    assert identifier_violations(sql, tables, attributes) == []
    assert len(identifier_violations("SELECT celery FROM Salaries",
                                     tables, attributes)) == 1


def test_clause_split_keeps_subqueries_inside_their_clause():
    sql = ("SELECT a FROM t WHERE x IN ( SELECT b FROM u ) "
           "GROUP BY a ORDER BY a LIMIT 3")
    assert [name for name, _ in clause_split(sql)] == [
        "SELECT", "FROM", "WHERE", "GROUP BY", "ORDER BY", "LIMIT",
    ]
    assert clause_split(sql)[2][1] == "WHERE x IN ( SELECT b FROM u )"
