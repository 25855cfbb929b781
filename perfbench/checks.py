"""Correctness checks, run after the timed rounds.

Every check compares the program's answers with something computed
apart from it; any problem fails the run.
"""

from __future__ import annotations

from repro.api import QueryRequest
from repro.grammar.generator import StructureGenerator
from repro.structure.masking import preprocess_transcription

from inputs import INDEX_TOKEN_CAP
from oracle import (
    GoldExecutor,
    StructureOracle,
    catalog_names,
    identifier_violations,
    literal_violations,
)
from system import runtimes

#: Distinct requests of a run whose top-1 structure is re-derived by the
#: brute-force oracle (each costs one DP over every indexed structure).
ORACLE_SAMPLE = 24


def stable_across_rounds(rounds) -> list[str]:
    """Every round must give every request the same answer."""
    first = [r.sql if r is not None else None for r in rounds[0].responses]
    problems = []
    for number, round_ in enumerate(rounds[1:], start=1):
        for i, response in enumerate(round_.responses):
            sql = response.sql if response is not None else None
            if sql != first[i]:
                problems.append(
                    f"request {i} answered {sql!r} in round {number} but "
                    f"{first[i]!r} in round 0"
                )
    return problems


def structure_oracle(inputs, responses) -> list[str]:
    """Top-1 structures against brute force over the whole index."""
    oracle = StructureOracle(
        StructureGenerator(max_tokens=INDEX_TOKEN_CAP).generate()
    )
    problems = []
    checked: set[tuple[str, ...]] = set()
    for response in responses:
        if len(checked) >= ORACLE_SAMPLE:
            break
        output = response.output if response is not None else None
        if output is None or output.structure is None:
            continue
        masked = tuple(preprocess_transcription(output.asr_text).masked)
        if masked in checked:
            continue
        checked.add(masked)
        for problem in oracle.check(
            masked, output.structure.structure, output.structure.distance
        ):
            problems.append(f"{output.asr_text!r}: {problem}")
    if not checked:
        problems.append("no top-1 structure was available to check")
    return problems


def literal_membership(inputs, responses) -> list[str]:
    """Filled table/attribute literals must be names of the catalog."""
    names = {
        name: catalog_names(catalog) for name, catalog in inputs.catalogs.items()
    }
    problems = []
    for i, response in enumerate(responses):
        if response is None or response.output is None:
            continue
        catalog = inputs.golds[_gold_index(inputs, i)].catalog
        tables, attributes = names[catalog]
        result = response.output.literal_result
        if result is not None:
            filled = [(lit.category.value, lit.text) for lit in result.literals]
            found = literal_violations(filled, tables, attributes)
        else:
            found = identifier_violations(response.sql, tables, attributes)
        problems.extend(f"request {i}: {problem}" for problem in found)
    return problems


def _gold_index(inputs, i: int) -> int:
    return inputs.turns[i].session if inputs.turns else i


def fresh_session_decodes(system, inputs, responses) -> list[str]:
    """Each session's final turn equals a cold turn 0 of its full text."""
    fresh = runtimes(system)
    problems = []
    for i, turn in enumerate(inputs.turns):
        if not turn.last:
            continue
        final = responses[i]
        text = final.output.asr_text
        cold = fresh[inputs.golds[turn.session].catalog].submit(
            QueryRequest(text=text, session_id=f"fresh{turn.session}", turn=0)
        )
        if cold.sql != final.sql:
            problems.append(
                f"session {turn.session}: final turn {final.sql!r} but a "
                f"fresh decode of {text!r} gives {cold.sql!r}"
            )
    return problems


def gold_answers(inputs, responses) -> tuple[int, int, list[str], list[str]]:
    """Requests whose top-1 SQL returns the gold result, requests judged,
    the gold queries sqlite cannot run, and problems.

    For sessions the request is the session and its answer the final
    turn's SQL.  Gold queries sqlite cannot run are left out; the only
    expected reason is an ambiguous column (comma joins of tables that
    share one), so any other refusal is a problem.
    """
    executors = {
        name: GoldExecutor(catalog) for name, catalog in inputs.catalogs.items()
    }
    try:
        answers: dict[int, str] = {}
        if inputs.turns:
            for i, turn in enumerate(inputs.turns):
                if turn.last:
                    answers[turn.session] = responses[i].sql
        else:
            answers = {i: r.sql for i, r in enumerate(responses)}
        correct = 0
        unrunnable = []
        problems = []
        for index, sql in answers.items():
            gold = inputs.golds[index]
            executor = executors[gold.catalog]
            if not executor.runnable(gold.sql):
                unrunnable.append(gold.sql)
                error = executor.run(gold.sql)
                if "ambiguous column name" not in error:
                    problems.append(f"gold {gold.sql!r} does not run: {error}")
                continue
            if executor.same_result(gold.sql, sql):
                correct += 1
        return correct, len(answers), unrunnable, problems
    finally:
        for executor in executors.values():
            executor.close()
