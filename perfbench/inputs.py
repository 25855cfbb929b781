"""Every request of a run, generated up front from ``--seed``.

The gold queries are the paper's fixed §6.1 splits (the dataset
generator's default split seed 7: Employees-train, Employees-test,
Yelp-test), each with the acoustic seed the dataset assigns it, as the
paper's dataset holds one recording per query.  Each workload serves a
fixed prefix of the test splits.  The run's seed draws the rest: the
order requests are sent in (and so which client sends which), the
arrival schedule, and which clauses each correction session edits and
how.  Redrawing the acoustic noise per seed was tried and rejected: it
moved dictation throughput between 3.3 and 4.8 req/s across three
seeds, far more than any change worth detecting.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field

from repro.api import EDIT_REDICTATE, EDIT_TOKEN_PATCH, ClauseEdit, QueryRequest
from repro.asr import Verbalizer, make_custom_engine
from repro.dataset.schemas import build_employees_catalog, build_yelp_catalog
from repro.dataset.spoken import make_spoken_dataset

from oracle import SQL_TOKEN

#: Seed of the paper's splits (``build_spoken_datasets`` default).
SPLIT_SEED = 7
TRAIN_QUERIES = 750
#: Structure index token cap (the grammar generator's default).
INDEX_TOKEN_CAP = 20
#: Queries longer than the cap are never generated (same cap).
QUERY_TOKEN_CAP = 20

DICTATION_PER_SPLIT = 96
DICTATION_NBEST = 5
DICTATION_CLIENTS = 2

STREAM_PER_SPLIT = 96
#: Offered load of ``transcript_stream`` in requests per second.  Fixed,
#: never derived from a capacity probe, so a faster program receives the
#: same load.
STREAM_RATE_QPS = 6.0

SESSIONS_PER_SPLIT = 60
#: Fewest clause edits a session makes (more when more was misheard).
SESSION_EDITS = 2
#: Sessions open at once; the store's limit (64) is never reached.
SESSION_INTERLEAVE = 8

#: Fixed end-to-end latency limit per workload, for goodput.
LATENCY_LIMIT_MS = {
    "dictation": 2000.0,
    "transcript_stream": 1000.0,
    "correction_session": 250.0,
}

WORKLOADS = ("dictation", "transcript_stream", "correction_session")

_CLAUSE_HEADS = {
    "SELECT": "SELECT", "FROM": "FROM", "WHERE": "WHERE",
    "GROUP": "GROUP BY", "ORDER": "ORDER BY", "LIMIT": "LIMIT",
}


@dataclass(frozen=True)
class Gold:
    """One gold query and the catalog ("employees" or "yelp") it runs on."""

    sql: str
    catalog: str
    #: The dataset's acoustic seed for this query (its "recording").
    acoustic_seed: int


@dataclass(frozen=True)
class Turn:
    """One session request, its session, and whether it ends the session."""

    request: QueryRequest
    session: int
    last: bool


@dataclass
class Inputs:
    """Everything the program will receive, plus the gold answers."""

    workload: str
    seed: int
    catalogs: dict
    train_sql: list[str]
    golds: list[Gold] = field(default_factory=list)
    requests: list[QueryRequest] = field(default_factory=list)
    #: Send offsets (seconds from round start) for open-loop workloads.
    schedule: list[float] = field(default_factory=list)
    #: Session workloads: one entry per request, in send order.
    turns: list[Turn] = field(default_factory=list)


def clause_split(sql: str) -> list[tuple[str, str]]:
    """(clause name, clause SQL) pairs of a query, top level only."""
    clauses: list[tuple[str, list[str]]] = []
    depth = 0
    for token in SQL_TOKEN.findall(sql):
        if token == "(":
            depth += 1
        elif token == ")":
            depth -= 1
        head = _CLAUSE_HEADS.get(token.upper()) if depth == 0 else None
        if head is not None:
            clauses.append((head, []))
        if clauses:
            clauses[-1][1].append(token)
    return [(name, " ".join(tokens)) for name, tokens in clauses]


def _nested(sql: str) -> bool:
    return re.search(r"\(\s*SELECT\b", sql, re.IGNORECASE) is not None


def _test_golds(per_split: int, keep=lambda sql: True) -> list[Gold]:
    """Interleaved Employees-test / Yelp-test golds, ``per_split`` each."""
    employees, yelp = build_employees_catalog(), build_yelp_catalog()
    picked: dict[str, list] = {}
    for name, catalog, offset in (("employees", employees, 1), ("yelp", yelp, 2)):
        wanted = per_split
        size = per_split
        while True:
            split = make_spoken_dataset(
                f"{name}-test", catalog, size, seed=SPLIT_SEED + offset,
                max_tokens=QUERY_TOKEN_CAP,
            )
            chosen = [q for q in split.queries if keep(q.sql)][:wanted]
            if len(chosen) == wanted:
                picked[name] = chosen
                break
            size *= 2
    out = []
    for a, b in zip(picked["employees"], picked["yelp"]):
        out.append(Gold(a.sql, "employees", a.seed))
        out.append(Gold(b.sql, "yelp", b.seed))
    return out


def make_inputs(workload: str, seed: int) -> Inputs:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected {WORKLOADS}")
    employees = build_employees_catalog()
    train = make_spoken_dataset(
        "employees-train", employees, TRAIN_QUERIES, seed=SPLIT_SEED,
        max_tokens=QUERY_TOKEN_CAP,
    )
    inputs = Inputs(
        workload=workload,
        seed=seed,
        catalogs={"employees": employees, "yelp": build_yelp_catalog()},
        train_sql=[q.sql for q in train.queries],
    )
    rng = random.Random(f"perfbench/{workload}/{seed}")
    if workload == "dictation":
        inputs.golds = _shuffled(_test_golds(DICTATION_PER_SPLIT), rng)
        inputs.requests = [
            QueryRequest(
                text=gold.sql, seed=gold.acoustic_seed,
                nbest=DICTATION_NBEST, trace_id=f"q{i}",
            )
            for i, gold in enumerate(inputs.golds)
        ]
        return inputs
    # Transcriptions come from the same simulated ASR the system will
    # use (trained on the same split), made here, before any clock runs.
    engine = make_custom_engine(inputs.train_sql)
    if workload == "transcript_stream":
        inputs.golds = _shuffled(_test_golds(STREAM_PER_SPLIT), rng)
        seen: set[str] = set()
        for i, gold in enumerate(inputs.golds):
            text = _transcribe(engine, gold)
            if text in seen:
                raise ValueError(f"two stream requests transcribe to {text!r}")
            seen.add(text)
            inputs.requests.append(QueryRequest(text=text, trace_id=f"q{i}"))
        # A Poisson process conditioned on its count: arrival times are
        # sorted uniforms over the round, so every round offers exactly
        # the nominal rate.
        span = len(inputs.requests) / STREAM_RATE_QPS
        inputs.schedule = sorted(
            rng.uniform(0.0, span) for _ in inputs.requests
        )
        return inputs
    inputs.golds = _shuffled(
        _test_golds(SESSIONS_PER_SPLIT, keep=lambda s: not _nested(s)), rng
    )
    _make_sessions(inputs, engine, rng)
    return inputs


def _shuffled(golds: list[Gold], rng: random.Random) -> list[Gold]:
    rng.shuffle(golds)
    return golds


def _transcribe(engine, gold: Gold) -> str:
    return engine.transcribe(gold.sql, seed=gold.acoustic_seed, nbest=1).text


def _make_sessions(inputs: Inputs, engine, rng: random.Random) -> None:
    """Turn 0 plus clause edits per session, interleaved.

    Turn 0 is the query's noisy transcription.  Each later turn replaces
    one clause with the gold clause's spoken text, the way a user fixes
    what was misheard: every clause whose transcription differs from
    what was spoken is edited, left to right, and edits of the first
    correctly heard clauses bring a session to at least ``SESSION_EDITS``
    edits.  Edit kinds are seeded.
    """
    verbalizer = Verbalizer()
    scripts: list[list[tuple[str, ClauseEdit | None]]] = []
    for gold in inputs.golds:
        heard = _transcribe(engine, gold)
        # Compare as words: the ASR writes "(" and "6" where the speaker
        # said "open parenthesis" and "six".
        heard_clauses = {
            name: " ".join(verbalizer.verbalize(text))
            for name, text in clause_split(heard)
        }
        spoken = {
            name: " ".join(verbalizer.verbalize(clause_sql))
            for name, clause_sql in clause_split(gold.sql)
        }
        misheard = [n for n in spoken if heard_clauses.get(n) != spoken[n]]
        rest = [n for n in spoken if n not in misheard]
        extra = max(0, SESSION_EDITS - len(misheard))
        script: list[tuple[str, ClauseEdit | None]] = [(heard, None)]
        for name in misheard + rest[:extra]:
            kind = rng.choice((EDIT_REDICTATE, EDIT_TOKEN_PATCH))
            script.append((spoken[name], ClauseEdit(kind, name, spoken[name])))
        scripts.append(script)
    # Round-robin over SESSION_INTERLEAVE open sessions; a finished
    # session hands its slot to the next one.
    pending = list(range(len(scripts)))
    open_sessions: list[int] = []
    progress = [0] * len(scripts)
    while pending or open_sessions:
        while pending and len(open_sessions) < SESSION_INTERLEAVE:
            open_sessions.append(pending.pop(0))
        for session in list(open_sessions):
            turn = progress[session]
            text, edit = scripts[session][turn]
            request = QueryRequest(
                text=text, session_id=f"s{session}", turn=turn, edit=edit,
                trace_id=f"s{session}t{turn}",
            )
            last = turn == len(scripts[session]) - 1
            inputs.turns.append(Turn(request, session, last))
            inputs.requests.append(request)
            progress[session] += 1
            if last:
                open_sessions.remove(session)
