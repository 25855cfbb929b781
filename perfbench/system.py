"""Building the system under test from nothing, phase by phase.

``build_system`` is the benchmark's set-up: structure-index generation,
its compilation, ASR training, the phonetic indexes of both catalogs
and, for correction sessions, the clause indexes.  No on-disk cache is
read or written.  Each phase is timed on its own; their sum plus the
service wiring is the set-up time.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass

from repro.asr import make_custom_engine
from repro.core import SpeakQLArtifacts, SpeakQLService
from repro.core.clauses import ClauseKind
from repro.grammar.generator import StructureGenerator
from repro.serving import ServingRuntime
from repro.structure.indexer import StructureIndex

from inputs import INDEX_TOKEN_CAP

SETUP_PHASES = (
    "grammar.index_build_s",
    "structure.compile_s",
    "asr.train_s",
    "phonetics.index_build_s",
    "core.clause_index_build_s",
)

#: Admission limit of every runtime: well above the most requests a
#: workload ever has in flight, so no request is shed.
QUEUE_LIMIT = 64


@dataclass
class System:
    artifacts: SpeakQLArtifacts
    catalogs: dict


@contextmanager
def _timed(phases: dict, name: str):
    start = time.perf_counter()
    yield
    phases[name] = time.perf_counter() - start


def build_system(inputs, *, clause_indexes: bool) -> tuple[System, dict, float]:
    """A ready system, the seconds of each set-up phase, and their total."""
    phases = dict.fromkeys(SETUP_PHASES, 0.0)
    start = time.perf_counter()
    with _timed(phases, "grammar.index_build_s"):
        index = StructureIndex.build(
            StructureGenerator(max_tokens=INDEX_TOKEN_CAP)
        )
    with _timed(phases, "structure.compile_s"):
        index.compiled()
    with _timed(phases, "asr.train_s"):
        engine = make_custom_engine(inputs.train_sql)
    artifacts = SpeakQLArtifacts.build(
        engine=engine, structure_index=index,
        max_structure_tokens=INDEX_TOKEN_CAP,
    )
    with _timed(phases, "phonetics.index_build_s"):
        for catalog in inputs.catalogs.values():
            artifacts.phonetic_index(catalog)
    if clause_indexes:
        with _timed(phases, "core.clause_index_build_s"):
            for kind in ClauseKind:
                artifacts.clause_index(kind).compiled()
    system = System(artifacts=artifacts, catalogs=inputs.catalogs)
    # First-request-ready means a runtime exists; rounds build their own.
    runtimes(system)
    return system, phases, time.perf_counter() - start


def runtimes(system: System) -> dict[str, ServingRuntime]:
    """Fresh serving runtimes, one per catalog, over the shared artifacts.

    Every round gets new ones, so each round starts with empty search
    caches and an empty session store and repeats exactly the same work.
    """
    return {
        name: ServingRuntime(
            SpeakQLService(catalog, artifacts=system.artifacts),
            queue_limit=QUEUE_LIMIT,
        )
        for name, catalog in system.catalogs.items()
    }
