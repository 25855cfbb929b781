"""The three workloads, one round per call.

A round sends every request of the run's inputs once, through fresh
runtimes (see :func:`system.runtimes`), in chunks of consecutive
requests.  Before, between and after chunks, with no request in
flight, the host's speed is probed (:mod:`hostspeed`).  Latencies are
measured by the benchmark's own clock (``perf_counter``) in host
seconds; the run scales them.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
import time
from dataclasses import dataclass, field

from repro.serving import MicroBatcher

from hostspeed import HostSpeed
from inputs import DICTATION_CLIENTS
from system import runtimes


@dataclass
class Round:
    #: Seconds from send (scheduled send, for open loop) to reply.
    latencies: list[float]
    responses: list
    #: Seconds the chunks took, summed; the probes between them excluded.
    wall: float
    #: Open loop only: how late each send left its scheduled time.
    lags: list[float] = field(default_factory=list)


def _dictation(served, inputs, chunk: list[int]) -> Round:
    """Closed loop: each client takes the next request, waits for its reply.

    The clients share one queue (in the seeded order), so neither sits
    idle while the other still has work.
    """
    latencies = [0.0] * len(chunk)
    responses = [None] * len(chunk)
    queue = itertools.count()

    def client() -> None:
        while (k := next(queue)) < len(chunk):
            i = chunk[k]
            runtime = served[inputs.golds[i].catalog]
            start = time.perf_counter()
            responses[k] = runtime.submit(inputs.requests[i])
            latencies[k] = time.perf_counter() - start

    threads = [
        threading.Thread(target=client, name=f"client-{c}")
        for c in range(DICTATION_CLIENTS)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return Round(latencies, responses, time.perf_counter() - start)


def _transcript_stream(served, inputs, chunk: list[int]) -> Round:
    """Open loop: sends leave on the seeded schedule whatever the replies do.

    The chunk's schedule is the round's, shifted so that its first
    request is due at once.  Its wall time is the schedule's: from the
    previous chunk's last send (or the round's start) to its own last
    send, and for the round's last chunk on to its last reply.  So the
    round's wall time is what it would be unchunked, and the pauses to
    probe the host are left out.
    """
    offsets = [inputs.schedule[i] - inputs.schedule[chunk[0]] for i in chunk]
    finished = [0.0] * len(chunk)
    responses = [None] * len(chunk)
    lags: list[float] = []

    async def drive() -> float:
        batchers = {name: MicroBatcher(rt) for name, rt in served.items()}

        async def send(k: int) -> None:
            i = chunk[k]
            batcher = batchers[inputs.golds[i].catalog]
            responses[k] = await batcher.submit(inputs.requests[i])
            finished[k] = time.perf_counter()

        tasks = []
        start = time.perf_counter()
        try:
            for k, offset in enumerate(offsets):
                due = start + offset
                delay = due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                lags.append(time.perf_counter() - due)
                tasks.append(asyncio.ensure_future(send(k)))
            await asyncio.gather(*tasks)
        finally:
            for batcher in batchers.values():
                await batcher.close()
        return start

    start = asyncio.run(drive())
    latencies = [finished[k] - (start + offsets[k]) for k in range(len(chunk))]
    previous = inputs.schedule[chunk[0] - 1] if chunk[0] else 0.0
    wall = inputs.schedule[chunk[-1]] - previous
    if chunk[-1] == len(inputs.requests) - 1:
        wall += max(finished) - (start + offsets[-1])
    return Round(latencies, responses, wall, lags)


def _correction_session(served, inputs, chunk: list[int]) -> Round:
    """One closed-loop client driving interleaved correction sessions."""
    latencies = [0.0] * len(chunk)
    responses = [None] * len(chunk)
    start = time.perf_counter()
    for k, i in enumerate(chunk):
        turn = inputs.turns[i]
        runtime = served[inputs.golds[turn.session].catalog]
        sent = time.perf_counter()
        responses[k] = runtime.submit(turn.request)
        latencies[k] = time.perf_counter() - sent
    return Round(latencies, responses, time.perf_counter() - start)


_CHUNK_RUNNERS = {
    "dictation": _dictation,
    "transcript_stream": _transcript_stream,
    "correction_session": _correction_session,
}
OPEN_LOOP = frozenset({"transcript_stream"})
#: Requests per chunk: about 2 s of dictation, 1 s of the stream's
#: schedule, 0.5 s of correction turns.  Many short probes spread over a
#: run follow the host's speed better than a few long ones.  A session
#: store lives as long as its round, so sessions run on across chunks.
CHUNK_SIZE = {"dictation": 16, "transcript_stream": 6, "correction_session": 50}

#: Seconds one round takes on the reference host (see README.md).
ROUND_NOMINAL_S = {
    "dictation": 30.0,
    "transcript_stream": 32.0,
    "correction_session": 5.0,
}


def rounds_for(workload: str, seconds: float) -> int:
    """Rounds in a run of ``seconds``: fixed by the arguments alone, so
    the work a run does never depends on how fast the program is."""
    return max(1, round(seconds / ROUND_NOMINAL_S[workload]))


def run_round(workload: str, system, inputs, speed: HostSpeed) -> Round:
    """Send every request once, chunk by chunk, probing around each chunk."""
    served = runtimes(system)
    count = len(inputs.requests)
    size = CHUNK_SIZE[workload]
    out = Round([0.0] * count, [None] * count, 0.0)
    speed.probe()
    for first in range(0, count, size):
        chunk = list(range(first, min(first + size, count)))
        part = _CHUNK_RUNNERS[workload](served, inputs, chunk)
        speed.probe()
        for k, i in enumerate(chunk):
            out.latencies[i] = part.latencies[k]
            out.responses[i] = part.responses[k]
        out.wall += part.wall
        out.lags += part.lags
    return out
