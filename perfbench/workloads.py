"""Workload definitions and seeded input generation.

Every input a run uses -- the instance, the candidate answers and, for the
serving workload, the request sequence -- is a pure function of the
workload name and the ``--seed`` value.  The program under test only ever
sees these generated inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: Inconsistency ratio and block size of every instance
#: (``workloads.inconsistency.database_with_inconsistency``).
RATIO = 0.6
BLOCK_SIZE = 3
#: ``Q(x, y) :- R(x, y)``: every fact of the instance is a candidate answer.
QUERY_TEXT = "Ans(?x, ?y) :- R(?x, ?y)"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "batch" or "serve"
    generator: str
    facts: int
    answers: int  # requests per batch call, or warm answers when serving
    epsilon: float
    delta: float = 0.05
    hit_share: float = 0.0  # serving only: share of requests repeating a warm answer


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("batch-mur-10k", "batch", "M_ur", 10_000, 64, 0.1),
        Workload("batch-mus-160", "batch", "M_us", 160, 32, 0.4),
        Workload(
            "serve-mur-1k", "serve", "M_ur", 1_000, 48, 0.1, hit_share=0.8
        ),
    )
}


def rng_for(workload: Workload, seed: int, purpose: str) -> random.Random:
    """A generator private to one workload, seed and purpose."""
    return random.Random(f"{workload.name}/{seed}/{purpose}")


def instance(workload: Workload):
    """``(database, constraints, query, generator)`` of a workload."""
    from repro.chains.generators import ALL_GENERATORS
    from repro.io import parse_query
    from repro.workloads.inconsistency import database_with_inconsistency

    database, constraints = database_with_inconsistency(
        workload.facts, RATIO, block_size=BLOCK_SIZE
    )
    generator = next(g for g in ALL_GENERATORS if g.name == workload.generator)
    return database, constraints, parse_query(QUERY_TEXT), generator


def answer_facts(workload: Workload, database, seed: int, count: int):
    """``count`` distinct facts of the instance, drawn with the seed."""
    return rng_for(workload, seed, "answers").sample(sorted(database), count)


def label_for(answer) -> str:
    """The request label: a function of the answer alone.

    The server's answer cache keys on the label, so a label that varied
    per request would turn every repeated answer into a miss.
    """
    return "ans:" + ",".join(str(value) for value in answer)


def batch_requests(workload: Workload, seed: int):
    """The batch workload's inputs: instance, answers and request list."""
    from repro.engine.batch import BatchRequest

    database, constraints, query, generator = instance(workload)
    facts = answer_facts(workload, database, seed, workload.answers)
    requests = [
        BatchRequest(
            database,
            constraints,
            generator,
            query,
            tuple(fact.values),
            epsilon=workload.epsilon,
            delta=workload.delta,
            label=label_for(fact.values),
        )
        for fact in facts
    ]
    return database, constraints, facts, requests


def serve_requests(workload: Workload, seed: int, database):
    """The serving inputs: warm answers plus the request sequence.

    The sequence is sent back to back by one client (a closed loop), so
    its length does not depend on the run's duration: it runs until the
    instance has no answer left that was never asked.  Each request
    repeats a warm answer with probability ``workload.hit_share`` and
    otherwise asks an answer not asked before.
    """
    facts = sorted(database)
    order = rng_for(workload, seed, "answers").sample(facts, len(facts))
    warm = [tuple(fact.values) for fact in order[: workload.answers]]
    fresh = [tuple(fact.values) for fact in order[workload.answers :]]
    rng = rng_for(workload, seed, "sequence")
    sequence = []
    while fresh:
        if rng.random() < workload.hit_share:
            sequence.append(warm[rng.randrange(len(warm))])
        else:
            sequence.append(fresh.pop())
    return warm, sequence
