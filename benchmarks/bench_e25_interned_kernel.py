"""E25 — Interned-fact kernel vs. the object path, per-sample throughput.

The kernel's pitch (PR 3): after interning ``(D, Σ)`` once into dense fact
ids, a sampled repair is an *int bitmask* — drawn without constructing
``Operation``/``Database`` objects, and evaluated against witness masks
with integer subset tests.  This bench takes the E21 inconsistency-sweep
instance shape and runs the same all-candidates workload twice:

* **object path** — the pre-kernel implementation, reconstructed verbatim
  from public APIs: object samplers (one ``Database``/sequence per draw), a
  retained fact-set sample list, frozenset-containment witness checks;
* **interned** — an :class:`EstimationSession`'s ``random.Random`` pool:
  the same sampler's ``sample_mask`` draws into a
  :class:`~repro.engine.session.SamplePool`, mask witness evaluation.

Both paths are seeded identically, so — by the RNG-parity contract asserted
in ``tests/test_interning.py`` — the estimates are **bit-for-bit
identical**; the kernel is a pure speedup, asserted here at ≥ 3× per sample
for both the uniform-repairs and uniform-sequences generators.
"""

import random
import time

from repro.chains.generators import M_UR, M_US
from repro.core.queries import atom, cq, var
from repro.engine import EstimationSession
from repro.sampling.sequence_sampler import SequenceSampler
from repro.workloads.inconsistency import database_with_inconsistency

from bench_utils import emit

FACTS = 40
RATIO = 0.6
BLOCK_SIZE = 3
SAMPLES = 1500
SEED = 25
MIN_SPEEDUP = 3.0

GENERATORS = [M_UR, M_US]


def build_workload():
    database, constraints = database_with_inconsistency(
        FACTS, RATIO, block_size=BLOCK_SIZE, rng=random.Random(SEED)
    )
    x, y = var("x"), var("y")
    query = cq((x, y), (atom("R", x, y),))
    candidates = sorted(query.answers(database), key=repr)
    return database, constraints, query, candidates


def run_object_path(database, constraints, generator, query, candidates):
    """The seed implementation's draw-and-evaluate loop, faithfully: the
    sampler's object API (``sample``/``sample_result``), one fact set per
    draw."""
    session = EstimationSession(database, constraints, generator)
    witnesses = {c: session.witnesses(query, c) for c in candidates}
    sampler = session.sampler(random.Random(SEED))
    draw = (
        sampler.sample_result
        if isinstance(sampler, SequenceSampler)
        else sampler.sample
    )
    samples = [draw().facts for _ in range(SAMPLES)]
    return [
        sum(
            1
            for sample in samples
            if any(witness <= sample for witness in witnesses[candidate])
        )
        / SAMPLES
        for candidate in candidates
    ]


def run_interned(database, constraints, generator, query, candidates):
    session = EstimationSession(database, constraints, generator)
    pool = session.pool(random.Random(SEED))
    return [
        session.fixed_budget_pooled(pool, query, candidate, samples=SAMPLES).estimate
        for candidate in candidates
    ]


def compare():
    database, constraints, query, candidates = build_workload()
    rows = []
    for generator in GENERATORS:
        started = time.perf_counter()
        object_estimates = run_object_path(
            database, constraints, generator, query, candidates
        )
        object_seconds = time.perf_counter() - started
        started = time.perf_counter()
        interned_estimates = run_interned(
            database, constraints, generator, query, candidates
        )
        interned_seconds = time.perf_counter() - started
        rows.append(
            (
                generator.name,
                object_estimates,
                interned_estimates,
                object_seconds,
                interned_seconds,
            )
        )
    return candidates, rows


def test_e25_interned_kernel(benchmark):
    candidates, rows = benchmark.pedantic(compare, rounds=1, iterations=1)
    assert len(candidates) == FACTS  # every fact is a candidate of R(x, y)
    for name, object_estimates, interned_estimates, object_seconds, interned_seconds in rows:
        # The RNG-parity contract: identical streams, identical witness
        # semantics, hence bit-for-bit identical estimates.
        assert interned_estimates == object_estimates
        speedup = object_seconds / interned_seconds
        assert speedup >= MIN_SPEEDUP, (
            f"{name}: interned kernel only {speedup:.1f}x faster "
            f"({object_seconds:.3f}s vs {interned_seconds:.3f}s)"
        )
        per_sample_us = interned_seconds / SAMPLES * 1e6
        emit(
            "E25",
            generator=name,
            candidates=len(candidates),
            samples=SAMPLES,
            object_seconds=round(object_seconds, 3),
            interned_seconds=round(interned_seconds, 3),
            speedup=round(speedup, 1),
            interned_us_per_sample=round(per_sample_us, 1),
            identical_estimates=interned_estimates == object_estimates,
        )
    emit(
        "E25",
        workload="E21 inconsistency sweep",
        facts=FACTS,
        ratio=RATIO,
        block_size=BLOCK_SIZE,
    )
