"""Command-line interface: ``python -m repro <command>``.

Commands operate on JSON instance files (see :mod:`repro.io`):

* ``inspect FILE``                       — consistency, violations, conflict components
* ``answers FILE -q QUERY [options]``    — operational consistent answers
* ``probability FILE -q QUERY [options]``— one ``P_{M_Σ,Q}(D, c̄)`` value
* ``sample FILE [options]``              — draw repairs / sequences / walks
* ``count FILE [--what crs|repairs]``    — polynomial counts (primary keys)
* ``batch FILE [options]``               — batched estimation over a JSON workload
* ``serve [options]``                    — the long-running estimation HTTP service
* ``loadtest [options]``                 — fault-injecting saturation test of ``serve``
* ``example NAME``                       — dump a built-in instance as JSON
* ``audit [options]``                    — mass-replication (ε, δ) calibration audit
* ``fsck CACHE_DIR [--repair]``          — verify a cache store's digests offline
* ``lint [PATHS] [--json]``              — repo contract lint (see ``docs/LINT.md``)

Example::

    python -m repro example figure2 > fig2.json
    python -m repro answers fig2.json -q 'Ans(?x) :- R(?x, ?y)' -g M_ur

``batch`` reads a workload file (see ``docs/FORMATS.md``), groups requests
by (instance, generator), and scores each group against one shared sample
pool — optionally fanning groups out over worker processes.  With
``--mode adaptive`` every group runs sequential early-stopping estimators
instead of fixed budgets, ``--cache-dir DIR`` (with ``--seed``) persists
decompositions, bounds and sample batches across runs, and
``--allow-errors`` exits 0 even when some rows report out-of-scope errors
(the rows still carry them).  The generator picks the sample plane.

``serve`` starts the estimation service (:mod:`repro.service`): a warm
session registry behind a micro-batching HTTP JSON API sharing the
workload JSON conventions, hardened with bounded admission queues
(``--max-queue`` / ``--max-pending`` → 429 + ``Retry-After``), a
server-wide deadline budget (``--default-budget`` → 504; clients may
send tighter ``budget_seconds`` → 408), a digest-verified answer cache
(``--answer-cache-size``) and ``GET /metrics`` in Prometheus text
format.  ``loadtest`` drives a real server subprocess past saturation
with a closed-loop client swarm and injected faults, and exits nonzero
unless every graceful-degradation invariant held
(:mod:`repro.service.loadtest`); the faults go in through the
harness-only server of :mod:`repro.service.faults`, never through
``serve``.

**Adding a command** is one entry in the :data:`COMMANDS` registry: a
:class:`Command` bundles the handler, its help line, and a function
that declares its arguments — the parser is assembled from the table,
so subcommands never touch :func:`build_parser` itself.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .chains.generators import M_UO, M_UO1, M_UR, M_UR1, M_US, M_US1
from .core.conflict_graph import ConflictGraph
from .core.violations import violations
from .counting import count_crs, count_crs1
from .counting.repair_count import (
    count_candidate_repairs_primary_keys,
    count_singleton_repairs_primary_keys,
)
from .cqa.answers import ocqa_probability, operational_consistent_answers
from .engine.batch import batch_estimate
from .io import (
    batch_results_to_rows,
    instance_to_dict,
    load_instance,
    load_workload_spec,
    parse_query,
)
from .sampling.operations_sampler import UniformOperationsSampler
from .sampling.repair_sampler import RepairSampler
from .sampling.sequence_sampler import SequenceSampler

GENERATORS = {
    "M_ur": M_UR,
    "M_us": M_US,
    "M_uo": M_UO,
    "M_ur,1": M_UR1,
    "M_us,1": M_US1,
    "M_uo,1": M_UO1,
}


@dataclass(frozen=True)
class Command:
    """One CLI subcommand: handler + help + argument declaration."""

    func: Callable[[argparse.Namespace], int]
    help: str
    add_arguments: Callable[[argparse.ArgumentParser], None]


def build_parser() -> argparse.ArgumentParser:
    """Assemble the full parser from the :data:`COMMANDS` registry."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Uniform operational consistent query answering (PODS 2022)",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        subparser = commands.add_parser(name, help=command.help)
        command.add_arguments(subparser)
    return parser


# -- shared argument groups ----------------------------------------------------------------


def _add_generator_options(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "-g", "--generator", choices=sorted(GENERATORS), default="M_ur"
    )
    subparser.add_argument(
        "--method", choices=("exact", "approx"), default="exact"
    )
    subparser.add_argument("--epsilon", type=float, default=0.2)
    subparser.add_argument("--delta", type=float, default=0.05)
    subparser.add_argument(
        "--seed",
        type=int,
        default=None,
        help=f"RNG seed (default {DEFAULT_SEED}, so unseeded runs replay)",
    )


#: Seed used when a command is run without ``--seed``: an arbitrary but
#: *fixed* value (the paper's year), so even casual unseeded invocations
#: replay bit-for-bit — seed discipline (lint rule RL001) bans falling
#: back to entropy-seeded RNGs anywhere in the package.
DEFAULT_SEED = 2022


def _rng(seed: int | None) -> random.Random:
    return random.Random(DEFAULT_SEED if seed is None else seed)


def _parse_answer(raw: str) -> tuple:
    if not raw:
        return ()
    values = []
    for token in raw.split(","):
        token = token.strip()
        values.append(int(token) if token.lstrip("-").isdigit() else token)
    return tuple(values)


def _render_probability(value) -> str:
    if isinstance(value, Fraction):
        return f"{value} (= {float(value):.6f})"
    return f"{value.estimate:.6f} ({value.samples_used} samples, method {value.method})"


# -- inspect -------------------------------------------------------------------------------


def _arguments_inspect(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument("instance", help="path to a JSON instance file")


def command_inspect(args: argparse.Namespace) -> int:
    database, constraints = load_instance(args.instance)
    print(f"facts: {len(database)}")
    print(f"fds:   {constraints}")
    print(f"class: keys={constraints.all_keys()} "
          f"primary_keys={constraints.is_primary_keys()}")
    print(f"consistent: {constraints.satisfied_by(database)}")
    found = sorted(violations(database, constraints), key=str)
    print(f"violations: {len(found)}")
    for violation in found[:20]:
        print(f"  {violation}")
    if len(found) > 20:
        print(f"  ... and {len(found) - 20} more")
    graph = ConflictGraph.of(database, constraints)
    components = graph.nontrivial_components()
    print(f"conflict components: {len(components)} "
          f"(sizes {sorted(len(c) for c in components)})")
    print(f"conflict-free facts: {len(graph.isolated_nodes())}")
    return 0


# -- answers -------------------------------------------------------------------------------


def _arguments_answers(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument("instance")
    subparser.add_argument(
        "-q", "--query", required=True, help="e.g. 'Ans(?x) :- R(?x, ?y)'"
    )
    _add_generator_options(subparser)


def command_answers(args: argparse.Namespace) -> int:
    database, constraints = load_instance(args.instance)
    query = parse_query(args.query)
    rows = operational_consistent_answers(
        database,
        constraints,
        GENERATORS[args.generator],
        query,
        method=args.method,
        epsilon=args.epsilon,
        delta=args.delta,
        rng=_rng(args.seed),
    )
    for row in rows:
        rendered = ", ".join(map(str, row.answer)) if row.answer else "()"
        if isinstance(row.probability, Fraction):
            print(f"{rendered}\t{row.probability}\t{float(row.probability):.6f}")
        else:
            print(f"{rendered}\t~\t{row.probability:.6f}")
    return 0


# -- probability ---------------------------------------------------------------------------


def _arguments_probability(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument("instance")
    subparser.add_argument("-q", "--query", required=True)
    subparser.add_argument(
        "-a", "--answer", default="", help="comma-separated answer tuple"
    )
    _add_generator_options(subparser)


def command_probability(args: argparse.Namespace) -> int:
    database, constraints = load_instance(args.instance)
    query = parse_query(args.query)
    value = ocqa_probability(
        database,
        constraints,
        GENERATORS[args.generator],
        query,
        _parse_answer(args.answer),
        method=args.method,
        epsilon=args.epsilon,
        delta=args.delta,
        rng=_rng(args.seed),
    )
    print(_render_probability(value))
    return 0


# -- sample --------------------------------------------------------------------------------


def _arguments_sample(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument("instance")
    subparser.add_argument(
        "--what", choices=("repair", "sequence", "walk"), default="repair"
    )
    subparser.add_argument("-n", type=int, default=5, dest="count")
    subparser.add_argument("--singleton", action="store_true")
    subparser.add_argument("--seed", type=int, default=None)


def command_sample(args: argparse.Namespace) -> int:
    database, constraints = load_instance(args.instance)
    rng = _rng(args.seed)
    if args.what == "repair":
        sampler = RepairSampler(database, constraints, args.singleton, rng)
        for _ in range(args.count):
            print(sampler.sample())
    elif args.what == "sequence":
        sampler = SequenceSampler(database, constraints, args.singleton, rng)
        for _ in range(args.count):
            print(sampler.sample())
    else:
        walker = UniformOperationsSampler(database, constraints, args.singleton, rng)
        for _ in range(args.count):
            result = walker.walk()
            print(f"{result.sequence}  ->  {result.repair}  (pi = {result.probability})")
    return 0


# -- count ---------------------------------------------------------------------------------


def _arguments_count(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument("instance")
    subparser.add_argument("--what", choices=("crs", "repairs"), default="repairs")
    subparser.add_argument("--singleton", action="store_true")


def command_count(args: argparse.Namespace) -> int:
    database, constraints = load_instance(args.instance)
    if args.what == "crs":
        value = (
            count_crs1(database, constraints)
            if args.singleton
            else count_crs(database, constraints)
        )
    else:
        value = (
            count_singleton_repairs_primary_keys(database, constraints)
            if args.singleton
            else count_candidate_repairs_primary_keys(database, constraints)
        )
    print(value)
    return 0


# -- batch ---------------------------------------------------------------------------------


def _arguments_batch(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument("workload", help="path to a JSON workload file")
    subparser.add_argument("--seed", type=int, default=None)
    subparser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="fan instance groups out over this many worker processes",
    )
    subparser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON rows"
    )
    subparser.add_argument(
        "--mode",
        choices=("fixed", "adaptive"),
        default=None,
        help="estimation mode (default: the workload's 'mode' field, else fixed); "
        "'adaptive' uses sequential early-stopping estimators",
    )
    subparser.add_argument(
        "--cache-dir",
        default=None,
        help="persist decompositions/bounds/sample batches here across runs "
        "(default: the workload's 'cache_dir' field; needs --seed to be effective)",
    )
    subparser.add_argument(
        "--allow-errors",
        action="store_true",
        help="exit 0 even when some requests report scope errors (the rows "
        "still carry them); without this flag any error row exits 1",
    )


def command_batch(args: argparse.Namespace) -> int:
    spec = load_workload_spec(args.workload)
    mode = args.mode if args.mode is not None else spec.mode
    cache_dir = args.cache_dir if args.cache_dir is not None else spec.cache_dir
    if cache_dir is not None and args.seed is None:
        print(
            "note: --cache-dir has no effect without --seed "
            "(unseeded runs are not reproducible)",
            file=sys.stderr,
        )
    results = batch_estimate(
        spec.requests,
        seed=args.seed,
        workers=args.workers,
        mode=mode,
        cache_dir=cache_dir,
    )
    rows = batch_results_to_rows(results)
    failures = sum(1 for row in rows if "error" in row)
    if args.json:
        json.dump(rows, sys.stdout, indent=2)
        print()
    else:
        for row in rows:
            rendered = ",".join(map(str, row["answer"])) if row["answer"] else "()"
            if "error" in row:
                print(
                    f"{row['instance']}\t{row['generator']}\t{rendered}\t"
                    f"ERROR: {row['error']}"
                )
            else:
                print(
                    f"{row['instance']}\t{row['generator']}\t{rendered}\t"
                    f"{row['estimate']:.6f}\t{row['samples']} samples\t{row['method']}"
                )
    return 1 if failures and not args.allow_errors else 0


# -- serve ---------------------------------------------------------------------------------


def _arguments_serve(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument("--host", default="127.0.0.1")
    subparser.add_argument(
        "--port", type=int, default=8765, help="TCP port (0 picks one)"
    )
    subparser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="workload-level seed group seeds derive from; served estimates "
        "are then bit-identical to `repro batch --seed N` on the same "
        "requests (and cacheable)",
    )
    subparser.add_argument(
        "--cache-dir",
        default=None,
        help="CacheStore directory for admission warm-starts and eviction "
        "spills (needs --seed to be effective)",
    )
    subparser.add_argument(
        "--max-sessions",
        type=int,
        default=None,
        help="LRU capacity of the warm session registry (default 32)",
    )
    subparser.add_argument(
        "--max-queue",
        type=int,
        default=None,
        help="admission bound: queued estimation requests per instance group "
        "(default unbounded); exceeding it returns 429 + Retry-After",
    )
    subparser.add_argument(
        "--max-pending",
        type=int,
        default=None,
        help="admission bound: total queued estimation requests across all "
        "groups (default unbounded); exceeding it returns 429 + Retry-After",
    )
    subparser.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        help="admission bound: estimation requests concurrently being "
        "handled, counting body parsing (default unbounded); exceeding "
        "it returns 429 + Retry-After before the body is read",
    )
    subparser.add_argument(
        "--default-budget",
        type=float,
        default=None,
        help="server-wide deadline budget in seconds per request document "
        "(default none); expiry cancels queued work and returns 504 "
        "(client 'budget_seconds' fields return 408 and are capped by this)",
    )
    subparser.add_argument(
        "--answer-cache-size",
        type=int,
        default=None,
        help="memoized answer cache capacity in result rows (default 4096; "
        "0 disables; only effective with --seed — unseeded estimates are "
        "never cached)",
    )
    subparser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="shard the service across N warm worker processes (one "
        "SessionRegistry per shard, routed by consistent-hashing the "
        "instance cache key; default: single-process). Served rows are "
        "bit-identical at any worker count",
    )


def serve_options(args: argparse.Namespace) -> dict:
    """The parsed ``serve`` arguments as ``serve()`` keyword arguments."""
    return {
        "seed": args.seed,
        "cache_dir": args.cache_dir,
        "max_sessions": args.max_sessions,
        "max_queue": args.max_queue,
        "max_pending": args.max_pending,
        "max_inflight": args.max_inflight,
        "default_budget": args.default_budget,
        "answer_cache_size": args.answer_cache_size,
        "workers": args.workers,
    }


def command_serve(args: argparse.Namespace) -> int:
    from .service import serve

    return serve(args.host, args.port, **serve_options(args))


# -- loadtest ------------------------------------------------------------------------------


def _arguments_loadtest(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--url",
        default=None,
        help="target an already-running fault-injecting server (start one "
        "with `python -m repro.service.faults --port N --seed 7`) instead "
        "of spawning one (the kill fault is then skipped)",
    )
    subparser.add_argument("--seed", type=int, default=7)
    subparser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="multiply every phase duration by this factor (the CI smoke "
        "job uses the ~20 s defaults; the tier-2 leg scales up)",
    )
    subparser.add_argument(
        "--clients",
        type=int,
        default=None,
        help="overload swarm size (default 24; saturation uses a sixth)",
    )
    subparser.add_argument(
        "--max-pending",
        type=int,
        default=8,
        help="batcher queue bound for the spawned server (default 8, "
        "deliberately far below the overload swarm so backpressure must "
        "engage)",
    )
    subparser.add_argument(
        "--max-inflight",
        type=int,
        default=1,
        help="connection-level admission bound for the spawned server "
        "(default 1: closed-loop admitted latency ≈ max_inflight × "
        "service time, so one slot keeps admitted p99 near the unloaded "
        "p99 on a small box)",
    )
    subparser.add_argument(
        "--kill", action="store_true",
        help="also SIGKILL and restart the server subprocess mid-storm",
    )
    subparser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="run the spawned server sharded across N worker processes "
        "(default 0: single-process; ignored with --url)",
    )
    subparser.add_argument(
        "--kill-worker", action="store_true",
        help="also SIGKILL one worker shard mid-storm via POST /_fault "
        "(requires --workers >= 1; the router must respawn it with served "
        "rows still bit-identical)",
    )
    subparser.add_argument(
        "--disk-fault", action="store_true",
        help="also break the spawned server's cache store mid-storm "
        "(ENOSPC on writes, a flipped bit on reads, via POST /_fault); "
        "the server must degrade to compute-without-cache with zero 5xx "
        "and recover when the fault clears (needs --workers 0, no --url)",
    )
    subparser.add_argument(
        "--cache-dir",
        default=None,
        help="CacheStore directory for the spawned server (default: none, "
        "or a private temporary directory when --disk-fault needs one)",
    )
    subparser.add_argument(
        "--backoff",
        type=float,
        default=0.05,
        metavar="SECONDS",
        help="client sleep after a 429 rejection before retrying "
        "(default 0.05 s — tuned for a single-core server; raise or "
        "lower to match the deployment's drain rate)",
    )
    subparser.add_argument(
        "--no-slow", dest="slow", action="store_false",
        help="skip the slow-handler + deadline-budget fault",
    )
    subparser.add_argument(
        "--no-poison", dest="poison", action="store_false",
        help="skip the cache-poisoning fault",
    )
    subparser.add_argument(
        "--no-malformed", dest="malformed", action="store_false",
        help="skip the malformed/truncated raw-socket probes",
    )
    subparser.add_argument(
        "--no-p99-check", dest="p99_check", action="store_false",
        help="report but do not assert the overload p99 degradation bound",
    )
    subparser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="also write the machine-readable report here",
    )


def command_loadtest(args: argparse.Namespace) -> int:
    from .service import LoadTestConfig, format_report, run_loadtest

    config = LoadTestConfig(
        seed=args.seed,
        baseline_seconds=2.0 * args.scale,
        saturation_seconds=2.0 * args.scale,
        overload_seconds=3.0 * args.scale,
        cache_seconds=1.0 * args.scale,
        fault_seconds=3.0 * args.scale,
        max_pending=args.max_pending,
        max_inflight=args.max_inflight,
        workers=args.workers if args.url is None else 0,
        inject_slow=args.slow,
        inject_poison=args.poison,
        inject_malformed=args.malformed,
        inject_kill=args.kill and args.url is None,
        inject_worker_kill=args.kill_worker and args.url is None,
        inject_disk_fault=args.disk_fault and args.url is None,
        cache_dir=args.cache_dir,
        check_p99=args.p99_check,
        reject_backoff_seconds=args.backoff,
    )
    if args.clients is not None:
        config.overload_clients = args.clients
        config.saturation_clients = max(1, args.clients // 6)
    report = run_loadtest(config, base_url=args.url)
    print(format_report(report))
    if args.json is not None:
        with open(args.json, "w", encoding="utf-8") as stream:
            json.dump(report.to_dict(), stream, indent=2)
        print(f"loadtest report written to {args.json}", file=sys.stderr)
    return 0 if report.ok else 1


# -- example -------------------------------------------------------------------------------


def _arguments_example(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "name", choices=("figure2", "running", "intro", "pathological8")
    )


def command_example(args: argparse.Namespace) -> int:
    from .reductions.pathological import pathological_instance
    from .workloads import figure2_database, intro_example

    if args.name == "figure2":
        database, constraints = figure2_database()
    elif args.name == "running":
        from .core import Database, FDSet, Schema, fact, fd

        schema = Schema.from_spec({"R": ["A", "B", "C"]})
        database = Database(
            [
                fact("R", "a1", "b1", "c1"),
                fact("R", "a1", "b2", "c2"),
                fact("R", "a2", "b1", "c2"),
            ],
            schema=schema,
        )
        constraints = FDSet(schema, [fd("R", "A", "B"), fd("R", "C", "B")])
    elif args.name == "intro":
        scenario = intro_example()
        database, constraints = scenario.database, scenario.constraints
    else:
        instance = pathological_instance(8)
        database, constraints = instance.database, instance.constraints
    json.dump(instance_to_dict(database, constraints), sys.stdout, indent=2)
    print()
    return 0


# -- audit ---------------------------------------------------------------------------------


def _arguments_audit(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--replications",
        type=int,
        default=200,
        help="independent seeded estimates per audit cell (default 200; "
        "the acceptance gate runs 2000)",
    )
    subparser.add_argument("--epsilon", type=float, default=0.3)
    subparser.add_argument("--delta", type=float, default=0.1)
    subparser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="base seed every replication seed is derived from (the whole "
        "audit replays bit-for-bit under one value)",
    )
    subparser.add_argument(
        "--profile",
        choices=("small", "full"),
        default="small",
        help="'small' audits the exact-truth Figure 2 grid; 'full' adds "
        "a larger instance with exact and reference truths",
    )
    subparser.add_argument(
        "--cells",
        nargs="*",
        default=None,
        metavar="PATTERN",
        help="only audit cells whose target/mode/backend/warmth id "
        "contains one of these substrings (e.g. 'adaptive', "
        "'fig2-mur/fixed/vector')",
    )
    subparser.add_argument(
        "--horizon",
        type=int,
        default=512,
        help="draws per adversarial optional-stopping stream (default 512)",
    )
    subparser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="also write the machine-readable audit artifact here",
    )
    subparser.add_argument(
        "--cache-dir",
        default=None,
        help="CacheStore directory for the warm-replay cells (a temporary "
        "directory when omitted)",
    )


def command_audit(args: argparse.Namespace) -> int:
    from .calibration import default_targets, render_report, run_audit, write_json

    report = run_audit(
        default_targets(args.profile),
        epsilon=args.epsilon,
        delta=args.delta,
        replications=args.replications,
        base_seed=args.seed,
        cells=args.cells,
        cache_dir=args.cache_dir,
        horizon=args.horizon,
        progress=lambda message: print(f"  {message}", file=sys.stderr),
    )
    print(render_report(report))
    if args.json is not None:
        write_json(report, args.json)
        print(f"audit artifact written to {args.json}", file=sys.stderr)
    return 0 if report.passed else 1


# -- fsck ----------------------------------------------------------------------------------


def _arguments_fsck(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "cache_dir",
        help="the CacheStore directory to scan (every *.json entry is "
        "checked: version, structure, row shapes, content digest)",
    )
    subparser.add_argument(
        "--repair", action="store_true",
        help="quarantine damaged entries (rename to *.quarantined, "
        "skipped by future loads — the next warm run recomputes them) "
        "and delete orphaned temp files",
    )
    subparser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="also write the machine-readable fsck report here",
    )


def command_fsck(args: argparse.Namespace) -> int:
    from .engine.store import fsck_store

    report = fsck_store(args.cache_dir, repair=args.repair)
    print(report.render())
    if args.json is not None:
        with open(args.json, "w", encoding="utf-8") as stream:
            json.dump(report.to_dict(), stream, indent=2)
        print(f"fsck report written to {args.json}", file=sys.stderr)
    # Damage found exits nonzero even under --repair: the quarantine
    # fixed the store, but the operator should still know it was needed.
    return 0 if report.ok else 1


# -- lint ----------------------------------------------------------------------------------


def _arguments_lint(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="files or directories to lint (default: the installed repro "
        "package — the tree the contracts govern)",
    )
    subparser.add_argument(
        "--json", action="store_true", help="emit the machine-readable report"
    )
    subparser.add_argument(
        "--rules",
        default=None,
        metavar="RL001,RL006",
        help="comma-separated rule ids to run (default: all)",
    )
    subparser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog (id, title, contract) and exit",
    )


def command_lint(args: argparse.Namespace) -> int:
    from .lint import ALL_RULES, render_json, render_text, run_lint

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.id} {rule.title}: {rule.contract}")
        return 0
    rules = list(ALL_RULES)
    if args.rules:
        wanted = {part.strip() for part in args.rules.split(",") if part.strip()}
        unknown = wanted - {rule.id for rule in ALL_RULES}
        if unknown:
            print(f"unknown rule id(s): {', '.join(sorted(unknown))}", file=sys.stderr)
            return 2
        rules = [rule for rule in ALL_RULES if rule.id in wanted]
    findings = run_lint(paths=args.paths or None, rules=rules)
    print(render_json(findings) if args.json else render_text(findings))
    return 1 if findings else 0


# -- the registry --------------------------------------------------------------------------

#: The single source of truth for subcommands: parser assembly
#: (:func:`build_parser`) and dispatch (:func:`main`) both walk this
#: table, so adding a command is adding one entry.
COMMANDS: dict[str, Command] = {
    "inspect": Command(command_inspect, "describe an instance", _arguments_inspect),
    "answers": Command(
        command_answers, "operational consistent answers", _arguments_answers
    ),
    "probability": Command(
        command_probability, "one answer's probability", _arguments_probability
    ),
    "sample": Command(
        command_sample, "draw repairs/sequences/walks", _arguments_sample
    ),
    "count": Command(
        command_count, "polynomial counts (primary keys)", _arguments_count
    ),
    "batch": Command(
        command_batch, "batched estimation over a JSON workload file", _arguments_batch
    ),
    "serve": Command(
        command_serve, "run the long-running estimation HTTP service", _arguments_serve
    ),
    "loadtest": Command(
        command_loadtest,
        "drive the estimation service past saturation with injected faults",
        _arguments_loadtest,
    ),
    "example": Command(command_example, "dump a built-in instance", _arguments_example),
    "audit": Command(
        command_audit,
        "mass-replication calibration audit of the (ε, δ) contracts",
        _arguments_audit,
    ),
    "fsck": Command(
        command_fsck,
        "verify a cache store's digests, versions and row shapes offline",
        _arguments_fsck,
    ),
    "lint": Command(
        command_lint,
        "check the repo's determinism/durability/concurrency contracts",
        _arguments_lint,
    ),
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return COMMANDS[args.command].func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
