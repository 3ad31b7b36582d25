"""The service plane: warm registry, micro-batching, and the HTTP API.

The load-bearing promise throughout: a served estimate is *bit-identical*
to the same request inside an offline ``batch_estimate(seed=...)`` run —
regardless of arrival order, coalescing, eviction, or which transport
(in-process registry, asyncio batcher, HTTP) carried it.
"""

import asyncio
import json
import os
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.approx.fpras import FPRASUnavailable
from repro.chains.generators import M_UR, M_US
from repro.core import Database, FDSet, Schema, fact, fd
from repro.core.queries import atom, boolean_cq, cq, var
from repro.engine import BatchRequest, batch_estimate
from repro.io import instance_to_dict
from repro.service import (
    BackgroundServer,
    MicroBatcher,
    ServiceClient,
    ServiceClientError,
    SessionRegistry,
)
from repro.workloads import figure2_database

x, y = var("x"), var("y")
EPSILON, DELTA = 0.5, 0.2
QUERY_TEXT = "Ans(?x) :- R(?x, ?y)"


def fig2_requests(generators=(M_UR, M_US), epsilon=EPSILON, delta=DELTA):
    database, constraints = figure2_database()
    query = cq((x,), (atom("R", x, y),))
    return [
        BatchRequest(
            database,
            constraints,
            generator,
            query,
            answer=candidate,
            epsilon=epsilon,
            delta=delta,
            label="fig2",
        )
        for generator in generators
        for candidate in sorted(query.answers(database), key=repr)
    ]


def fd_instance():
    """The running example: FDs beyond primary keys (M_ur out of scope)."""
    schema = Schema.from_spec({"R": ["A", "B", "C"]})
    database = Database(
        [fact("R", "a1", "b1", "c1"), fact("R", "a1", "b2", "c2")], schema=schema
    )
    return database, FDSet(schema, [fd("R", "A", "B"), fd("R", "C", "B")])


class TestSessionRegistry:
    def test_estimates_match_offline_batch_estimate(self):
        requests = fig2_requests()
        offline = batch_estimate(requests, seed=7)
        registry = SessionRegistry(seed=7)
        assert [r.result for r in registry.estimate(requests)] == [
            r.result for r in offline
        ]
        # A second pass is served warm and stays identical.
        assert [r.result for r in registry.estimate(requests)] == [
            r.result for r in offline
        ]
        assert registry.hits >= 2 and registry.misses == 2

    def test_arrival_order_does_not_change_estimates(self):
        requests = fig2_requests()
        offline = {id(r): o.result for r, o in zip(requests, batch_estimate(requests, seed=7))}
        registry = SessionRegistry(seed=7)
        shuffled = list(reversed(requests))
        for request, outcome in zip(shuffled, registry.estimate(shuffled)):
            assert outcome.result == offline[id(request)]

    def test_single_requests_equal_one_coalesced_batch(self):
        requests = fig2_requests(generators=(M_UR,))
        registry = SessionRegistry(seed=7)
        one_by_one = [registry.estimate([request])[0] for request in requests]
        coalesced = SessionRegistry(seed=7).estimate(requests)
        assert [r.result for r in one_by_one] == [r.result for r in coalesced]

    def test_adaptive_mode_matches_offline(self):
        requests = fig2_requests(generators=(M_UR,))
        offline = batch_estimate(requests, seed=7, mode="adaptive")
        registry = SessionRegistry(seed=7)
        served = registry.estimate(requests, mode="adaptive")
        assert [r.result for r in served] == [r.result for r in offline]

    def test_mixed_modes_share_one_warm_session(self):
        requests = fig2_requests(generators=(M_UR,))
        registry = SessionRegistry(seed=7)
        fixed = registry.estimate(requests, mode="fixed")
        adaptive = registry.estimate(requests, mode="adaptive")
        assert len(registry.handles()) == 1
        assert [r.result for r in fixed] == [
            r.result for r in batch_estimate(requests, seed=7)
        ]
        assert [r.result for r in adaptive] == [
            r.result for r in batch_estimate(requests, seed=7, mode="adaptive")
        ]

    def test_out_of_scope_groups_become_error_rows_and_are_not_admitted(self):
        database, constraints = fd_instance()
        bad = BatchRequest(
            database, constraints, M_UR, boolean_cq(atom("R", "a1", "b1", "c1"))
        )
        registry = SessionRegistry(seed=7)
        (outcome,) = registry.estimate([bad])
        assert not outcome.ok and "primary keys" in outcome.error
        assert registry.handles() == []
        with pytest.raises(FPRASUnavailable):
            registry.handle(database, constraints, M_UR)

    def test_lru_eviction_caps_sessions(self):
        requests = fig2_requests()  # two groups
        registry = SessionRegistry(seed=7, max_sessions=1)
        results = registry.estimate(requests)
        assert all(r.ok for r in results)
        assert len(registry.handles()) == 1
        assert registry.evictions == 1
        assert [r.result for r in results] == [
            r.result for r in batch_estimate(requests, seed=7)
        ]

    def test_eviction_spills_and_readmission_warm_starts(self, tmp_path):
        requests = fig2_requests()
        registry = SessionRegistry(seed=7, cache_dir=str(tmp_path), max_sessions=1)
        first = registry.estimate(requests)
        registry.close()
        # Both groups persisted: the evicted one on eviction, the
        # survivor on close.
        assert len([n for n in os.listdir(tmp_path) if n.endswith(".json")]) == 2
        warm = SessionRegistry(seed=7, cache_dir=str(tmp_path))
        second = warm.estimate(requests)
        assert [r.result for r in second] == [r.result for r in first]
        preloaded = warm.handles()[0].pool
        assert len(preloaded) > 0  # warm-started, not redrawn from nothing

    def test_registry_key_matches_cache_entry_key(self):
        database, constraints = figure2_database()
        registry = SessionRegistry(seed=7)
        key = registry.key_for(database, constraints, M_UR)
        from repro.engine import instance_cache_key

        assert key == instance_cache_key(
            database, constraints, "M_ur", registry.group_seed(database, constraints, M_UR)
        )

    def test_concurrent_mixed_load_is_bit_identical(self):
        requests = fig2_requests()
        offline = batch_estimate(requests, seed=7)
        registry = SessionRegistry(seed=7)
        with ThreadPoolExecutor(8) as executor:
            outcomes = list(
                executor.map(lambda r: registry.estimate([r])[0], requests * 3)
            )
        expected = [r.result for r in offline] * 3
        assert [o.result for o in outcomes] == expected

    def test_invalid_construction_rejected(self):
        with pytest.raises(ValueError, match="max_sessions"):
            SessionRegistry(max_sessions=0)


class TestMicroBatcher:
    def run_submissions(self, registry, submissions):
        """Drive the batcher on a fresh loop; returns per-submission rows."""

        async def main():
            batcher = MicroBatcher(registry)
            results = await asyncio.gather(
                *(
                    batcher.submit(
                        requests[0].database,
                        requests[0].constraints,
                        requests[0].generator,
                        requests,
                        mode,
                    )
                    for requests, mode in submissions
                )
            )
            return batcher, results

        return asyncio.run(main())

    def test_concurrent_submissions_coalesce_and_match_offline(self):
        requests = fig2_requests(generators=(M_UR,))
        offline = batch_estimate(requests, seed=7)
        registry = SessionRegistry(seed=7)
        batcher, results = self.run_submissions(
            registry, [([request], "fixed") for request in requests]
        )
        flat = [outcome for chunk in results for outcome in chunk]
        assert [o.result for o in flat] == [r.result for r in offline]
        # All submissions landed while the first batch held the executor,
        # so the drain served them in (far) fewer passes than requests.
        assert batcher.batches_run < len(requests)
        assert batcher.widest_batch > 1

    def test_mixed_mode_submissions_split_correctly(self):
        requests = fig2_requests(generators=(M_UR,))
        fixed_offline = batch_estimate(requests, seed=7)
        adaptive_offline = batch_estimate(requests, seed=7, mode="adaptive")
        registry = SessionRegistry(seed=7)
        _, results = self.run_submissions(
            registry, [(requests, "fixed"), (requests, "adaptive")]
        )
        assert [o.result for o in results[0]] == [r.result for r in fixed_offline]
        assert [o.result for o in results[1]] == [r.result for r in adaptive_offline]

    def test_unknown_mode_raises(self):
        registry = SessionRegistry(seed=7)
        request = fig2_requests()[0]
        with pytest.raises(ValueError, match="unknown mode"):
            self.run_submissions(registry, [([request], "bogus")])

    def test_out_of_scope_group_resolves_to_error_rows(self):
        database, constraints = fd_instance()
        bad = BatchRequest(
            database, constraints, M_UR, boolean_cq(atom("R", "a1", "b1", "c1"))
        )
        registry = SessionRegistry(seed=7)
        _, results = self.run_submissions(registry, [([bad], "fixed")])
        ((outcome,),) = results
        assert not outcome.ok and "primary keys" in outcome.error


@pytest.fixture(scope="module")
def server():
    """One shared background server (seed 7) for the HTTP tests."""
    with BackgroundServer(seed=7) as running:
        yield running


@pytest.fixture(scope="module")
def client(server):
    return ServiceClient(server.url)


class TestHttpApi:
    def test_healthz(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["uptime_seconds"] >= 0

    def test_single_estimate_matches_offline(self, client):
        requests = fig2_requests()
        offline = batch_estimate(requests, seed=7)
        database, constraints = figure2_database()
        for request, reference in zip(requests, offline):
            row = client.estimate(
                database,
                constraints,
                QUERY_TEXT,
                list(request.answer),
                generator=request.generator.name,
                epsilon=EPSILON,
                delta=DELTA,
                label="fig2",
            )
            assert row["estimate"] == reference.result.estimate
            assert row["samples"] == reference.result.samples_used
            assert row["method"] == reference.result.method

    def test_bulk_workload_document_matches_offline(self, client):
        requests = fig2_requests()
        offline = batch_estimate(requests, seed=7)
        database, constraints = figure2_database()
        document = {
            "defaults": {"epsilon": EPSILON, "delta": DELTA},
            "instances": {"fig2": instance_to_dict(database, constraints)},
            "requests": [
                {
                    "instance": "fig2",
                    "generator": generator,
                    "query": QUERY_TEXT,
                    "answers": "all",
                }
                for generator in ("M_ur", "M_us")
            ],
        }
        rows = client.estimate_workload(document)
        assert [row["estimate"] for row in rows] == [
            r.result.estimate for r in offline
        ]

    def test_adaptive_mode_over_http(self, client):
        requests = fig2_requests(generators=(M_UR,))
        offline = batch_estimate(requests, seed=7, mode="adaptive")
        database, constraints = figure2_database()
        rows = [
            client.estimate(
                database,
                constraints,
                QUERY_TEXT,
                list(request.answer),
                epsilon=EPSILON,
                delta=DELTA,
                mode="adaptive",
                label="fig2",
            )
            for request in requests
        ]
        assert [row["estimate"] for row in rows] == [
            r.result.estimate for r in offline
        ]
        assert all("interval" in row for row in rows)

    def test_answers_endpoint_enumerates_candidates(self, client):
        database, constraints = figure2_database()
        rows = client.answers(
            database, constraints, QUERY_TEXT, epsilon=EPSILON, delta=DELTA
        )
        assert [tuple(row["answer"]) for row in rows] == [
            ("a1",), ("a2",), ("a3",)
        ]
        requests = fig2_requests(generators=(M_UR,))
        offline = batch_estimate(requests, seed=7)
        assert [row["estimate"] for row in rows] == [
            r.result.estimate for r in offline
        ]

    def test_concurrent_clients_are_bit_identical(self, client):
        requests = fig2_requests()
        offline = batch_estimate(requests, seed=7)
        database, constraints = figure2_database()

        def score(request):
            return client.estimate(
                database,
                constraints,
                QUERY_TEXT,
                list(request.answer),
                generator=request.generator.name,
                epsilon=EPSILON,
                delta=DELTA,
            )

        with ThreadPoolExecutor(8) as executor:
            rows = list(executor.map(score, requests * 2))
        expected = [r.result.estimate for r in offline] * 2
        assert [row["estimate"] for row in rows] == expected

    def test_out_of_scope_request_is_an_error_row_not_an_http_error(self, client):
        database, constraints = fd_instance()
        row = client.estimate(
            database, constraints, "Ans() :- R(a1, b1, c1)", generator="M_ur"
        )
        assert "primary keys" in row["error"]

    def test_stats_report_sessions_and_batches(self, client):
        stats = client.stats()
        assert stats["registry"]["sessions"] >= 1
        assert stats["batching"]["batches_run"] >= 1
        assert stats["requests_served"] >= 1
        for group in stats["registry"]["groups"]:
            assert group["pool_samples"] >= 0
            assert group["generator"]


class TestHttpErrors:
    def test_malformed_json_is_400(self, server):
        request = urllib.request.Request(
            server.url + "/estimate", data=b"{nope", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(request)
        assert caught.value.code == 400

    def test_unknown_path_is_404_and_lists_routes(self, server):
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(server.url + "/nope")
        assert caught.value.code == 404
        payload = json.loads(caught.value.read())
        assert "/estimate" in payload["paths"]
        # The fault surface lives only on the load-test harness server.
        assert "/_fault" not in payload["paths"]

    def test_wrong_method_is_405(self, server):
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(server.url + "/estimate")  # GET
        assert caught.value.code == 405

    def test_instance_file_paths_are_rejected(self, client):
        document = {
            "instances": {"evil": "/etc/passwd"},
            "requests": [{"instance": "evil", "query": "Ans() :- R(a)"}],
        }
        with pytest.raises(ServiceClientError) as caught:
            client.estimate_workload(document)
        assert caught.value.status == 400
        assert "inline" in str(caught.value)

    def test_missing_instance_is_400_with_message(self, client):
        with pytest.raises(ServiceClientError) as caught:
            client.estimate_workload({"instance": "nope", "query": "Ans() :- R(a)"})
        assert caught.value.status == 400

    def test_fault_injection_is_not_a_server_option(self):
        import inspect

        from repro.service import EstimationServer, serve

        with pytest.raises(TypeError):
            EstimationServer(fault_injection=True)
        for function in (EstimationServer, EstimationServer.build, serve):
            parameters = inspect.signature(function).parameters
            assert "fault_injection" not in parameters, function

    def test_answers_rejects_fixed_answer(self, server):
        database, constraints = figure2_database()
        body = json.dumps(
            {
                "instance": instance_to_dict(database, constraints),
                "query": QUERY_TEXT,
                "answer": ["a1"],
            }
        ).encode()
        request = urllib.request.Request(
            server.url + "/answers", data=body, method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(request)
        assert caught.value.code == 400


class TestServedCachePersistence:
    def test_server_shutdown_spills_cache_for_warm_restart(self, tmp_path):
        database, constraints = figure2_database()
        with BackgroundServer(seed=7, cache_dir=str(tmp_path)) as first:
            row = ServiceClient(first.url).estimate(
                database, constraints, QUERY_TEXT, ["a1"], epsilon=EPSILON, delta=DELTA
            )
        entries = [n for n in os.listdir(tmp_path) if n.endswith(".json")]
        assert len(entries) == 1
        with BackgroundServer(seed=7, cache_dir=str(tmp_path)) as second:
            warm_client = ServiceClient(second.url)
            warm = warm_client.estimate(
                database, constraints, QUERY_TEXT, ["a1"], epsilon=EPSILON, delta=DELTA
            )
            assert warm["estimate"] == row["estimate"]
            assert warm["samples"] == row["samples"]
            pool_samples = warm_client.stats()["registry"]["groups"][0]["pool_samples"]
        with open(os.path.join(tmp_path, entries[0])) as handle:
            persisted = len(json.load(handle)["samples"])
        assert persisted >= pool_samples > 0  # admission preloaded the prefix


class TestCliServeParser:
    def test_serve_arguments_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "serve",
                "--host", "0.0.0.0",
                "--port", "9000",
                "--seed", "7",
                "--cache-dir", "/tmp/cache",
                "--max-sessions", "4",
                "--workers", "2",
            ]
        )
        assert args.command == "serve"
        assert (args.host, args.port, args.seed) == ("0.0.0.0", 9000, 7)
        assert args.max_sessions == 4 and args.workers == 2
        # The generator picks the sample plane: there is no flag for it.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--backend", "scalar"])
        # Faults are injected through the harness server only.
        with pytest.raises(SystemExit) as caught:
            build_parser().parse_args(["serve", "--enable-fault-injection"])
        assert caught.value.code == 2

    def test_loadtest_arguments_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["loadtest", "--workers", "2", "--kill-worker", "--backoff", "0.01"]
        )
        assert args.command == "loadtest"
        assert args.workers == 2 and args.kill_worker and args.backoff == 0.01
