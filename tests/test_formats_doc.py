"""Execute the worked examples of docs/FORMATS.md so the spec cannot rot."""

import json
import pathlib
import re

import pytest

from repro.core.queries import ConjunctiveQuery
from repro.engine import batch_estimate
from repro.io import format_query, instance_from_dict, parse_query, workload_from_dict

DOC = pathlib.Path(__file__).resolve().parent.parent / "docs" / "FORMATS.md"

_FENCED_JSON = re.compile(r"```json\n(.*?)```", re.DOTALL)


@pytest.fixture(scope="module")
def json_blocks():
    blocks = [json.loads(match) for match in _FENCED_JSON.findall(DOC.read_text())]
    assert blocks, "docs/FORMATS.md lost its JSON examples"
    return blocks


def _instance_blocks(blocks):
    return [b for b in blocks if "schema" in b]


def _workload_blocks(blocks):
    return [b for b in blocks if "requests" in b]


def _service_request_blocks(blocks):
    return [b for b in blocks if "instance" in b]


def _service_response_blocks(blocks):
    return [b for b in blocks if "results" in b]


def test_documented_instance_parses(json_blocks):
    (document,) = _instance_blocks(json_blocks)
    database, constraints = instance_from_dict(document)
    assert len(database) == 3
    assert constraints.is_primary_keys()
    # The text claims the first two facts conflict on key a1.
    assert not constraints.satisfied_by(database)


def test_documented_queries_parse():
    text = DOC.read_text()
    inline = re.search(r"```\n(Ans.*?)```", text, re.DOTALL)
    assert inline is not None, "query examples missing from FORMATS.md"
    for line in inline.group(1).strip().splitlines():
        query = parse_query(line)
        assert isinstance(query, ConjunctiveQuery)
        # Round-trips through the documented inverse.
        assert parse_query(format_query(query)) == query


def test_documented_workload_runs_as_described(json_blocks):
    (document,) = _workload_blocks(json_blocks)
    requests = workload_from_dict(document)
    # "answers": "all" expands to the two candidates, plus two more rows.
    assert len(requests) == 4
    assert [r.answer for r in requests[:2]] == [("a1",), ("a2",)]
    assert requests[0].epsilon == 0.3 and requests[0].delta == 0.1  # defaults
    assert requests[2].generator.name == "M_us"  # per-request override

    results = batch_estimate(requests, seed=7)
    assert all(r.ok for r in results)
    by_position = [r.result for r in results]
    # The claims made in prose next to the example:
    assert by_position[1].estimate == 1.0  # a2 is conflict-free
    assert by_position[0].estimate == pytest.approx(2 / 3, abs=0.15)  # a1 ~ 2/3
    assert by_position[3].method == "possibility-zero"  # same-block pair
    assert by_position[3].certified_zero and by_position[3].samples_used == 0


def test_documented_service_exchange_is_live(json_blocks):
    """POSTing the documented /estimate request to a seed-7 server returns
    the documented response verbatim (the doc's bit-identity claim)."""
    import urllib.request

    from repro.service import BackgroundServer

    (request_document,) = _service_request_blocks(json_blocks)
    (response_document,) = _service_response_blocks(json_blocks)
    with BackgroundServer(seed=7) as server:
        request = urllib.request.Request(
            server.url + "/estimate",
            data=json.dumps(request_document).encode(),
            method="POST",
        )
        with urllib.request.urlopen(request) as response:
            served = json.loads(response.read())
    assert served == response_document


def _documented_metric_names() -> set[str]:
    """Every ``repro_*`` series family the ``GET /metrics`` section names.

    ``{a,b}`` inside a name expands (``repro_registry_{hits,misses}_total``);
    a trailing ``{...}`` is a label list, not part of the name.
    """
    text = DOC.read_text()
    start = text.index("### `GET /metrics`")
    section = text[start : text.index("\n### ", start + 1)]
    names: set[str] = set()
    for token in re.findall(r"repro_[a-z0-9_]*(?:\{[a-z,]+\}[a-z0-9_]+)*", section):
        expanded = [""]
        for literal, group in re.findall(r"([a-z0-9_]*)(?:\{([a-z,]+)\})?", token):
            expanded = [
                prefix + literal + choice
                for prefix in expanded
                for choice in (group.split(",") if group else [""])
            ]
        names.update(expanded)
    return names


@pytest.mark.parametrize("workers", [None, 2], ids=lambda w: f"workers={w}")
def test_documented_metric_list_is_exactly_the_rendered_set(workers):
    """The /metrics section lists every rendered series family and no
    other, in-process and sharded alike."""
    from repro.service import BackgroundServer, ServiceClient

    options = {} if workers is None else {"workers": workers}
    with BackgroundServer(seed=7, server_options=options) as server:
        text = ServiceClient(server.url).metrics_text()
    rendered = set(re.findall(r"^# TYPE (\S+) ", text, re.MULTILINE))
    documented = _documented_metric_names()
    assert rendered - documented == set(), "rendered but undocumented"
    assert documented - rendered == set(), "documented but never rendered"
