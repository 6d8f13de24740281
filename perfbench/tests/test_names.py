"""Names in BENCHMARK.json agree with what the benchmark prints."""

import json
import re
from pathlib import Path

import layers
import loadgen
import workloads

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SPEC = json.loads((Path(__file__).resolve().parents[2]
                   / "BENCHMARK.json").read_text())


def test_every_name_is_well_formed():
    names = ([w["name"] for w in SPEC["workloads"]]
             + [m["name"] for m in SPEC["end_to_end"]]
             + [m["name"] for m in SPEC["per_layer"]]
             + list(workloads.WORKLOADS) + list(layers.PER_LAYER))
    bad = [name for name in names if not NAME.match(name)]
    assert not bad


def test_workloads_match():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_per_layer_metrics_match():
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        layers.PER_LAYER


def test_end_to_end_metrics_match_every_workload():
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    outcome = _outcome()
    run = workloads.Run([outcome], elapsed=1.0, polls=[_poll(outcome)])
    for workload in workloads.WORKLOADS.values():
        produced = workload.end_to_end(run)
        produced["setup_s"] = workloads.metric(1.0, "s")
        produced["server_rss_mb"] = workloads.metric(1.0, "MB")
        assert {k: v["unit"] for k, v in produced.items()} == expected


def _outcome():
    request = loadgen.Request(0.0, "POST", "/v1/topk",
                              {"points": [[0, 1, 0.0, 0.0, 0.0]]},
                              tag="topk")
    return loadgen.Outcome(request, 0, 0, 0.0, 0.0, 0.01, 200,
                           {"accepted": 1})


def _poll(after):
    request = loadgen.Request(0.0, "GET", "/v1/stream", tag="poll")
    return loadgen.Outcome(request, 1, 0, after.done, after.done,
                           after.done + 0.01, 200,
                           {"dirty_segments": 0, "inflight_encodes": 0})


def test_fixed_tail_percentiles_keep_ten_samples_beyond():
    seconds = SPEC["run_seconds"]
    sharded = workloads.WORKLOADS["sharded_mixed"]
    tags = [r.tag for r in sharded.schedule(1, seconds)
            if r.due < seconds]
    queries = sum(t.startswith("topk") for t in tags)
    assert sharded.tail_pct == (
        loadgen.tail_percentile(queries),
        loadgen.tail_percentile(len(tags) - queries))
    ingest = workloads.WORKLOADS["ingest_stream"]
    batches = sum(r.due < seconds for r in ingest.schedule(1, seconds))
    assert ingest.tail_pct[0] == loadgen.tail_percentile(batches)
