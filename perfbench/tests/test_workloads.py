import dataclasses
import itertools
import json
import os

import pytest

from perfbench.workloads import BATCH_SIZE, WORKLOADS, make_inputs


def _small(name):
    return dataclasses.replace(WORKLOADS[name], users=300)


def _ops(inputs, n=2000):
    return list(itertools.islice(inputs.stream(), n))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_the_same_inputs(name):
    w = _small(name)
    a, b = make_inputs(w, 7), make_inputs(w, 7)
    assert a.graph.edges == b.graph.edges
    assert a.posts == b.posts
    assert _ops(a) == _ops(b)
    # A fresh stream replays from its first op.
    assert _ops(a, 50) == _ops(a, 50)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_other_seed_draws_another_stream_over_the_same_data(name):
    w = _small(name)
    a, b = make_inputs(w, 7), make_inputs(w, 8)
    assert a.graph.edges == b.graph.edges
    assert a.posts == b.posts
    assert _ops(a) != _ops(b)


def test_posters_are_dealt_in_proportion_to_their_weight():
    from collections import Counter

    from perfbench.workloads import DECK, POST_BATCH, post_weights

    inputs = make_inputs(_small("fanout_write"), 7)
    stream = inputs.stream()
    dealt = Counter(stream.poster(POST_BATCH) for _ in range(DECK))
    cum = post_weights(inputs.graph)
    for user in inputs.graph.users:
        share = inputs.graph.post_weight(user) / cum[-1] * DECK
        assert share - 1 < dealt[user] < share + 1


def test_only_write_around_has_barriers():
    assert {name: w.settle_every for name, w in WORKLOADS.items()} == {
        "twip_rpc": None, "fanout_write": None, "write_around": 16, "twip_evict": None}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_stream_sends_every_reported_op_type(name):
    ops = _ops(make_inputs(_small(name), 3), 5000)
    kinds = {(op[0], op[1]) if op[0] != "batch" else ("batch",) for op in ops}
    assert {("read", "check"), ("read", "login"), ("batch",)} <= kinds
    assert any(k[0] == "write" for k in kinds)
    for op in ops:
        if op[0] == "batch":
            assert len(op[1]) == BATCH_SIZE
            assert len({key for key, _ in op[1]}) == BATCH_SIZE


def test_post_keys_are_unique_and_time_ordered():
    ops = _ops(make_inputs(_small("fanout_write"), 1), 3000)
    keys = [op[2] for op in ops if op[0] == "write"]
    keys += [key for op in ops if op[0] == "batch" for key, _ in op[1]]
    ticks = [int(k.rsplit("|", 1)[1]) for k in keys]
    assert len(set(ticks)) == len(ticks)


def test_benchmark_json_names_the_workloads_and_metrics():
    from perfbench.run import E2E, PRINTED_ONLY
    from perfbench.trace import LAYER_METRICS

    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == {
        name: spec[0] for name, spec in E2E.items() if name not in PRINTED_ONLY}
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == LAYER_METRICS
