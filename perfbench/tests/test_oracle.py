import asyncio
import dataclasses

from perfbench import trace
from perfbench.loadgen import Runner, deploy, timed_phase, verify
from perfbench.workloads import WORKLOADS, make_inputs


def _inputs(name, **changes):
    w = dataclasses.replace(WORKLOADS[name], users=200, **changes)
    return make_inputs(w, 5)


def _run(coro):
    return asyncio.run(coro)


def test_oracle_accepts_a_correct_cache_and_catches_a_planted_row(tmp_path):
    inputs = _inputs("twip_evict", memory_limit=None)

    async def go():
        dep, _, model = await deploy(inputs, str(tmp_path))
        try:
            phase = await timed_phase(dep, inputs.stream(), model, 400, None)
            assert phase.ops == 400 and phase.failed == 0
            assert await verify(dep.client, model, inputs.graph.users) == []
            user = inputs.graph.users[0]
            dep.server.store.put(f"t|{user}|0000000001|u00001", "planted")
            return await verify(dep.client, model, inputs.graph.users)
        finally:
            await dep.close()

    problems = _run(go())
    assert len(problems) == 1
    assert problems[0].startswith(f"timeline {inputs.graph.users[0]}:")
    assert "planted" in problems[0]


def test_write_around_visibility_waits_for_the_barrier(tmp_path):
    inputs = _inputs("write_around")

    async def go():
        dep, _, model = await deploy(inputs, str(tmp_path))
        try:
            phase = await timed_phase(dep, inputs.stream(), model, 400, 16)
            return phase, await verify(dep.client, model, inputs.graph.users)
        finally:
            await dep.close()

    phase, problems = _run(go())
    assert problems == []
    assert phase.barriers >= phase.ops // 16
    writes = len(phase.samples["write"]) + len(phase.samples["batch"])
    assert len(phase.samples["visible"]) == writes
    # A write becomes visible no sooner than its own call returns.
    assert min(phase.samples["visible"]) >= min(phase.samples["write"])


def test_traced_window_spans_agree_with_server_counters(tmp_path):
    inputs = _inputs("fanout_write")

    async def go():
        rec = trace.SpanRecorder()
        patches = trace.Patches(rec)
        patches.install()
        try:
            dep, _, model = await deploy(inputs, str(tmp_path))
            runner = Runner(dep, inputs.stream(), model, None)
            before = await dep.client.stats()
            rec.active = True
            await runner.run(400, rec)
            phase = await runner.finish(rec)
            rec.active = False
            after = await dep.client.stats()
            await dep.close()
        finally:
            patches.remove()
        return rec, phase, trace.counter_delta(before, after)

    rec, phase, delta = _run(go())
    layers = trace.aggregate(rec)
    assert trace.cross_check(layers, delta, True) == []
    assert layers["client.op"].count == phase.ops
    assert layers["persist.log_put"].count + layers["persist.log_ops"].count == phase.writes
    metrics = trace.layer_metrics(rec, layers, delta, phase, phase.ops_per_s, 1)
    assert set(metrics) == set(trace.LAYER_METRICS)
    assert metrics["executor.outputs_installed_per_write"] > 0
    # Self times partition each client op: they sum to the root spans.
    roots = sum(rec.end[i] - rec.start[i] for i in range(len(rec)) if rec.parent[i] < 0)
    assert sum(layer.self_ns for layer in layers.values()) == roots
