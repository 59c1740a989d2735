import pytest

from perfbench.stats import MIN_TAIL, percentile, spread


def test_percentile_is_an_exact_sample_with_its_count():
    samples = [float(v) for v in range(1, 2001)]  # 1..2000
    value, pct, count = percentile(samples, 99)
    assert (value, pct, count) == (1980.0, 99.0, 2000)
    assert percentile(samples, 50) == (1000.0, 50.0, 2000)


def test_percentile_clamps_to_keep_ten_samples_beyond():
    samples = list(range(100))  # p99 would leave one sample beyond
    value, pct, count = percentile(samples, 99)
    assert count == 100
    assert pct == 90.0  # rank 90 of 100: ten samples lie beyond it
    assert value == 89
    beyond = [s for s in samples if s > value]
    assert len(beyond) == MIN_TAIL


def test_percentile_never_reports_a_value_that_was_not_sampled():
    samples = [3.0, 7.5, 100.25] * 50
    for pct in (50, 90, 99):
        assert percentile(samples, pct)[0] in samples


def test_percentile_refuses_too_few_samples():
    assert percentile(list(range(10)), 50) is None
    assert percentile(list(range(11)), 50) == (0, 100 / 11, 11)
    with pytest.raises(ValueError):
        percentile([1.0], 100)


def test_spread_is_interquartile_distance_over_median():
    assert spread([10.0] * 10) == 0.0
    assert spread([8.0, 9.0, 10.0, 11.0, 12.0]) == pytest.approx(3.0 / 10.0)


def test_run_metrics_pool_repetitions_at_the_probes_nominal_speed():
    from perfbench.loadgen import Phase
    from perfbench.probe import NOMINAL_NS
    from perfbench.run import E2E, end_to_end

    # Two windows of 500 samples each (1..500 us and 501..1000 us),
    # once on a host at half speed (the probe reads twice its nominal
    # time) and once at full speed.
    reps = []
    for i, slow in enumerate((2, 1)):
        phase = Phase(ops=1000, probes=[slow * NOMINAL_NS] * 3)
        for w in range(2):
            phase.windows.append(slow * 10**9)
            for series in phase.samples:
                phase.samples[series] += [(v + 500 * w) * slow * 1000
                                          for v in range(1, 501)]
                phase.cuts[series].append(len(phase.samples[series]))
        phase.elapsed_ns = sum(phase.windows)
        reps.append({"phase": phase, "setup": 10.0 + i, "setup_raw": 10.0 * slow,
                     "memory": 500 * (i + 1), "user_bytes": 100})
    values, notes = end_to_end(reps)
    assert set(values) == set(E2E)
    # Scaled, both repetitions read 1..1000 us in 2 s.
    assert values["check_p50_us"] == 500.0
    assert values["check_p99_us"] == 990.0
    assert notes["check_p50_us"] == (
        "pooled n=2000 p50; unscaled per repetition 1000, 500")
    assert values["ops_per_s"] == 500.0
    assert values["setup_s"] == 10.5
    assert values["bytes_per_user_byte"] == 7.5


def test_host_probe_reads_a_positive_time():
    import asyncio

    from perfbench.probe import HostProbe

    async def go():
        probe = await HostProbe.open()
        try:
            return [await probe.measure() for _ in range(3)]
        finally:
            await probe.close()

    assert all(ns > 0 for ns in asyncio.run(go()))
