from perfbench import trace
from perfbench.trace import SpanRecorder, self_times


def test_nested_spans_subtract_children():
    # root [0,100) > a [10,40) > b [20,30);  root > c [50,90)
    starts = [0, 10, 20, 50]
    ends = [100, 40, 30, 90]
    parents = [-1, 0, 1, 0]
    assert self_times(starts, ends, parents) == [30, 20, 10, 40]


def test_adjacent_children_are_each_subtracted_once():
    starts = [0, 10, 20, 30]
    ends = [50, 20, 30, 40]
    parents = [-1, 0, 0, 0]
    assert self_times(starts, ends, parents) == [20, 10, 10, 10]


def test_overlapping_and_unordered_children_count_once():
    # Children overlap [10,30) and [20,40), recorded out of start order;
    # coverage is their union [10,40), and a child is clipped to its
    # parent.
    starts = [0, 20, 10, 45]
    ends = [50, 40, 30, 60]
    parents = [-1, 0, 0, 0]
    assert self_times(starts, ends, parents)[0] == 50 - 30 - 5


def test_recorder_builds_parents_from_the_open_stack():
    rec = SpanRecorder()
    root = rec.open_root("client.op", 7)
    child = rec.open(rec.name_index("server.scan"))
    rec.close(child)
    rec.close(root)
    assert list(rec.parent) == [-1, 0]
    assert list(rec.op) == [7, 7]
    layers = trace.aggregate(rec)
    assert layers["client.op"].count == 1
    assert layers["server.scan"].self_ns == rec.end[1] - rec.start[1]


def test_patches_wrap_and_restore_the_looked_up_attributes():
    from repro.core.server import PequodServer
    from repro.net import protocol

    original_scan = PequodServer.__dict__["scan"]
    original_encode = protocol.encode_request
    rec = SpanRecorder()
    patches = trace.Patches(rec)
    patches.install()
    try:
        assert PequodServer.__dict__["scan"] is not original_scan
        assert protocol.encode_request is not original_encode
        srv = PequodServer()
        srv.put("a|1", "x")
        rec.active = True
        root = rec.open_root("client.op", 0)
        assert srv.scan("a|", "a}") == [("a|1", "x")]
        frame = protocol.encode_request(1, "ping", [])
        rec.close(root)
        rec.active = False
    finally:
        patches.remove()
    assert PequodServer.__dict__["scan"] is original_scan
    assert protocol.encode_request is original_encode
    names = [rec.names[i] for i in rec.name_id]
    assert names.count("server.scan") == 1
    assert names.count("store.scan") == 1
    assert rec.bytes["net.encode_request"] == len(frame)
    scan = names.index("server.scan")
    assert rec.parent[names.index("store.scan")] != -1
    assert rec.parent[scan] == 0


def test_cross_check_flags_silent_wrappers_and_count_mismatches():
    layers = {"server.scan": trace.Layer(count=3)}
    assert trace.cross_check(layers, {"op_scan": 3}, True) == [
        "wrapper executor.validate_range never fired though op_scan moved by 3",
        "wrapper store.scan never fired though op_scan moved by 3",
        "wrapper eviction.maybe_evict never fired though op_scan moved by 3",
    ]
    bad = trace.cross_check(layers, {"op_scan": 4}, True)
    assert bad[0] == "3 server.scan spans but op_scan moved by 4"
