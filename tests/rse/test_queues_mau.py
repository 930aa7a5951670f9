"""Input-interface queues (latch delay, squash) and the MAU."""

from repro.memory.bus import FRAMEWORK_TIMING
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.mainmem import MainMemory
from repro.rse.mau import MemoryAccessUnit
from repro.rse.queues import LATCH_DELAY, InputInterface, InputQueue


def test_latch_delay_one_cycle():
    queue = InputQueue("t", depth=4)
    queue.push(10, ("a",))
    assert queue.pop_ready(10) == []          # Table 3: visible next cycle
    assert queue.pop_ready(10 + LATCH_DELAY) == [("a",)]


def test_pop_ready_preserves_order():
    queue = InputQueue("t", depth=8)
    for index in range(5):
        queue.push(index, (index,))
    assert queue.pop_ready(100) == [(i,) for i in range(5)]
    assert queue.pop_ready(100) == []


def test_pop_ready_partial():
    queue = InputQueue("t", depth=8)
    queue.push(0, ("early",))
    queue.push(5, ("late",))
    assert queue.pop_ready(1) == [("early",)]
    assert len(queue) == 1


def test_overflow_drops_oldest_and_counts():
    queue = InputQueue("t", depth=2)
    for index in range(4):
        queue.push(0, (index,))
    assert queue.dropped_overflow == 2
    assert queue.pop_ready(10) == [(2,), (3,)]


def test_discard_predicate():
    queue = InputQueue("t", depth=8)
    for seq in range(6):
        queue.push(0, (seq, "payload"))
    queue.discard(lambda item: item[0] % 2 == 0)
    assert [item[0] for item in queue.pop_ready(10)] == [1, 3, 5]


def test_interface_squash_flushes_all_but_commit():
    interface = InputInterface(depth=16)
    for queue in interface.all_queues():
        queue.push(0, (7, "x"))
        queue.push(0, (8, "y"))
    interface.discard_squashed({7})
    for name in ("fetch_out", "regfile_data", "execute_out", "memory_out"):
        items = getattr(interface, name).pop_ready(10)
        assert [item[0] for item in items] == [8], name
    # Commit_Out keeps everything: squash notifications travel through it.
    assert len(interface.commit_out.pop_ready(10)) == 2


def make_mau():
    memory = MainMemory()
    hierarchy = MemoryHierarchy(FRAMEWORK_TIMING)
    return MemoryAccessUnit(memory, hierarchy), memory


class Sink:
    """Stands in for a module: collects each finished request."""

    def __init__(self):
        self.done = []

    def on_mau_complete(self, request):
        self.done.append(request)


def test_mau_load_roundtrip():
    mau, memory = make_mau()
    memory.store_bytes(0x1000, bytes(range(16)))
    sink = Sink()
    mau.load("m", 0x1000, 16, module=sink)
    for cycle in range(200):
        mau.step(cycle)
    assert [request.result for request in sink.done] == [bytes(range(16))]


def test_mau_store_applies_data():
    mau, memory = make_mau()
    sink = Sink()
    mau.store("m", 0x2000, b"\x42" * 8, module=sink)
    for cycle in range(200):
        mau.step(cycle)
    assert memory.load_bytes(0x2000, 8) == b"\x42" * 8
    assert [request.result for request in sink.done] == [None]


def test_mau_serves_fifo():
    mau, memory = make_mau()
    sink = Sink()
    mau.load("a", 0x0, 8, module=sink, tag="a")
    mau.load("b", 0x100, 8, module=sink, tag="b")
    mau.store("c", 0x200, b"\x01", module=sink, tag="c")
    for cycle in range(500):
        mau.step(cycle)
    assert [request.tag for request in sink.done] == ["a", "b", "c"]


def test_mau_respects_bus_latency():
    mau, memory = make_mau()
    sink = Sink()
    mau.load("m", 0x0, 8, module=sink)
    mau.step(0)          # request accepted, transfer scheduled
    expected = FRAMEWORK_TIMING.transfer_latency(8)
    for cycle in range(1, expected):
        mau.step(cycle)
    assert not sink.done            # still in flight
    mau.step(expected)
    assert sink.done


def test_mau_busy_flag_and_pending():
    mau, __ = make_mau()
    assert not mau.busy
    mau.load("m", 0x0, 8)
    mau.load("m", 0x8, 8)
    assert mau.busy
    mau.step(0)
    assert mau.pending() == 2          # one active + one queued
    for cycle in range(1, 500):
        mau.step(cycle)
    assert not mau.busy


def test_mau_stats():
    mau, memory = make_mau()
    mau.load("m", 0x0, 32)
    mau.store("m", 0x40, b"\x00" * 16)
    for cycle in range(500):
        mau.step(cycle)
    assert mau.requests_total == 2
    assert mau.bytes_loaded == 32
    assert mau.bytes_stored == 16
