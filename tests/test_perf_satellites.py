"""Satellite optimizations: route memoization, the bounded applied-reply
cache (watermark + LRU backstop), finished QRPCs freed on delivery, and
the marshal fast path."""

from __future__ import annotations

import gc
import weakref
from collections import OrderedDict

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.net.link import ETHERNET_10M, IntervalTrace
from repro.net.message import Premarshalled, marshal, marshalled_size, unmarshal
from repro.testbed import build_multi_client_testbed, build_testbed
from tests.conftest import make_note


def _counter_total(bed, name: str) -> int:
    metric = bed.obs.registry.get(name)
    if metric is None:
        return 0
    return int(sum(child.value for __, child in metric.children()))


# -- route memoization -------------------------------------------------------


def test_best_route_is_memoized_per_destination():
    bed = build_testbed(link_spec=ETHERNET_10M)
    scheduler = bed.scheduler
    first = scheduler._best_route(bed.server_host)
    assert first is not None
    assert (bed.server_host.name, None) in scheduler._route_cache
    # The memo answers the repeat lookup (same object, no re-scan).
    assert scheduler._best_route(bed.server_host) is first


def test_route_cache_invalidated_on_link_transition():
    bed = build_testbed(
        link_spec=ETHERNET_10M,
        policy=IntervalTrace([(0.0, 10.0), (20.0, 1e9)]),
    )
    scheduler = bed.scheduler
    assert scheduler._best_route(bed.server_host) is not None
    bed.sim.run(until=15.0)  # the down transition cleared the cache
    assert scheduler._route_cache == {}
    assert scheduler._best_route(bed.server_host) is None  # miss cached too
    assert scheduler._route_cache[(bed.server_host.name, None)] is None
    bed.sim.run(until=25.0)  # the up transition cleared it again
    assert (bed.server_host.name, None) not in scheduler._route_cache
    assert scheduler._best_route(bed.server_host) is not None


def test_add_route_invalidates_the_cache():
    bed = build_testbed(link_spec=ETHERNET_10M)
    scheduler = bed.scheduler
    scheduler._best_route(bed.server_host)
    assert scheduler._route_cache

    class _NullRoute:
        kind = None
        quality = -1.0

        def available(self, dst):
            return False

    scheduler.add_route(_NullRoute())
    assert scheduler._route_cache == {}


# -- bounded applied-reply cache ---------------------------------------------


def _run_sequential_invokes(bed, note, n: int) -> None:
    session = bed.access.create_session("s")
    bed.access.import_(note.urn, session)
    bed.sim.run()
    for i in range(n):
        bed.access.invoke_remote(note.urn, "set_text", [f"v{i}"], session=session)
        bed.sim.run()


def test_watermark_prunes_settled_applied_replies():
    bed = build_testbed(link_spec=ETHERNET_10M)
    note = make_note()
    bed.server.put_object(note)
    _run_sequential_invokes(bed, note, 10)
    # Every mutating invoke left an at-most-once entry; the ackw
    # watermark on later envelopes pruned the settled ones.
    assert bed.server.applied_pruned > 0
    assert len(bed.server._applied) < 10


def test_lru_cap_backstops_the_applied_cache():
    bed = build_testbed(link_spec=ETHERNET_10M)
    note = make_note()
    bed.server.put_object(note)
    bed.server.applied_cache_cap = 3
    _run_sequential_invokes(bed, note, 10)
    assert len(bed.server._applied) <= 3


def test_watermark_ignores_other_clients_ids():
    bed = build_testbed(link_spec=ETHERNET_10M)
    bed.server._record_reply("other-host+1/5", {"status": "ok"})
    bed.server._observe_watermark({"ackw": ["client+1", 100]})
    assert "other-host+1/5" in bed.server._applied


def test_stale_watermark_does_not_regress():
    bed = build_testbed(link_spec=ETHERNET_10M)
    server = bed.server
    server._observe_watermark({"ackw": ["client+1", 50]})
    server._record_reply("client+1/10", {"status": "ok"})
    # A reordered older envelope must not resurrect pruning state.
    server._observe_watermark({"ackw": ["client+1", 5]})
    assert "client+1/10" in server._applied
    server._observe_watermark({"ackw": ["client+1", 51]})
    assert "client+1/10" not in server._applied


@pytest.mark.parametrize("ackw", [["client+1", "x"], ["client+1", None]])
def test_malformed_watermark_does_not_fail_the_request(ackw):
    server = build_testbed(link_spec=ETHERNET_10M).server
    note = make_note()
    server.put_object(note)
    urn = str(note.urn)
    source = ("client", 0)
    exported = server._on_export(
        {"urn": urn, "base_version": 1, "data": {"text": "A"},
         "request_id": "client+1/0", "ackw": ackw},
        source,
    )
    assert exported["status"] == "committed"
    invoked = server._on_invoke(
        {"urn": urn, "method": "set_text", "args": ["B"],
         "request_id": "client+1/1", "ackw": ackw},
        source,
    )
    assert invoked.body["status"] == "ok"
    assert server.get_object(urn).data["text"] == "B"


class _FullScanReplyCache:
    """Reference at-most-once cache: every watermark walks every entry."""

    def __init__(self, cap: int) -> None:
        self.applied: OrderedDict[str, dict] = OrderedDict()
        self.watermarks: dict[str, int] = {}
        self.cap = cap
        self.pruned = 0
        self.duplicates = 0

    @staticmethod
    def _split(request_id: str):
        head, sep, tail = request_id.rpartition("/")
        if not sep:
            return None
        try:
            return head, int(tail)
        except ValueError:
            return None

    def cached_reply(self, request_id: str):
        reply = self.applied.get(request_id)
        if reply is not None:
            self.applied.move_to_end(request_id)
            self.duplicates += 1
            return reply
        parsed = self._split(request_id)
        if parsed is not None and parsed[1] < self.watermarks.get(parsed[0], -1):
            self.duplicates += 1
            return {"status": "duplicate", "request_id": request_id}
        return None

    def record_reply(self, request_id: str, reply: dict) -> None:
        self.applied[request_id] = reply
        self.applied.move_to_end(request_id)
        while len(self.applied) > self.cap:
            self.applied.popitem(last=False)
            self.pruned += 1

    def observe_watermark(self, body) -> None:
        ackw = body.get("ackw")
        if not isinstance(ackw, list) or len(ackw) != 2:
            return
        try:
            watermark = int(ackw[1])
        except (TypeError, ValueError):
            return
        prefix = str(ackw[0])
        if self.watermarks.get(prefix, -1) >= watermark:
            return
        self.watermarks[prefix] = watermark
        stale = []
        for request_id in self.applied:
            parsed = self._split(request_id)
            if parsed is not None and parsed[0] == prefix and parsed[1] < watermark:
                stale.append(request_id)
        for request_id in stale:
            del self.applied[request_id]
        self.pruned += len(stale)


_PREFIXES = ["a+1", "b+1", "x/y+1"]
_REQUEST_IDS = [f"{p}/{n}" for p in _PREFIXES for n in range(6)] + [
    "bare", "a+1/zz", "/3",
]
_WATERMARKS = [
    [prefix, counter]
    for prefix in _PREFIXES + ["foreign+9"]
    for counter in [-1, 0, 1, 2, 3, 4, 5, 6, "x", None]
] + [None, "a+1/3", ["a+1"], ["a+1", 2, 3]]


class IndexedReplyCacheMachine(RuleBasedStateMachine):
    """The prefix-indexed server cache against the full-scan reference."""

    def __init__(self) -> None:
        super().__init__()
        self.server = build_testbed(link_spec=ETHERNET_10M).server
        self.server.applied_cache_cap = 4
        self.model = _FullScanReplyCache(cap=4)
        self.replies = 0

    @rule(request_id=st.sampled_from(_REQUEST_IDS))
    def record(self, request_id):
        self.replies += 1
        reply = {"status": "ok", "n": self.replies}
        self.server._record_reply(request_id, reply)
        self.model.record_reply(request_id, reply)

    @rule(request_id=st.sampled_from(_REQUEST_IDS))
    def lookup(self, request_id):
        assert self.server._cached_reply(request_id) == self.model.cached_reply(
            request_id
        )

    @rule(ackw=st.sampled_from(_WATERMARKS))
    def watermark(self, ackw):
        self.server._observe_watermark({"ackw": ackw})
        self.model.observe_watermark({"ackw": ackw})

    @rule(cap=st.integers(min_value=1, max_value=6))
    def resize(self, cap):
        self.server.applied_cache_cap = cap
        self.model.cap = cap

    @rule(rejoin=st.booleans())
    def lose_volatile_state(self, rejoin):
        if rejoin:
            self.server.merge_subset({}, [])
        else:
            self.server.restore(self.server.snapshot())
        self.model.applied.clear()

    @invariant()
    def matches_reference(self):
        server = self.server
        assert list(server._applied.items()) == list(self.model.applied.items())
        assert server.applied_pruned == self.model.pruned
        assert server.duplicates_suppressed == self.model.duplicates


TestIndexedReplyCache = IndexedReplyCacheMachine.TestCase
TestIndexedReplyCache.settings = settings(
    max_examples=100, stateful_step_count=40, deadline=None
)


# -- per-op state freed on completion ----------------------------------------


def test_completed_qrpcs_leave_nothing_behind():
    bed = build_multi_client_testbed(3, link_spec=ETHERNET_10M)
    notes = [make_note(path=f"notes/n{i}") for i in range(len(bed.clients))]
    for note in notes:
        bed.server.put_object(note)
    # QueuedMessage is slotted and cannot be weakly referenced; its
    # per-QRPC failure callback is held only through it.
    callbacks = []
    for client in bed.clients:
        submit = client.scheduler.submit

        def tracking_submit(*args, _submit=submit, **kwargs):
            message = _submit(*args, **kwargs)
            callbacks.append(weakref.ref(message.on_failed))
            return message

        client.scheduler.submit = tracking_submit
    gc.collect()
    gc.disable()
    try:
        for client, note in zip(bed.clients, notes):
            session = client.access.create_session("s")
            client.access.import_(note.urn, session)
            client.access.invoke_remote(note.urn, "set_text", ["v"], session=session)
        bed.sim.run()
        assert all(client.access.pending_count() == 0 for client in bed.clients)
        assert [len(link._inflight) for link in bed.network.links] == [0, 0, 0]
        # Reference counting alone reclaimed every finished QRPC: no
        # cycle through a delivered transfer keeps it alive.
        assert len(callbacks) == 6
        assert all(ref() is None for ref in callbacks)
    finally:
        gc.enable()


# -- marshal fast path -------------------------------------------------------


def test_premarshalled_encodes_identically():
    body = {"urn": "urn:server:notes/n1", "args": {"x": [1, True, "s"]},
            "nested": {"k": b"\x00\x01"}}
    pre = Premarshalled(body)
    assert marshal(pre) == marshal(body)
    assert marshalled_size(pre) == marshalled_size(body)
    assert unmarshal(marshal(pre)) == body


def test_premarshalled_splices_inside_containers():
    body = {"inner": 1}
    wrapped = {"head": 0, "body": Premarshalled(body), "tail": 2}
    plain = {"head": 0, "body": body, "tail": 2}
    assert marshal(wrapped) == marshal(plain)


def test_premarshalled_still_reads_like_a_dict():
    pre = Premarshalled({"a": 1, "b": 2})
    assert pre["a"] == 1
    assert pre.get("b") == 2
    assert pre.get("missing") is None
    assert list(pre) == ["a", "b"]


def test_marshal_cache_hits_counted_on_the_wire_path():
    bed = build_testbed(link_spec=ETHERNET_10M)
    note = make_note()
    bed.server.put_object(note)
    session = bed.access.create_session("s")
    bed.access.import_(note.urn, session)
    bed.sim.run()
    # Every QRPC envelope is premarshalled once and reused by the
    # transport: submit/size/transmit share the cached bytes.
    assert _counter_total(bed, "marshal_cache_hits_total") > 0
