"""Live-mode tests: the same toolkit over real localhost sockets.

These run with real threads and wall-clock time, so they assert
*outcomes* (state converged, callbacks fired) with generous timeouts —
never precise timings (that is the simulator's job).
"""

import pytest

from repro.core.conflict import FieldwiseMerge, ResolverRegistry
from repro.live import LiveClient, LiveServer
from repro.live.clock import RealTimeClock
from tests.conftest import make_note

TIMEOUT = 15.0


@pytest.fixture
def live_world():
    server = LiveServer("server")
    client = LiveClient("laptop", servers={"server": server.address})
    yield server, client
    client.close()
    server.close()
    assert client.clock.errors == [], client.clock.errors
    assert server.clock.errors == [], server.clock.errors


class TestClock:
    def test_schedule_runs_on_loop_thread(self):
        clock = RealTimeClock()
        try:
            import threading

            seen = {}

            def record():
                seen["thread"] = threading.current_thread().name

            clock.schedule(0.01, record)
            assert clock.run_until(lambda: "thread" in seen, timeout=5.0)
            assert seen["thread"] == "rover-loop"
        finally:
            clock.close()

    def test_cancelled_timer_does_not_fire(self):
        clock = RealTimeClock()
        try:
            fired = []
            timer = clock.schedule(0.05, fired.append, 1)
            timer.cancel()
            clock.schedule(0.1, fired.append, 2)
            assert clock.run_until(lambda: 2 in fired, timeout=5.0)
            assert 1 not in fired
        finally:
            clock.close()

    def test_callback_crash_is_captured_not_fatal(self):
        clock = RealTimeClock()
        try:
            def boom():
                raise RuntimeError("callback bug")

            clock.schedule(0.0, boom)
            survived = []
            clock.schedule(0.05, survived.append, 1)
            assert clock.run_until(lambda: survived, timeout=5.0)
            assert clock.errors and "callback bug" in clock.errors[0]
            clock.errors.clear()
        finally:
            clock.close()

    def test_run_until_from_loop_thread_rejected(self):
        clock = RealTimeClock()
        try:
            outcome = {}

            def bad():
                try:
                    clock.run_until(lambda: True, timeout=0.1)
                except RuntimeError as exc:
                    outcome["error"] = str(exc)

            clock.schedule(0.0, bad)
            assert clock.run_until(lambda: "error" in outcome, timeout=5.0)
            assert "deadlock" in outcome["error"]
        finally:
            clock.close()


class TestLiveRoundTrips:
    def test_import_invoke_export_cycle(self, live_world):
        server, client = live_world
        note = make_note()
        server.put_object(note)
        promise = client.access.import_(note.urn)
        assert client.clock.run_until(lambda: promise.is_done, timeout=TIMEOUT)
        assert promise.ready
        assert promise.value.data == {"text": "hello"}

        client.access.invoke(str(note.urn), "set_text", "live edit")
        assert client.clock.run_until(
            lambda: client.access.pending_count() == 0, timeout=TIMEOUT
        )
        assert server.get_object(str(note.urn)).data == {"text": "live edit"}
        assert not client.access.cache.peek(str(note.urn)).tentative

        # The cache and the stable log report into the client's own
        # registry, labelled with the client's name.
        snapshot = client.scheduler.obs.registry.snapshot()
        assert snapshot['cache_misses_total{owner=laptop}'] >= 1
        assert snapshot['stable_log_appends{owner=laptop}'] >= 2
        assert snapshot['stable_log_flushes{owner=laptop}'] >= 1

    def test_cache_hits_avoid_the_network(self, live_world):
        server, client = live_world
        note = make_note()
        server.put_object(note)
        first = client.access.import_(note.urn)
        assert client.clock.run_until(lambda: first.is_done, timeout=TIMEOUT)
        served = server.server.imports_served
        again = client.access.import_(note.urn)
        assert client.clock.run_until(lambda: again.is_done, timeout=TIMEOUT)
        assert server.server.imports_served == served

    def test_ship_executes_server_side(self, live_world):
        server, client = live_world
        server.put_object(make_note(path="notes/a", text="xy"))
        server.put_object(make_note(path="notes/b", text="z"))
        code = (
            "def main():\n"
            "    total = 0\n"
            "    for key in objects('urn:rover:server/notes/'):\n"
            "        total = total + len(lookup(key)['text'])\n"
            "    return total\n"
        )
        promise = client.access.ship("server", code)
        assert client.clock.run_until(lambda: promise.is_done, timeout=TIMEOUT)
        assert promise.result() == 3

    def test_missing_object_rejects(self, live_world):
        server, client = live_world
        promise = client.access.import_("urn:rover:server/absent")
        assert client.clock.run_until(lambda: promise.is_done, timeout=TIMEOUT)
        assert promise.failed


class TestLiveDisconnection:
    def test_queued_while_server_down_drains_when_it_returns(self):
        """The QRPC story over real sockets: the server process is not
        running when the client queues; work completes when a server
        appears at the same port."""
        # Reserve a port by starting and closing a throwaway server.
        probe = LiveServer("server")
        address = probe.address
        port = address.port
        probe.close()

        client = LiveClient(
            "laptop", servers={"server": address},
            call_timeout=0.5, max_attempts=30,
        )
        try:
            note = make_note()
            promise = client.access.import_(note.urn)
            # Connection refused -> retransmission with backoff.
            assert client.clock.run_until(
                lambda: client.scheduler.retransmissions >= 1, timeout=TIMEOUT
            )
            assert not promise.is_done

            revived = LiveServer("server", port=port)
            try:
                revived.put_object(note)
                assert client.clock.run_until(
                    lambda: promise.is_done, timeout=TIMEOUT
                )
                assert promise.ready
                assert promise.value.data == {"text": "hello"}
            finally:
                revived.close()
        finally:
            client.close()

    def test_terminal_failure_through_the_shared_scheduler(self):
        """Nothing ever listens: the NetworkScheduler retransmits once,
        then fails terminally, and every callback runs on the loop."""
        import threading

        from repro.core.notification import EventType
        from repro.net.scheduler import NetworkScheduler

        probe = LiveServer("server")
        address = probe.address
        probe.close()

        client = LiveClient(
            "laptop", servers={"server": address},
            call_timeout=0.5, max_attempts=2,
        )
        threads = []

        def record(*__):
            threads.append(threading.current_thread())

        try:
            assert isinstance(client.scheduler, NetworkScheduler)
            client.access.notifications.subscribe(EventType.REQUEST_SENT, record)
            client.access.notifications.subscribe(EventType.REQUEST_FAILED, record)
            promise = client.access.import_(make_note().urn).on_failure(record)
            assert client.clock.run_until(lambda: promise.is_done, timeout=TIMEOUT)
            assert promise.failed
            assert client.access.notifications.count(EventType.REQUEST_FAILED) == 1
            assert client.scheduler.failed == 1
            assert client.scheduler.retransmissions == 1
            assert client.scheduler.idle()
            assert len(threads) == 3  # sent, failed, promise rejection
            assert {thread.name for thread in threads} == {"laptop-loop"}
        finally:
            client.close()
        assert client.clock.errors == [], client.clock.errors

    def test_conflict_resolution_over_live_sockets(self):
        registry = ResolverRegistry()
        registry.register("note", FieldwiseMerge())
        server = LiveServer("server", resolvers=registry)
        a = LiveClient("alice", servers={"server": server.address})
        b = LiveClient("bob", servers={"server": server.address})
        try:
            note = make_note()
            note.data = {"a": 1, "b": 2}
            server.put_object(note)
            pa = a.access.import_(note.urn)
            pb = b.access.import_(note.urn)
            assert a.clock.run_until(lambda: pa.is_done and pb.is_done, timeout=TIMEOUT)
            # Disjoint field edits exported concurrently.
            a.access.cache.peek(str(note.urn)).rdo.data["a"] = 10
            a.access.cache.mark_tentative(str(note.urn))
            a.access.export(str(note.urn))
            b.access.cache.peek(str(note.urn)).rdo.data["b"] = 20
            b.access.cache.mark_tentative(str(note.urn))
            b.access.export(str(note.urn))
            assert a.clock.run_until(
                lambda: a.access.pending_count() == 0
                and b.access.pending_count() == 0,
                timeout=TIMEOUT,
            )
            assert server.get_object(str(note.urn)).data == {"a": 10, "b": 20}
        finally:
            a.close()
            b.close()
            server.close()


class TestFraming:
    def test_frame_roundtrip_over_socketpair(self):
        import socket

        from repro.live.transport import _recv_frame, _send_frame

        a, b = socket.socketpair()
        try:
            _send_frame(a, b"hello frame")
            assert _recv_frame(b) == b"hello frame"
            _send_frame(a, b"")
            assert _recv_frame(b) == b""
        finally:
            a.close()
            b.close()

    def test_oversized_frame_rejected(self):
        import socket
        import struct

        from repro.live.transport import MAX_FRAME, _recv_frame

        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack(">I", MAX_FRAME + 1))
            with pytest.raises(ConnectionError, match="exceeds limit"):
                _recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_peer_close_mid_frame_detected(self):
        import socket
        import struct

        from repro.live.transport import _recv_frame

        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack(">I", 100) + b"only-part")
            a.close()
            with pytest.raises(ConnectionError, match="closed mid-frame"):
                _recv_frame(b)
        finally:
            b.close()

    def test_garbage_connection_does_not_kill_server(self, live_world):
        """A client sending junk bytes must not wedge the listener."""
        import socket

        server, client = live_world
        note = make_note()
        server.put_object(note)
        with socket.create_connection(
            (server.address.host, server.address.port), timeout=5.0
        ) as sock:
            sock.sendall(b"\x00\x00\x00\x04junk")
        # The server still answers real requests afterwards.
        promise = client.access.import_(note.urn)
        assert client.clock.run_until(lambda: promise.is_done, timeout=TIMEOUT)
        assert promise.ready
