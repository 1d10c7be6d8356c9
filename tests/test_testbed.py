"""Testbed builder tests."""

from repro.net.link import CSLIP_14_4, ETHERNET_10M, AlwaysDown
from repro.storage.stable_log import FlushModel
from repro.testbed import build_multi_client_testbed, build_testbed
from tests.conftest import make_note


def test_basic_testbed_wiring():
    bed = build_testbed()
    assert bed.authority == "server"
    assert bed.link.is_up
    assert bed.access.servers == {"server": bed.server_host}
    assert bed.client_host.name == "client"


def test_custom_flush_model_applied():
    bed = build_testbed(flush_model=FlushModel.free())
    note = make_note()
    bed.server.put_object(note)
    bed.access.import_(note.urn).wait(bed.sim)
    assert bed.access.flush_seconds_total == 0.0


def test_relay_wiring():
    bed = build_testbed(policy=AlwaysDown(), with_relay=True)
    assert bed.relay is not None
    assert bed.client_mailbox is not None
    # The relay watches each of its links exactly once.
    relay_links = bed.relay_host.links
    assert len(relay_links) == 2
    for link in relay_links:
        assert link._listeners.count(bed.relay._on_link_transition) == 1
    note = make_note()
    bed.server.put_object(note)
    rdo = bed.access.import_(note.urn).wait(bed.sim, timeout=600)
    assert rdo.data == {"text": "hello"}
    assert bed.relay.accepted >= 1


def test_fifo_only_flag_propagates():
    bed = build_testbed(fifo_only=True)
    assert bed.scheduler.fifo_only


def test_multi_client_independent_stacks():
    bed = build_multi_client_testbed(3)
    assert len(bed.clients) == 3
    names = {client.host.name for client in bed.clients}
    assert names == {"client0", "client1", "client2"}
    note = make_note()
    bed.server.put_object(note)
    promises = [client.access.import_(note.urn) for client in bed.clients]
    bed.sim.run()
    assert all(p.ready for p in promises)
    # Caches are private per client.
    for client in bed.clients:
        assert len(client.access.cache) == 1


def test_multi_client_per_client_policies():
    bed = build_multi_client_testbed(
        2, policies=[None, AlwaysDown()]
    )
    assert bed.clients[0].link.is_up
    assert not bed.clients[1].link.is_up
