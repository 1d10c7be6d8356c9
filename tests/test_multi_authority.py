"""Multiple home servers: one access manager, several authorities.

Rover names objects by home-server authority; a mobile client can work
against several servers at once (mail here, calendar there), with one
cache, one log, and one scheduler multiplexing over per-destination
links.
"""

import pytest

from repro.core.access_manager import AccessManager
from repro.core.object_cache import ObjectCache
from repro.core.operation_log import OperationLog
from repro.core.server import RoverServer
from repro.net.link import CSLIP_14_4, ETHERNET_10M, IntervalTrace
from repro.net.scheduler import NetworkScheduler
from repro.net.simnet import Network
from repro.net.transport import Transport
from repro.sim import Simulator
from tests.conftest import make_note


def make_two_authority_world():
    sim = Simulator()
    net = Network(sim)
    client = net.host("client")
    mail_host = net.host("mailhost")
    cal_host = net.host("calhost")
    net.connect(client, mail_host, ETHERNET_10M)
    # The calendar server is only reachable intermittently.
    net.connect(client, cal_host, CSLIP_14_4, IntervalTrace([(0.0, 5.0), (100.0, 1e9)]))
    tc = Transport(sim, client)
    mail_server = RoverServer(sim, Transport(sim, mail_host), "mailhost")
    cal_server = RoverServer(sim, Transport(sim, cal_host), "calhost")
    scheduler = NetworkScheduler(sim, tc)
    access = AccessManager(
        sim,
        scheduler,
        servers={"mailhost": mail_host, "calhost": cal_host},
        cache=ObjectCache(clock=lambda: sim.now),
        log=OperationLog(),
    )
    return sim, access, mail_server, cal_server


def test_imports_route_to_the_right_authority():
    sim, access, mail_server, cal_server = make_two_authority_world()
    mail_note = make_note(authority="mailhost", path="mail/inbox")
    cal_note = make_note(authority="calhost", path="calendar/group")
    mail_server.put_object(mail_note)
    cal_server.put_object(cal_note)

    mail_rdo = access.import_(mail_note.urn).wait(sim)
    cal_rdo = access.import_(cal_note.urn).wait(sim, timeout=30)
    assert mail_rdo.urn.authority == "mailhost"
    assert cal_rdo.urn.authority == "calhost"
    assert mail_server.imports_served == 1
    assert cal_server.imports_served == 1


def test_one_authoritys_outage_does_not_block_the_other():
    sim, access, mail_server, cal_server = make_two_authority_world()
    mail_note = make_note(authority="mailhost", path="mail/inbox")
    cal_note = make_note(authority="calhost", path="calendar/group")
    mail_server.put_object(mail_note)
    cal_server.put_object(cal_note)

    sim.run(until=10.0)  # calhost link is now down; mailhost link fine
    cal_promise = access.import_(cal_note.urn)
    mail_promise = access.import_(mail_note.urn)
    sim.run(until=20.0)
    assert mail_promise.ready      # served despite calhost outage
    assert not cal_promise.is_done  # queued for reconnection
    sim.run(until=200.0)
    assert cal_promise.ready


def test_exports_commit_at_their_own_home_servers():
    sim, access, mail_server, cal_server = make_two_authority_world()
    mail_note = make_note(authority="mailhost", path="mail/inbox")
    cal_note = make_note(authority="calhost", path="calendar/group")
    mail_server.put_object(mail_note)
    cal_server.put_object(cal_note)
    access.import_(mail_note.urn).wait(sim)
    access.import_(cal_note.urn).wait(sim, timeout=30)

    access.invoke(str(mail_note.urn), "set_text", "mail edit")
    access.invoke(str(cal_note.urn), "set_text", "cal edit")
    access.drain(timeout=300)
    assert mail_server.get_object(str(mail_note.urn)).data == {"text": "mail edit"}
    assert cal_server.get_object(str(cal_note.urn)).data == {"text": "cal edit"}
    assert mail_server.exports_committed == 1
    assert cal_server.exports_committed == 1


def test_unknown_authority_rejected():
    sim, access, mail_server, cal_server = make_two_authority_world()
    from repro.core.access_manager import AccessManagerError

    with pytest.raises(AccessManagerError, match="no home server"):
        access.import_("urn:rover:nowhere/x")
