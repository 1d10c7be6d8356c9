"""Scenario builders — one-call setup of paper-style testbeds.

Shared by the tests, the benchmarks, and the examples so they all
measure the same configuration: a mobile client and a home server
joined by one of the paper's four links (plus optional SMTP relay),
with the full Rover stack wired on both sides.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.core.access_manager import AccessManager
from repro.core.conflict import ResolverRegistry
from repro.core.object_cache import ObjectCache
from repro.core.operation_log import OperationLog
from repro.core.server import RoverServer
from repro.net.link import ConnectivityPolicy, LinkSpec, ETHERNET_10M
from repro.net.scheduler import NetworkScheduler
from repro.net.simnet import Host, Link, Medium, Network
from repro.net.smtp import MailRelay, Mailbox, MailRoute, MailRpcEndpoint
from repro.net.transport import Transport
from repro.obs import Observatory, active_capture
from repro.perf.compact import Compactor
from repro.sim import Simulator
from repro.storage.stable_log import (
    FileLogBackend,
    FlushModel,
    GroupCommitPolicy,
    MemoryLogBackend,
    StableLog,
)


def default_compactor() -> Compactor:
    """A compactor loaded with every bundled app's compaction rules."""
    from repro.apps.calendar import register_calendar_compaction
    from repro.apps.mail import register_mail_compaction
    from repro.apps.webproxy import register_webproxy_compaction

    compactor = Compactor()
    register_mail_compaction(compactor)
    register_calendar_compaction(compactor)
    register_webproxy_compaction(compactor)
    return compactor


def build_client_access(
    sim: Simulator,
    scheduler: NetworkScheduler,
    servers: dict,
    obs: Observatory,
    cache_capacity: int = 8 * 1024 * 1024,
    flush_model: Optional[FlushModel] = None,
    backend: Optional[MemoryLogBackend | FileLogBackend] = None,
    **options: Any,
) -> AccessManager:
    """Wire one client's object cache, stable log, operation log and
    access manager, in that order, so every metrics registry fills the
    same way.  Metric series carry the scheduler host's name as owner;
    ``options`` go to :class:`AccessManager`.
    """
    owner = scheduler.host.name
    cache = ObjectCache(
        capacity_bytes=cache_capacity, clock=lambda: sim.now, obs=obs, owner=owner
    )
    stable = StableLog(backend, flush_model=flush_model, obs=obs, owner=owner)
    log = OperationLog(stable, obs=obs, owner=owner)
    return AccessManager(
        sim, scheduler, servers=servers, cache=cache, log=log, obs=obs, **options
    )


@dataclass
class ClientStack:
    """One mobile client's full Rover stack."""

    host: Host
    link: Link
    transport: Transport
    scheduler: NetworkScheduler
    access: AccessManager
    #: This client's private Observatory when the testbed was built
    #: with ``per_client_obs=True`` (fleet telemetry needs per-client
    #: registries so each reporter ships only its own series);
    #: ``None`` when all clients share ``bed.obs``.
    obs: Optional[Observatory] = None

    def crash_and_recover(self) -> list[str]:
        """Crash this client process and rebuild it from the stable log.

        See :func:`repro.chaos.recovery.crash_and_recover_client`; the
        rebuilt manager replaces ``self.access``.  Returns replayed ids.
        """
        from repro.chaos.recovery import crash_and_recover_client

        self.access, replayed = crash_and_recover_client(self.access)
        return replayed


@dataclass
class MultiClientTestbed:
    """Several mobile clients sharing one home server."""

    sim: Simulator
    network: Network
    server_host: Host
    server_transport: Transport
    server: RoverServer
    clients: list[ClientStack]
    #: Shared metrics registry + tracer across the server and all clients.
    obs: Observatory = field(default_factory=Observatory)

    @property
    def authority(self) -> str:
        return self.server.authority


@dataclass
class Testbed(MultiClientTestbed):
    """The one-client bed (``clients[0]``) plus the optional SMTP relay."""

    relay_host: Optional[Host] = None
    relay: Optional[MailRelay] = None
    client_mailbox: Optional[Mailbox] = None
    server_mailbox: Optional[Mailbox] = None

    @property
    def access(self) -> AccessManager:
        return self.clients[0].access

    @property
    def client_host(self) -> Host:
        return self.clients[0].host

    @property
    def client_transport(self) -> Transport:
        return self.clients[0].transport

    @property
    def scheduler(self) -> NetworkScheduler:
        return self.clients[0].scheduler

    @property
    def link(self) -> Link:
        return self.clients[0].link

    def crash_and_recover_client(self) -> list[str]:
        """Crash the client process and rebuild it from the stable log.

        Volatile state (scheduler queue, promises, cache, unflushed log
        tail) dies; the new :class:`AccessManager` replays pending
        QRPCs from the log.  Returns the replayed request ids; the
        rebuilt manager replaces ``self.access``.
        """
        return self.clients[0].crash_and_recover()


def build_world(
    obs: Optional[Observatory], trace: bool, link_spec: LinkSpec, seed: int
) -> tuple[Observatory, Simulator, Network]:
    """Every builder's observatory, simulator and network.

    An explicit ``obs`` wins; else a process-wide capture installed via
    :func:`repro.obs.set_capture` (the bench CLI's ``--trace-out``/
    ``--metrics`` path); else a fresh one.
    """
    if obs is None:
        obs = active_capture() or Observatory(tracing=trace)
    elif trace:
        obs.tracer.enabled = True
    obs.tracer.scope_attrs["link"] = link_spec.name
    sim = Simulator()
    return obs, sim, Network(sim, seed=seed)


def build_client_stack(
    network: Network,
    name: str,
    peers: list[tuple[Host, LinkSpec, Optional[ConnectivityPolicy]]],
    servers: dict,
    obs: Observatory,
    scheduler_options: dict[str, Any],
    medium: Optional[Medium] = None,
    compress_threshold: Optional[int] = None,
    **access_options: Any,
) -> ClientStack:
    """Wire host ``name``: one link per ``(peer, spec, policy)`` (the
    first is ``ClientStack.link``), transport, scheduler and manager.

    The manager watches only the links its host has when it is built,
    so every link is connected first.
    """
    sim = network.sim
    host = network.host(name)
    links = [
        network.connect(host, peer, spec, policy, medium=medium)
        for peer, spec, policy in peers
    ]
    transport = Transport(sim, host, compress_threshold=compress_threshold, obs=obs)
    scheduler = NetworkScheduler(sim, transport, obs=obs, **scheduler_options)
    access = build_client_access(sim, scheduler, servers, obs, **access_options)
    return ClientStack(host, links[0], transport, scheduler, access)


def build_testbed(
    link_spec: LinkSpec = ETHERNET_10M,
    policy: Optional[ConnectivityPolicy] = None,
    flush_model: Optional[FlushModel] = None,
    resolvers: Optional[ResolverRegistry] = None,
    with_relay: bool = False,
    relay_link_spec: Optional[LinkSpec] = None,
    relay_client_policy: Optional[ConnectivityPolicy] = None,
    relay_server_policy: Optional[ConnectivityPolicy] = None,
    authority: str = "server",
    cache_capacity: int = 8 * 1024 * 1024,
    max_inflight: int = 4,
    fifo_only: bool = False,
    compress_threshold: Optional[int] = None,
    batch_max: int = 1,
    seed: int = 0,
    obs: Optional[Observatory] = None,
    trace: bool = False,
    rpc_timeout_s: float = 600.0,
    max_attempts: int = 8,
    compaction: bool = False,
    delta_shipping: bool = False,
    group_commit: Optional[GroupCommitPolicy] = None,
) -> Testbed:
    """Build the canonical client/server testbed.

    ``link_spec``/``policy`` describe the direct client-server link.
    With ``with_relay`` an SMTP relay host is added with its own links
    (default: same spec, always up), the client's scheduler learns the
    mail route, and the server answers mailed QRPCs.

    Observability: every component shares one :class:`Observatory`
    (``bed.obs``) so metrics land in a single registry and client and
    server spans join into one trace.  Pass ``obs`` to supply your own
    (e.g. shared across beds), ``trace=True`` for a fresh one with
    span recording on, or neither for metrics-only; see
    :func:`build_world`.
    """
    obs, sim, network = build_world(obs, trace, link_spec, seed)
    server_host = network.host(authority)
    server_transport = Transport(
        sim, server_host, compress_threshold=compress_threshold, obs=obs
    )
    server = RoverServer(sim, server_transport, authority, resolvers=resolvers)

    peers = [(server_host, link_spec, policy)]
    if with_relay:
        relay_spec = relay_link_spec or link_spec
        relay_host = network.host("relay")
        peers.append((relay_host, relay_spec, relay_client_policy))
    client = build_client_stack(
        network,
        "client",
        peers,
        {authority: server_host},
        obs,
        scheduler_options=dict(
            max_inflight=max_inflight,
            max_attempts=max_attempts,
            fifo_only=fifo_only,
            batch_max=batch_max,
            rpc_timeout=rpc_timeout_s,
        ),
        compress_threshold=compress_threshold,
        cache_capacity=cache_capacity,
        flush_model=flush_model,
        compactor=default_compactor() if compaction else None,
        delta_shipping=delta_shipping,
        group_commit=group_commit,
    )
    bed = Testbed(
        sim=sim,
        network=network,
        server_host=server_host,
        server_transport=server_transport,
        server=server,
        clients=[client],
        obs=obs,
    )
    if with_relay:
        network.connect(relay_host, server_host, relay_spec, relay_server_policy)
        bed.relay_host = relay_host
        bed.relay = MailRelay(sim, Transport(sim, relay_host, obs=obs))
        bed.client_mailbox = Mailbox(sim, client.transport, relay_host)
        bed.server_mailbox = Mailbox(sim, server_transport, relay_host)
        MailRpcEndpoint(sim, server_transport, bed.server_mailbox)
        client.scheduler.add_route(MailRoute(sim, bed.client_mailbox))
    return bed


def build_multi_client_testbed(
    n_clients: int,
    link_spec: LinkSpec = ETHERNET_10M,
    policies: Optional[list[Optional[ConnectivityPolicy]]] = None,
    flush_model: Optional[FlushModel] = None,
    resolvers: Optional[ResolverRegistry] = None,
    authority: str = "server",
    shared_medium: bool = False,
    seed: int = 0,
    obs: Optional[Observatory] = None,
    trace: bool = False,
    rpc_timeout_s: float = 600.0,
    compaction: bool = False,
    delta_shipping: bool = False,
    per_client_obs: bool = False,
    link_specs: Optional[list[LinkSpec]] = None,
    group_commit: Optional[GroupCommitPolicy] = None,
) -> MultiClientTestbed:
    """Build N clients, each with its own link (and policy) to one server.

    Used by the calendar experiments, where two disconnected replicas
    make overlapping updates and reconcile at the home server.  With
    ``shared_medium=True`` every client link contends on one channel —
    a wireless cell rather than N dedicated wires.  Per-client metric
    series are told apart by their ``host``/``owner`` labels in the
    shared ``bed.obs`` registry — unless ``per_client_obs=True``, which
    gives every client a private Observatory (``stack.obs``) so fleet
    telemetry reporters ship disjoint registries; the server keeps
    ``bed.obs``.  ``link_specs`` assigns heterogeneous links: client
    ``i`` gets ``link_specs[i % len(link_specs)]`` (a mixed fleet
    population) instead of the uniform ``link_spec``.
    """
    obs, sim, network = build_world(obs, trace, link_spec, seed)
    server_host = network.host(authority)
    server_transport = Transport(sim, server_host, obs=obs)
    server = RoverServer(sim, server_transport, authority, resolvers=resolvers)
    medium = network.medium(f"{link_spec.name}-cell") if shared_medium else None

    clients: list[ClientStack] = []
    for index in range(n_clients):
        policy = policies[index] if policies is not None else None
        spec = (
            link_specs[index % len(link_specs)] if link_specs else link_spec
        )
        client_obs = Observatory(tracing=False) if per_client_obs else obs
        stack = build_client_stack(
            network,
            f"client{index}",
            [(server_host, spec, policy)],
            {authority: server_host},
            client_obs,
            scheduler_options=dict(rpc_timeout=rpc_timeout_s),
            medium=medium,
            flush_model=flush_model,
            compactor=default_compactor() if compaction else None,
            delta_shipping=delta_shipping,
            group_commit=group_commit,
        )
        if per_client_obs:
            stack.obs = client_obs
        clients.append(stack)

    return MultiClientTestbed(
        sim=sim,
        network=network,
        server_host=server_host,
        server_transport=server_transport,
        server=server,
        clients=clients,
        obs=obs,
    )
