"""The three benchmark workloads, built only from the program's public
set-up functions (testbeds, population and mail-corpus generators, the
mail app, the chaos controller).

Every workload is open-loop in virtual time: each operation is
scheduled at a fixed instant whether or not earlier ones finished.
All inputs -- link-up times, operation times and kinds, which messages
a user deletes -- are drawn here from ``--seed``; the program only
receives the generated operations.

A workload object does its set-up in ``__init__`` (build the testbed,
seed objects, generate and queue the workload), runs the timed phase
in :meth:`Scenario.drive`, and afterwards answers :meth:`check`
(correctness violations) and :meth:`counts` (deterministic work counts
read from public state).
"""

from __future__ import annotations

import math

from repro.apps.mail import MailServerApp, RoverMailReader
from repro.chaos import ChaosController, FaultPlan, PrimaryKill
from repro.chaos.invariants import (
    check_acked_updates_durable,
    check_cache_coherent,
    check_logs_drained,
    check_no_orphan_tentative,
)
from repro.core.naming import URN
from repro.core.rdo import RDO, MethodSpec, RDOInterface
from repro.ha import build_ha_testbed
from repro.net.link import (
    CSLIP_14_4,
    CSLIP_2_4,
    ETHERNET_10M,
    WAVELAN_2M,
    IntervalTrace,
)
from repro.net.message import marshal
from repro.net.scheduler import Priority
from repro.sim import make_rng
from repro.storage.stable_log import GroupCommitPolicy
from repro.testbed import build_multi_client_testbed
from repro.workloads.generators import generate_mail_corpus
from repro.workloads.population import CohortSpec, generate_population

from ledger import OpLedger

#: A per-client counter object: ``bump`` records a payload's arrival,
#: ``echo`` only reads its argument, so both exercise the full
#: remote-invocation path.
_COUNTER_CODE = '''
def bump(state, blob):
    state["n"] = state["n"] + 1
    state["bytes"] = state["bytes"] + len(blob)
    return state["n"]

def echo(state, blob):
    return len(blob)
'''

_COUNTER_INTERFACE = RDOInterface(
    [
        MethodSpec("bump", mutates=True, doc="count a payload"),
        MethodSpec("echo", doc="round-trip a payload"),
    ]
)

_FOREVER = 1e12


def counter_object(authority: str, index: int) -> RDO:
    return RDO(
        URN(authority, f"obj/{index}"),
        "bench-counter",
        {"n": 0, "bytes": 0},
        code=_COUNTER_CODE,
        interface=_COUNTER_INTERFACE,
    )


def registry_total(registry, name: str) -> int:
    """Sum of every child of one metric family (0 when absent)."""
    metric = registry.get(name)
    if metric is None:
        return 0
    return int(sum(child.value for _, child in metric.children()))


class Scenario:
    """Common run loop and public-state accounting of one workload."""

    name = ""
    #: Virtual seconds advanced per :meth:`Simulator.run` call in the
    #: timed phase; completion is checked between calls.
    step_s = 30.0

    def __init__(self, seed: int, scale: float) -> None:
        self.scale = scale
        self.rng = make_rng(seed, f"perfbench:{self.name}")
        self.ledger = OpLedger()
        #: Events executed by the timed phase (``Simulator.run`` results).
        self.events = 0
        #: Virtual time of the last scripted user action.
        self.script_end = 0.0
        self.deadline = 0.0
        #: Simulator slices that ended with no live primary (``failover``).
        self.no_primary_steps = 0

    def _scaled(self, full: int, floor: int) -> int:
        return max(floor, round(full * self.scale))

    # -- the timed phase --------------------------------------------------

    def finished(self) -> bool:
        return self.sim.now >= self.script_end and self.ledger.outstanding == 0

    @property
    def no_primary_s(self) -> float:
        return self.no_primary_steps * self.step_s

    def after_step(self) -> None:
        """Hook run between simulator slices."""

    def drive(self) -> None:
        sim = self.sim
        while sim.now < self.deadline and not self.finished():
            until = min(self.deadline, sim.now + self.step_s)
            self.events += sim.run(until=until)
            self.after_step()

    # -- after the run ----------------------------------------------------

    def check(self) -> list[str]:
        raise NotImplementedError

    def servers(self) -> list:
        return [self.bed.server]

    def member_link_bytes(self) -> int:
        return 0

    def counts(self) -> dict[str, int]:
        """Deterministic work counts from public state after the run."""
        bed = self.bed
        registry = bed.obs.registry
        accesses = [stack.access for stack in bed.clients]
        stats = [stack.scheduler.stats() for stack in bed.clients]
        stables = [access.log.stable for access in accesses]
        servers = self.servers()
        summary = self.ledger.summary()
        return {
            "ops.submitted": summary["submitted"],
            "ops.acked": summary["acked"],
            "ops.failed": summary["failed"],
            "sim.events": self.events,
            "sim.compactions": self.sim.compactions,
            "transport.messages": registry_total(
                registry, "transport_messages_sent_total"
            ),
            "transport.bytes": registry_total(registry, "transport_bytes_sent_total"),
            "transport.corrupt_frames": registry_total(
                registry, "transport_corrupt_frames_total"
            ),
            "simnet.link_bytes": sum(
                link.bytes_carried for link in bed.network.links
            ),
            "scheduler.retransmissions": sum(s["retransmissions"] for s in stats),
            "scheduler.failed": sum(s["failed"] for s in stats),
            "access.resubmits": registry_total(registry, "qrpc_failovers_total"),
            "log.appends": sum(s.appends for s in stables),
            "log.flushes": sum(s.flushes for s in stables),
            "log.group_commits": sum(s.group_commits for s in stables),
            "log.fsyncs_saved": sum(s.fsyncs_saved for s in stables),
            "compact.ops_compacted": sum(a.log.ops_compacted for a in accesses),
            "server.requests": sum(
                s.imports_served
                + s.exports_committed
                + s.exports_resolved
                + s.exports_conflicted
                + s.invokes_served
                + s.ships_served
                for s in servers
            ),
            "server.duplicates_suppressed": sum(
                s.duplicates_suppressed for s in servers
            ),
            "server.conflicts_resolved": sum(s.exports_resolved for s in servers),
            "cache.hits": registry_total(registry, "cache_hits_total"),
            "cache.misses": registry_total(registry, "cache_misses_total"),
            "delta.bytes_saved": registry_total(
                registry, "ship_delta_bytes_saved_total"
            ),
            "ha.elections": registry_total(registry, "ha_failovers_total"),
            "ha.mesh_bytes": self.member_link_bytes(),
            "obs.series": sum(
                len(list(metric.children())) for metric in registry.metrics()
            ),
        }


# ---------------------------------------------------------------------------
# drain: a mixed-link fleet reconnects at once
# ---------------------------------------------------------------------------

#: The four-class fleet mix, fastest first; clients take it round-robin.
LINK_MIX = (ETHERNET_10M, WAVELAN_2M, CSLIP_14_4, CSLIP_2_4)
#: Slow links carry proportionally lighter payloads.
PAYLOAD_DIVISOR = (1, 1, 8, 16)


class Drain(Scenario):
    """Every op is queued while its client is disconnected; the links
    then come up in one 60 s wave and the whole backlog drains."""

    name = "drain"
    #: Above the server's applied-reply cache cap (1024), so the
    #: watermark scan walks a full map; below the 3,334 clients at which
    #: the shared metrics registry hits its label-cardinality cap.
    clients = 1500
    ops_per_client = 3
    payload_bytes = 2048
    reconnect_at = 300.0
    wave_s = 60.0

    def __init__(self, seed: int, scale: float = 1.0, trace: bool = False) -> None:
        super().__init__(seed, scale)
        n = self._scaled(self.clients, 8)
        cohorts = [
            CohortSpec(
                name=spec.name,
                link_index=index,
                n_ops=self.ops_per_client,
                payload_bytes=max(1, self.payload_bytes // PAYLOAD_DIVISOR[index]),
            )
            for index, spec in enumerate(LINK_MIX)
        ]
        profiles = generate_population(seed, n, cohorts, stagger_window_s=self.wave_s)
        rng = self.rng
        policies = [
            IntervalTrace([(self.reconnect_at + rng.uniform(0.0, self.wave_s), _FOREVER)])
            for _ in range(n)
        ]
        self.bed = bed = build_multi_client_testbed(
            n,
            link_specs=list(LINK_MIX),
            policies=policies,
            seed=seed,
            trace=trace,
            group_commit=GroupCommitPolicy(),
        )
        self.sim = bed.sim
        authority = bed.authority
        for index in range(n):
            # One shared source: verify it once.
            bed.server.put_object(counter_object(authority, index), verify=(index == 0))

        #: client -> [bumps, bump payload bytes] queued for its object
        self.expected = [[0, 0] for _ in range(n)]
        for profile in profiles:
            stack = bed.clients[profile.client_id]
            self.ledger.watch(stack.access, policies[profile.client_id])
            urn = f"urn:rover:{authority}/obj/{profile.client_id}"
            full = len(profile.payload)
            for step in range(profile.n_ops):
                # A burst, 0.5 ms apart: what adaptive group commit batches.
                at = profile.start_offset_s + step * 0.0005
                blob = profile.payload[: rng.randint(full // 2, full)]
                method = "bump" if rng.random() < 1 / 3 else "echo"
                if method == "bump":
                    self.expected[profile.client_id][0] += 1
                    self.expected[profile.client_id][1] += len(blob)
                bed.sim.schedule_at(at, stack.access.invoke_remote, urn, method, [blob])
                self.script_end = max(self.script_end, at)
        self.deadline = self.reconnect_at + self.wave_s + 14_400.0

    def check(self) -> list[str]:
        violations = []
        for index, (bumps, size) in enumerate(self.expected):
            rdo = self.bed.server.get_object(f"urn:rover:{self.bed.authority}/obj/{index}")
            seen = None if rdo is None else [rdo.data["n"], rdo.data["bytes"]]
            if seen != [bumps, size]:
                violations.append(f"obj/{index}: [bumps, bytes] {seen}, expected {[bumps, size]}")
        return violations


# ---------------------------------------------------------------------------
# mail-sync: disconnected triage on slow links
# ---------------------------------------------------------------------------

MAIL_LINKS = (CSLIP_14_4, CSLIP_2_4, WAVELAN_2M)


class MailSync(Scenario):
    """Users prefetch their folder, triage it disconnected (local reads,
    flag flips, outbox sends, a background re-import), then reconnect
    and drain over slow links with compaction and delta shipping on.

    Each team of users shares one outbox, so concurrent appends meet
    the mail resolver at the server.  A team stays below the server's
    per-object version history (32 versions): an export whose base
    version was pruned cannot be merged and ends as a conflict.
    """

    name = "mail-sync"
    users = 120
    team_size = 20
    messages_per_folder = 8
    local_reads = 3
    disconnect_at = 600.0
    reconnect_at = 1200.0
    wave_s = 60.0

    def __init__(self, seed: int, scale: float = 1.0, trace: bool = False) -> None:
        super().__init__(seed, scale)
        n = self._scaled(self.users, 3)
        rng = self.rng
        corpus = generate_mail_corpus(
            seed,
            n_folders=n,
            messages_per_folder=self.messages_per_folder,
            mean_body_bytes=768,
            sigma=0.5,
            max_body_bytes=4096,
        )
        folders = list(corpus.folders)
        reconnects = [
            self.reconnect_at + rng.uniform(0.0, self.wave_s) for _ in range(n)
        ]
        policies = [
            IntervalTrace([(0.0, self.disconnect_at), (up, _FOREVER)])
            for up in reconnects
        ]
        self.bed = bed = build_multi_client_testbed(
            n,
            link_specs=list(MAIL_LINKS),
            policies=policies,
            seed=seed,
            trace=trace,
            compaction=True,
            delta_shipping=True,
        )
        self.sim = bed.sim
        app = MailServerApp(bed.server, corpus)
        #: outbox URN -> ids of the messages sent through it
        self.sent: dict[str, list[str]] = {}
        outboxes = [f"outbox{team}" for team in range(math.ceil(n / self.team_size))]
        for outbox in outboxes:
            self.sent[str(app.create_folder(outbox))] = []
        #: message URN -> the flags [read, deleted] its user sets
        self.flags: dict[str, list[bool]] = {}
        self.read_misses = 0
        for user in range(n):
            access = bed.clients[user].access
            self.ledger.watch(access, policies[user])
            reader = RoverMailReader(access, bed.authority)
            folder = folders[user]
            urns = [
                str(reader.message_urn(folder, message.msg_id))
                for message in corpus.folders[folder]
            ]
            warm_at = rng.uniform(0.0, 30.0)
            bed.sim.schedule_at(warm_at, reader.prefetch_folder, folder)
            outbox = outboxes[user // self.team_size]
            bed.sim.schedule_at(warm_at, reader.open_folder, outbox)
            for urn in urns:
                read = rng.random() < 0.75
                self.flags[urn] = [read, read and rng.random() < 0.5]
            replies = [
                {
                    "id": f"u{user}-r{k}",
                    "from": f"user{user}@example.edu",
                    "subject": f"re: {folder} {k}",
                    "body": "x" * rng.randrange(80, 400),
                }
                for k in range(rng.randint(1, 3))
            ]
            self.sent[str(reader.folder_urn(outbox))].extend(r["id"] for r in replies)
            triage_at = self.disconnect_at + rng.uniform(10.0, 500.0)
            bed.sim.schedule_at(
                triage_at, self._triage, reader, folder, urns, outbox, replies
            )
            self.script_end = max(self.script_end, triage_at, reconnects[user])
        self.deadline = self.reconnect_at + self.wave_s + 7_200.0

    def _triage(self, reader, folder, urns, outbox, replies) -> None:
        access = reader.access
        session = reader.session
        cached = [urn for urn in urns if access.cache.peek(urn) is not None]
        self.read_misses += len(urns) - len(cached)
        if access.cache.peek(str(reader.folder_urn(folder))) is None:
            self.read_misses += 1
            return
        # Reads: everything local, served by the cache and interpreter.
        for _ in range(self.local_reads):
            reader.folder_index(folder)
            for urn in cached:
                access.invoke(urn, "headers", session=session)
                access.invoke(urn, "body", session=session)
        # Writes: flag flips and outbox sends, queued behind the link.
        for urn in cached:
            if self.flags[urn][0]:
                access.invoke(urn, "mark_read", session=session)
        for urn in cached:
            if self.flags[urn][1]:
                access.invoke(urn, "mark_deleted", session=session)
        for reply in replies:
            reader.send_message(outbox, reply)
        # Background re-import of the folder: a delta once reconnected.
        access.import_(
            reader.folder_urn(folder),
            session=session,
            priority=Priority.BACKGROUND,
            refresh=True,
        )

    def check(self) -> list[str]:
        accesses = [stack.access for stack in self.bed.clients]
        server = self.bed.server
        violations = list(check_logs_drained(accesses))
        violations += check_cache_coherent(server, accesses)
        violations += check_no_orphan_tentative(accesses)
        for outbox, sent_ids in self.sent.items():
            violations += check_acked_updates_durable(server, outbox, sent_ids)
        if self.read_misses:
            violations.append(f"{self.read_misses} bodies not cached by the warm-up")
        for urn, expected in self.flags.items():
            flags = server.get_object(urn).data["flags"]
            if [bool(flags.get("read")), bool(flags.get("deleted"))] != expected:
                violations.append(f"{urn}: flags {flags}, expected {expected}")
        return violations


# ---------------------------------------------------------------------------
# failover: a replicated home server loses its primary mid-stream
# ---------------------------------------------------------------------------


class Failover(Scenario):
    """WaveLAN clients bump once a virtual second against a primary and
    two backups; the primary is killed at 20 s and rejoins at 45 s."""

    name = "failover"
    clients = 40
    send_s = 60
    kill_at = 20.0
    down_for = 25.0
    #: Fine slices: the no-primary window is sampled between them.
    step_s = 0.1

    def __init__(self, seed: int, scale: float = 1.0, trace: bool = False) -> None:
        super().__init__(seed, scale)
        n = self._scaled(self.clients, 4)
        self.bed = bed = build_ha_testbed(
            n_backups=2, n_clients=n, link_spec=WAVELAN_2M, seed=seed, trace=trace
        )
        self.sim = bed.sim
        authority = bed.authority
        for index in range(n):
            bed.put_object(counter_object(authority, index), verify=(index == 0))
        #: client -> [bumps, bump payload bytes] acknowledged
        self.acked = [[0, 0] for _ in range(n)]
        rng = self.rng
        for index, stack in enumerate(bed.clients):
            self.ledger.watch(stack.access, stack.link.policy)
            urn = f"urn:rover:{authority}/obj/{index}"
            phase = rng.uniform(0.0, 1.0)
            for second in range(self.send_s):
                at = 1.0 + second + phase
                blob = bytes(rng.randint(16, 256))
                bed.sim.schedule_at(at, self._bump, stack.access, urn, index, blob)
                self.script_end = max(self.script_end, at)
        self.controller = ChaosController(bed.sim, obs=bed.obs, seed=seed)
        self.controller.schedule(
            FaultPlan(
                seed=seed,
                primary_kills=(PrimaryKill(at=self.kill_at, down_for=self.down_for),),
            ),
            bed,
        )
        self.script_end = max(self.script_end, self.kill_at + self.down_for)
        self.deadline = self.script_end + 600.0

    def _bump(self, access, urn: str, index: int, blob: bytes) -> None:
        def acked(_result) -> None:
            self.acked[index][0] += 1
            self.acked[index][1] += len(blob)

        access.invoke_remote(urn, "bump", [blob]).then(acked)

    def _primaries(self) -> list:
        # ``_crashed`` is the only record of a member's process state.
        return [
            agent
            for agent in self.bed.group.agents
            if agent.role == "primary" and not agent._crashed
        ]

    def _stores(self) -> list[bytes]:
        return [
            marshal(server.snapshot()["store"]) for server, _ in self.bed.members
        ]

    def finished(self) -> bool:
        if not super().finished():
            return False
        # Done once the rejoined member caught up through anti-entropy.
        vectors = [server.state_vector() for server, _ in self.bed.members]
        return all(vector == vectors[0] for vector in vectors)

    def after_step(self) -> None:
        if not self._primaries():
            self.no_primary_steps += 1

    def servers(self) -> list:
        return [server for server, _ in self.bed.members]

    def member_link_bytes(self) -> int:
        members = {host.name for host in self.bed.member_hosts()}
        return sum(
            link.bytes_carried
            for link in self.bed.network.links
            if link.host_a.name in members and link.host_b.name in members
        )

    def check(self) -> list[str]:
        violations = []
        primaries = self._primaries()
        if len(primaries) != 1:
            violations.append(f"{len(primaries)} live primaries at the end")
        stores = self._stores()
        if any(store != stores[0] for store in stores):
            violations.append("member stores differ after the rejoin")
        primary = self.bed.server
        authority = self.bed.authority
        all_acked = self.ledger.summary()["failed"] == 0
        for index, (bumps, size) in enumerate(self.acked):
            rdo = primary.get_object(f"urn:rover:{authority}/obj/{index}")
            seen = None if rdo is None else [rdo.data["n"], rdo.data["bytes"]]
            # Every acked bump is present and none applied twice; a bump
            # that failed may or may not have been applied.
            if all_acked:
                wrong = seen != [bumps, size]
            else:
                wrong = seen is None or not bumps <= seen[0] <= self.send_s
            if wrong:
                violations.append(f"obj/{index}: [bumps, bytes] {seen}, acked {[bumps, size]}")
        return violations


WORKLOADS = {cls.name: cls for cls in (Drain, MailSync, Failover)}
