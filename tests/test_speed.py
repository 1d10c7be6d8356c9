"""The repro.speed pass: codec equivalence, group commit, kernel
compaction, and the E16 scenario's determinism.

The zero-copy decoder is checked against a reference implementation —
a verbatim copy of the decoder the repo shipped before the hot-path
rewrite — under hypothesis-generated values and corruptions: same
values out, same errors raised, and no ``memoryview`` may leak into a
decoded structure.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.access_manager import AccessManager
from repro.net.message import (
    MarshalError,
    Premarshalled,
    codec_stats,
    marshal,
    marshalled_size,
    unmarshal,
)
from repro.sim import Simulator
from repro.speed.scenario import SpeedScenario, run_drain
from repro.storage.stable_log import (
    FileLogBackend,
    GroupCommitPolicy,
    StableLog,
)
from repro.testbed import build_testbed
from repro.workloads.population import CohortSpec, generate_population
from tests.conftest import make_note

_NOTE_URN = "urn:rover:server/notes/n1"


# ---------------------------------------------------------------------------
# Reference decoder: the pre-rewrite implementation, copied verbatim.
# ---------------------------------------------------------------------------

_MAX_DEPTH = 64


def _ref_read_uvarint(data, pos):
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise MarshalError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 1000:
            raise MarshalError("varint too long")


def _ref_decode(data, pos, depth=0):
    if depth > _MAX_DEPTH:
        raise MarshalError(f"nesting deeper than {_MAX_DEPTH} levels")
    if pos >= len(data):
        raise MarshalError("truncated message")
    tag = data[pos : pos + 1]
    pos += 1
    if tag == b"N":
        return None, pos
    if tag == b"T":
        return True, pos
    if tag == b"F":
        return False, pos
    if tag == b"i":
        raw, pos = _ref_read_uvarint(data, pos)
        return (raw >> 1) ^ -(raw & 1), pos
    if tag == b"f":
        if pos + 8 > len(data):
            raise MarshalError("truncated float")
        return struct.unpack(">d", data[pos : pos + 8])[0], pos + 8
    if tag == b"s":
        length, pos = _ref_read_uvarint(data, pos)
        if pos + length > len(data):
            raise MarshalError("truncated string")
        try:
            text = data[pos : pos + length].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MarshalError(f"invalid utf-8 in string: {exc}") from None
        return text, pos + length
    if tag == b"b":
        length, pos = _ref_read_uvarint(data, pos)
        if pos + length > len(data):
            raise MarshalError("truncated bytes")
        return data[pos : pos + length], pos + length
    if tag in (b"l", b"t"):
        count, pos = _ref_read_uvarint(data, pos)
        items = []
        for _ in range(count):
            item, pos = _ref_decode(data, pos, depth + 1)
            items.append(item)
        return (tuple(items) if tag == b"t" else items), pos
    if tag == b"d":
        count, pos = _ref_read_uvarint(data, pos)
        result = {}
        for _ in range(count):
            key, pos = _ref_decode(data, pos, depth + 1)
            value, pos = _ref_decode(data, pos, depth + 1)
            try:
                result[key] = value
            except TypeError:
                raise MarshalError("unhashable dict key") from None
        return result, pos
    raise MarshalError(f"unknown tag {tag!r} at offset {pos - 1}")


def _ref_unmarshal(data):
    value, pos = _ref_decode(data, 0)
    if pos != len(data):
        raise MarshalError(f"{len(data) - pos} trailing bytes after value")
    return value


# A strategy over everything the codec supports.  Floats exclude NaN
# (NaN != NaN breaks value comparison, and the protocols never send
# one).
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False),
    st.text(max_size=40),
    st.binary(max_size=40),
)
_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=10), children, max_size=5),
    ),
    max_leaves=25,
)


def _assert_no_views(value):
    """The decoder must materialize: views over the wire buffer leaking
    into application state would pin the whole datagram alive."""
    assert type(value) in (
        type(None), bool, int, float, str, bytes, list, tuple, dict
    ), f"unexpected decoded type {type(value)!r}"
    if isinstance(value, (list, tuple)):
        for item in value:
            _assert_no_views(item)
    elif isinstance(value, dict):
        for key, item in value.items():
            _assert_no_views(key)
            _assert_no_views(item)


@settings(max_examples=200)
@given(value=_values)
def test_decoder_matches_reference(value):
    wire = marshal(value)
    assert unmarshal(wire) == _ref_unmarshal(wire) == value
    assert unmarshal(memoryview(wire)) == value
    _assert_no_views(unmarshal(wire))


@settings(max_examples=200)
@given(value=_values, data=st.data())
def test_truncation_raises_for_both_decoders(value, data):
    wire = marshal(value)
    if len(wire) < 2:
        return
    cut = data.draw(st.integers(min_value=1, max_value=len(wire) - 1))
    with pytest.raises(MarshalError):
        _ref_unmarshal(wire[:cut])
    with pytest.raises(MarshalError):
        unmarshal(wire[:cut])


def _equivalent(a, b):
    """Equality that treats NaN == NaN (a corrupted float byte can turn
    a finite float into NaN, which breaks ``==`` inside containers)."""
    if type(a) is not type(b):
        return a == b  # int/bool comparisons keep normal semantics
    if isinstance(a, float):
        return a == b or (a != a and b != b)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(
            _equivalent(x, y) for x, y in zip(a, b)
        )
    if isinstance(a, dict):
        # Both decoders build dicts in wire order, so compare by
        # position — NaN keys would defeat a hash lookup.
        return len(a) == len(b) and all(
            _equivalent(ka, kb) and _equivalent(va, vb)
            for (ka, va), (kb, vb) in zip(a.items(), b.items())
        )
    return a == b


@settings(max_examples=200)
@given(value=_values, data=st.data())
def test_corruption_never_diverges_from_reference(value, data):
    """A flipped byte must produce the same outcome from both decoders:
    the same value, or a MarshalError from each."""
    wire = bytearray(marshal(value))
    index = data.draw(st.integers(min_value=0, max_value=len(wire) - 1))
    flip = data.draw(st.integers(min_value=1, max_value=255))
    wire[index] ^= flip
    corrupt = bytes(wire)
    try:
        expected = _ref_unmarshal(corrupt)
    except MarshalError:
        with pytest.raises(MarshalError):
            unmarshal(corrupt)
    else:
        got = unmarshal(corrupt)
        assert _equivalent(got, expected)
        _assert_no_views(got)


def test_corrupt_unhashable_dict_key_is_a_marshal_error():
    """A flipped byte can turn a dict key into a list; decoding must
    reject the frame as corrupt, not raise TypeError."""
    with pytest.raises(MarshalError, match="unhashable"):
        unmarshal(b"l\x05l\x00d\x80Nl\x00N")


@settings(max_examples=200)
@given(value=_values)
def test_marshalled_size_matches_encoding(value):
    assert marshalled_size(value) == len(marshal(value))


def test_marshalled_size_short_circuits_premarshalled():
    body = Premarshalled({"urn": "urn:rover:server/x", "blob": b"z" * 512})
    before = codec_stats.marshal_size_fast_total
    assert marshalled_size(body) == len(body.raw)
    assert codec_stats.marshal_size_fast_total == before + 1
    # The slow path (a plain dict) does not count.
    marshalled_size({"a": 1})
    assert codec_stats.marshal_size_fast_total == before + 1


# ---------------------------------------------------------------------------
# Simulator: lazy cancellation + heap compaction
# ---------------------------------------------------------------------------


def test_simulator_compacts_when_cancelled_events_dominate():
    sim = Simulator()
    events = [sim.schedule(10.0 + i, lambda: None) for i in range(500)]
    survivor = sim.schedule(1.0, lambda: None)
    for event in events:
        event.cancel()
    # Corpses above the threshold and outnumbering live entries must
    # have been swept rather than left for the run loop.
    assert sim.compactions >= 1
    assert sim.pending() == 1
    assert sim.queued() < 500
    sim.run(until=2.0)
    assert sim.pending() == 0
    assert survivor.cancelled is False


def test_simulator_compaction_preserves_order_of_survivors():
    sim = Simulator()
    fired = []
    keep = []
    for i in range(300):
        event = sim.schedule(5.0, lambda i=i: fired.append(i))
        if i % 10 == 0:
            keep.append(i)
        else:
            event.cancel()
    sim.run(until=6.0)
    assert fired == keep  # same-instant order is submission order


# ---------------------------------------------------------------------------
# Group commit: StableLog batching + the access-manager window
# ---------------------------------------------------------------------------


def test_stable_log_counts_group_commits_and_saved_fsyncs():
    log = StableLog()
    for i in range(5):
        log.append(b"x" * 10)
    log.flush()
    assert log.flushes == 1
    assert log.group_commits == 1
    assert log.fsyncs_saved == 4
    # A single-record flush is not a group commit.
    log.append(b"y")
    log.flush()
    assert log.group_commits == 1
    assert log.fsyncs_saved == 4


def test_stable_log_sync_is_free_when_already_flushed():
    log = StableLog()
    log.append(b"x")
    assert log.sync() > 0.0
    assert log.flushes == 1
    # Barrier with nothing unflushed: no fsync, no virtual time.
    assert log.sync() == 0.0
    assert log.flushes == 1


def test_file_backend_batches_pending_and_drops_them_on_crash(tmp_path):
    path = str(tmp_path / "log")
    backend = FileLogBackend(path)
    log = StableLog(backend=backend)
    log.append(b"durable")
    log.flush()
    log.append(b"lost-1")
    log.append(b"lost-2")
    assert log.unflushed_records == 2
    log.crash()
    assert [r.payload for r in log.records()] == [b"durable"]
    assert log.unflushed_records == 0
    # Recovery from the file sees only the fsync'd prefix too.
    backend.close()
    assert [r.payload for r in FileLogBackend(path).records()] == [b"durable"]


def test_file_backend_records_includes_buffered_appends(tmp_path):
    backend = FileLogBackend(str(tmp_path / "log"))
    log = StableLog(backend=backend)
    log.append(b"buffered")
    # Not yet flushed, but a reader must see it (matches the
    # pre-buffering behavior where append wrote through immediately).
    assert [r.payload for r in log.records()] == [b"buffered"]
    backend.close()


def _adaptive_bed():
    bed = build_testbed(group_commit=GroupCommitPolicy())
    bed.server.put_object(make_note())
    return bed


def test_adaptive_window_batches_a_burst_into_one_flush():
    bed = _adaptive_bed()
    stable = bed.access.log.stable
    results = []
    for i in range(4):
        bed.sim.schedule(
            i * 0.0004,  # well inside min_window_s
            lambda i=i: bed.access.invoke_remote(
                _NOTE_URN, "read", []
            ).then(results.append),
        )
    bed.sim.run(until=60.0)
    assert len(results) == 4
    assert stable.appends == 8  # op + ack marker per op
    assert stable.group_commits >= 1
    assert stable.fsyncs_saved >= 3
    assert stable.flushes < stable.appends


def test_adaptive_window_flushes_immediately_on_record_budget():
    policy = GroupCommitPolicy(record_budget=2, min_window_s=1.0)
    bed = build_testbed(group_commit=policy)
    bed.server.put_object(make_note())
    stable = bed.access.log.stable
    for _ in range(2):
        bed.access.invoke_remote(_NOTE_URN, "read", [])
    # Budget hit on the second append: flushed now, not at now + 1s.
    assert stable.unflushed_records == 0
    assert stable.flushes == 1
    assert stable.group_commits == 1


def test_adaptive_window_never_stretches_past_max():
    policy = GroupCommitPolicy(min_window_s=0.01, max_window_s=0.02)
    sim_now = 100.0
    first = policy.next_deadline(sim_now, sim_now)
    assert first == pytest.approx(100.01)
    # A burst keeps extending ...
    later = policy.next_deadline(100.018, sim_now)
    assert later == pytest.approx(100.02)  # ... but caps at first+max
    assert policy.next_deadline(100.05, sim_now) == pytest.approx(100.02)


def test_adaptive_group_commit_preserves_results():
    plain = build_testbed()
    plain.server.put_object(make_note())
    grouped = _adaptive_bed()
    outcomes = []
    for bed in (plain, grouped):
        acked = []
        for i in range(6):
            bed.sim.schedule(
                i * 0.001,
                lambda bed=bed, acked=acked: bed.access.invoke_remote(
                    _NOTE_URN, "read", []
                ).then(acked.append),
            )
        bed.sim.run(until=120.0)
        outcomes.append(len(acked))
    assert outcomes[0] == outcomes[1] == 6
    assert grouped.access.log.stable.flushes < plain.access.log.stable.flushes


# ---------------------------------------------------------------------------
# Population generation
# ---------------------------------------------------------------------------

_COHORTS = [
    CohortSpec(name="fast", link_index=0, n_ops=3, payload_bytes=256),
    CohortSpec(name="slow", link_index=1, n_ops=2, payload_bytes=32),
]


def test_population_is_deterministic_per_seed():
    a = generate_population(7, 50, _COHORTS)
    b = generate_population(7, 50, _COHORTS)
    assert [(p.client_id, p.cohort, p.start_offset_s, p.payload) for p in a] == [
        (p.client_id, p.cohort, p.start_offset_s, p.payload) for p in b
    ]
    c = generate_population(8, 50, _COHORTS)
    assert [p.payload for p in a] != [p.payload for p in c]


def test_population_round_robins_cohorts_and_staggers():
    profiles = generate_population(0, 10, _COHORTS, stagger_window_s=60.0)
    assert [p.cohort for p in profiles[:4]] == ["fast", "slow", "fast", "slow"]
    offsets = [p.start_offset_s for p in profiles]
    assert len(set(offsets)) == len(offsets)  # golden-ratio: no collisions
    assert all(0.0 <= off < 60.0 for off in offsets)
    # Payload sizes come from the cohort, payload bytes from its stream.
    assert all(len(p.payload) == 256 for p in profiles if p.cohort == "fast")


# ---------------------------------------------------------------------------
# E16 scenario: deterministic metrics at test scale
# ---------------------------------------------------------------------------


def test_drain_scenario_is_deterministic_and_complete():
    scenario = SpeedScenario(n_clients=40, drain_s=3600.0)
    first, _ = run_drain(scenario)
    second, _ = run_drain(scenario)
    assert first == second
    assert first.ops_acked == first.ops_submitted == 120
    assert first.log_appends == 240  # op + ack marker per op
    assert first.group_commits > 0
    assert first.fsyncs_saved > 0
    assert first.log_flushes < first.log_appends


def test_drain_scenario_group_commit_off_flushes_per_append():
    metrics, _ = run_drain(
        SpeedScenario(n_clients=12, drain_s=3600.0, group_commit=False)
    )
    assert metrics.ops_acked == 36
    assert metrics.group_commits == 0
    assert metrics.fsyncs_saved == 0
    assert metrics.log_flushes == metrics.log_appends
