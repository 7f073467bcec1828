"""Write-ahead journal: durability, torn tails, bit-identical recovery."""

import json
import signal
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.job import Job
from repro.model.site import Site
from repro.service.daemon import AllocationService
from repro.service.journal import (
    JournalError,
    WriteAheadJournal,
    event_from_json,
    event_to_json,
    open_journal,
    recover_journal,
    recover_state,
)
from repro.service.state import CapacityChanged, ClusterState, JobArrived, JobDeparted


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


SITES = [Site("a", 4.0), Site("b", 3.0), Site("c", 2.0)]
SITE_NAMES = [s.name for s in SITES]


def make_state():
    return ClusterState([Site(s.name, s.capacity) for s in SITES])


# ----------------------------------------------------------------------
# Wire format
# ----------------------------------------------------------------------
_floats = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False)
_names = st.text(alphabet="abcdefgh", min_size=1, max_size=6)


@st.composite
def events(draw):
    kind = draw(st.sampled_from(["arrive", "depart", "capacity"]))
    t = draw(st.floats(min_value=0.0, max_value=1e3, allow_nan=False))
    if kind == "arrive":
        support = draw(st.lists(st.sampled_from(SITE_NAMES), min_size=1, max_size=3, unique=True))
        workload = {s: draw(_floats) for s in support}
        demand = {s: draw(_floats) for s in support if draw(st.booleans())}
        weight = draw(st.floats(min_value=0.1, max_value=10.0, allow_nan=False))
        return JobArrived(Job(draw(_names), workload, demand, weight=weight), t)
    if kind == "depart":
        return JobDeparted(draw(_names), t)
    return CapacityChanged(draw(st.sampled_from(SITE_NAMES)), draw(_floats), t)


class TestWireFormat:
    @given(event=events())
    @settings(max_examples=100, deadline=None)
    def test_round_trip_is_exact(self, event):
        rebuilt = event_from_json(json.loads(json.dumps(event_to_json(event))))
        assert type(rebuilt) is type(event)
        assert rebuilt.time == event.time
        if isinstance(event, JobArrived):
            assert rebuilt.job.name == event.job.name
            assert dict(rebuilt.job.workload) == dict(event.job.workload)
            assert dict(rebuilt.job.demand) == dict(event.job.demand)
            assert rebuilt.job.weight == event.job.weight
        elif isinstance(event, JobDeparted):
            assert rebuilt.name == event.name
        else:
            assert rebuilt.site == event.site and rebuilt.capacity == event.capacity

    def test_unknown_kind_rejected(self):
        with pytest.raises(JournalError):
            event_from_json({"k": "mystery"})


#: One segment line per event kind, exactly as the journal writes them: a
#: change here strands every journal already on disk.
GOLDEN_SITES = [Site("a", {"cpu": 8.0, "mem": 16.0}), Site("b", {"cpu": 4.0, "mem": 8.0}), Site("c", 5.0)]
GOLDEN_EVENTS = [
    JobArrived(
        Job("j1", {"a": 1.5, "b": 0.25}, {"a": 0.75}, weight=2.0, arrival=3.5, resources={"cpu": 2.0, "mem": 1.0}),
        1.25,
    ),
    JobArrived(Job("j2", {"c": 1.0})),
    CapacityChanged("b", {"cpu": 6.0, "mem": 8.0}, 2.0),
    CapacityChanged("c", 3.0),
    JobDeparted("j2", 4.0),
]
GOLDEN_SEGMENT = (
    b'{"seq":1,"k":"arrive","job":{"name":"j1","workload":{"a":1.5,"b":0.25},"demand":{"a":0.75},'
    b'"weight":2.0,"arrival":3.5,"resources":{"cpu":2.0,"mem":1.0}},"t":1.25}\n'
    b'{"seq":2,"k":"arrive","job":{"name":"j2","workload":{"c":1.0}}}\n'
    b'{"seq":3,"k":"capacity","site":"b","capacity":{"cpu":6.0,"mem":8.0},"t":2.0}\n'
    b'{"seq":4,"k":"capacity","site":"c","capacity":3.0}\n'
    b'{"seq":5,"k":"depart","name":"j2","t":4.0}\n'
)
#: fingerprint of GOLDEN_SITES after GOLDEN_EVENTS: what recovering a
#: journal that holds GOLDEN_SEGMENT must rebuild
GOLDEN_FINGERPRINT = "d17bf9de6ce63673f5f2a72ad4dad4eed4c64b27c132f3e6d60087f14555bc28"


class TestGoldenSegment:
    def test_segment_bytes_are_pinned(self, tmp_path):
        j = WriteAheadJournal(tmp_path, fsync_batch=1)
        j.append(GOLDEN_EVENTS)
        j.close()
        assert (tmp_path / "segment-000000000000.jsonl").read_bytes() == GOLDEN_SEGMENT

    def test_golden_lines_round_trip(self):
        for line, event in zip(GOLDEN_SEGMENT.splitlines(), GOLDEN_EVENTS):
            record = json.loads(line)
            del record["seq"]
            assert event_to_json(event_from_json(record)) == record == event_to_json(event)

    def test_golden_segment_replays_to_the_same_state(self, tmp_path):
        (tmp_path / "segment-000000000000.jsonl").write_bytes(GOLDEN_SEGMENT)
        state, rec = recover_state(tmp_path, fallback_sites=GOLDEN_SITES)
        assert len(rec.events) == 5 and rec.dropped_lines == 0
        assert state.snapshot().fingerprint() == GOLDEN_FINGERPRINT
        live = ClusterState(GOLDEN_SITES)
        assert live.apply_all(GOLDEN_EVENTS) == (5, [])
        assert live.snapshot().fingerprint() == GOLDEN_FINGERPRINT


# ----------------------------------------------------------------------
# Append side
# ----------------------------------------------------------------------
class TestAppend:
    def test_group_commit_fsync_batching(self, tmp_path):
        clock = FakeClock()
        j = WriteAheadJournal(tmp_path, fsync_batch=3, fsync_interval=100.0, clock=clock)
        j.append([CapacityChanged("a", 1.0)])
        j.append([CapacityChanged("a", 2.0)])
        assert j.stats.fsyncs == 0
        j.append([CapacityChanged("a", 3.0)])  # third append crosses the batch
        assert j.stats.fsyncs == 1
        clock.now = 200.0  # interval policy kicks in even below the batch
        j.append([CapacityChanged("a", 4.0)])
        assert j.stats.fsyncs == 2
        j.close()

    def test_fsync_batch_one_is_synchronous(self, tmp_path):
        j = WriteAheadJournal(tmp_path, fsync_batch=1)
        j.append([CapacityChanged("a", 1.0)])
        assert j.stats.fsyncs == 1
        j.close()

    def test_checkpoint_compacts_old_files(self, tmp_path):
        state = make_state()
        j = WriteAheadJournal(tmp_path, fsync_batch=1)
        events = [JobArrived(Job("x", {"a": 1.0}))]
        state.apply_all(events)
        j.append(events)
        j.checkpoint(state)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["segment-000000000001.jsonl", "snapshot-000000000001.json"]
        j.close()

    def test_maybe_checkpoint_threshold(self, tmp_path):
        state = make_state()
        j = WriteAheadJournal(tmp_path, fsync_batch=1, checkpoint_every=3)
        for i in range(2):
            ev = [CapacityChanged("a", float(i + 1))]
            state.apply_all(ev)
            j.append(ev)
            assert not j.maybe_checkpoint(state)
        ev = [CapacityChanged("a", 9.0)]
        state.apply_all(ev)
        j.append(ev)
        assert j.maybe_checkpoint(state)
        assert j.stats.checkpoints == 1
        j.close()

    def test_closed_journal_refuses_appends(self, tmp_path):
        j = WriteAheadJournal(tmp_path)
        j.close()
        with pytest.raises(ValueError):
            j.append([CapacityChanged("a", 1.0)])


# ----------------------------------------------------------------------
# Recovery
# ----------------------------------------------------------------------
class TestRecovery:
    def test_empty_directory(self, tmp_path):
        rec = recover_journal(tmp_path)
        assert rec.cluster is None and rec.events == [] and rec.seq == 0

    def test_segments_without_snapshot_replay_from_fallback(self, tmp_path):
        j = WriteAheadJournal(tmp_path, fsync_batch=1)
        j.append([JobArrived(Job("x", {"a": 1.0}))])
        j.close()
        state, rec = recover_state(tmp_path, fallback_sites=SITES)
        assert state.n_jobs == 1 and rec.seq == 1

    def test_torn_tail_discarded(self, tmp_path):
        j = WriteAheadJournal(tmp_path, fsync_batch=1)
        j.append([JobArrived(Job("x", {"a": 1.0})), JobArrived(Job("y", {"b": 1.0}))])
        j.close()
        segment = next(tmp_path.glob("segment-*.jsonl"))
        with open(segment, "ab") as fh:
            fh.write(b'{"seq": 3, "k": "arrive", "jo')  # crash mid-line
        rec = recover_journal(tmp_path)
        assert len(rec.events) == 2 and rec.seq == 2
        assert rec.dropped_lines == 1

    def test_valid_lines_after_a_tear_are_dropped(self, tmp_path):
        # data after a torn line is unordered w.r.t. the tear: all dropped
        j = WriteAheadJournal(tmp_path, fsync_batch=1)
        j.append([JobArrived(Job("x", {"a": 1.0}))])
        j.close()
        segment = next(tmp_path.glob("segment-*.jsonl"))
        with open(segment, "ab") as fh:
            fh.write(b"garbage\n")
            fh.write(json.dumps({"seq": 2, "k": "depart", "name": "x"}).encode() + b"\n")
        rec = recover_journal(tmp_path)
        assert len(rec.events) == 1 and rec.dropped_lines == 2

    def test_sequence_gap_raises(self, tmp_path):
        j = WriteAheadJournal(tmp_path, fsync_batch=1)
        j.append([JobArrived(Job("x", {"a": 1.0})), JobArrived(Job("y", {"b": 1.0}))])
        j.close()
        segment = next(tmp_path.glob("segment-*.jsonl"))
        lines = segment.read_bytes().splitlines(keepends=True)
        segment.write_bytes(lines[1])  # seq 2 without seq 1
        with pytest.raises(JournalError, match="gap"):
            recover_journal(tmp_path)

    def test_open_journal_prefers_recovered_snapshot(self, tmp_path):
        state = make_state()
        state.apply_all([JobArrived(Job("x", {"a": 1.0}))])
        j = WriteAheadJournal(tmp_path, fsync_batch=1)
        j.checkpoint(state)
        j.close()
        fallback = ClusterState([Site("other", 9.0)])
        recovered, journal, rec = open_journal(tmp_path, fallback_state=fallback)
        assert recovered is not fallback
        assert recovered.snapshot().fingerprint() == state.snapshot().fingerprint()
        journal.close()

    def test_open_journal_empty_dir_uses_fallback_state(self, tmp_path):
        fallback = make_state()
        fallback.apply_all([JobArrived(Job("x", {"a": 1.0}))])
        state, journal, rec = open_journal(tmp_path, fallback_state=fallback)
        assert state is fallback
        # the boot checkpoint makes the fallback durable immediately
        journal.close()
        recovered, _ = recover_state(tmp_path)
        assert recovered.snapshot().fingerprint() == fallback.snapshot().fingerprint()

    def test_open_journal_empty_dir_without_fallback_raises(self, tmp_path):
        with pytest.raises(JournalError):
            open_journal(tmp_path)

    def test_boot_checkpoint_truncates_torn_head_of_reused_segment(self, tmp_path):
        # crash tears the FIRST line of a fresh post-checkpoint segment:
        # the segment base equals the recovered seq, so the next boot
        # reuses the very same path instead of renaming it away — the boot
        # checkpoint must truncate the tear, or every event the new
        # incarnation journals sits behind it and the NEXT recovery drops
        # them all as data-after-a-torn-line
        state = make_state()
        j = WriteAheadJournal(tmp_path, fsync_batch=1)
        ev = [JobArrived(Job("x", {"a": 1.0}))]
        state.apply_all(ev)
        j.append(ev)
        j.checkpoint(state)  # fresh, empty segment-...001
        j.close()
        segment = tmp_path / "segment-000000000001.jsonl"
        with open(segment, "ab") as fh:
            fh.write(b'{"seq": 2, "k": "arr')  # crash mid-write of line 1
        booted, journal, rec = open_journal(tmp_path, fallback_sites=SITES)
        assert rec.dropped_lines == 1 and booted.n_jobs == 1
        follow_up = [JobArrived(Job("y", {"b": 1.0}))]
        journal.append(follow_up)
        booted.apply_all(follow_up)
        journal.close()
        final, rec2 = recover_state(tmp_path)
        assert rec2.dropped_lines == 0
        assert final.n_jobs == 2
        assert final.snapshot().fingerprint() == booted.snapshot().fingerprint()

    def test_boot_checkpoint_shields_torn_tail_from_new_segments(self, tmp_path):
        # crash leaves a torn line; the next incarnation boots, writes new
        # events, and a second recovery must see only the new history
        j = WriteAheadJournal(tmp_path, fsync_batch=1)
        j.append([JobArrived(Job("x", {"a": 1.0}))])
        j.close()
        segment = next(tmp_path.glob("segment-*.jsonl"))
        with open(segment, "ab") as fh:
            fh.write(b'{"seq": 2, "k": "arr')
        state, journal, rec = open_journal(tmp_path, fallback_sites=SITES)
        assert rec.dropped_lines == 1 and state.n_jobs == 1
        journal.append([JobArrived(Job("y", {"b": 1.0}))])
        state.apply_all([JobArrived(Job("y", {"b": 1.0}))])
        journal.close()
        final, rec2 = recover_state(tmp_path)
        assert rec2.dropped_lines == 0
        assert final.snapshot().fingerprint() == state.snapshot().fingerprint()


# ----------------------------------------------------------------------
# Replay bit-identity (the acceptance criterion)
# ----------------------------------------------------------------------
class TestReplayEquivalence:
    @given(stream=st.lists(events(), min_size=1, max_size=40), flush_every=st.integers(1, 7))
    @settings(max_examples=30, deadline=None)
    def test_recovery_reproduces_live_fingerprint(self, tmp_path_factory, stream, flush_every):
        """A journaled daemon's final state == sequential replay of its log.

        The stream deliberately includes rejectable events (departures of
        unknown jobs, duplicate arrivals): live best-effort apply and
        replay must agree on those too.
        """
        tmp_path = tmp_path_factory.mktemp("journal")
        clock = FakeClock()
        state, journal, _ = open_journal(
            tmp_path, fallback_sites=SITES, fsync_batch=1, clock=clock
        )
        service = AllocationService(state, journal=journal, clock=clock, observability=False)
        for i, event in enumerate(stream):
            service.submit(event)
            if (i + 1) % flush_every == 0:
                service.allocation(fresh=True)
        # simulate a crash: no close(), no final checkpoint — recovery
        # must replay the journaled tail
        live_fp = service.state.snapshot().fingerprint()
        recovered, rec = recover_state(tmp_path)
        assert recovered.snapshot().fingerprint() == live_fp

    def test_unflushed_events_survive_via_journal(self, tmp_path):
        """Write-ahead ordering: an acknowledged-but-unsolved event is on
        disk and lands in the recovered state even though no answer has
        shown it yet (the crash window the journal exists for)."""
        clock = FakeClock()
        state, journal, _ = open_journal(tmp_path, fallback_sites=SITES, fsync_batch=1, clock=clock)
        service = AllocationService(
            state, journal=journal, clock=clock, max_delay=1e9, observability=False
        )
        service.submit(JobArrived(Job("x", {"a": 1.0})))
        assert service.allocation(fresh=False).allocation.cluster.n_jobs == 0  # not solved yet — crash now
        recovered, rec = recover_state(tmp_path)
        assert recovered.n_jobs == 1
        assert len(rec.events) == 1
        assert recovered.snapshot().fingerprint() == service.state.snapshot().fingerprint()


_POOL = ["p", "q", "r"]  # few names: duplicate arrivals and known departures are common


@st.composite
def lockstep_events(draw):
    """Arrivals, departures and capacity changes, rejectable ones mixed in:
    duplicate names, departures of jobs never seen, an unknown site ``zz``
    and a non-positive capacity."""
    kind = draw(st.sampled_from(["arrive", "depart", "capacity"]))
    if kind == "arrive":
        support = draw(st.lists(st.sampled_from([*SITE_NAMES, "zz"]), min_size=1, max_size=3, unique=True))
        return JobArrived(Job(draw(st.sampled_from(_POOL)), {s: draw(_floats) for s in support}))
    if kind == "depart":
        return JobDeparted(draw(st.sampled_from([*_POOL, "ghost"])))
    return CapacityChanged(draw(st.sampled_from([*SITE_NAMES, "zz"])), draw(st.one_of(_floats, st.just(-1.0))))


class TestLockstep:
    @given(requests=st.lists(st.lists(lockstep_events(), min_size=1, max_size=4), min_size=1, max_size=12))
    @settings(max_examples=30, deadline=None)
    def test_journal_and_state_move_in_lockstep(self, tmp_path_factory, requests):
        """No solve runs, yet after every acknowledged ``submit_all`` a
        recovery from the journal reaches the live state: an accepted event
        waits nowhere between the journal and the state."""
        tmp_path = tmp_path_factory.mktemp("lockstep")
        state, journal, _ = open_journal(tmp_path, fallback_sites=SITES, fsync_batch=1)
        service = AllocationService(state, journal=journal, max_delay=1e9, observability=False)
        for events in requests:
            service.submit_all(events)
            recovered, _ = recover_state(tmp_path)
            assert recovered.snapshot().fingerprint() == service.state.snapshot().fingerprint()
        assert service.batch_stats.batches == 0  # no solve took a batch


# ----------------------------------------------------------------------
# SIGKILL crash (in-process daemons can't be killed harder than this)
# ----------------------------------------------------------------------
_CRASH_CHILD = textwrap.dedent(
    """
    import json, os, signal, sys
    from repro.model.job import Job
    from repro.model.site import Site
    from repro.service.daemon import AllocationService
    from repro.service.journal import open_journal
    from repro.service.state import CapacityChanged, JobArrived, JobDeparted

    directory = sys.argv[1]
    sites = [Site("a", 4.0), Site("b", 3.0)]
    state, journal, _ = open_journal(directory, fallback_sites=sites, fsync_batch=1)
    service = AllocationService(state, journal=journal, observability=False)
    for i in range(25):
        service.submit(JobArrived(Job(f"j{i}", {"a": 1.0 + i % 3, "b": 1.0})))
        if i % 4 == 3:
            service.submit(JobDeparted(f"j{i - 2}"))
        if i % 7 == 6:
            service.submit(CapacityChanged("b", 3.0 + i))
        if i % 5 == 4:
            service.allocation(fresh=True)
    print(json.dumps({"fingerprint": state.snapshot().fingerprint()}), flush=True)
    os.kill(os.getpid(), signal.SIGKILL)  # no close(), no atexit, nothing
    """
)


class TestSigkill:
    def test_sigkill_recovery_matches_pre_crash_fingerprint(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-c", _CRASH_CHILD, str(tmp_path)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        pre_crash = json.loads(proc.stdout.strip().splitlines()[-1])["fingerprint"]
        recovered, rec = recover_state(tmp_path)
        assert recovered.snapshot().fingerprint() == pre_crash
