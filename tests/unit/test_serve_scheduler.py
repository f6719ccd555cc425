"""Scheduler unit surface: token buckets, backpressure, coalescing,
journal recovery, and dedupe accounting through a real (tiny)
campaign."""

import asyncio
import threading
import time

import pytest

from repro import obs
from repro.campaign import Campaign, Grid, canonical_json
from repro.core import Address
from repro.core.errors import ConfigurationError
from repro.scenario import Burst, NodeSpec, SystemSpec
from repro.serve.protocol import SubmitOptions, SubmitRequest
from repro.serve.scheduler import (
    QueueFull,
    RateLimited,
    Scheduler,
    TokenBucket,
    TrialGate,
)

SPEC = SystemSpec(
    name="serve-three-chip",
    clock_hz=400_000.0,
    nodes=(
        NodeSpec("m", short_prefix=0x1, is_mediator=True),
        NodeSpec("a", short_prefix=0x2),
        NodeSpec("b", short_prefix=0x3),
    ),
)

BURST = Burst("m", Address.short(0x2, 5), bytes(range(4)), count=2)


def campaign_doc(name="serve-study", counts=(1, 2)):
    return Campaign(
        spec=SPEC,
        workload=BURST,
        grid=Grid.product(**{"workload.count": list(counts)}),
        name=name,
    ).to_dict()


def request(name="serve-study", client="alice", counts=(1, 2)):
    return SubmitRequest(
        campaign=campaign_doc(name, counts=counts), client=client
    )


def run_to_terminal(scheduler, job, timeout_s=30.0):
    """Drive the scheduler's loop until ``job`` is terminal."""
    async def main():
        await scheduler.start()
        for _ in range(int(timeout_s / 0.02)):
            if job.terminal:
                break
            await asyncio.sleep(0.02)
        await scheduler.stop()
    asyncio.run(main())
    assert job.terminal, job.state


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestTokenBucket:
    def test_burst_then_empty(self):
        clock = FakeClock()
        bucket = TokenBucket(capacity=3, rate_per_s=1.0, clock=clock)
        assert [bucket.try_acquire() for _ in range(4)] == [
            True, True, True, False,
        ]

    def test_refills_at_rate(self):
        clock = FakeClock()
        bucket = TokenBucket(capacity=2, rate_per_s=2.0, clock=clock)
        assert bucket.try_acquire() and bucket.try_acquire()
        assert not bucket.try_acquire()
        clock.now += 0.5   # 1 token back at 2/s
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_never_exceeds_capacity(self):
        clock = FakeClock()
        bucket = TokenBucket(capacity=2, rate_per_s=10.0, clock=clock)
        clock.now += 100.0
        assert bucket.try_acquire() and bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_retry_after_names_the_gap(self):
        clock = FakeClock()
        bucket = TokenBucket(capacity=1, rate_per_s=4.0, clock=clock)
        assert bucket.try_acquire()
        assert bucket.retry_after_s == pytest.approx(0.25)

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ConfigurationError, match="capacity"):
            TokenBucket(capacity=0, rate_per_s=1.0)


class TestSubmission:
    def test_rate_limited_past_burst(self):
        clock = FakeClock()
        scheduler = Scheduler(
            queue_depth=100, rate_per_s=1.0, burst=2.0, clock=clock
        )
        scheduler.submit(request(name="a", counts=(1,)))
        scheduler.submit(request(name="b", counts=(2,)))
        with pytest.raises(RateLimited) as exc:
            scheduler.submit(request(name="c", counts=(3,)))
        assert exc.value.retry_after_s > 0
        # Another client has its own bucket.
        job, created = scheduler.submit(
            request(name="c", client="bob", counts=(3,))
        )
        assert created

    def test_queue_full_backpressure(self):
        scheduler = Scheduler(queue_depth=2)
        scheduler.submit(request(name="a", counts=(1,)))
        scheduler.submit(request(name="b", counts=(2,)))
        with pytest.raises(QueueFull, match="capacity"):
            scheduler.submit(request(name="c", counts=(3,)))

    def test_identical_inflight_submission_coalesces(self):
        scheduler = Scheduler()
        job, created = scheduler.submit(request())
        again, created_again = scheduler.submit(request())
        assert created and not created_again
        assert again is job
        assert len(scheduler.jobs()) == 1
        # A different client's identical campaign is its own job.
        other, other_created = scheduler.submit(request(client="bob"))
        assert other_created and other is not job

    def test_uncompilable_campaign_rejected_not_queued(self):
        scheduler = Scheduler()
        bad = SubmitRequest(campaign={"system": {"nodes": []}})
        with pytest.raises(ConfigurationError):
            scheduler.submit(bad)
        assert scheduler.jobs() == []

    def test_job_id_is_stable_content_hash_plus_serial(self):
        scheduler = Scheduler()
        job, _ = scheduler.submit(request())
        assert job.job_id == f"{request().key}-0"


class TestExecution:
    def test_runs_to_done_with_accounting(self):
        scheduler = Scheduler()
        job, _ = scheduler.submit(request())
        run_to_terminal(scheduler, job)
        assert job.state == "done"
        assert job.n_trials == 2
        assert job.done == 2
        assert job.executed == 2
        assert job.cached == 0
        assert job.outcomes == {"ok": 2}
        assert len(job.lines) == 2

    def test_resubmission_serves_from_shared_store(self):
        scheduler = Scheduler()
        first, _ = scheduler.submit(request())
        run_to_terminal(scheduler, first)
        with obs.observe(trace=False, profile=False) as session:
            second, created = scheduler.submit(request())
            assert created   # the first job is terminal: a new job
            run_to_terminal(scheduler, second)
        assert second.state == "done"
        assert second.cached == 2
        assert second.executed == 0
        # Per-client dedupe accounting reaches the obs registry.
        counters = session.metrics.to_dict()["counters"]
        assert counters.get("serve.dedupe_hits{client=alice}") == 2
        # And the record lines are byte-identical across the two jobs.
        assert second.lines == first.lines


class TestTrialGate:
    def test_permits_are_never_over_granted(self):
        gate = TrialGate()
        passed = []
        lock = threading.Lock()

        def worker(n):
            gate.wait()
            with lock:
                passed.append(n)

        threads = [
            threading.Thread(target=worker, args=(n,)) for n in range(8)
        ]
        for thread in threads:
            thread.start()
        gate.release(5)
        deadline = time.monotonic() + 10
        while len(passed) < 5:
            assert time.monotonic() < deadline, passed
            time.sleep(0.005)
        time.sleep(0.05)
        assert len(passed) == 5
        gate.open()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert sorted(passed) == list(range(8))

    def test_held_job_stays_running_between_trials(self):
        gate = TrialGate(permits=1)
        scheduler = Scheduler(gate=gate)
        job, _ = scheduler.submit(request())

        async def main():
            await scheduler.start()
            while job.done < 1:
                await asyncio.sleep(0.005)
            await asyncio.sleep(0.05)
            held = (job.state, job.done)
            gate.release()
            while not job.terminal:
                await asyncio.sleep(0.005)
            await scheduler.stop()
            return held

        held = asyncio.run(asyncio.wait_for(main(), timeout=30))
        assert held == ("running", 1)
        assert job.state == "done" and job.done == 2

    def test_stop_releases_a_held_worker(self, tmp_path):
        gate = TrialGate()
        scheduler = Scheduler(root=tmp_path / "serve", gate=gate)
        job, _ = scheduler.submit(request())

        async def main():
            await scheduler.start()
            while job.state != "running":
                await asyncio.sleep(0.005)
            await scheduler.stop()

        asyncio.run(asyncio.wait_for(main(), timeout=30))
        assert job.done == 0
        recovered = Scheduler(root=tmp_path / "serve")
        assert recovered.get(job.job_id).state == "queued"


class TestJournalRecovery:
    def test_queued_job_survives_restart(self, tmp_path):
        root = tmp_path / "serve"
        scheduler = Scheduler(root=root)
        job, _ = scheduler.submit(request())

        recovered = Scheduler(root=root)
        twin = recovered.get(job.job_id)
        assert twin.state == "queued"
        assert twin.resumptions == 1
        assert twin.request == job.request

    def test_terminal_job_survives_restart_with_results(self, tmp_path):
        root = tmp_path / "serve"
        scheduler = Scheduler(root=root)
        job, _ = scheduler.submit(request())
        run_to_terminal(scheduler, job)
        lines = list(job.lines)

        recovered = Scheduler(root=root)
        twin = recovered.get(job.job_id)
        assert twin.state == "done"
        assert twin.done == twin.n_trials == 2
        assert twin.outcomes == {"ok": 2}
        # Results materialise from the shared store by trial key, as
        # the stored lines: the bytes a local run writes.
        assert recovered.materialize(twin) == lines
        local = Campaign.from_dict(job.request.campaign).run()
        assert lines == [canonical_json(r.record) for r in local]

    def test_recovered_queued_job_resumes_and_completes(self, tmp_path):
        root = tmp_path / "serve"
        first = Scheduler(root=root)
        job, _ = first.submit(request())
        # Never started: the journal holds it as queued.
        recovered = Scheduler(root=root)
        twin = recovered.get(job.job_id)
        run_to_terminal(recovered, twin)
        assert twin.state == "done"
        assert twin.done == 2
