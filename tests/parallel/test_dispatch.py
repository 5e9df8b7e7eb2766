"""Unit tests for the fault-tolerant chunk dispatcher.

These exercise the supervisor directly with tiny arithmetic workers — no
genome pipeline — so each recovery path (remote error, worker death, hang
past deadline, rejected partial, exhausted retries, failed init) is pinned
in isolation.  The dispatcher's fleet outlives ``run()``, so the
``dispatcher`` fixture closes every fleet it built.  The fork start method
keeps the workers cheap and lets the worker functions live in this module;
the spawn path is covered end-to-end in
``tests/pipeline/test_mp_backend.py``.
"""

import multiprocessing as mp
import os
import time

import pytest

from repro.observability import scope
from repro.parallel.dispatch import ChunkDispatcher

pytestmark = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(),
    reason="fork start method unavailable",
)


def _square(payload, chunk_id, attempt):
    return payload * payload


def _fail_chunk1_first_attempt(payload, chunk_id, attempt):
    if chunk_id == 1 and attempt == 0:
        raise ValueError("transient boom")
    return payload


def _crash_chunk0_first_attempt(payload, chunk_id, attempt):
    if chunk_id == 0 and attempt == 0:
        os._exit(70)
    return payload


def _hang_chunk0_first_attempt(payload, chunk_id, attempt):
    if chunk_id == 0 and attempt == 0:
        time.sleep(30.0)
    return payload


def _always_fail_chunk2(payload, chunk_id, attempt):
    if chunk_id == 2:
        raise ValueError("persistent boom")
    return payload


def _bad_init():
    raise RuntimeError("init exploded")


@pytest.fixture
def dispatcher():
    """Factory for fork dispatchers; closes every fleet it built."""
    built = []

    def make(worker_fn, **kwargs):
        kwargs.setdefault("timeout", 30.0)
        kwargs.setdefault("backoff_base", 0.01)
        built.append(
            ChunkDispatcher(mp.get_context("fork"), 2, worker_fn, **kwargs)
        )
        return built[-1]

    yield make
    for d in built:
        d.close()


class TestHappyPath:
    def test_all_chunks_complete(self, dispatcher):
        outcome = dispatcher(_square).run([1, 2, 3, 4, 5])
        assert outcome.results == {0: 1, 1: 4, 2: 9, 3: 16, 4: 25}
        assert outcome.fallback == []
        assert outcome.events == []
        assert outcome.retries == 0

    def test_empty_payloads(self, dispatcher):
        outcome = dispatcher(_square).run([])
        assert outcome.results == {}
        assert outcome.fallback == []


class TestRecovery:
    def test_remote_error_is_retried(self, dispatcher):
        with scope() as reg:
            outcome = dispatcher(_fail_chunk1_first_attempt).run([10, 20, 30])
        assert outcome.results == {0: 10, 1: 20, 2: 30}
        assert outcome.retries == 1
        assert [e.kind for e in outcome.events] == ["error"]
        assert outcome.events[0].chunk_id == 1
        snap = reg.snapshot()
        assert snap.counter("mp.chunk_errors") == 1
        assert snap.counter("mp.chunk_retries") == 1

    def test_worker_death_is_retried_on_fresh_worker(self, dispatcher):
        with scope() as reg:
            outcome = dispatcher(_crash_chunk0_first_attempt).run([7, 8, 9])
        assert outcome.results == {0: 7, 1: 8, 2: 9}
        kinds = [e.kind for e in outcome.events]
        assert kinds == ["crash"]
        snap = reg.snapshot()
        assert snap.counter("mp.worker_deaths") == 1
        assert snap.counter("mp.chunk_retries") == 1

    def test_hang_past_deadline_is_killed_and_retried(self, dispatcher):
        with scope() as reg:
            outcome = dispatcher(
                _hang_chunk0_first_attempt, timeout=1.0
            ).run([1, 2])
        assert outcome.results == {0: 1, 1: 2}
        assert [e.kind for e in outcome.events] == ["timeout"]
        snap = reg.snapshot()
        assert snap.counter("mp.chunk_timeouts") == 1

    def test_exhausted_retries_degrade_to_fallback(self, dispatcher):
        with scope() as reg:
            outcome = dispatcher(
                _always_fail_chunk2, max_retries=1
            ).run([1, 2, 3, 4])
        assert outcome.results == {0: 1, 1: 2, 3: 4}
        assert outcome.fallback == [2]
        # attempt 0 failed and was retried; attempt 1 failed and fell back.
        assert [e.kind for e in outcome.events] == ["error", "error"]
        assert reg.snapshot().counter("mp.chunk_retries") == 1

    def test_rejected_partial_is_retried(self, dispatcher):
        rejected = []

        def validate(chunk_id, result):
            if chunk_id == 0 and not rejected:
                rejected.append(chunk_id)
                raise ValueError("corrupt partial")

        with scope() as reg:
            outcome = dispatcher(_square, validate=validate).run([3, 4])
        assert outcome.results == {0: 9, 1: 16}
        assert [e.kind for e in outcome.events] == ["partial_reject"]
        assert reg.snapshot().counter("mp.partial_rejects") == 1

    def test_deterministic_init_failure_degrades_everything(self, dispatcher):
        outcome = dispatcher(_square, initializer=_bad_init).run([1, 2, 3])
        assert outcome.results == {}
        assert sorted(outcome.fallback) == [0, 1, 2]
        kinds = {e.kind for e in outcome.events}
        assert "init_error" in kinds
        assert "no_workers" in kinds

