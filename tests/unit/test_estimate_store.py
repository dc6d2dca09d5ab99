"""The one estimate store: the memo's ``point`` domain.

Navigation estimates (``DesignSpace.evaluate``) and confirmation
estimates (``DesignSpace.reestimate``) share one store, keyed per
backend, journaled on the durable substrate, and reached through one
backend call that the estimation guard wraps.
"""

from dataclasses import replace

import pytest

from repro.dse import DesignSpace
from repro.errors import CorruptEstimate, EstimationError
from repro.estimate import EstimatorBackend
from repro.frontend import compile_source
from repro.incremental import MemoStore, open_memo, use_memo
from repro.kernels import FIR
from repro.obs import MetricsRegistry, use_registry
from repro.service.guard import EstimationGuard
from repro.synthesis import synthesize
from repro.target import wildstar_pipelined
from repro.transform import UnrollVector


@pytest.fixture
def board():
    return wildstar_pipelined()


class _Counting(EstimatorBackend):
    id = "counting"
    fidelity = 5

    def __init__(self):
        self.calls = 0

    def _estimate(self, program, board, plan, library, constraints):
        self.calls += 1
        return synthesize(program, board, plan, library, constraints)


class TestReestimate:
    def test_interp_hit_after_interp_miss(self, board):
        registry = MetricsRegistry()
        memo = MemoStore()
        with use_registry(registry), use_memo(memo):
            space = DesignSpace(FIR.program(), board)
            evaluation = space.evaluate(UnrollVector.of(2, 2))
            first = space.reestimate(evaluation, "interp")
            again = DesignSpace(FIR.program(), board).reestimate(
                evaluation, "interp"
            )
        assert again == first
        assert again.provenance.backend == "interp"
        # navigation miss, confirmation miss, then a confirmation hit
        point = {"domain": "point"}
        assert registry.counter_value("incremental.memo.misses", **point) == 2
        assert registry.counter_value("incremental.memo.hits", **point) == 1
        assert memo.counts()["point"] == 2

    def test_confirmation_is_keyed_by_backend(self, board):
        counting = _Counting()
        with use_memo(MemoStore()):
            space = DesignSpace(FIR.program(), board)
            evaluation = space.evaluate(UnrollVector.of(2, 1))
            placed = space.reestimate(evaluation, "placeroute")
            counted = space.reestimate(evaluation, counting)
            space.reestimate(evaluation, counting)
        assert placed.provenance.backend == "placeroute"
        assert counted.provenance.backend == "counting"
        assert counting.calls == 1

    def test_hit_does_not_compile_a_deferred_design(self, board):
        memo = MemoStore()
        unroll = UnrollVector.of(4, 2)
        with use_memo(memo):
            warm_up = DesignSpace(FIR.program(), board)
            warm_up.reestimate(warm_up.evaluate(unroll), "placeroute")
            space = DesignSpace(FIR.program(), board)
            evaluation = space.evaluate(unroll)
            assert not evaluation.design_materialized
            space.reestimate(evaluation, "placeroute")
        assert not evaluation.design_materialized

    def test_failures_are_not_memoized(self, board):
        class Flaky(EstimatorBackend):
            id = "flaky"
            fidelity = 3
            calls = 0

            def _estimate(self, program, board, plan, library, constraints):
                Flaky.calls += 1
                if Flaky.calls == 1:
                    raise EstimationError("first call fails")
                return synthesize(program, board, plan, library, constraints)

        memo = MemoStore()
        with use_memo(memo):
            space = DesignSpace(FIR.program(), board)
            evaluation = space.evaluate(UnrollVector.of(2, 1))
            with pytest.raises(EstimationError):
                space.reestimate(evaluation, Flaky())
            recovered = space.reestimate(evaluation, Flaky())
        assert recovered.provenance.backend == "flaky"
        assert Flaky.calls == 2

    def test_without_memo_calls_the_backend_each_time(self, board):
        counting = _Counting()
        space = DesignSpace(FIR.program(), board)
        evaluation = space.evaluate(UnrollVector.of(2, 1))
        space.reestimate(evaluation, counting)
        space.reestimate(evaluation, counting)
        assert counting.calls == 2


class TestGuardedBackendCall:
    def test_guard_wraps_navigation_and_confirmation(self, board):
        seen = []

        class Recording(EstimationGuard):
            def call(self, fn, *args, backend=None):
                seen.append(backend)
                return super().call(fn, *args, backend=backend)

        guard = Recording(key="job-1")
        with use_memo(MemoStore()):
            space = DesignSpace(FIR.program(), board, guard=guard)
            evaluation = space.evaluate(UnrollVector.of(2, 1))
            space.reestimate(evaluation, "placeroute")
            # memo hits pay nothing: neither call reaches the guard again
            DesignSpace(FIR.program(), board, guard=guard).evaluate(
                UnrollVector.of(2, 1)
            )
            space.reestimate(evaluation, "placeroute")
        assert seen == ["analytic", "placeroute"]

    def test_guard_validates_backend_output(self, board):
        class Garbage(EstimatorBackend):
            id = "garbage"
            fidelity = 4

            def _estimate(self, program, board, plan, library, constraints):
                estimate = synthesize(program, board, plan, library,
                                      constraints)
                return replace(estimate, cycles=-1)

        space = DesignSpace(
            FIR.program(), board, guard=EstimationGuard(), backend=Garbage(),
        )
        with pytest.raises(CorruptEstimate):
            space.evaluate(UnrollVector.of(1, 1))


class TestJournaledEstimates:
    def test_roundtrip_through_disk(self, tmp_path, board):
        unroll = UnrollVector.of(2, 2)
        writer = open_memo(tmp_path)
        with use_memo(writer):
            direct = DesignSpace(FIR.program(), board).evaluate(unroll)
        writer.close()
        reader = open_memo(tmp_path)
        with use_memo(reader):
            cached = DesignSpace(FIR.program(), board).evaluate(unroll)
        assert (reader.hits, reader.misses) == (1, 0)
        assert cached.estimate == direct.estimate
        assert cached.estimate.area.as_dict() == \
            direct.estimate.area.as_dict()

    def test_provenance_roundtrips_through_disk(self, tmp_path, board):
        unroll = UnrollVector.of(2, 2)
        writer = open_memo(tmp_path)
        with use_memo(writer):
            space = DesignSpace(FIR.program(), board)
            direct = space.reestimate(space.evaluate(unroll), "placeroute")
        writer.close()
        reader = open_memo(tmp_path)
        with use_memo(reader):
            space = DesignSpace(FIR.program(), board)
            cached = space.reestimate(space.evaluate(unroll), "placeroute")
        assert reader.misses == 0
        assert cached.provenance == direct.provenance
        assert cached.provenance.details == direct.provenance.details
        assert cached.cycles == direct.cycles

    def test_infinite_balance_roundtrips(self, tmp_path, board):
        program = compile_source(
            "int A[1]; int x; A[0] = 1;\n"
            "for (i = 0; i < 8; i++) x = x + i * 3;"
        )
        unroll = UnrollVector.of(1)
        writer = open_memo(tmp_path)
        with use_memo(writer):
            first = DesignSpace(program, board).evaluate(unroll)
        writer.close()
        assert first.balance == float("inf")
        with use_memo(open_memo(tmp_path)) as reader:
            again = DesignSpace(program, board).evaluate(unroll)
        assert reader.hits == 1
        assert again.balance == float("inf")
