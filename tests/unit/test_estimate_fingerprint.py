"""The design fingerprint behind ``Provenance.cache_key``.

``EstimatorBackend.fingerprint`` hashes everything an estimate depends
on: the printed program, the layout binding, the board, the operator
library and (for non-default backends) the backend id.  Its bytes are
stored inside every journaled memo point entry, so the digests are
pinned to literal values: a change here silently forks every existing
memo journal.
"""

import pytest

from repro.estimate import EstimatorBackend, get_backend
from repro.kernels import FIR
from repro.synthesis.operators import OperatorLibrary, default_library
from repro.target import wildstar_nonpipelined, wildstar_pipelined
from repro.transform import UnrollVector, compile_design

#: cache_key of the FIR baseline (no unrolling) on the pipelined board.
FIR_BASELINE_ANALYTIC = (
    "da1aa91d8a60acc78aa5369a7c4c01d8367769b99043133da1554d4794c92b2f"
)
FIR_BASELINE_INTERP = (
    "d957603cabbf7a6879c2046da956cf8157e6c2647c8abe40c8e9f25f04a029c5"
)


@pytest.fixture
def design():
    return compile_design(FIR.program(), UnrollVector.of(2, 2), 4)


def _key(design, board, library=None, backend="analytic"):
    return EstimatorBackend.fingerprint(
        design.program, board, design.plan,
        library or default_library(board.clock_ns), backend=backend,
    )


class TestPinnedDigests:
    @pytest.mark.parametrize("backend, digest", [
        ("analytic", FIR_BASELINE_ANALYTIC),
        ("interp", FIR_BASELINE_INTERP),
    ])
    def test_fir_baseline_cache_key(self, backend, digest):
        board = wildstar_pipelined()
        baseline = compile_design(
            FIR.program(), UnrollVector.of(1, 1), board.num_memories
        )
        key = get_backend(backend).cache_key(
            baseline.program, board, baseline.plan
        )
        assert key == digest

    def test_estimate_provenance_carries_the_pinned_key(self):
        board = wildstar_pipelined()
        baseline = compile_design(
            FIR.program(), UnrollVector.of(1, 1), board.num_memories
        )
        estimate = get_backend("analytic").estimate(
            baseline.program, board, baseline.plan
        )
        assert estimate.provenance.cache_key == FIR_BASELINE_ANALYTIC


class TestKeyDistinctness:
    def test_board_changes_key(self, design):
        assert _key(design, wildstar_pipelined()) != \
            _key(design, wildstar_nonpipelined())

    def test_library_changes_key(self, design):
        board = wildstar_pipelined()
        assert _key(design, board) != \
            _key(design, board, OperatorLibrary(mul_latency=3))

    def test_program_changes_key(self, design):
        board = wildstar_pipelined()
        other = compile_design(FIR.program(), UnrollVector.of(4, 1), 4)
        assert _key(design, board) != _key(other, board)

    def test_backend_changes_key(self, design):
        """An interp request can never be served an analytic entry."""
        board = wildstar_pipelined()
        keys = {
            backend: get_backend(backend).cache_key(
                design.program, board, design.plan
            )
            for backend in ("analytic", "placeroute", "interp")
        }
        assert len(set(keys.values())) == 3

    def test_default_fingerprint_has_no_backend_suffix(self, design):
        """The analytic (default) fingerprint is byte-identical to the
        historical pre-backend one."""
        board = wildstar_pipelined()
        library = default_library(board.clock_ns)
        default = EstimatorBackend.fingerprint(
            design.program, board, design.plan, library
        )
        assert default == _key(design, board, library, backend="analytic")
        assert default != _key(design, board, library, backend="interp")
