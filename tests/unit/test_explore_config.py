"""The single-config call shapes.

``explore()`` and ``JobSpec.create()`` both take one keyword-only
``config=`` object; any other option keyword, or an extra positional,
is a ``TypeError``.
"""

import warnings

import pytest

from repro.dse import ExploreConfig, SearchOptions, explore
from repro.errors import ServiceError
from repro.service import JobConfig, JobSpec


class TestExploreConfigShape:
    def test_config_only_call_does_not_warn(self, tiny_program,
                                            pipelined_board):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            result = explore(tiny_program, pipelined_board,
                             config=ExploreConfig(
                                 search=SearchOptions(max_iterations=4)))
        assert result.points_searched >= 1

    def test_bare_call_does_not_warn(self, tiny_program, pipelined_board):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            explore(tiny_program, pipelined_board)

    def test_unknown_keyword_is_an_error(self, tiny_program,
                                         pipelined_board):
        with pytest.raises(TypeError, match="unexpected keyword"):
            explore(tiny_program, pipelined_board, serach_options=None)

    def test_too_many_positionals_is_an_error(self, tiny_program,
                                              pipelined_board):
        with pytest.raises(TypeError, match="positional"):
            explore(tiny_program, pipelined_board,
                    None, None, None, None, None, None)

class TestJobSpecCreate:
    def test_config_call_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            spec = JobSpec.create(
                "kernel:fir",
                config=JobConfig(board="nonpipelined", max_attempts=3),
            )
        assert spec.board == "nonpipelined"
        assert spec.max_attempts == 3
        assert spec.id == "fir-nonpipelined"

    def test_default_config(self):
        spec = JobSpec.create("kernel:mm")
        assert spec.board == "pipelined"
        assert spec.id == "mm-pipelined"

    def test_option_dataclasses_normalized_to_primitives(self):
        spec = JobSpec.create(
            "kernel:fir",
            config=JobConfig(search=SearchOptions(max_iterations=8)),
        )
        assert dict(spec.search)["max_iterations"] == 8

    def test_unknown_keyword_is_an_error(self):
        with pytest.raises(TypeError, match="unexpected"):
            JobSpec.create("kernel:fir", borad="pipelined")

    def test_bad_board_still_a_service_error(self):
        with pytest.raises(ServiceError, match="unknown board"):
            JobSpec.create("kernel:fir", config=JobConfig(board="asic"))


class TestStableSurface:
    def test_top_level_reexports(self):
        import repro
        for name in ("ExploreConfig", "MetricsRegistry", "ObsConfig",
                     "Span", "Tracer", "explore"):
            assert hasattr(repro, name), name
            assert name in repro.__all__

    def test_service_exports_job_config(self):
        import repro.service
        assert "JobConfig" in repro.service.__all__
