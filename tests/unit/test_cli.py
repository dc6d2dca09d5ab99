"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import main


class TestKernelsCommand:
    def test_lists_all_five(self, capsys):
        assert main(["kernels"]) == 0
        out = capsys.readouterr().out
        for name in ("fir", "mm", "pat", "jac", "sobel"):
            assert name in out


class TestEstimateCommand:
    def test_builtin_kernel(self, capsys):
        assert main(["estimate", "kernel:fir", "--unroll", "2,2"]) == 0
        out = capsys.readouterr().out
        assert "cycles" in out and "fetch rate" in out

    def test_bad_unroll_arity(self, capsys):
        assert main(["estimate", "kernel:fir", "--unroll", "2"]) == 1
        assert "unroll vector" in capsys.readouterr().err

    def test_bad_unroll_format(self, capsys):
        assert main(["estimate", "kernel:fir", "--unroll", "two,two"]) == 1

    def test_unknown_board(self, capsys):
        assert main(["estimate", "kernel:fir", "--unroll", "1,1",
                     "--board", "warp"]) == 1
        assert "unknown board" in capsys.readouterr().err


class TestCompileCommand:
    def test_source_file(self, tmp_path, capsys):
        source = tmp_path / "scale.c"
        source.write_text("""
        int A[16]; int B[16];
        for (i = 0; i < 16; i++) B[i] = A[i] * 3;
        """)
        assert main(["compile", str(source), "--unroll", "4",
                     "--print-code"]) == 0
        out = capsys.readouterr().out
        assert "compiled scale@4" in out
        assert "B0[" in out or "B[" in out

    def test_writes_hdl(self, tmp_path, capsys):
        vhdl = tmp_path / "fir.vhd"
        verilog = tmp_path / "fir.v"
        assert main(["compile", "kernel:fir", "--unroll", "2,2",
                     "--vhdl", str(vhdl), "--verilog", str(verilog)]) == 0
        assert "entity fir is" in vhdl.read_text()
        assert "module fir (" in verilog.read_text()

    def test_missing_file(self, capsys):
        assert main(["compile", "/does/not/exist.c", "--unroll", "1,1"]) == 1
        assert "no such file" in capsys.readouterr().err

    def test_parse_error_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.c"
        bad.write_text("int x; x = ;")
        assert main(["compile", str(bad), "--unroll", "1"]) == 1
        assert "error" in capsys.readouterr().err


class TestExploreCommand:
    def test_report_and_json(self, tmp_path, capsys):
        summary_path = tmp_path / "out.json"
        assert main(["explore", "kernel:jac", "--board", "np",
                     "--json", str(summary_path)]) == 0
        out = capsys.readouterr().out
        assert "selected U=" in out
        summary = json.loads(summary_path.read_text())
        assert summary["program"] == "jac"
        assert summary["speedup"] > 1.0
        assert summary["points_searched"] >= 1

    def test_narrow_option(self, capsys):
        assert main(["explore", "kernel:pat", "--narrow"]) == 0
        assert "selected" in capsys.readouterr().out

    def test_testbench_requires_kernel(self, tmp_path, capsys):
        source = tmp_path / "k.c"
        source.write_text("""
        int A[8]; int B[8];
        for (i = 0; i < 8; i++) B[i] = A[i];
        """)
        assert main(["explore", str(source),
                     "--testbench", str(tmp_path / "tb.vhd")]) == 1
        assert "kernel:" in capsys.readouterr().err

    def test_testbench_for_kernel(self, tmp_path, capsys):
        tb = tmp_path / "tb.vhd"
        assert main(["explore", "kernel:fir", "--testbench", str(tb)]) == 0
        assert "entity tb_fir is" in tb.read_text()

    def test_ablation_flags(self, capsys):
        assert main(["explore", "kernel:fir", "--no-outer-reuse",
                     "--no-layout", "--board", "np"]) == 0


class TestStrategyCommands:
    def test_strategies_verb_lists_registry(self, capsys):
        from repro.dse import strategy_ids
        assert main(["strategies"]) == 0
        out = capsys.readouterr().out
        for strategy_id in strategy_ids():
            assert strategy_id in out
        assert "(default)" in out
        assert "partitionable" in out and "sequential" in out
        assert "auto" in out

    def test_explore_strategy_flag(self, tmp_path, capsys):
        summary_path = tmp_path / "out.json"
        assert main(["explore", "kernel:fir", "--strategy", "genetic",
                     "--json", str(summary_path)]) == 0
        assert "strategy: genetic" in capsys.readouterr().out
        summary = json.loads(summary_path.read_text())
        assert summary["strategy"] == "genetic"

    def test_explore_default_strategy_summary_unchanged(
        self, tmp_path, capsys
    ):
        summary_path = tmp_path / "out.json"
        assert main(["explore", "kernel:fir",
                     "--json", str(summary_path)]) == 0
        summary = json.loads(summary_path.read_text())
        assert "strategy" not in summary
        assert "strategy_selection" not in summary

    def test_explore_auto_reports_selection(self, tmp_path, capsys):
        summary_path = tmp_path / "out.json"
        assert main(["explore", "kernel:mm", "--strategy", "auto",
                     "--json", str(summary_path)]) == 0
        out = capsys.readouterr().out
        assert "strategy: exhaustive" in out
        assert "auto:" in out
        summary = json.loads(summary_path.read_text())
        assert summary["strategy_selection"]["strategy"] == "exhaustive"

    def test_unknown_strategy_fails_with_valid_set(self, capsys):
        assert main(["explore", "kernel:fir",
                     "--strategy", "anneal"]) == 1
        err = capsys.readouterr().err
        assert "anneal" in err and "balance" in err


class TestVersionFlag:
    def test_version_prints_and_exits_zero(self, capsys):
        from repro.version import get_version
        with pytest.raises(SystemExit) as caught:
            main(["--version"])
        assert caught.value.code == 0
        assert f"repro {get_version()}" in capsys.readouterr().out

    def test_dunder_version_matches(self):
        import repro
        from repro.version import get_version
        assert repro.__version__ == get_version()


class TestTraceDiagnostics:
    def test_missing_run_dir_is_one_line_error(self, capsys):
        assert main(["trace", "/does/not/exist"]) == 1
        err = capsys.readouterr().err
        assert "no such run directory" in err
        assert len(err.strip().splitlines()) == 1

    def test_dir_without_spans_is_one_line_error(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "has no spans.jsonl" in err
        assert len(err.strip().splitlines()) == 1


class TestMemoDirOption:
    """``--cache`` is a second spelling of ``--memo-dir``: the memo
    journal is the one persistent estimate store."""

    def test_serial_explore_cache_is_the_memo_dir(self, tmp_path, capsys):
        memo = tmp_path / "memo"
        runs = []
        for name in ("cold.json", "warm.json"):
            assert main(["explore", "kernel:fir", "--cache", str(memo),
                         "--json", str(tmp_path / name)]) == 0
            runs.append(json.loads((tmp_path / name).read_text()))
        out = capsys.readouterr().out
        cold, warm = runs
        assert cold["memo"]["entries"]["point"] > 0
        assert warm["memo"]["misses"] == 0
        assert warm["memo"]["hits"] == warm["points_searched"]
        assert "(100%)" in out.strip().splitlines()[-2]
        assert warm["selected_unroll"] == cold["selected_unroll"]
        assert warm["cycles"] == cold["cycles"]

    def test_alias_and_long_form_share_one_destination(self):
        from repro.cli import build_parser
        parser = build_parser()
        for verb in (["explore", "kernel:fir"], ["batch", "m.json"],
                     ["serve", "--state-dir", "s"], ["worker"]):
            for flag in ("--cache", "--memo-dir"):
                args = parser.parse_args(verb + [flag, "d"])
                assert args.memo_dir == "d", (verb, flag)

    @pytest.mark.parametrize("argv", [
        ["explore", "kernel:fir"],
        ["explore", "kernel:fir", "--parallel"],
        ["batch", "MANIFEST"],
        ["serve", "--state-dir", "STATE", "--port", "0"],
        ["worker", "--idle-exit", "0"],
    ], ids=["explore", "explore-parallel", "batch", "serve", "worker"])
    @pytest.mark.parametrize("flag", ["--memo-dir", "--cache"])
    def test_regular_file_is_rejected_up_front(self, tmp_path, capsys,
                                               argv, flag):
        legacy = tmp_path / "estimates.json"
        legacy.write_text("{}")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"jobs": [{"program": "kernel:fir"}]}))
        argv = [str(manifest) if arg == "MANIFEST" else
                str(tmp_path / "state") if arg == "STATE" else arg
                for arg in argv]
        assert main(argv + [flag, str(legacy)]) == 1
        err = capsys.readouterr().err
        assert "--memo-dir" in err and "is a file" in err
        assert legacy.read_text() == "{}"  # neither read nor touched
        assert not (tmp_path / "state").exists()
