"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.obs import metrics as obs_metrics

#: Bad invocations and the flag (or value) each one's error must name.
BAD_INVOCATIONS = [
    (["table", "2", "--width", "16"], "--width"),
    (["table", "8", "--width", "16"], "--width"),
    (["tables", "8", "--width", "16"], "--width"),
    (["tables", "1", "--width", "0"], "--width"),
    (["analyze", "--length", "-5"], "--length"),
    (["analyze", "--codecs", "nosuch"], "nosuch"),
    (["analyze", "--trace-file", "no/such.trace"], "--trace-file"),
    (["power", "--length", "-3"], "--length"),
    (["explore", "--length", "-1"], "--length"),
    (["faults", "--length", "-1"], "--length"),
    (["faults", "--injections", "-1"], "--injections"),
    (["export", "out.json", "--length", "-1"], "--length"),
    (["timing", "--width", "0"], "--width"),
    (["generate", "out.trace", "--length", "-1"], "--length"),
]


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table_number_parsed(self):
        args = build_parser().parse_args(["table", "3", "--length", "100"])
        assert args.numbers == [3]
        assert args.length == 100


class TestCommands:
    def test_list_codecs(self, capsys):
        assert main(["list-codecs"]) == 0
        out = capsys.readouterr().out
        assert "t0" in out
        assert "dualt0bi" in out

    def test_table1(self, capsys):
        assert main(["table", "1"]) == 0
        assert "Table 1" in capsys.readouterr().out

    def test_table2_small(self, capsys):
        assert main(["table", "2", "--length", "800"]) == 0
        out = capsys.readouterr().out
        assert "gzip" in out
        assert "paper" in out

    def test_table_out_of_range(self, capsys):
        assert main(["table", "12"]) == 2
        err = capsys.readouterr().err
        assert "1-9" in err
        assert len(err.strip().splitlines()) == 1

    def test_table_negative_number(self, capsys):
        assert main(["table", "-3"]) == 2
        assert "1-9" in capsys.readouterr().err

    def test_table_bad_width(self, capsys):
        assert main(["table", "2", "--width", "0"]) == 2
        err = capsys.readouterr().err
        assert "--width" in err
        assert len(err.strip().splitlines()) == 1

    def test_table_bad_length(self, capsys):
        assert main(["table", "2", "--length", "-10"]) == 2
        err = capsys.readouterr().err
        assert "--length" in err
        assert len(err.strip().splitlines()) == 1

    def test_analyze_benchmark(self, capsys):
        assert (
            main(
                [
                    "analyze",
                    "--benchmark",
                    "gzip",
                    "--kind",
                    "instruction",
                    "--length",
                    "1500",
                    "--codecs",
                    "t0",
                    "gray",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "t0" in out
        assert "binary" in out  # reference row always shown

    def test_generate_and_analyze_file(self, tmp_path, capsys):
        path = tmp_path / "trace.txt"
        assert (
            main(
                [
                    "generate",
                    str(path),
                    "--benchmark",
                    "jedi",
                    "--kind",
                    "data",
                    "--length",
                    "500",
                ]
            )
            == 0
        )
        assert path.exists()
        capsys.readouterr()
        assert main(["analyze", "--trace-file", str(path), "--codecs", "t0"]) == 0
        assert "jedi.data" in capsys.readouterr().out

    def test_kernel(self, capsys, tmp_path):
        out_path = tmp_path / "fib.trace"
        assert main(["kernel", "fibonacci", "--output", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "fibonacci.instruction" in out
        assert out_path.exists()

    def test_sweep_stride(self, capsys):
        assert main(["sweep", "stride"]) == 0
        assert "stride" in capsys.readouterr().out


class TestNewCommands:
    def test_timing(self, capsys):
        assert main(["timing"]) == 0
        out = capsys.readouterr().out
        assert "dualt0bi" in out
        assert "5.36" in out  # paper reference in the title

    def test_power(self, capsys):
        assert main(["power", "--length", "300", "--codecs", "binary", "t0"]) == 0
        out = capsys.readouterr().out
        assert "encoder (mW)" in out
        assert "t0" in out

    def test_faults(self, capsys):
        assert (
            main(
                [
                    "faults",
                    "--length",
                    "300",
                    "--injections",
                    "20",
                    "--codecs",
                    "binary",
                    "t0",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "mean corrupted" in out

    def test_explore(self, capsys):
        assert main(["explore", "--length", "250", "--load-pf", "100"]) == 0
        out = capsys.readouterr().out
        assert "pareto front" in out
        assert "recommendation" in out

    def test_lint_clean_tree(self, capsys):
        """The shipped circuits and codecs carry zero errors (ISSUE gate)."""
        assert (
            main(
                [
                    "lint",
                    "--codecs",
                    "binary",
                    "t0",
                    "--width",
                    "8",
                    "--cycles",
                    "300",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "0 errors" in out
        assert "0 warnings" in out

    def test_lint_json(self, capsys):
        import json

        assert (
            main(
                [
                    "lint",
                    "--codecs",
                    "binary",
                    "--width",
                    "4",
                    "--cycles",
                    "200",
                    "--json",
                ]
            )
            == 0
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"]["errors"] == 0
        assert doc["summary"]["targets"] == len(doc["reports"])
        assert all(report["ok"] for report in doc["reports"])

    def test_lint_unknown_codec(self, capsys):
        assert main(["lint", "--codecs", "nosuch"]) == 2
        assert "nosuch" in capsys.readouterr().err

    def test_lint_seeded_defect_fails(self, capsys):
        """A registry entry violating the codec contract turns the exit
        code nonzero — the CLI surfaces analysis errors."""
        from repro.core import registry
        from repro.core.base import (
            BusDecoder,
            BusEncoder,
            Codec,
            SEL_INSTRUCTION,
        )
        from repro.core.word import EncodedWord

        class _Enc(BusEncoder):
            def reset(self):
                pass

            def encode(self, address, sel=SEL_INSTRUCTION):
                return EncodedWord(bus=address)

        class _Dec(BusDecoder):
            def reset(self):
                pass

            def decode(self, word, sel=SEL_INSTRUCTION):
                return 0 if word.bus == 1 else word.bus

        @registry.register_codec("cli-broken")
        def _broken(width):
            return Codec(
                name="cli-broken",
                width=width,
                encoder_factory=lambda: _Enc(width),
                decoder_factory=lambda: _Dec(width),
            )

        try:
            code = main(
                [
                    "lint",
                    "--codecs",
                    "cli-broken",
                    "--skip-netlint",
                    "--skip-activity",
                    "--contract-width",
                    "3",
                ]
            )
        finally:
            del registry._REGISTRY["cli-broken"]
        assert code == 1
        out = capsys.readouterr().out
        assert "CC004" in out

    def test_export(self, capsys, tmp_path):
        import json

        path = tmp_path / "results.json"
        assert (
            main(
                [
                    "export",
                    str(path),
                    "--length",
                    "600",
                    "--no-power",
                    "--no-sweeps",
                ]
            )
            == 0
        )
        doc = json.loads(path.read_text())
        assert "2" in doc["tables"]


class TestArgumentContract:
    """Every bad value: exit 2, one stderr line naming it, no traceback,
    and no trace generated first."""

    @pytest.mark.parametrize(
        "argv, named", BAD_INVOCATIONS, ids=[" ".join(a) for a, _ in BAD_INVOCATIONS]
    )
    def test_bad_invocation_is_one_line_exit_2(
        self, argv, named, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)  # any output file lands here
        before = obs_metrics.snapshot("tracegen.")
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        (line,) = err.strip().splitlines()
        assert line.startswith(f"repro-bus {argv[0]}: error: ")
        assert named in line
        assert obs_metrics.snapshot("tracegen.") == before
        assert list(tmp_path.iterdir()) == []
