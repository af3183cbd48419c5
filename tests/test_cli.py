"""Command-line interface smoke and behaviour tests."""

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list_command(capsys):
    code, out, _ = run_cli(capsys, "list")
    assert code == 0
    assert "kernel:crc32" in out
    assert "fig5" in out
    assert "ftspm" in out


def test_profile_case(capsys):
    code, out, _ = run_cli(capsys, "profile", "case",
                           "--array-words", "32",
                           "--outer-iterations", "1")
    assert code == 0
    assert "Array1" in out
    assert "Stack" in out


def test_profile_synthetic(capsys):
    code, out, _ = run_cli(capsys, "profile", "sha")
    assert code == 0
    assert "digest_state" in out


def test_map_ftspm(capsys):
    code, out, _ = run_cli(capsys, "map", "case",
                           "--array-words", "32",
                           "--outer-iterations", "1")
    assert code == 0
    assert "STT-RAM" in out
    assert "step1" in out


def test_map_baseline(capsys):
    code, out, _ = run_cli(capsys, "map", "sha",
                           "--structure", "baseline-sram")
    assert code == 0
    assert "Yes" in out


def test_map_mode_flag(capsys):
    code, out, _ = run_cli(capsys, "map", "sha", "--mode", "reliability")
    assert code == 0
    assert "mode=reliability" in out


def test_run_kernel(capsys):
    code, out, _ = run_cli(capsys, "run", "kernel:bitcount")
    assert code == 0
    assert "cycles" in out
    assert "dynamic energy" in out


def test_run_profile_only_workload_fails(capsys):
    code, _, err = run_cli(capsys, "run", "sha")
    assert code == 1
    assert "profile-only" in err


def test_inject(capsys):
    """Injection has one command, ``campaign``; ``inject`` is gone."""
    with pytest.raises(SystemExit) as caught:
        main(["inject", "sha", "--trials", "5000"])
    assert caught.value.code == 2  # argparse usage error
    err = capsys.readouterr().err
    assert "invalid choice" in err and "inject" in err


def test_disasm(capsys):
    code, out, _ = run_cli(capsys, "disasm", "kernel:bitcount")
    assert code == 0
    assert "bl popcount" in out  # branch targets print symbolically
    assert "ldr" in out


def test_experiments_subset(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "experiments", "fig3", "table4",
                           "--out", str(tmp_path))
    assert code == 0
    assert "Fig. 3" in out
    assert (tmp_path / "fig3.txt").exists()
    assert (tmp_path / "table4.txt").exists()


def test_trace_record_and_replay(capsys, tmp_path):
    path = tmp_path / "k.trace"
    code, out, _ = run_cli(capsys, "trace", "kernel:bitcount",
                           "--out", str(path))
    assert code == 0
    assert "captured" in out
    assert path.exists()
    code, out, _ = run_cli(capsys, "trace", "ignored",
                           "--replay", str(path))
    assert code == 0
    assert "replayed" in out


def test_trace_profile_only_workload_fails(capsys):
    code, _, err = run_cli(capsys, "trace", "sha")
    assert code == 1
    assert "cannot be traced" in err


def test_unknown_workload_is_reported(capsys):
    code, _, err = run_cli(capsys, "profile", "doom")
    assert code == 1
    assert "unknown workload" in err


@pytest.mark.parametrize("argv, name", [
    (("run", "kernel:crc32", "--scale", "-1"), "scale"),
    (("run", "kernel:crc32", "--scale", "0"), "scale"),
    (("profile", "case", "--outer-iterations", "-1"), "outer_iterations"),
    (("map", "case", "--array-words", "0"), "array_words"),
    (("report", "--array-words", "0"), "array_words"),
    (("report", "--array-words", "16", "--outer-iterations", "-1"),
     "outer_iterations"),
])
def test_non_positive_workload_size_is_reported(capsys, argv, name):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert not out
    assert err.startswith("error: %s must be positive" % name)


def test_parser_rejects_unknown_structure():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "case", "--structure", "weird"])
