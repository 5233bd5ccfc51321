"""Command-line interface: outputs, exit codes, file round trips."""

from __future__ import annotations

import pytest

from tdsolve import cli, driver
from tdsolve.cli import main
from tdsolve.graphio import MAX_VERTICES
from tdsolve.validator import Violation, ViolationKind

P3_GR = "p tw 3 2\n1 2\n2 3\n"
K3_GR = "p tw 3 3\n1 2\n2 3\n1 3\n"
E3_GR = "p tw 3 0\n"


@pytest.fixture
def p3(tmp_path):
    f = tmp_path / "p3.gr"
    f.write_text(P3_GR)
    return str(f)


@pytest.fixture
def k3(tmp_path):
    f = tmp_path / "k3.gr"
    f.write_text(K3_GR)
    return str(f)


def test_treewidth_trace_and_result(p3, capsys):
    assert main(["treewidth", p3]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].startswith("m=1 w=3 SAT")
    assert lines[1].startswith("m=2 w=2 SAT")
    assert "min_width=2" in lines
    assert "treewidth=1" in lines


def test_stdout_byte_identical_across_runs(k3, capsys):
    main(["treewidth", k3])
    first = capsys.readouterr().out
    main(["treewidth", k3])
    second = capsys.readouterr().out
    assert first == second
    assert "time=" not in first


def test_stats_adds_timing(k3, capsys):
    main(["treewidth", k3, "--stats"])
    out = capsys.readouterr().out
    assert "propagations=" in out and "fails=" in out and "time=" in out


def test_decide_sat_writes_td(k3, tmp_path, capsys):
    td_file = tmp_path / "out.td"
    code = main(["decide", k3, "--m", "1", "--w", "3", "--td-output", str(td_file)])
    assert code == 10
    assert capsys.readouterr().out == "SAT\n"
    assert td_file.read_text() == "s td 1 3 3\nb 1 1 2 3\n"


def test_decide_unsat_exit_code(k3, capsys):
    assert main(["decide", k3, "--m", "2", "--w", "2"]) == 20
    assert capsys.readouterr().out == "UNSAT\n"


def test_decide_indeterminate_exit_code(tmp_path, capsys):
    g = tmp_path / "g.gr"
    g.write_text("p tw 6 9\n1 2\n2 3\n3 4\n4 5\n5 6\n6 1\n1 4\n2 5\n3 6\n")
    assert main(["decide", str(g), "--m", "3", "--w", "4", "--decision-limit", "1"]) == 2
    assert capsys.readouterr().out == "INDETERMINATE\n"


def test_width_command_writes_validating_td(p3, tmp_path, capsys):
    td_file = tmp_path / "witness.td"
    assert main(["treewidth", p3, "--td-output", str(td_file)]) == 0
    capsys.readouterr()
    assert main(["validate", p3, str(td_file)]) == 0
    assert capsys.readouterr().out == "OK\n"


def test_validate_reports_violations(p3, tmp_path, capsys):
    bad = tmp_path / "bad.td"
    # vertex 2 in the two leaves but not on the path between them
    bad.write_text("s td 3 2 3\nb 1 1 2\nb 2 1 3\nb 3 2 3\n1 2\n2 3\n")
    assert main(["validate", p3, str(bad)]) == 0
    out = capsys.readouterr().out
    assert "CONNECTEDNESS" in out


def test_validate_expected_m_w(p3, tmp_path, capsys):
    td_file = tmp_path / "witness.td"
    main(["treewidth", p3, "--td-output", str(td_file)])
    capsys.readouterr()
    assert main(["validate", p3, str(td_file), "--m", "5"]) == 0
    assert "NODE_COUNT" in capsys.readouterr().out


def test_pathwidth_command(tmp_path, capsys):
    f = tmp_path / "p4.gr"
    f.write_text("p tw 4 3\n1 2\n2 3\n3 4\n")
    assert main(["pathwidth", str(f)]) == 0
    out = capsys.readouterr().out
    assert "min_width=2" in out
    assert "pathwidth=1" in out


def test_oracle_command(k3, capsys):
    assert main(["oracle", k3]) == 0
    assert capsys.readouterr().out == "min_width=3\ntreewidth=2\n"
    assert main(["oracle", k3, "--pathwidth"]) == 0
    assert capsys.readouterr().out == "min_width=3\npathwidth=2\n"


def test_export_dot_stdout_and_file(p3, tmp_path, capsys):
    assert main(["export-dot", p3]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph")
    td_file = tmp_path / "w.td"
    main(["treewidth", p3, "--td-output", str(td_file)])
    capsys.readouterr()
    dot_file = tmp_path / "all.dot"
    assert main(["export-dot", p3, "--td", str(td_file), "-o", str(dot_file)]) == 0
    assert "cluster_tree" in dot_file.read_text()


def test_dot_output_flag_on_width_command(p3, tmp_path):
    dot_file = tmp_path / "w.dot"
    assert main(["treewidth", p3, "--dot-output", str(dot_file)]) == 0
    assert "cluster_tree" in dot_file.read_text()


def test_edge_list_format_flag(tmp_path, capsys):
    f = tmp_path / "square.edges"
    f.write_text("4\n0 1\n1 2\n2 3\n3 0\n")
    assert main(["treewidth", str(f), "--format", "edgelist"]) == 0
    assert "min_width=3" in capsys.readouterr().out


def test_parse_error_names_file_and_line(tmp_path, capsys):
    f = tmp_path / "bad.gr"
    f.write_text("p tw 2 1\n1 5\n")
    assert main(["treewidth", str(f)]) == 1
    err = capsys.readouterr().err
    assert "bad.gr" in err and "line 2" in err


def test_oversized_header_is_error(tmp_path, capsys):
    f = tmp_path / "huge.gr"
    f.write_text(f"p tw {MAX_VERTICES + 1} 0\n")
    assert main(["treewidth", str(f)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "huge.gr" in captured.err and "exceeds the limit" in captured.err


def test_missing_file_is_error(capsys):
    assert main(["treewidth", "/nonexistent/file.gr"]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "export-dot"])
@pytest.mark.parametrize("td_text", [None, "s td 2 1 3\nb 1 1\nb 2 9\n1 2\n"])
def test_td_input_errors_name_the_file(command, td_text, p3, tmp_path, capsys):
    td = tmp_path / "witness.td"
    if td_text is not None:
        td.write_text(td_text)
    argv = [command, p3, str(td)] if command == "validate" else [command, p3, "--td", str(td)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "witness.td" in captured.err
    if td_text is not None:
        assert "line 3" in captured.err


def test_usage_error_exit_code(k3):
    with pytest.raises(SystemExit) as err:
        main(["decide", k3])  # missing --m/--w
    assert err.value.code == 1


@pytest.mark.parametrize("command", ["treewidth", "pathwidth", "decide"])
@pytest.mark.parametrize(
    "flag, value",
    [
        ("--timeout", "nan"),
        ("--timeout", "inf"),
        ("--timeout", "-1"),
        ("--decision-limit", "-3"),
    ],
)
def test_bad_search_limits_are_usage_errors(command, flag, value, k3, capsys):
    argv = [command, k3, flag, value]
    if command == "decide":
        argv += ["--m", "2", "--w", "2"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {flag} must be")


def test_timeout_indeterminate_on_width_command(tmp_path, capsys):
    g = tmp_path / "g.gr"
    g.write_text("p tw 6 9\n1 2\n2 3\n3 4\n4 5\n5 6\n6 1\n1 4\n2 5\n3 6\n")
    assert main(["treewidth", str(g), "--decision-limit", "1"]) == 2
    assert "INDETERMINATE" in capsys.readouterr().out


def test_bound_decided_step_line(p3, capsys):
    assert main(["treewidth", p3]) == 0
    assert capsys.readouterr().out.splitlines()[2] == "m=3 w=1 UNSAT decisions=0 by=bound"
    assert main(["treewidth", p3, "--stats"]) == 0
    line = capsys.readouterr().out.splitlines()[2]
    assert line.startswith("m=3 w=1 UNSAT decisions=0 by=bound propagations=0 fails=0 time=")


K33_GR = "p tw 6 9\n1 2\n2 3\n3 4\n4 5\n5 6\n6 1\n1 4\n2 5\n3 6\n"


def test_interrupt_prints_partial_trace(tmp_path, monkeypatch, capsys):
    g = tmp_path / "k33.gr"
    g.write_text(K33_GR)
    real_decide = driver.decide
    calls = []

    def interrupted_at_step_3(*args, **kwargs):
        calls.append(args[1:3])
        if len(calls) == 3:
            raise KeyboardInterrupt
        return real_decide(*args, **kwargs)

    monkeypatch.setattr(driver, "decide", interrupted_at_step_3)
    assert main(["treewidth", str(g)]) == 2
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert [line.split(" decisions=")[0] for line in lines[:2]] == ["m=1 w=6 SAT", "m=2 w=5 SAT"]
    assert lines[2:] == ["INDETERMINATE"]
    assert "Traceback" not in captured.err


def test_interrupt_outside_a_schedule(k3, monkeypatch, capsys):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "decide", interrupted)
    assert main(["decide", k3, "--m", "2", "--w", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: interrupted\n"


def test_rejected_certificate_is_error(p3, monkeypatch, capsys):
    rejected = [Violation(ViolationKind.MINOR_DEGREE, "branch set 0 has edges to 0 other sets")]
    monkeypatch.setattr(driver, "check_minor_bound", lambda g, sets, lb: rejected)
    assert main(["pathwidth", p3]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: lower bound has an invalid certificate")
    assert "Traceback" not in captured.err


def test_invalid_witness_is_error(p3, monkeypatch, capsys):
    rejected = [Violation(ViolationKind.EDGE, "edge (0, 1) is inside no node")]
    monkeypatch.setattr(driver, "validate", lambda *args, **kwargs: rejected)
    assert main(["treewidth", p3]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: solver returned an invalid decomposition")
