import json
import os
import re
import shlex

import pytest

import braidkit as bk
from braidkit.cli import _emit, build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out.strip(), out.err.strip()


def test_braid_compact_golden(capsys):
    code, out, _ = run(capsys, "braid", "compact", "1 -2 2 -1")
    assert code == 0 and out == "< e >"


def test_entropy_golden(capsys):
    code, out, _ = run(capsys, "entropy", "1 2 -3")
    assert code == 0 and out == "0.8314"


def test_prop_get_golden(capsys):
    code, out, _ = run(capsys, "prop", "get", "BraidAbsTol")
    assert code == 0 and out == "1e-10"


def test_braid_make_and_json(capsys):
    code, out, _ = run(capsys, "braid", "make", "1 -2", "--n", "4")
    assert code == 0 and out == "< 1 -2 >"
    code, out, _ = run(capsys, "--json", "braid", "make", "1 -2", "--n", "4")
    data = json.loads(out)
    assert data == {"n": 4, "word": [1, -2], "annular": False}
    assert bk.lexeq(bk.braid_from_json(data), bk.make_braid([1, -2], 4))


def test_braid_ops(capsys):
    assert run(capsys, "braid", "mul", "1 -2", "1 2")[1] == "< 1 -2 1 2 >"
    assert run(capsys, "braid", "inverse", "1 -2")[1] == "< 2 -1 >"
    assert run(capsys, "braid", "power", "1 -2", "--k", "2")[1] == "< 1 -2 1 -2 >"
    assert run(capsys, "braid", "equals", "1 -2", "1 -2 2 1 2 -1 -2 -1")[1] == "1"
    assert run(capsys, "braid", "istrivial", "1 -2 2 -1")[1] == "1"
    assert run(capsys, "braid", "perm", "1 2 -3")[1] == "2 3 4 1"
    assert run(capsys, "braid", "writhe", "1 2 -3")[1] == "1"
    assert run(capsys, "braid", "subbraid", "1 2 -3", "--keep", "1 2 4")[1] == "< 1 -2 >"
    assert run(capsys, "braid", "tensor", "1 2 -3", "1 -2")[1] == "< 1 2 -3 5 -6 >"
    assert run(capsys, "braid", "halftwist", "--strands", "5")[1] == "< 4 3 2 1 4 3 2 4 3 4 >"
    out = run(capsys, "braid", "random", "--strands", "5", "--length", "10", "--seed", "3")[1]
    assert out == run(capsys, "braid", "random", "--strands", "5", "--length", "10", "--seed", "3")[1]


def test_braid_annular_display_and_conversion(capsys):
    assert run(capsys, "braid", "make", "1 2 -3", "--annular")[1] == "< 1 2 -3 >*"
    out = run(capsys, "braid", "annular", "2")[1]
    assert out == "< 2 2 1 -2 -2 >"


def test_braid_annular_ops(capsys):
    assert run(capsys, "braid", "perm", "3", "--annular", "--n", "3")[1] == "3 2 1 4"
    assert run(capsys, "braid", "inverse", "3", "--annular", "--n", "3")[1] == "< -3 >*"
    assert run(capsys, "braid", "power", "3", "--annular", "--n", "3", "--k", "-2")[1] == "< -3 -3 >*"
    out = run(capsys, "braid", "subbraid", "3", "--annular", "--n", "3", "--keep", "1 2 3")[1]
    assert out == "< 2 1 -2 >"
    assert run(capsys, "braid", "writhe", "1", "--annular", "--n", "1")[1] == "2"
    assert run(capsys, "braid", "istrivial", "3 -3", "--annular")[1] == "1"
    assert run(capsys, "braid", "istrivial", "3", "--annular", "--n", "3")[1] == "0"


def test_braid_annular_two_word_ops(capsys):
    out = json.loads(run(capsys, "--json", "braid", "mul", "3", "3", "--annular", "--n", "3")[1])
    assert out == {"n": 4, "word": [3, 3], "annular": True}
    # sigma1 commutes with sigma3, but not with the ring generator
    assert run(capsys, "braid", "equals", "1 3", "3 1", "--n", "4")[1] == "1"
    assert run(capsys, "braid", "equals", "1 3", "3 1", "--annular", "--n", "3")[1] == "0"
    out = json.loads(run(capsys, "--json", "braid", "tensor", "2", "1", "--annular", "--n", "2")[1])
    assert out == {"n": 6, "word": [2, 2, 1, -2, -2, 4], "annular": False}


@pytest.mark.parametrize(
    "argv",
    [
        ["act", "{w}", "0 0 -1 -1", "--matrix"],
        ["burau", "{w}"],
        ["burau", "{w}", "--at", "2"],
        ["alexander", "{w}"],
    ],
)
def test_annular_and_fixture_read_by_every_braid_command(capsys, argv):
    ring = bk.make_annular_braid([1, 3, -2], nann=3)

    def out(word, *opts):
        return run(capsys, "--json", *[a.format(w=word) for a in argv], *opts)[1]

    converted = " ".join(map(str, ring.to_braid().word))
    assert out("1 3 -2", "--annular", "--n", "3") == out(converted, "--n", "4")
    if argv[0] != "act":  # the taffy6 loop needs more coordinates
        assert out("", "--fixture", "taffy6") == out("3 2 1 2 4 5 4 3 3 2 1 2 5 4 5 3")


def test_render_reads_annular_braids(capsys, tmp_path):
    ring = bk.make_annular_braid([1, 3, -2], nann=3)
    svgs = []
    for argv in (["1 3 -2", "--annular", "--n", "3"], [" ".join(map(str, ring.to_braid().word)), "--n", "4"]):
        path = tmp_path / f"b{len(svgs)}.svg"
        assert run(capsys, "render", "braid", *argv, "--out", str(path))[0] == 0
        svgs.append(path.read_text())
    crossings = [re.findall(r'<circle class="crossing[^>]*>', svg) for svg in svgs]
    assert len(crossings[0]) == len(ring.to_braid().word) and crossings[0] == crossings[1]


def test_taffy_fixtures(capsys):
    assert run(capsys, "braid", "make", "--fixture", "taffy3")[1] == "< -2 1 1 -2 >"
    assert run(capsys, "entropy", "--fixture", "taffy6")[1] == "2.6339"


def test_loop_ops(capsys):
    assert run(capsys, "loop", "make", "-1 1 -2 0 -1 0")[1] == "(( -1 1 -2 0 -1 0 ))"
    assert run(capsys, "loop", "canonical", "--punctures", "5")[1] == "(( 0 0 0 0 -1 -1 -1 -1 ))*"
    assert run(capsys, "loop", "intersec", "-1 1 -2 0 -1 0")[1] == "2 0 1 3 4 0 2 2 4 4"
    assert run(capsys, "loop", "minlength", "-1 1 -2 0 -1 0")[1] == "12"
    assert run(capsys, "loop", "intaxis", "-1 1 -2 0 -1 0")[1] == "12"


def test_act_with_matrix(capsys):
    code, out, _ = run(capsys, "act", "1 -2", "0 -1", "--matrix")
    lines = out.splitlines()
    assert lines[0] == "(( 1 -1 ))"
    assert lines[1:] == ["1 -1", "0 1"]


def test_loopcoords(capsys):
    assert run(capsys, "loopcoords", "1 2 3 -4")[1] == "(( 0 0 3 -1 -1 -1 -4 3 ))*"


def test_cycle_and_charpoly(capsys):
    code, out, _ = run(capsys, "cycle", "1 2 3")
    assert "period = 4" in out
    code, out, _ = run(capsys, "charpoly", "1 -2", "--no-basepoint", "--maxit", "50")
    assert out == "x^2 - 3*x + 1"
    code, out, _ = run(capsys, "charpoly", "1 -2", "--maxit", "50")
    # same dilatation on the larger basepoint coordinate space
    assert out == "x^4 - 5*x^3 + 8*x^2 - 5*x + 1"


def test_cycle_iter_json(capsys):
    code, out, _ = run(capsys, "--json", "cycle", "-1 -2 -3 4", "--no-basepoint", "--iter")
    data = json.loads(out)
    assert data["period"] == 2
    assert len(data["matrices"]) == 2
    assert data["matrices"][0]["dim"] == 6


def test_entropy_json_reason(capsys):
    code, out, _ = run(capsys, "--json", "entropy", "1 2 -3")
    data = json.loads(out)
    assert code == 0 and data["converged"] and data["reason"] == "converged"
    code, out, _ = run(capsys, "--json", "entropy", "1 2")
    assert json.loads(out)["reason"] == "budget"


def test_entropy_nonconvergence_warning(capsys):
    code, out, err = run(capsys, "entropy", "1 2")
    assert code == 0
    assert out == "0.0000"
    assert "Returning zero entropy." in err


def test_complexity(capsys):
    assert run(capsys, "complexity", "1 -2")[1] == "2.0000"
    assert run(capsys, "complexity", "1 2")[1] == "1.5850"


def test_burau_and_alexander(capsys):
    code, out, _ = run(capsys, "burau", "1 -2", "--at", "-1")
    assert out.splitlines() == ["1 -1", "-1 2"]
    code, out, _ = run(capsys, "burau", "1 -2", "--symbolic")
    assert out.splitlines() == ["[ - t^(+1), + t^(+1) ]", "[ - 1, + 1 - t^(-1) ]"]
    assert run(capsys, "alexander", "1 1 1")[1] == "+ z^(+2) - z^(+1) + 1"
    assert run(capsys, "alexander", "1 -2 1 -2", "--centered")[1] == "- z^(+1) + 3 - z^(-1)"
    code, out, err = run(capsys, "alexander", "1 1", "--centered")
    assert code == 1
    assert "Polynomial with fractional powers." in err


def test_fromdata_and_ftbe(tmp_path, capsys):
    ts = bk.trajectories_from_braid(bk.make_braid([1, 2, -3]))
    path = tmp_path / "tracks.csv"
    bk.save_trajectories_csv(ts, path)
    code, out, _ = run(capsys, "fromdata", str(path))
    assert code == 0
    assert bk.equals(bk.make_braid([int(w) for w in out.strip("<> ").split()], 4), bk.make_braid([1, 2, -3]))
    code, out, _ = run(capsys, "fromdata", str(path), "--databraid")
    assert "tcross:" in out
    code, out, _ = run(capsys, "ftbe", str(path), "--T", "1.0")
    assert code == 0 and float(out) > 0
    json_path = tmp_path / "tracks.json"
    json_path.write_text(json.dumps(ts.to_json()))
    code, out2, _ = run(capsys, "fromdata", str(json_path))
    assert code == 0


_ROWS = "t,id,x,y\n0,1,0,0\n0,2,1,0\n1,1,1,1\n1,2,0,-1\n"


@pytest.mark.parametrize("cmd", ["fromdata", "ftbe"])
@pytest.mark.parametrize(
    "text, line",
    [
        (_ROWS + "2,1,0\n2,2,1,0\n", 6),  # used to end in an IndexError traceback
        ("t,id,x,y\n0,1,0,0,9\n0,2,1,0\n1,1,1,1\n1,2,0,-1\n", 2),  # used to drop the fifth field
        (_ROWS + "2,1,abc,0\n2,2,1,0\n", 6),
        (_ROWS + "2,1.5,0,0\n2,2,1,0\n", 6),
    ],
    ids=["short", "five-fields", "non-numeric", "fractional-id"],
)
def test_malformed_csv_row_is_a_one_line_error(tmp_path, capsys, cmd, text, line):
    path = tmp_path / "tracks.csv"
    path.write_text(text)
    code, out, err = run(capsys, cmd, str(path))
    assert code == 1 and out == ""
    assert err.startswith(f"Error: line {line}: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["fromdata", "{f}", "--angle", "nan"], "angle must be finite, got nan"),  # used to print < e >
        (["fromdata", "{f}", "--angle", "inf"], "angle must be finite, got inf"),  # was "math domain error"
        (["ftbe", "{f}", "--T", "nan"], "duration must be positive and finite"),  # used to print nan
        (["ftbe", "{f}", "--T", "inf"], "duration must be positive and finite"),  # used to print 0.0000
        (["entropy", "1 -2", "--tol", "nan"], "tol must be a nonnegative number"),  # printed 0.0000
        (["prop", "set", "BraidAbsTol", "nan"], "BraidAbsTol must be nonnegative"),
    ],
)
def test_nan_that_steers_a_result_is_a_one_line_error(tmp_path, capsys, argv, message):
    path = tmp_path / "tracks.json"
    path.write_text(json.dumps(bk.trajectories_from_braid(bk.make_braid([1, -2, 1, 2])).to_json()))
    try:
        code, out, err = run(capsys, *(a.format(f=path) for a in argv))
        assert bk.get_prop("BraidAbsTol") == 1e-10
    finally:
        bk.set_prop("BraidAbsTol", "1e-10")
    assert code == 1 and out == ""
    assert err.startswith("Error: ") and message in err and len(err.splitlines()) == 1


def test_fromdata_closure_flag(tmp_path, capsys):
    ts = bk.trajectories_from_braid(bk.make_braid([1, 2]))
    path = tmp_path / "t.csv"
    bk.save_trajectories_csv(ts, path)
    code, out, _ = run(capsys, "fromdata", str(path), "--closure", "mindist")
    assert code == 0


def test_render_cli(tmp_path, capsys):
    out_path = tmp_path / "braid.svg"
    code, out, _ = run(capsys, "render", "braid", "1 -2", "--out", str(out_path))
    assert code == 0
    text = out_path.read_text()
    assert text.startswith("<svg") and text.endswith("</svg>")
    loop_path = tmp_path / "loop.svg"
    code, _, _ = run(capsys, "render", "loop", "-1 1 -2 0 -1 0", "--out", str(loop_path))
    assert code == 0 and loop_path.read_text().startswith("<svg")


def test_render_cli_rejects_a_page_without_room(tmp_path, capsys):
    for opt in ("--width", "--height"):
        out_path = tmp_path / "small.svg"
        code, out, err = run(capsys, "render", "braid", "1 -2", opt, "60", "--out", str(out_path))
        assert code == 1 and out == "" and not out_path.exists()
        assert err == f"Error: {opt[2:]} must be more than 60 px (twice the margin), got 60"


def test_prop_set_and_get(capsys):
    code, out, _ = run(capsys, "prop", "set", "BraidPlotDir", "lr")
    assert code == 0
    try:
        assert run(capsys, "prop", "get", "BraidPlotDir")[1] == "lr"
    finally:
        run(capsys, "prop", "set", "BraidPlotDir", "bt")
    code, _, err = run(capsys, "prop", "set", "BraidPlotDir", "xx")
    assert code == 1


def test_json_round_trips(capsys):
    _, out, _ = run(capsys, "--json", "loop", "make", "0 -1")
    assert bk.loop_from_json(json.loads(out)) == bk.make_loop([0, -1])
    _, out, _ = run(capsys, "--json", "act", "1 -2", "0 -1", "--matrix")
    data = json.loads(out)
    assert data["matrix"]["entries"] == [[1, -1], [0, 1]]
    _, out, _ = run(capsys, "--json", "alexander", "1 1 1")
    from braidkit import laurent_from_json

    assert laurent_from_json(json.loads(out)) == bk.LaurentPoly(0, (1, -1, 1))


def test_domain_error_exit_code(capsys):
    code, _, err = run(capsys, "braid", "make", "0")
    assert code == 1 and "Error:" in err


@pytest.mark.parametrize("word, at", [("-1", "0")])
def test_burau_at_outside_domain_is_a_domain_error(capsys, word, at):
    # 1/t at t = 0 divides by zero
    code, out, err = run(capsys, "burau", word, "--at", at)
    assert code == 1 and out == ""
    assert err.startswith("Error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("at", ["inf", "nan", "1e400", "abc"])
def test_burau_at_that_is_not_a_finite_number_is_a_usage_error(capsys, at):
    # these used to print "cannot convert float ... to integer" or "could
    # not convert string to float", naming neither --at nor t
    with pytest.raises(SystemExit) as exc:
        main(["burau", "1 -2", "--at", at])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.splitlines()[-1] == f"braidkit burau: error: argument --at: t must be a finite number, got {at!r}"


@pytest.mark.parametrize("at, text", [("2", "-2 2\n-1 0.5"), ("0.5", "-0.5 0.5\n-1 -1"), ("-1", "1 -1\n-1 2")])
def test_burau_at_finite_values(capsys, at, text):
    assert run(capsys, "burau", "1 -2", "--at", at) == (0, text, "")


def test_burau_json_past_the_float_range_is_an_error(capsys):
    # the entries at t = 1e-300 overflow; JSON has no NaN or Infinity, and
    # the command used to print [[-Infinity, NaN], [NaN, NaN]]
    code, out, err = run(capsys, "--json", "burau", "1 -2 1 -2 1 -2 1 -2", "--at", "1e-300", "--n", "3")
    assert code == 1 and out == ""
    assert err.startswith("Error: ") and "float range" in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_burau_at_entries_past_the_float_range_are_an_error(capsys, json_flag):
    # the one entry is exactly 1/3**700; the command used to print 0 (or [[0.0]])
    code, out, err = run(capsys, *json_flag, "burau", " ".join(["-1"] * 700), "--n", "2", "--at", "3")
    assert code == 1 and out == ""
    assert err.startswith("Error: ") and "burau(b, t).entries" in err and len(err.splitlines()) == 1


def test_json_output_rejects_non_finite_floats(capsys):
    args = build_parser().parse_args(["--json", "entropy", "1"])
    for x in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="JSON"):
            _emit(args, {"value": x}, "")
    assert capsys.readouterr().out == ""


def test_burau_at_zero_for_positive_words(capsys):
    assert run(capsys, "burau", "1 1", "--at", "0")[1] == "0"
    assert run(capsys, "burau", "1", "--n", "3", "--at", "0")[1].splitlines() == ["0 0", "0 1"]


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["braid"])
    assert exc.value.code == 2


HELP = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_help.txt")


def _help_sections():
    """``{argv: text}`` from ``cli_help.txt``: the help texts of the full
    parser, built with every command's arguments, at 80 columns."""
    with open(HELP, encoding="utf-8") as fh:
        chunks = fh.read().split("==== braidkit ")[1:]
    return dict(chunk.split("\n", 1) for chunk in chunks)


@pytest.mark.parametrize("argv", list(_help_sections()))
def test_help_texts_are_unchanged(argv, capsys, monkeypatch):
    # main builds the arguments of the named command only; its help, and the
    # list of commands, read as when every subparser had its arguments
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 0
    assert capsys.readouterr().out == _help_sections()[argv]


@pytest.mark.parametrize("argv", [
    [], ["--json"], ["nope"], ["braid"], ["braid", "nope"], ["entropy", "1 2", "--tol", "x"],
    ["entropy", "--bogus"], ["render", "braid", "1 2"], ["prop", "get"], ["ftbe"],
    ["--json", "--", "entropy", "--maxit"], ["entropy", "1 2", "extra"], ["-x"],
    ["-h", "entropy"], ["--json", "--help", "braid", "make"], ["--json", "cycle", "-h"],
])
def test_usage_errors_and_help_match_the_full_parser(argv, capsys, monkeypatch):
    # a help flag before the command prints the list of every command
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as full:
        build_parser().parse_args(argv)
    expected = capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == full.value.code == (0 if {"-h", "--help"} & set(argv) else 2)
    assert capsys.readouterr() == expected


def test_one_command_parser_adds_only_that_command_arguments():
    def subparsers(ap):
        return next(a for a in ap._actions if a.dest == "cmd").choices

    full, one = subparsers(build_parser()), subparsers(build_parser("entropy"))
    assert list(one) == list(full)
    assert len(one["entropy"]._actions) == len(full["entropy"]._actions) > 1
    assert all(len(p._actions) == 1 for name, p in one.items() if name != "entropy")  # -h only


README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _readme_commands():
    """``(argv, value)`` for each line of the README's command-line block;
    ``value`` is the text of a ``# value`` comment, or None."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read().split("## Command line", 1)[1]
    block = text.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = []
    for line in block.splitlines():
        command, _, value = line.partition(" #")
        argv = shlex.split(command)
        assert argv[0] == "braidkit"
        lines.append((argv[1:], value.strip() or None))
    return lines


def test_readme_command_examples(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    ts = bk.trajectories_from_braid(bk.make_braid([1, -2, 3, 2, -1]))
    bk.save_trajectories_csv(ts, "tracks.csv")
    commands = _readme_commands()
    assert len(commands) >= 20
    for argv, value in commands:
        code, out, err = run(capsys, *argv)
        assert code == 0, (argv, err)
        if value is not None:
            assert out.splitlines()[0] == value, argv
