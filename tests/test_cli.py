import json
import re

import pytest

import braidkit as bk
from braidkit.cli import main


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


@pytest.mark.parametrize("word, at", [("-1", "0"), ("1", "inf")])
def test_burau_at_outside_domain_is_a_domain_error(capsys, word, at):
    # 1/t at t = 0 divides by zero; t = inf has no integer or finite value
    code, out, err = run(capsys, "burau", word, "--at", at)
    assert code == 1 and out == ""
    assert err.startswith("Error: ") and len(err.splitlines()) == 1


def test_burau_at_zero_for_positive_words(capsys):
    assert run(capsys, "burau", "1 1", "--at", "0")[1] == "0"
    assert run(capsys, "burau", "1", "--n", "3", "--at", "0")[1].splitlines() == ["0 0", "0 1"]


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["braid"])
    assert exc.value.code == 2
