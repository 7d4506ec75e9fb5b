"""Command-line interface: report formats and the exit-code contract."""

import os
import pathlib
import subprocess
import sys

import pytest

from fpquiver import cli

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def fx(name):
    return str(FIXTURES / f"{name}.quiver")


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_validate_ok(capsys):
    code, out = run(capsys, "validate", fx("ex1"))
    assert code == 0
    assert "quiver: ex1" in out
    assert "interval finite: yes" in out


def test_validate_cycle_exit_3(capsys):
    code, out = run(capsys, "validate", fx("cycle"))
    assert code == 3
    assert "not interval finite" in out
    assert "witness" in out


def test_validate_missing_file_exit_1(capsys):
    code, out = run(capsys, "validate", str(FIXTURES / "nope.quiver"))
    assert code == 1
    assert out.startswith("error:")


def test_validate_parse_error_exit_2(capsys):
    code, out = run(capsys, "validate", fx("broken"))
    assert code == 2
    assert out.startswith("parse error:")


def test_classify_ex5_report(capsys):
    code, out = run(capsys, "classify", fx("ex5"))
    assert code == 0
    lines = out.splitlines()
    assert "IA-RAYS" in lines
    assert "a: all yes" in lines
    assert "b: all no" in lines
    assert "Y-CLASSES" in lines
    assert "(a,+): yes" in lines
    assert "(b,+): no (not top finite)" in lines
    assert "(a,+) boundary: {r:b:0, r:b:1}" in lines


def test_classify_ex3_all_no(capsys):
    code, out = run(capsys, "classify", fx("ex3"))
    assert code == 0
    lines = out.splitlines()
    assert "b: all no" in lines
    assert "v0: no (predecessor v:v0 has infinite out-degree)" in lines
    assert not any(": yes" in l for l in lines)


def test_classify_ex4(capsys):
    code, out = run(capsys, "classify", fx("ex4"))
    lines = out.splitlines()
    assert "a: all yes" in lines
    assert "b: all yes" in lines
    assert "(a,+): no (boundary infinite)" in lines
    assert "(b,+): no (not uniformly interval finite)" in lines


def test_query_paths(capsys):
    code, out = run(capsys, "query", fx("ex3"), "paths", "v:v0", "r:b:2")
    assert code == 0
    assert "result: finite 3" in out


def test_query_pred_infinite(capsys):
    code, out = run(capsys, "query", fx("ex2"), "pred", "r:a:0")
    assert code == 0
    assert "result: infinite (ray a, i <= 0)" in out


def test_query_boundary(capsys):
    code, out = run(capsys, "query", fx("ex5"), "boundary", "class", "(a,+)")
    assert code == 0
    assert "result: finite {r:b:0, r:b:1}" in out


def test_query_unknown_vertex_exit_4(capsys):
    code, out = run(capsys, "query", fx("ex1"), "pred", "r:zzz:0")
    assert code == 4
    assert out.startswith("unknown id:")


@pytest.mark.parametrize("text", [
    "r:a:1_0", "r:a:+2 ", "r:a:01", "r:a:-0", "r:a:\u0663",
])
def test_query_non_canonical_vertex_id_exit_4(capsys, text):
    code, out = run(capsys, "query", fx("ex1"), "pred", text)
    assert code == 4
    assert out == f"unknown id: malformed vertex id {text!r}\n"


def test_query_unknown_class_exit_4(capsys):
    code, out = run(capsys, "query", fx("ex5"), "supp", "(q,-)")
    assert code == 4
    assert "(a,+)" in out  # lists the known class ids


def test_rep_dump_identity_tail(capsys):
    code, out = run(capsys, "rep", fx("ex1"), "Y", "(a,+)", "--window", "4",
                    "--dump")
    assert code == 0
    lines = out.splitlines()
    for i in range(5):
        assert f"vertex r:a:{i} dim 1" in lines
    for i in range(4):
        assert f"arrow alpha@{i} 1x1" in lines
    assert lines.count("1/1") == 4


def test_rep_dump_injective(capsys):
    code, out = run(capsys, "rep", fx("ex4"), "I", "r:b:2", "--window", "3",
                    "--dump")
    assert code == 0
    assert "vertex r:a:1 dim 2" in out.splitlines()


def test_rep_unbounded_exit_5(capsys):
    code, out = run(capsys, "rep", fx("ex4"), "Y", "(b,+)", "--window", "2")
    assert code == 5
    assert out.strip() == "infinite dimension at r:a:0"


def test_rep_default_window_and_summary(capsys):
    code, out = run(capsys, "rep", fx("ex1"), "P", "r:a:1")
    assert code == 0
    assert "total dim:" in out
    assert "arrow" not in out


def test_rep_dot(capsys):
    code, out = run(capsys, "rep", fx("ex1"), "P", "r:a:0", "--dot",
                    "--window", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("digraph ")
    assert lines[-1] == "}"
    assert '"r:a:0" [label="r:a:0 dim=1"];' in out
    assert '"r:a:0" -> "r:a:1" [label="alpha@0"];' in out


def test_oracle_compare(capsys):
    code, out = run(capsys, "oracle-compare", fx("ex4"), "--seed", "5")
    assert code == 0
    assert "oracle-compare: ok" in out


@pytest.mark.parametrize("args", [
    ("classify",),
    ("query", "pred", "r:a:0"),
    ("rep", "Y", "(a,+)", "--window", "4", "--dump"),
    ("oracle-compare", "--seed", "11"),
])
def test_reports_are_deterministic(capsys, args):
    cmd, rest = args[0], list(args[1:])
    file = fx("ex5" if cmd in ("classify",) else "ex1")
    first = run(capsys, cmd, file, *rest)
    second = run(capsys, cmd, file, *rest)
    assert first == second
    assert first[0] == 0


def test_exit_3_witness_does_not_depend_on_the_hash_seed(tmp_path):
    # the witness of Q(s, t) spells its meet, whose core names form a set
    # of strings; seeds 0 and 1 iterate {'s', 't'} in opposite orders
    path = tmp_path / "nif2.quiver"
    path.write_text(
        "quiver nif2\nvertex s\nvertex t\nray a domain nat\n"
        "family f: s -> a[i] for i >= 0\n"
        "family g: a[i] -> t for i >= 0\n",
        encoding="utf-8",
    )
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-m", "fpquiver", "validate", str(path)],
            capture_output=True, text=True, env=env, check=False)
        assert proc.returncode == 3, proc.stderr
        outs.append(proc.stdout)
    assert "cores=frozenset({'s', 't'})" in outs[0]
    assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# usage: argv that names no valid command line exits 2 with the usage on
# stderr and nothing on stdout


USAGE_ERRORS = [
    pytest.param((), id="no-command"),
    pytest.param(("bogus", "ex1"), id="unknown-command"),
    pytest.param(("validate",), id="missing-file"),
    pytest.param(("validate", "ex1", "extra"), id="extra-positional"),
    pytest.param(("query", "ex1", "pred"), id="query-without-id"),
    pytest.param(("rep", "ex1", "P"), id="rep-without-id"),
    pytest.param(("query", "ex1", "bogus", "r:a:0"), id="query-kind"),
    pytest.param(("rep", "ex1", "Q", "r:a:0"), id="rep-kind"),
    pytest.param(("rep", "ex1", "P", "r:a:0", "--window", "x"),
                 id="window-not-int"),
    pytest.param(("rep", "ex1", "P", "r:a:0", "--window"),
                 id="window-without-value"),
    pytest.param(("oracle-compare", "ex1", "--seed", "x"), id="seed-not-int"),
    pytest.param(("rep", "ex1", "P", "r:a:0", "--dump", "--dot"),
                 id="dump-and-dot"),
    pytest.param(("validate", "ex1", "--opt"), id="unknown-option"),
    pytest.param(("classify", "ex1", "--seed", "3"), id="foreign-option"),
]


def _argv(words):
    return [fx(w) if w == "ex1" else w for w in words]


@pytest.mark.parametrize("words", USAGE_ERRORS)
def test_usage_error_exits_2(capsys, words):
    with pytest.raises(SystemExit) as info:
        cli.main(_argv(words))
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert "usage:" in captured.err
    assert captured.out == ""


def test_help_names_every_command(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["--help"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    for command in ("validate", "classify", "query", "rep", "oracle-compare"):
        assert command in out


@pytest.mark.parametrize("argv, code", [
    (["validate", fx("ex1")], 0),
    (["validate", fx("cycle")], 3),
    ([], 2),
])
def test_module_entry_point_reads_sys_argv(argv, code):
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "fpquiver", *argv],
                          capture_output=True, text=True, env=env,
                          check=False)
    assert proc.returncode == code, proc.stderr
    if code == 2:
        assert "usage:" in proc.stderr and proc.stdout == ""


# ---------------------------------------------------------------------------
# the command table against the argparse parser it replaced


def reference_parser():
    """The argparse parser the CLI used before its command table, kept
    verbatim as the reference for ``cli.parse_argv``."""
    import argparse

    p = argparse.ArgumentParser(
        prog="fpquiver",
        description="Interval-finite quiver toolkit: validation, injective "
        "classification, region queries, and representation windows.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="parse a description and check it")
    v.add_argument("file")
    v.set_defaults(func=cli.cmd_validate)

    c = sub.add_parser("classify", help="report the injective catalog")
    c.add_argument("file")
    c.set_defaults(func=cli.cmd_classify)

    qq = sub.add_parser("query", help="answer a region query")
    qq.add_argument("file")
    qq.add_argument(
        "kind",
        choices=("paths", "pred", "succ", "out", "in", "supp", "boundary"),
    )
    qq.add_argument("args", nargs="+", metavar="id")
    qq.set_defaults(func=cli.cmd_query)

    r = sub.add_parser("rep", help="build a representation window")
    r.add_argument("file")
    r.add_argument("kind", choices=("P", "I", "Y"))
    r.add_argument("id")
    r.add_argument("--window", type=int, default=None, metavar="N")
    style = r.add_mutually_exclusive_group()
    style.add_argument("--dump", action="store_true")
    style.add_argument("--dot", action="store_true")
    r.set_defaults(func=cli.cmd_rep)

    o = sub.add_parser(
        "oracle-compare", help="differential check against the brute oracle"
    )
    o.add_argument("file")
    o.add_argument("--seed", type=int, default=0, metavar="S")
    o.set_defaults(func=cli.cmd_oracle_compare)
    return p


IDS = ("v:v0", "r:a:1", "(a,+)")
VALID_ARGV = (
    [("validate", "f"), ("classify", "f")]
    + [("query", "f", kind) + IDS[:n]
       for kind in ("paths", "pred", "succ", "out", "in", "supp", "boundary")
       for n in (1, 2, 3)]
    + [("query", "f", "supp", "class", "(a,+)"), ("query", "f", "pred", "-1"),
       ("rep", "f", "P", "r:a:0"), ("rep", "f", "I", "r:a:0", "--dump"),
       ("rep", "f", "Y", "(a,+)", "--dot"),
       ("rep", "f", "P", "x", "--window", "3"),
       ("rep", "f", "P", "x", "--window=3"),
       ("rep", "f", "P", "x", "--window", "-1"),
       ("rep", "f", "P", "x", "--window=-1"),
       ("rep", "--window", "2", "f", "I", "x"),
       ("rep", "f", "--dump", "P", "x"), ("rep", "f", "P", "--window=0", "x"),
       ("rep", "f", "P", "x", "--window", "1", "--window", "5"),
       ("rep", "--dot", "f", "Y", "x", "--window", " 4"),
       ("oracle-compare", "f"), ("oracle-compare", "f", "--seed=7"),
       ("oracle-compare", "--seed", "7", "f"),
       ("oracle-compare", "f", "--seed", "-2")]
)


@pytest.mark.parametrize("argv", VALID_ARGV, ids=" ".join)
def test_command_table_matches_argparse(argv):
    ref = reference_parser().parse_args(list(argv))
    func, args = cli.parse_argv(list(argv))
    assert func is ref.func
    want = {k: v for k, v in vars(ref).items() if k not in ("command", "func")}
    assert vars(args) == want


@pytest.mark.parametrize("words", USAGE_ERRORS)
def test_command_table_rejects_what_argparse_rejects(capsys, words):
    for parse_args in (reference_parser().parse_args, cli.parse_argv):
        with pytest.raises(SystemExit) as info:
            parse_args(_argv(words))
        assert info.value.code == 2
    assert capsys.readouterr().out == ""


def test_option_abbreviations_are_rejected(capsys):
    with pytest.raises(SystemExit) as info:
        cli.parse_argv(["rep", fx("ex1"), "P", "r:a:0", "--win", "3"])
    assert info.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_negative_window_reaches_rep(capsys):
    code, out = run(capsys, "rep", fx("ex1"), "P", "r:a:0", "--window", "-1")
    assert code == 1
    assert out == "error: --window must be nonnegative\n"


def test_cli_import_leaves_argparse_out():
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, fpquiver.cli; print('argparse' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True)
    assert proc.stdout == "False\n"
