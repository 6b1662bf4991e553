import io
import json
import os
import random
import select
import shlex
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fdo
from fdo import (GraphError, build_approx_fdo, build_ecc_fdo, build_exact_fdo,
                 build_graph, build_lowdiam_fdo, build_multi_fdo,
                 build_spanner_fdo, dumps_oracle, gen_dense_lb, gen_multi_lb,
                 gen_multi_lb_f1, gen_random, gen_sparse_lb, gen_weighted_lb,
                 parse_graph, random_payload, save_graph)
from fdo.cli import _parse_query_line, main, make_parser, serve_queries
from fdo.instances import format_manifest
from fdo.serialize import FORMATS
from fdo.graph import fmt_dist, format_graph

SRC = os.path.dirname(os.path.dirname(fdo.__file__))
README = os.path.join(os.path.dirname(SRC), "README.md")


C4_TEXT = "4 4 U UW\n0 1\n1 2\n2 3\n3 0\n"

SEED = 0xFD0


@pytest.fixture
def c4_file(tmp_path):
    path = tmp_path / "c4.txt"
    path.write_text(C4_TEXT)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def records(stdout):
    return [json.loads(line) for line in stdout.splitlines() if line]


# ------------------------------------------------------------- the surface

def test_option_counts():
    # one spelling per knob: -h aside, 32 options (51 when audit could build
    # and two more options chose a seed, 35 with build --scan-threshold and
    # audit --records, 33 with gen --weight-max)
    sub = next(a for a in make_parser()._actions if a.dest == "cmd")
    counts = {cmd: len(p._actions) - 1 for cmd, p in sub.choices.items()}
    assert counts == {"build": 13, "query": 2, "gen": 11, "audit": 6}


def test_readme_cli_block_runs(capsys, monkeypatch, tmp_path):
    # every command of README's CLI block, in order, in an empty directory
    text = open(README, encoding="utf-8").read()
    block = text.split("## CLI\n\n```sh\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    outputs = []
    for line in block.splitlines():
        feed = b""
        if " | " in line:   # printf FORMAT | fdo ...
            printf, line = line.split(" | ")
            feed = shlex.split(printf)[1].encode().decode("unicode_escape")
            feed = feed.encode()
        argv = shlex.split(line, comments=True)
        assert argv[0] == "fdo", line
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(feed)))
        code, stdout, err = run(capsys, argv[1:])
        assert code == 0, (line, err)
        outputs.append(stdout)
    assert len(outputs) == 6
    assert len(outputs[2].splitlines()) == 2     # one answer per query line
    assert records(outputs[4])[-1]["violations"] == 0
    assert (tmp_path / "gad.txt.manifest").exists()


# ---------------------------------------------------------------------- build

# Per kind: the build flags used across this suite, and the library build
# they ask for.
KIND_BUILDS = {
    "exact": ([], build_exact_fdo),
    "ecc": ([], build_ecc_fdo),
    "spanner": (["--k", "2"], lambda g: build_spanner_fdo(g, 2)),
    "approx": (["--eps", "0.5"], lambda g: build_approx_fdo(g, 0.5)),
    "multi": (["--f", "2"], lambda g: build_multi_fdo(g, 2)),
    "lowdiam": (["--f", "2", "--delta", "3"],
                lambda g: build_lowdiam_fdo(g, 2, 3.0, backend="exact")),
}


def test_build_exact(capsys, tmp_path, c4_file):
    out = str(tmp_path / "c4.fdo")
    code, stdout, _ = run(capsys, ["build", "--graph", c4_file,
                                   "--kind", "exact", "--out", out])
    assert code == 0
    rec = records(stdout)[0]
    assert rec["record"] == "build-stats" and rec["entries"] == 4
    dlines = [ln for ln in open(out) if ln.startswith("D ")]
    assert len(dlines) == 4 and all(ln.split()[2] == "3" for ln in dlines)
    # every kind: the file is the library build's, and entries counts its
    # D lines
    sub = next(a for a in make_parser()._actions if a.dest == "cmd")
    kind = next(a for a in sub.choices["build"]._actions if a.dest == "kind")
    assert tuple(kind.choices) == tuple(FORMATS) == tuple(KIND_BUILDS)
    g = parse_graph(C4_TEXT)
    for kind, (flags, build) in KIND_BUILDS.items():
        code, stdout, _ = run(capsys, ["build", "--graph", c4_file, "--kind",
                                       kind, "--out", out] + flags)
        text = open(out).read()
        assert code == 0 and text == dumps_oracle(build(g)), kind
        dcount = sum(ln.startswith("D ") for ln in text.splitlines())
        rec = records(stdout)[0]
        assert rec["entries"] == dcount and rec["seed"] is None, kind


def test_build_approx_stats_schema(capsys, tmp_path):
    g = gen_random("er-strongly-connected-digraph", seed=4, n=12, p=0.3)
    gpath = tmp_path / "dg.txt"
    save_graph(g, gpath)
    out = str(tmp_path / "dg.fdo")
    code, stdout, _ = run(capsys, ["build", "--graph", str(gpath),
                                   "--kind", "approx", "--eps", "0.5",
                                   "--out", out])
    assert code == 0
    rec = records(stdout)[0]
    assert "pivot_count" in rec and "mode" in rec and "eps" in rec


def test_build_multi_on_directed_fails(capsys, tmp_path):
    gpath = tmp_path / "dg.txt"
    gpath.write_text("3 3 D UW\n0 1\n1 2\n2 0\n")
    code, _, err = run(capsys, ["build", "--graph", str(gpath),
                                "--kind", "multi", "--f", "2",
                                "--out", str(tmp_path / "x.fdo")])
    assert code != 0 and "undirected" in err


def test_build_random_needs_seed(capsys, tmp_path, c4_file):
    # the builder refuses a seedless random build before it picks the
    # exact scan, which this graph gets
    big = gen_random("er-strongly-connected-digraph", seed=9, n=14, p=0.3)
    gpath = tmp_path / "big.txt"
    save_graph(big, gpath)
    argv = ["build", "--graph", str(gpath), "--kind", "approx",
            "--pivot-mode", "random", "--out", str(tmp_path / "x.fdo")]
    code, _, err = run(capsys, argv)
    assert code == 2 and "random pivot mode requires a seed" in err
    code, stdout, _ = run(capsys, argv + ["--seed", str(SEED)])
    assert code == 0 and records(stdout)[0]["seed"] == SEED


def test_lowdiam_default_backend_is_exact(capsys, tmp_path):
    def argv(n, f=2, backend=()):
        g = gen_random("low-diam-hub", seed=3, n=n, p=0.1)
        gpath = tmp_path / f"hub{n}.txt"
        save_graph(g, gpath)
        return ["build", "--graph", str(gpath), "--kind", "lowdiam",
                "--f", str(f), "--delta", "2.0", *backend,
                "--out", str(tmp_path / f"hub{n}.fdo")]

    # the default builds the exact backend at every size: no seed needed
    for n in (12, 65):
        code, stdout, _ = run(capsys, argv(n))
        rec = records(stdout)[0]
        assert code == 0 and rec["backend"] == "exact" and rec["seed"] is None
    # the sampled backend is opt-in and randomized
    code, _, err = run(capsys, argv(12, backend=("--backend", "sampled")))
    assert code == 2 and "sampled backend requires a seed" in err
    code, stdout, _ = run(capsys, argv(12, backend=("--backend", "sampled",
                                                    "--seed", "1")))
    rec = records(stdout)[0]
    assert code == 0 and rec["backend"] == "sampled" and rec["seed"] == 1
    assert rec["subgraph_count"] > 0
    # there is no third backend
    with pytest.raises(SystemExit):
        main(argv(12, backend=("--backend", "auto")))
    assert "invalid choice: 'auto'" in capsys.readouterr().err
    # f=1 builds the exact single-failure oracle: no seed needed, even
    # when the sampled backend is asked for
    for backend in ((), ("--backend", "sampled")):
        code, stdout, _ = run(capsys, argv(65, f=1, backend=backend))
        rec = records(stdout)[0]
        assert code == 0 and rec["backend"] == "exact" and rec["seed"] is None
        assert "subgraph_count" not in rec


SAMPLED = ["--kind", "lowdiam", "--backend", "sampled", "--seed", "1"]
BAD_FLOATS = [
    *[(["--kind", "approx", "--eps", x],
       f"epsilon must be positive and finite, got {x}") for x in ("inf", "nan")],
    (["--kind", "approx", "--eps", "1e308"], "epsilon * diam(G) overflows"),
    (["--kind", "lowdiam", "--delta", "1e308"], "n^(delta/f) overflows"),
    *[(["--kind", "lowdiam", "--delta", x],
       f"delta must be positive and finite, got {x}") for x in ("nan", "inf")],
    (SAMPLED + ["--dso-delta", "1e308"], "subgraph count k=inf exceeds"),
    (SAMPLED + ["--dso-delta", "nan"], "dso_delta must be positive"),
    *[(SAMPLED + ["--C", x], f"dso_C must be positive and finite, got {x}")
      for x in ("nan", "inf", "-1.0", "0.0")],
]


@pytest.mark.parametrize("flags, message", BAD_FLOATS,
                         ids=[" ".join(["sampled" if "sampled" in flags
                                        else flags[1], *flags[-2:]])
                              for flags, _ in BAD_FLOATS])
def test_build_refuses_floats_not_finite_and_positive(capsys, tmp_path, flags,
                                                      message):
    # each ended in a traceback, a k=0 oracle, or (delta=nan) a file that
    # `fdo query` refused and a build-stats record that is not JSON
    gpath = tmp_path / "hub12.txt"
    save_graph(gen_random("low-diam-hub", seed=3, n=12, p=0.1), gpath)
    opath = tmp_path / "hub12.fdo"
    code, out, err = run(capsys, ["build", "--graph", str(gpath),
                                  "--out", str(opath), *flags])
    assert (code, out) == (2, "") and not opath.exists()
    assert err.startswith("fdo: error: ") and message in err


def test_build_deterministic_bytes(capsys, tmp_path, c4_file):
    out1, out2 = str(tmp_path / "a.fdo"), str(tmp_path / "b.fdo")
    run(capsys, ["build", "--graph", c4_file, "--kind", "exact", "--out", out1])
    run(capsys, ["build", "--graph", c4_file, "--kind", "exact", "--out", out2])
    assert open(out1).read() == open(out2).read()


# ---------------------------------------------------------------------- query

def test_query_stream(capsys, tmp_path, c4_file):
    out = str(tmp_path / "c4.fdo")
    run(capsys, ["build", "--graph", c4_file, "--kind", "exact", "--out", out])
    qfile = tmp_path / "q.txt"
    qfile.write_text("0-1\n0-2\nnot-a-pair\n")
    code, stdout, _ = run(capsys, ["query", "--oracle", out,
                                   "--queries", str(qfile)])
    assert code == 0
    assert stdout.splitlines() == [
        "3", "2", "error: malformed pair 'not-a-pair', want 'u-v'"]


@pytest.mark.parametrize("line", ["1---2", "\u00b2-1", "0-1 2-\u00b2"])
def test_query_unparsable_number_line(capsys, tmp_path, c4_file, line):
    # each token passes the digit check but int() refuses it
    out = str(tmp_path / "c4.fdo")
    run(capsys, ["build", "--graph", c4_file, "--kind", "exact", "--out", out])
    qfile = tmp_path / "q.txt"
    qfile.write_text(f"{line}\n0-1\n", encoding="utf-8")
    code, stdout, _ = run(capsys, ["query", "--oracle", out,
                                   "--queries", str(qfile)])
    bad = line.split()[-1]
    assert code == 0
    assert stdout.splitlines() == [
        f"error: malformed pair {bad!r}, want 'u-v'", "3"]


def test_query_other_scripts_digits_line(capsys, tmp_path, c4_file):
    # isdigit() and int() take Arabic-Indic digits: '0-\u0661 \u0662-3' was
    # answered as '0-1 2-3'
    out = str(tmp_path / "c4.fdo")
    run(capsys, ["build", "--graph", c4_file, "--kind", "exact", "--out", out])
    qfile = tmp_path / "q.txt"
    qfile.write_text("0-\u0661 \u0662-3\n0-1\n", encoding="utf-8")
    code, stdout, _ = run(capsys, ["query", "--oracle", out,
                                   "--queries", str(qfile)])
    assert code == 0
    assert stdout.splitlines() == [
        "error: malformed pair '0-\u0661', want 'u-v'", "3"]


def test_query_too_many_failures_line(capsys, tmp_path):
    g = gen_random("er-weighted", seed=2, n=10, p=0.4)
    gpath, opath = tmp_path / "g.txt", str(tmp_path / "g.fdo")
    save_graph(g, gpath)
    run(capsys, ["build", "--graph", str(gpath), "--kind", "multi",
                 "--f", "2", "--out", opath])
    capsys.readouterr()
    qfile = tmp_path / "q.txt"
    pairs = " ".join(f"{u}-{v}" for u, v, _ in g.edges[:3])
    qfile.write_text(pairs + "\n")
    code, stdout, _ = run(capsys, ["query", "--oracle", opath,
                                   "--queries", str(qfile)])
    assert code == 0 and stdout.startswith("error: too many failures")


def test_query_bad_oracle_file(capsys, tmp_path):
    bad = tmp_path / "bad.fdo"
    bad.write_text("this is not an oracle\n")
    code, _, err = run(capsys, ["query", "--oracle", str(bad)])
    assert code == 2 and "FDO header" in err


def test_query_oracle_edge_id_out_of_range(capsys, tmp_path):
    # E lines hold no edge id since fmt=3: one that does is malformed
    bad = tmp_path / "bad.fdo"
    bad.write_text("FDO lowdiam 2 1 fmt=3 dir=0 f=2 delta=1 base=1\n"
                   "E 1 0 1 1\nD - 1\n")
    code, _, err = run(capsys, ["query", "--oracle", str(bad)])
    assert code == 2 and "malformed oracle line" in err


@pytest.mark.parametrize("text, msg", [
    # a single-failure file of format 1, which held an edge dictionary
    ("FDO exact 2 1 fmt=1 dir=0 base=1\nE 0 0 1 1\nD 0 2\n",
     "fmt='1' for kind exact, which is read as fmt=2: rebuild"),
    ("FDO exact 2 1 fmt=2 dir=0 base=1\nD 1-0 2\n", "line 'D 1-0 2'"),
    ("FDO exact 2 1 fmt=2 dir=0 base=1\nD 0-1 1\n", "its fallback 1"),
    ("FDO exact 2 1 fmt=2 dir=0 base=1\nE 0 0 1 1\n", "no 'E' lines"),
    # integer tokens int() takes but no build writes
    ("FDO exact 2 1 fmt=2 dir=0 base=1\nD +0-1 3\n", "line 'D +0-1 3'"),
    ("FDO exact 12 1 fmt=2 dir=0 base=1\nD 1_0-11 3\n", "line 'D 1_0-11 3'"),
    ("FDO exact 2 1 fmt=2 dir=0 base=1\nD 0-\u0661 3\n", "line 'D 0-\u0661 3'"),
])
def test_query_refuses_bad_single_failure_file(capsys, tmp_path, text, msg):
    bad = tmp_path / "bad.fdo"
    bad.write_text(text)
    code, out, err = run(capsys, ["query", "--oracle", str(bad)])
    assert code == 2 and out == "" and msg in err


# format 1 also held the dominated entries; the ids are those of the cases
# before lowdiam files became fmt=3
LOWDIAM_FMT1 = ("FDO lowdiam 2 1 fmt=1 dir=0 f=2 delta=1 base=1\nE 0 0 1 1\n"
                "D - 1\nD 0 1\n")
LOWDIAM_FMT2 = LOWDIAM_FMT1.replace("fmt=1", "fmt=2")


@pytest.mark.parametrize("text, msg", [
    pytest.param(LOWDIAM_FMT1, "fmt='1' for kind lowdiam, which is read as "
                 "fmt=3: rebuild", id=f"{LOWDIAM_FMT1}-fmt='1' for kind "
                 "lowdiam, which is read as fmt=2: rebuild"),
    pytest.param("FDO lowdiam 2 1 fmt=3 dir=0 f=2 delta=1 base=1\nE 0 1 1\n"
                 "D - 1\nD 0 1\n", "stores the dominated entry 'D 0 1'",
                 id=f"{LOWDIAM_FMT2}-stores the dominated entry 'D 0 1'"),
    (LOWDIAM_FMT2, "fmt='2' for kind lowdiam, which is read as fmt=3: rebuild"),
])
def test_query_refuses_bad_lowdiam_file(capsys, tmp_path, text, msg):
    bad = tmp_path / "bad.fdo"
    bad.write_text(text)
    code, out, err = run(capsys, ["query", "--oracle", str(bad)])
    assert code == 2 and out == "" and msg in err


def test_query_lowdiam_without_empty_key(capsys, tmp_path, c4_file):
    # the empty subset's entry answers every lowdiam query; without it the
    # file must not load (it used to load and print None)
    opath = tmp_path / "c4.fdo"
    run(capsys, ["build", "--graph", c4_file, "--kind", "lowdiam", "--f", "2",
                 "--delta", "3", "--out", str(opath)])
    text = opath.read_text()
    assert "D - 2\n" in text
    opath.write_text(text.replace("D - 2\n", ""))
    qfile = tmp_path / "q.txt"
    qfile.write_text("0-1\n")
    code, out, err = run(capsys, ["query", "--oracle", str(opath),
                                  "--queries", str(qfile)])
    assert code == 2 and out == "" and "missing stored entries" in err


def test_build_bad_edge_line(capsys, tmp_path):
    graph = tmp_path / "g.txt"
    graph.write_text("2 1 U UW\n0 x\n")
    code, _, err = run(capsys, ["build", "--graph", str(graph), "--kind",
                                "exact", "--out", str(tmp_path / "g.fdo")])
    assert code == 2 and err.startswith("fdo: error: bad number")


# ------------------------------------------------- query: bytes and chunks

def test_non_utf8_graph_file(capsys, tmp_path):
    graph = tmp_path / "g.txt"
    graph.write_bytes(b"2 1 U UW\n0 1 \xff\n")
    code, _, err = run(capsys, ["build", "--graph", str(graph), "--kind",
                                "exact", "--out", str(tmp_path / "g.fdo")])
    assert code == 2 and "not UTF-8" in err


def test_non_utf8_oracle_file(capsys, tmp_path, c4_file):
    opath = tmp_path / "c4.fdo"
    run(capsys, ["build", "--graph", c4_file, "--kind", "exact",
                 "--out", str(opath)])
    opath.write_bytes(opath.read_bytes() + b"# \xff\n")
    code, _, err = run(capsys, ["query", "--oracle", str(opath),
                                "--queries", c4_file])
    assert code == 2 and "not UTF-8" in err


BAD_UTF8_QUERIES = b"0-1\n\xff-1\n0-2 \xc3\n0-2\n"


def _assert_bad_utf8_answers(stdout):
    lines = stdout.splitlines()
    assert lines[0] == "3" and lines[3] == "2" and len(lines) == 4
    assert all(ln.startswith("error: query line is not UTF-8")
               for ln in lines[1:3])


def test_non_utf8_query_lines_file(capsys, tmp_path, c4_file):
    opath = str(tmp_path / "c4.fdo")
    run(capsys, ["build", "--graph", c4_file, "--kind", "exact",
                 "--out", opath])
    qfile = tmp_path / "q.txt"
    qfile.write_bytes(BAD_UTF8_QUERIES)
    code, stdout, _ = run(capsys, ["query", "--oracle", opath,
                                   "--queries", str(qfile)])
    assert code == 0
    _assert_bad_utf8_answers(stdout)


def test_non_utf8_query_lines_stdin(capsys, monkeypatch, tmp_path, c4_file):
    opath = str(tmp_path / "c4.fdo")
    run(capsys, ["build", "--graph", c4_file, "--kind", "exact",
                 "--out", opath])
    monkeypatch.setattr(sys, "stdin",
                        io.TextIOWrapper(io.BytesIO(BAD_UTF8_QUERIES)))
    code, stdout, _ = run(capsys, ["query", "--oracle", opath])
    assert code == 0
    _assert_bad_utf8_answers(stdout)


def reference_answers(oracle, text):
    """The per-line loop that serve_queries must match, over splitlines."""
    out = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            out.append(fmt_dist(oracle.query(_parse_query_line(line))))
        except GraphError as exc:
            out.append(f"error: {exc}")
    return out


class CountingText(io.StringIO):
    """A text sink that counts writes and flushes."""
    writes = flushes = 0

    def write(self, s):
        self.writes += 1
        return super().write(s)

    def flush(self):
        self.flushes += 1


def serve(oracle, data, size):
    dst = CountingText()
    serve_queries(oracle, io.BytesIO(data), dst, size)
    return dst


@pytest.fixture(scope="module")
def c6_multi():
    g = build_graph(6, False, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5),
                               (5, 0), (0, 3)])
    return build_multi_fdo(g, 2)


EDGE_TEXT = ("0-1\r\n"                   # CRLF
             "\n   \n"                   # blank lines
             "# comment with é€\U0001d11e\n"
             "  0-3 1-2  \n"
             "0-1\r1-2\n"                # a lone CR ends a line too
             "é-1 €-2\n"       # multi-byte tokens in an error line
             "0-1 \U0001d11e\n"
             + "# " + "x" * 300 + "\n"    # longer than every chunk below
             + " ".join(["0-1"] * 80) + "\n"
             "1---2\n"
             "4-5")                      # no final newline


@pytest.mark.parametrize("size", [1, 2, 3, 5, 7, 64, 4096])
def test_serve_queries_matches_splitlines(c6_multi, size):
    want = reference_answers(c6_multi, EDGE_TEXT)
    assert len(want) == 9 and want[4].startswith("error: malformed pair")
    dst = serve(c6_multi, EDGE_TEXT.encode("utf-8"), size)
    assert dst.getvalue().splitlines() == want
    assert dst.getvalue().endswith("\n")
    assert dst.flushes == dst.writes


def test_serve_queries_one_write_per_read(c6_multi):
    data = EDGE_TEXT.encode("utf-8")
    dst = serve(c6_multi, data + b"\n", len(data) + 1)
    assert (dst.writes, dst.flushes) == (1, 1)
    # the unterminated last line is answered at the end of the input
    assert serve(c6_multi, data, len(data)).writes == 2
    # only blank and comment lines: nothing to write
    assert serve(c6_multi, b"# a\n\n \r\n", 4).writes == 0


QUERY_PIECES = ["0-1", "1-2", "0-3", "4-5", "3-0", "2-9", "x", "1--2",
                "é", "€-1", "\U0001d11e", "#", " ", "\t", "\n",
                "\r\n", "\r", "\n\n"]


@settings(max_examples=200, deadline=None)
@given(pieces=st.lists(st.sampled_from(QUERY_PIECES), max_size=40),
       size=st.integers(1, 16))
def test_serve_queries_matches_splitlines_fuzz(c6_multi, pieces, size):
    text = "".join(pieces)
    got = serve(c6_multi, text.encode("utf-8"), size).getvalue()
    assert got.splitlines() == reference_answers(c6_multi, text)


def _child_env():
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("PYTHONUNBUFFERED", None)
    return env


def _read_answer(proc, timeout=20.0):
    """One line of the child's stdout, or None if none came in time."""
    deadline = time.monotonic() + timeout
    buf = b""
    while not buf.endswith(b"\n"):
        left = deadline - time.monotonic()
        if left <= 0 or not select.select([proc.stdout], [], [], left)[0]:
            return None
        chunk = os.read(proc.stdout.fileno(), 4096)
        if not chunk:
            return None
        buf += chunk
    return buf.decode()


def test_query_answers_each_stdin_line_before_the_next(tmp_path):
    # A co-process sends one line, waits for its answer, then sends the next;
    # the child's stdout is a block-buffered pipe unless the CLI flushes.
    opath = tmp_path / "c4.fdo"
    g = build_graph(4, False, [(0, 1), (1, 2), (2, 3), (3, 0)])
    opath.write_text(dumps_oracle(build_exact_fdo(g)))
    with subprocess.Popen([sys.executable, "-m", "fdo.cli", "query",
                           "--oracle", str(opath)],
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                          env=_child_env(), bufsize=0) as proc:
        try:
            for line, want in [(b"0-1\n", "3\n"), (b"# skip\n0-2\r\n", "2\n"),
                               (b"\xff\n", "error: query line is not UTF-8"),
                               (b"1-2\n", "3\n")]:
                proc.stdin.write(line)
                got = _read_answer(proc)
                assert got is not None, f"no answer to {line!r}"
                assert got.startswith(want)
            proc.stdin.close()
            assert proc.wait(timeout=20) == 0
        finally:
            if proc.poll() is None:
                proc.kill()


IMPORT_CHECK = """
import sys
BUILDERS = ("fdo.single", "fdo.multi", "fdo.lowdiam", "fdo.dso")
import fdo.cli
print(sorted(m for m in ("fdo.verify", "fdo.instances", "dataclasses",
                         "fractions", "json", *BUILDERS) if m in sys.modules))
fdo.cli.load_oracle(sys.argv[1])
print(sorted(m for m in BUILDERS if m in sys.modules))
from fdo import audit, gen_random, GadgetInstance
import fdo
print(fdo.brute_diam.__module__, fdo.verify.__name__, audit.__module__,
      gen_random.__module__, GadgetInstance.__module__)
"""


def test_cli_import_leaves_audit_modules_unloaded(tmp_path):
    # A multi file, loaded the way `fdo query` loads it
    path = tmp_path / "c4.fdo"
    path.write_text(dumps_oracle(build_multi_fdo(parse_graph(C4_TEXT), 2)))
    # -S: no site hooks, so only fdo's own imports are counted
    proc = subprocess.run([sys.executable, "-S", "-c", IMPORT_CHECK,
                           str(path)],
                          capture_output=True, text=True, env=_child_env(),
                          timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    loaded, builders, names = proc.stdout.splitlines()
    assert loaded == "[]"
    assert builders == "['fdo.multi']"
    assert names.split() == ["fdo.verify", "fdo.verify", "fdo.verify",
                             "fdo.instances", "fdo.instances"]


def test_lazy_names_are_not_cached():
    import fdo.verify
    assert fdo.audit is fdo.verify.audit and "audit" not in vars(fdo)
    with pytest.raises(AttributeError):
        fdo.no_such_name


# ------------------------------------------------------------------------ gen

def test_gen_gadget_with_manifest(capsys, tmp_path):
    out = str(tmp_path / "dense.txt")
    code, stdout, _ = run(capsys, ["gen", "--kind", "dense-lb", "--r", "2",
                                   "--seed", "1", "--out", out])
    assert code == 0
    rec = records(stdout)[0]
    assert rec["n"] == 8 and rec["manifest"].endswith(".manifest")
    assert open(out).readline().startswith("8 ")
    assert open(rec["manifest"]).readline().startswith("GADGET dense-lb")


def _pair_coins(seed, f, k):
    # the CLI's multi-lb payload: pair (i, j) of the f*k blocks with
    # j - i <= f // 2 kept on a fair coin, in (i, j) order
    rng = random.Random(seed)
    count = f * k
    return {(i, j) for i in range(count)
            for j in range(i + 1, min(i + f // 2 + 1, count))
            if rng.random() < 0.5}


def _index_coins(seed, n):
    # the CLI's multi-lb-f1 payload: index i < n/2 - 1 kept on a fair coin
    rng = random.Random(seed)
    return {i for i in range(n // 2 - 1) if rng.random() < 0.5}


# Per gadget kind: `gen` flags, and the library build of the same seed
GEN_GADGETS = {
    "dense-lb": (["--r", "2"], lambda s: gen_dense_lb(random_payload(2, s))),
    "sparse-lb": (["--r", "3", "--n", "14"],
                  lambda s: gen_sparse_lb(random_payload(3, s), 14)),
    "weighted-lb": (["--r", "2", "--eps-num", "1", "--eps-den", "4",
                     "--n", "9"],
                    lambda s: gen_weighted_lb(random_payload(2, s),
                                              Fraction(1, 4), n=9)),
    "multi-lb": (["--f", "4", "--k", "2", "--n", "20"],
                 lambda s: gen_multi_lb(4, 2, 20, _pair_coins(s, 4, 2))),
    "multi-lb-f1": (["--n", "18"],
                    lambda s: gen_multi_lb_f1(18, _index_coins(s, 18))),
}


@pytest.mark.parametrize("kind", GEN_GADGETS)
def test_gen_gadget_equals_library_build(capsys, tmp_path, kind):
    flags, build = GEN_GADGETS[kind]
    out = tmp_path / "g.txt"
    for seed in (1, 7):
        code, stdout, _ = run(capsys, ["gen", "--kind", kind, "--seed",
                                       str(seed), "--out", str(out), *flags])
        inst = build(seed)
        assert code == 0 and records(stdout)[0]["seed"] == seed
        assert out.read_text() == format_graph(inst.graph)
        manifest = tmp_path / "g.txt.manifest"
        assert manifest.read_text() == format_manifest(inst)


def test_gen_requires_seed(capsys, tmp_path):
    for kind in ("er", "dense-lb"):
        with pytest.raises(SystemExit):
            main(["gen", "--kind", kind, "--out", str(tmp_path / "x")])
        assert "required: --seed" in capsys.readouterr().err


def test_gen_er_deterministic(capsys, tmp_path):
    a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
    run(capsys, ["gen", "--kind", "er", "--n", "30", "--p", "0.2",
                 "--seed", "5", "--out", a])
    run(capsys, ["gen", "--kind", "er", "--n", "30", "--p", "0.2",
                 "--seed", "5", "--out", b])
    assert open(a).read() == open(b).read()


def test_gen_bad_kind_usage_error(capsys, tmp_path):
    with pytest.raises(SystemExit):
        main(["gen", "--kind", "nope", "--out", str(tmp_path / "x")])


def refused_gen(capsys, tmp_path, flags):
    """Run `fdo gen` with ``flags``, which it must refuse: exit 2, no output
    and no graph file, and an `fdo: error:` line, not a traceback, as the
    last line on stderr; returns that line."""
    out = tmp_path / "g.txt"
    try:
        code = main(["gen", "--seed", "1", "--out", str(out), *flags])
    except SystemExit as exc:   # argparse's own refusals
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and not out.exists()
    assert "Traceback" not in captured.err
    return captured.err.splitlines()[-1]


@pytest.mark.parametrize("flags, message", [
    # a ZeroDivisionError and a ValueError traceback, exit 1, before
    (["--kind", "weighted-lb", "--eps-den", "0"], "--eps-den must not be 0"),
    (["--kind", "er-weighted", "--weight-max", "0"],
     "unrecognized arguments: --weight-max 0"),
    (["--kind", "er-weighted", "--weight-max", "-1"],
     "unrecognized arguments: --weight-max -1"),
], ids=["eps-den-0", "weight-max-0", "weight-max--1"])
def test_gen_refuses_bad_input(capsys, tmp_path, flags, message):
    assert refused_gen(capsys, tmp_path, flags) == f"fdo: error: {message}"


def test_gen_multi_lb_refuses_before_drawing(capsys, monkeypatch, tmp_path):
    # f=1000000 and k=3 have about 1.5e12 candidate pairs, each drawn on a
    # coin: the refusal must come before the first draw
    class NoDraws(random.Random):
        def random(self):
            raise AssertionError("a multi-lb candidate pair was drawn")

    monkeypatch.setattr(random, "Random", NoDraws)
    line = refused_gen(capsys, tmp_path, ["--kind", "multi-lb", "--f",
                                          "1000000"])
    assert line == "fdo: error: need f*k+1 <= n, got f=1000000, k=3, n=16"


# ---------------------------------------------------------------------- audit

def audit_built(capsys, tmp_path, graph, build_flags, audit_flags=()):
    """Build an oracle file with `fdo build`, then `fdo audit` it; returns
    the audit's exit code and records."""
    opath = str(tmp_path / "audited.fdo")
    code, _, err = run(capsys, ["build", "--graph", graph, "--out", opath,
                                *build_flags])
    assert code == 0, err
    code, stdout, _ = run(capsys, ["audit", "--graph", graph,
                                   "--oracle", opath, *audit_flags])
    return code, records(stdout)


def test_audit_exact_clean(capsys, tmp_path, c4_file):
    code, recs = audit_built(capsys, tmp_path, c4_file, ["--kind", "exact"])
    summary = recs[-1]
    assert code == 0
    assert summary["record"] == "audit-summary" and summary["violations"] == 0
    assert summary["kind"] == "exact" and summary["queries"] == 4


def test_audit_ecc_stretch_two(capsys, tmp_path, c4_file):
    code, recs = audit_built(capsys, tmp_path, c4_file, ["--kind", "ecc"])
    assert code == 0
    assert recs[-1]["violations"] == 0 and recs[-1]["stretch"] == 2.0


def test_audit_approx_stretch_one_plus_eps(capsys, tmp_path, c4_file):
    code, recs = audit_built(capsys, tmp_path, c4_file,
                             ["--kind", "approx", "--eps", "0.25"])
    assert code == 0
    assert recs[-1]["violations"] == 0 and recs[-1]["stretch"] == 1.25


def test_audit_spanner_computes_diameter_once(capsys, monkeypatch, tmp_path,
                                              c4_file):
    # the default stretch reads diam(G) from the oracle file, not a second
    # run: the build computes it once and the audit not at all
    import fdo.verify  # noqa: F401  (loaded by audit; patched if it binds it)
    real, calls = fdo.graph.diameter, []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    import fdo.single  # noqa: F401  (the spanner build binds diameter)
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "fdo" and getattr(mod, "diameter", None) is real:
            monkeypatch.setattr(mod, "diameter", counted)
    code, recs = audit_built(capsys, tmp_path, c4_file,
                             ["--kind", "spanner", "--k", "2"])
    summary = recs[-1]
    assert code == 0 and summary["violations"] == 0
    assert summary["stretch"] == 2.0     # 1 + 2(k-1)/diam(C4)
    assert len(calls) == 1


def test_audit_corrupted_oracle_nonzero_exit(capsys, tmp_path, c4_file):
    opath = tmp_path / "c4.fdo"
    run(capsys, ["build", "--graph", c4_file, "--kind", "exact",
                 "--out", str(opath)])
    capsys.readouterr()
    text = opath.read_text()
    assert "D 0-1 3" in text
    text = text.replace("D 0-1 3", "D 0-1 1")
    opath.write_text(text)
    code, stdout, _ = run(capsys, ["audit", "--graph", c4_file,
                                   "--oracle", str(opath)])
    assert code == 1
    assert records(stdout)[-1]["violations"] >= 1


@pytest.mark.parametrize("flags, message", [
    (["--stretch", "0.5"], "stretch must be finite and >= 1, got 0.5"),
    (["--stretch", "nan"], "stretch must be finite and >= 1, got nan"),
    (["--stretch", "0"], "stretch must be finite and >= 1, got 0.0"),
    (["--failures", "-1"], "failure budget must be an int >= 1, got -1"),
    (["--failures", "0"], "failure budget must be an int >= 1, got 0"),
    (["--samples", "0"], "sample count must be an int >= 1, got 0"),
    (["--failures", "2"],
     "--failures 2 exceeds the oracle's failure budget f=1"),
], ids=["stretch-0.5", "stretch-nan", "stretch-0", "failures--1",
        "failures-0", "samples-0", "failures-2"])
def test_audit_refuses_bad_numbers(capsys, monkeypatch, tmp_path, c4_file,
                                   flags, message):
    # refused before any failure set is audited by brute force
    import fdo.verify

    def never(*args):
        raise AssertionError("brute_diam called")

    monkeypatch.setattr(fdo.verify, "brute_diam", never)
    opath = str(tmp_path / "c4.fdo")
    run(capsys, ["build", "--graph", c4_file, "--kind", "exact",
                 "--out", opath])
    code, stdout, err = run(capsys, ["audit", "--graph", c4_file,
                                     "--oracle", opath, *flags])
    assert (code, stdout, err) == (2, "", f"fdo: error: {message}\n")


@pytest.mark.parametrize("kind, build_flags", [
    ("er", ["--kind", "exact"]),
    ("er", ["--kind", "multi", "--f", "2"]),
    ("low-diam-hub", ["--kind", "lowdiam", "--f", "2", "--delta", "3"]),
], ids=["exact", "multi", "lowdiam"])
def test_audit_refuses_another_graph(capsys, tmp_path, kind, build_flags):
    # two graphs of one generator and n, seeds 1 and 2: their m differ
    # (the er pair has m=26 and 29)
    paths = [str(tmp_path / f"g{seed}.txt") for seed in (1, 2)]
    for seed, path in zip((1, 2), paths):
        assert run(capsys, ["gen", "--kind", kind, "--n", "14", "--seed",
                            str(seed), "--out", path])[0] == 0
    opath = str(tmp_path / "g1.fdo")
    code, _, err = run(capsys, ["build", "--graph", paths[0], "--out", opath,
                                *build_flags])
    assert code == 0, err
    code, stdout, err = run(capsys, ["audit", "--graph", paths[1],
                                     "--oracle", opath])
    assert code == 2 and stdout == ""
    assert err.startswith("fdo: error: the oracle was built on another graph")


def test_audit_requires_oracle(capsys, c4_file):
    # audit reads oracle files only: it has no build options
    for extra, msg in [([], "required: --oracle"),
                       (["--oracle", c4_file, "--kind", "exact"],
                        "unrecognized arguments: --kind exact")]:
        with pytest.raises(SystemExit) as info:
            main(["audit", "--graph", c4_file, *extra])
        assert info.value.code == 2 and msg in capsys.readouterr().err


def test_audit_float_multi_answers_alike_built_and_loaded(capsys, tmp_path):
    # An integral float answer reads the same from the built oracle and in
    # the audit of its file: the file writes 7.0 as '7.0', where it once
    # wrote '7' and loaded an int
    text = "4 5 U W\n0 1 0.5\n1 2 1.5\n2 3 1.0\n3 0 2.0\n0 2 3.0\n"
    gpath = tmp_path / "g.txt"
    gpath.write_text(text)
    built = build_multi_fdo(parse_graph(text), 1).query([(1, 2)])
    assert built == 7.0 and isinstance(built, float)
    code, recs = audit_built(capsys, tmp_path, str(gpath),
                             ["--kind", "multi", "--f", "1"])
    assert code == 0
    line = json.dumps([r for r in recs if r.get("F") == "1-2"][0],
                      sort_keys=True)
    assert '"answer": 7.0,' in line
