import io
import json
import os
import select
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fdo
from fdo import (GraphError, build_approx_fdo, build_ecc_fdo, build_exact_fdo,
                 build_graph, build_lowdiam_fdo, build_multi_fdo,
                 build_spanner_fdo, dumps_oracle, gen_random, parse_graph,
                 save_graph)
from fdo.cli import _parse_query_line, main, make_parser, serve_queries
from fdo.serialize import FORMATS
from fdo.graph import fmt_dist

SRC = os.path.dirname(os.path.dirname(fdo.__file__))


C4_TEXT = "4 4 U UW\n0 1\n1 2\n2 3\n3 0\n"


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
    for cmd in ("build", "audit"):
        kind = next(a for a in sub.choices[cmd]._actions if a.dest == "kind")
        assert tuple(kind.choices) == tuple(FORMATS) == tuple(KIND_BUILDS)
    g = parse_graph(C4_TEXT)
    for kind, (flags, build) in KIND_BUILDS.items():
        code, stdout, _ = run(capsys, ["build", "--graph", c4_file, "--kind",
                                       kind, "--out", out] + flags)
        text = open(out).read()
        assert code == 0 and text == dumps_oracle(build(g)), kind
        dcount = sum(ln.startswith("D ") for ln in text.splitlines())
        assert records(stdout)[0]["entries"] == dcount, kind


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
    big = gen_random("er-strongly-connected-digraph", seed=9, n=14, p=0.3)
    gpath = tmp_path / "big.txt"
    save_graph(big, gpath)
    argv = ["build", "--graph", str(gpath), "--kind", "approx",
            "--pivot-mode", "random", "--scan-threshold", "0",
            "--out", str(tmp_path / "x.fdo")]
    code, _, err = run(capsys, argv)
    assert code == 2 and "--default-seed" in err
    code, stdout, _ = run(capsys, argv + ["--default-seed"])
    assert code == 0 and records(stdout)[0]["seed"] == 0xFD0


def test_lowdiam_auto_backend_threshold(capsys, tmp_path):
    def argv(n, f=2, backend="auto"):
        g = gen_random("low-diam-hub", seed=3, n=n, p=0.1)
        gpath = tmp_path / f"hub{n}.txt"
        save_graph(g, gpath)
        return ["build", "--graph", str(gpath), "--kind", "lowdiam",
                "--f", str(f), "--delta", "2.0", "--backend", backend,
                "--out", str(tmp_path / f"hub{n}.fdo")]

    # auto builds the exact backend at every size: no seed needed
    for n in (12, 65):
        code, stdout, _ = run(capsys, argv(n))
        rec = records(stdout)[0]
        assert code == 0 and rec["backend"] == "exact" and rec["seed"] is None
    # the sampled backend is opt-in and randomized
    code, _, err = run(capsys, argv(12, backend="sampled"))
    assert code == 2 and "--seed" in err
    # f=1 builds the exact single-failure oracle: no seed needed
    code, stdout, _ = run(capsys, argv(65, f=1))
    rec = records(stdout)[0]
    assert code == 0 and rec["backend"] == "exact" and rec["seed"] is None


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
                                   "--payload-seed", "1", "--out", out])
    assert code == 0
    rec = records(stdout)[0]
    assert rec["n"] == 8 and rec["manifest"].endswith(".manifest")
    assert open(out).readline().startswith("8 ")
    assert open(rec["manifest"]).readline().startswith("GADGET dense-lb")


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


# ---------------------------------------------------------------------- audit

def test_audit_exact_clean(capsys, c4_file):
    code, stdout, _ = run(capsys, ["audit", "--graph", c4_file,
                                   "--kind", "exact"])
    assert code == 0
    summary = records(stdout)[-1]
    assert summary["record"] == "audit-summary" and summary["violations"] == 0


def test_audit_ecc_stretch_two(capsys, c4_file):
    code, stdout, _ = run(capsys, ["audit", "--graph", c4_file,
                                   "--kind", "ecc"])
    assert code == 0
    assert records(stdout)[-1]["violations"] == 0


def test_audit_spanner_computes_diameter_once(capsys, monkeypatch, c4_file):
    # the default stretch reads diam(G) from the oracle, not a second run
    import fdo.verify  # noqa: F401  (loaded by audit; patched if it binds it)
    real, calls = fdo.graph.diameter, []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "fdo" and getattr(mod, "diameter", None) is real:
            monkeypatch.setattr(mod, "diameter", counted)
    code, stdout, _ = run(capsys, ["audit", "--graph", c4_file,
                                   "--kind", "spanner", "--k", "2"])
    summary = records(stdout)[-1]
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


def test_audit_requires_kind_or_oracle(capsys, c4_file):
    code, _, err = run(capsys, ["audit", "--graph", c4_file])
    assert code == 2 and "--kind" in err or "kind" in err


def test_audit_float_multi_answers_alike_built_and_loaded(capsys, tmp_path):
    # An integral float answer reads the same in both audits: the file
    # writes 7.0 as '7.0', where it once wrote '7' and loaded an int
    gpath = tmp_path / "g.txt"
    gpath.write_text("4 5 U W\n0 1 0.5\n1 2 1.5\n2 3 1.0\n3 0 2.0\n0 2 3.0\n")
    opath = tmp_path / "g.fdo"
    assert run(capsys, ["build", "--graph", str(gpath), "--kind", "multi",
                        "--f", "1", "--out", str(opath)])[0] == 0
    answers = []
    for source in (["--kind", "multi", "--f", "1"], ["--oracle", str(opath)]):
        code, stdout, _ = run(capsys, ["audit", "--graph", str(gpath), *source])
        assert code == 0
        answers.append([line for line in stdout.splitlines()
                        if '"F": "1-2"' in line][0])
    assert answers[0] == answers[1] and '"answer": 7.0,' in answers[0]
