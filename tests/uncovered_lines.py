"""List the lines of src/fdo that no tier-1 test executes.

Runs the tier-1 suite in this process under a stdlib line tracer
(``sys.settrace`` and ``threading.settrace``), then reports every line of
``src/fdo`` that holds bytecode and never ran.  Child processes that the
tests start are not traced, so code reached only through them is listed
too.  The report goes to the file named by ``$GITHUB_STEP_SUMMARY`` when
that is set, else to stdout.  The exit code is always 0: the list is
information, and the tier-1 step is what passes or fails.

    PYTHONPATH=src python tests/uncovered_lines.py [pytest arguments]
"""
import os
import sys
import threading
import types

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "fdo")


def code_lines(path):
    """The line numbers of ``path`` that some bytecode maps to."""
    with open(path, encoding="utf-8") as fh:
        stack = [compile(fh.read(), path, "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return lines


def run_traced(args):
    """Run pytest with ``args``; returns the executed ``(path, line)``s of
    the files under src/fdo."""
    hits = set()
    prefix = PACKAGE + os.sep

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            hits.add((frame.f_code.co_filename, frame.f_lineno))
            return local
        return None

    threading.settrace(call)
    sys.settrace(call)
    try:
        pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return hits


def report(hits):
    """Markdown: each file's unexecuted lines with their text."""
    out = []
    total = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        missed = sorted(line for line in code_lines(path)
                        if (path, line) not in hits)
        if not missed:
            continue
        with open(path, encoding="utf-8") as fh:
            text = fh.read().splitlines()
        total += len(missed)
        out += [f"{name}:{line}: {text[line - 1].strip()}" for line in missed]
    return "\n".join([f"src/fdo lines that no tier-1 test executes: {total}",
                      "```", *out, "```", ""])


def main(argv):
    text = report(run_traced(["-q", *argv]))
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
