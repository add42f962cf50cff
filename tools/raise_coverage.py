"""List every ``raise`` in src/photonflow/ that no tier-1 test executes.

Runs the tier-1 suite in-process under the stdlib ``trace`` module (the
``coverage`` package is not a dependency), worker threads included, and
exits 1 if a test fails or if a ``raise`` statement outside ALLOWLIST is
never reached.  An ALLOWLIST entry that a test does reach also fails the
run, so the list keeps only lines that cannot be reached.  Code that runs
only in a subprocess a test starts is invisible to the trace.

    python tools/raise_coverage.py [extra pytest arguments]
"""

import ast
import os
import sys
import threading
import trace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "photonflow"

# (file, a fragment of the raise statement's source) -> why no test reaches it
ALLOWLIST = {
    ("fieldio.py", "payload ended early"):
        "the file size is checked against the header before the payload is read "
        "(read_weber, check_weber), and a snapshot that evolve reads plane by plane "
        "was written whole by the pass before, so only a file shortened while it "
        "is being read gets here",
}


def raise_statements(path):
    """(first line, last line, source) of each raise statement in ``path``."""
    text = path.read_text()
    return sorted((node.lineno, node.end_lineno, ast.get_source_segment(text, node))
                  for node in ast.walk(ast.parse(text)) if isinstance(node, ast.Raise))


def main(argv):
    # the tests that start `python -m photonflow` need the package on their path
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, str(SRC))
    import pytest

    tracer = trace.Trace(count=1, trace=0, ignoredirs=[sys.prefix, sys.exec_prefix])
    threading.settrace(tracer.globaltrace)
    try:
        status = tracer.runfunc(pytest.main, ["-q", "-p", "no:cacheprovider",
                                              "--continue-on-collection-errors",
                                              str(ROOT / "tests"), *argv])
    finally:
        threading.settrace(None)
    executed = {(Path(name).resolve(), line) for name, line in tracer.results().counts}

    unreached, allowed = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        for first, last, source in raise_statements(path):
            if any((path, line) in executed for line in range(first, last + 1)):
                continue
            key = next((key for key in ALLOWLIST
                        if key[0] == path.name and key[1] in source), None)
            if key is None:
                unreached.append(f"{path.relative_to(ROOT)}:{first}: {source.splitlines()[0]}")
            else:
                allowed.add(key)
                print(f"allowed {path.relative_to(ROOT)}:{first}: {ALLOWLIST[key]}")
    stale = [f"{name}: {fragment!r}" for name, fragment in ALLOWLIST
             if (name, fragment) not in allowed]
    for line in unreached:
        print(f"unreached {line}")
    for entry in stale:
        print(f"stale allowlist entry (reached, or no such raise) {entry}")
    if status != 0:
        print(f"the tests failed (pytest exit status {int(status)})")
    return 1 if unreached or stale or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
