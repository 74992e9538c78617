"""Statement lines of src/wavetomo that the test suite never runs.

    python tests/line_coverage.py [pytest arguments]

Runs pytest in this process under ``sys.settrace`` and ``threading.settrace``
(the standard library only: no coverage package is needed) and prints, per
module, the statement lines no test ran, marking the ``raise`` statements.
Without arguments it runs the tier-1 suite with criterion 4's slow oracle
deselected.  Lines run only in subprocesses (the thread-count test's child
interpreter) count as not run.  The name does not match ``test_*.py``, so
pytest does not collect this file.  Exits with pytest's exit code.
"""

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "wavetomo"
DEFAULT_ARGS = ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                "--deselect", "tests/test_acceptance.py::test_criterion_4_tv_prox_oracle"]


def statement_lines(path):
    """{line: is a raise} for every statement that compiles to code."""
    source = path.read_text()
    code_lines = set()
    todo = [compile(source, str(path), "exec")]
    while todo:
        code = todo.pop()
        code_lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return {node.lineno: isinstance(node, ast.Raise)
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.stmt) and node.lineno in code_lines}


def main(argv):
    import pytest

    prefix = str(PACKAGE) + "/"
    ran = {}  # filename -> set of line numbers

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran.setdefault(filename, set()).add(frame.f_lineno)
        return local

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(call)
    sys.settrace(call)
    try:
        status = pytest.main(argv or DEFAULT_ARGS)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed_total = raises_total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        statements = statement_lines(path)
        missed = sorted(set(statements) - ran.get(str(path), set()))
        raises = [line for line in missed if statements[line]]
        missed_total += len(missed)
        raises_total += len(raises)
        shown = ", ".join(f"{line}{'*' if statements[line] else ''}" for line in missed)
        print(f"{path.name}: {len(missed)} of {len(statements)} statements never ran"
              f"{', ' + str(len(raises)) + ' raise' if raises else ''}"
              f"{': ' + shown if shown else ''}")
    print(f"total: {missed_total} statement lines never ran, {raises_total} of them "
          f"raise statements (marked *)")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
