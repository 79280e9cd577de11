"""List the functions of ``harmonichh`` that no run of the verifier calls.

Traces Python calls with ``sys.setprofile`` while the program runs:

* the eight configs of ``tests/test_golden.py`` through ``parse_config``,
  ``run`` and ``render_report``, in both report formats;
* the default config in baseline mode, with composite Simpson quadrature
  and with seeded-random grid sampling, and its five grid ids at c = 2,
  where both of prop_31's sides fail and their rows are compared;
* ``cli.main`` on the golden disc search, writing its counterexample to a
  temporary directory.

It then prints every function defined under SRC/harmonichh (parsed with
``ast``) that none of these called, as ``module:line qualname (lines)``.
A name the benchmark's span tracer (``perfbench/spans.py``) wraps, or a
method of a class it looks up by name and no run reaches at all, is
marked as such: it cannot leave ``src/`` until the benchmark stops
looking it up (ROADMAP item 1).  Names the tracer wraps that are bound to
None hold no function and are skipped.  Abstract methods are marked too.

    python tools/reachability.py [SRC]

SRC is the ``src`` directory whose ``harmonichh`` is traced (this
checkout's by default).  ``unreached(SRC)`` gives the same list to a
caller that has put ``perfbench``, ``tests`` and SRC on ``sys.path``.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def defined_functions(package: Path) -> list:
    """(path, first line, qualname, line count, abstract) of every def under
    ``package``.  The first line is the one a code object reports: that of
    the first decorator if there is one."""
    found = []

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                abstract = any(ast.unparse(d).endswith("abstractmethod")
                               for d in child.decorator_list)
                found.append((path, first, prefix + child.name,
                              child.end_lineno - first + 1, abstract))
                visit(child, path, f"{prefix}{child.name}.<locals>.")
            else:
                visit(child, path, prefix)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text()), str(path.resolve()), "")
    return found


def workloads():
    """Every traced run of the program, in order."""
    from harmonichh import cli, hh_check
    from test_golden import DISC_SEARCH, GOLDEN

    def report(doc):
        rep, _ = cli.run(cli.parse_config(doc))
        for fmt in ("json", "text"):
            cli.render_report(rep, fmt)

    for _, doc, _, _ in GOLDEN:
        report(doc)
    default = cli.default_config()
    report({**default, "mode": "baseline"})
    report({**default, "quadrature": {"rule": "composite-simpson", "order": 16}})
    report({**default, "grid": {**default["grid"], "sampling": "seeded-random"}})
    report({**default, "c": 2.0, "theorems": list(hh_check.GRID_IDS)})
    with tempfile.TemporaryDirectory() as tmp:
        doc = {**DISC_SEARCH, "search": {**DISC_SEARCH["search"],
                                         "counterexample_out": os.path.join(tmp, "cx.json")}}
        path = os.path.join(tmp, "search.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.main(["--config", path])
        if status != 1 or not os.path.exists(doc["search"]["counterexample_out"]):
            raise RuntimeError(f"the disc search exited {status} without its counterexample")


def _package_modules() -> dict:
    return {name: module for name, module in sys.modules.items()
            if name.split(".")[0] == "harmonichh"}


def traced_calls() -> set:
    """(path, first line) of every Python function the workloads called,
    the package's import included.  They run on a copy of the package
    imported afresh, so that no call is missed because an earlier import or
    cache in the same process made it; the loaded modules are put back."""
    loaded = _package_modules()
    for name in loaded:
        del sys.modules[name]
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(profile)
    try:
        workloads()
    finally:
        sys.setprofile(None)
        for name in _package_modules():
            del sys.modules[name]
        sys.modules.update(loaded)
    return {(os.path.realpath(c.co_filename), c.co_firstlineno) for c in codes}


def tracer_held() -> tuple:
    """(path, first line) of every function the span tracer wraps, and the
    names of the classes it looks up, read from an installed tracer.  A
    name bound to None (a deleted check the tracer still looks up) holds no
    function and is skipped."""
    import spans

    tracer = spans.Tracer()
    tracer.install()
    try:
        patches = list(tracer._patches)
    finally:
        tracer.remove()
    wrapped, classes = set(), set()
    for owner, _, original in patches:
        if original is None:
            continue
        code = original.__code__
        wrapped.add((os.path.realpath(code.co_filename), code.co_firstlineno))
        if isinstance(owner, type):
            classes.add(owner.__qualname__)
    return wrapped, classes


def unreached(src: Path) -> list:
    """(module, first line, qualname, line count, hold) of every function
    under ``src/harmonichh`` that no workload calls, in file order.  hold
    is "wraps" for a name the span tracer wraps, "class" for a method of a
    class it looks up by name, "abstract" for an abstract method, else
    None."""
    reached = traced_calls()
    wrapped, classes = tracer_held()
    defined = defined_functions(Path(src) / "harmonichh")
    # a class the tracer looks up is held whole only if no run reaches any of it
    classes -= {d[2].split(".")[0] for d in defined if d[:2] in reached}
    found = []
    for path, first, qualname, lines, abstract in defined:
        if (path, first) in reached:
            continue
        hold = ("wraps" if (path, first) in wrapped else
                "class" if qualname.split(".")[0] in classes else
                "abstract" if abstract else None)
        found.append((Path(path).stem, first, qualname, lines, hold))
    return found


MARKS = {"wraps": "  [tracer wraps it: waits for ROADMAP item 1]",
         "class": "  [tracer looks up its class: waits for ROADMAP item 1]",
         "abstract": "  [abstract]", None: ""}


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    src = Path(args[0] if args else ROOT / "src").resolve()
    sys.path[:0] = [str(src), str(ROOT / "tests"), str(ROOT / "perfbench")]
    found = unreached(src)
    held_lines = other_lines = 0
    for module, first, qualname, lines, hold in found:
        if hold in ("wraps", "class"):
            held_lines += lines
        else:
            other_lines += lines
        print(f"{module}:{first} {qualname} ({lines} lines){MARKS[hold]}")
    print(f"{len(found)} functions unreached: {held_lines} lines held by the tracer, "
          f"{other_lines} other")
    return 0


if __name__ == "__main__":
    sys.exit(main())
