"""Functions of a geolab checkout that no command, demo or benchmark reaches.

    python3 tools/line_census.py [CHECKOUT] [--seed S]

Runs, in this one process and with calls into ``CHECKOUT/src/geolab``
traced (``sys.settrace``, call events only), the README's ten CLI
configurations (``compare_outputs.CLI_CONFIGS``), every script in
``CHECKOUT/demos`` and one pass of the operations that
``CHECKOUT/perfbench/workloads.py`` generates for each workload at seed S
(default 0).  Then it prints each function and method defined in
``src/geolab`` that none of them called, as ``path:line qualname``, and
their count.  Lambdas, comprehensions and class bodies are not counted.
Before the counts it lists each exception class of ``src/geolab/errors.py``
that no ``raise`` statement under ``src/geolab`` raises, itself or through
a subclass, as ``errors.py:LINE Name``; this part reads the source only.
Its last line is the number of lines in ``src/geolab``, as ``wc -l``
counts them.
CHECKOUT defaults to the repository holding this script.

Outputs go to a temporary directory that is removed afterwards; demo
output goes to /dev/null.  Nothing is written under the checkout: bytecode
caching is off, and perfbench's modules are imported, not run.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import inspect
import os
import runpy
import sys
import tempfile
import traceback
from pathlib import Path

sys.dont_write_bytecode = True

from compare_outputs import CLI_CONFIGS  # noqa: E402  (after the bytecode switch)


def defined_functions(package: Path) -> dict:
    """{(file, first line): qualname} of every function in the package."""
    found = {}
    for path in sorted(package.rglob("*.py")):
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            code = stack.pop()
            for const in code.co_consts:
                if not inspect.iscode(const):
                    continue
                stack.append(const)
                if const.co_flags & inspect.CO_NEWLOCALS and not const.co_name.startswith("<"):
                    found[(str(path), const.co_firstlineno)] = const.co_qualname
    return found


def unraised_errors(package: Path) -> list:
    """(line, name) of each class in ``errors.py`` that no ``raise`` in the
    package raises, neither itself nor any subclass defined there."""
    classes = {
        node.name: node
        for node in ast.parse((package / "errors.py").read_text()).body
        if isinstance(node, ast.ClassDef)
    }
    raised = set()
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(getattr(exc, "id", getattr(exc, "attr", None)))

    def lineage(name):
        """The class and its bases in errors.py, up to the root."""
        yield name
        for base in classes[name].bases:
            if isinstance(base, ast.Name) and base.id in classes:
                yield from lineage(base.id)

    covered = {cls for name in raised & classes.keys() for cls in lineage(name)}
    return sorted((node.lineno, name) for name, node in classes.items() if name not in covered)


def operations(checkout: Path, seed: int):
    """(name, thunk) per traced run; each thunk takes an output directory."""
    import geolab.cli as cli

    for argv in CLI_CONFIGS:
        yield " ".join(argv), lambda out, argv=argv: cli.run([*argv, "--out", str(out)])
    for demo in sorted((checkout / "demos").glob("*.py")):
        yield demo.name, lambda out, demo=demo: runpy.run_path(str(demo), run_name="__main__")
    sys.path.insert(0, str(checkout / "perfbench"))
    import worker
    import workloads

    for workload in workloads.WORKLOADS:
        for op in workloads.operations(workload, seed):
            yield f"{workload}/{op['name']}", lambda out, op=op: worker.run_op(op, out, cli)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("checkout", type=Path, nargs="?", default=Path(__file__).resolve().parents[1])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    checkout = args.checkout.resolve()
    functions = defined_functions(checkout / "src" / "geolab")
    reached = set()

    def trace(frame, event, arg):
        code = frame.f_code
        reached.add((code.co_filename, code.co_firstlineno))

    sys.path.insert(0, str(checkout / "src"))
    sys.settrace(trace)  # before geolab is imported: import-time calls count
    with tempfile.TemporaryDirectory(prefix="line-census-") as tmp:
        for i, (name, run) in enumerate(operations(checkout, args.seed)):
            out = Path(tmp) / f"{i:02d}"
            out.mkdir()
            cwd = os.getcwd()
            os.chdir(out)
            try:
                with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                    run(out)
            except Exception:  # a failing run still counts what it reached
                traceback.print_exc()
            finally:
                os.chdir(cwd)
            print(f"ran {name}", file=sys.stderr, flush=True)
    sys.settrace(None)

    import geolab

    if Path(geolab.__file__).resolve().parent != checkout / "src" / "geolab":
        print(f"geolab imported from {geolab.__file__}, not from {checkout}", file=sys.stderr)
        return 3
    unreached = sorted(key for key in functions if key not in reached)
    for path, line in unreached:
        print(f"{Path(path).relative_to(checkout)}:{line} {functions[path, line]}")
    for line, name in unraised_errors(checkout / "src" / "geolab"):
        print(f"errors.py:{line} {name}")
    print(f"{len(unreached)} of {len(functions)} functions unreached")
    package = checkout / "src" / "geolab"
    lines = sum(len(path.read_text().splitlines()) for path in package.rglob("*.py"))
    print(f"{lines} lines in src/geolab")
    return 0


if __name__ == "__main__":
    sys.exit(main())
