"""Census of the function definitions in src/ghlab that nothing but tests
can reach.

A trace hook records every Python function entered, and every line
executed in src/ghlab, while this script runs the nine ghlab commands at
defaults, each with every artifact flag it takes, a few non-default
invocations that take other branches, and one rep of each perfbench
library set (with its oracle checks).  Every function or method defined in
src/ghlab that none of these entered is listed with its non-blank,
non-comment lines (the count of the CI size step).  A nested definition
inside a listed one is listed too, but adds neither a definition nor lines
to the total on the definition line.

The statement line counts the statements of src/ghlab that the runs never
execute, per file.  A statement is an ``ast.stmt`` node, except ``raise``
(a refusal that only tests provoke is not dead code), ``global``,
``nonlocal`` and docstrings (no line events); it counts as executed when a
line event falls on any line of its span, so a compound statement counts
when its header or anything in its body ran.  It is a report, not a gate.

The census is also a gate.  ``KEEP`` gives each listed definition, keyed
by file and qualified name, the reason it stays.  The script exits 1 when
a listed definition has no ``KEEP`` entry (give it a command check, delete
it, or name its reason) or a ``KEEP`` entry is no longer listed (delete the
entry).

The last line counts the knobs: the parameters with a default value in
src/ghlab, and the field flags (all but --config) of each command.

Run from the repository root:

    PYTHONPATH=src python .github/reach-census.py
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

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ghlab"

# (command, extra flags) beyond the nine commands at defaults
EXTRA_RUNS = [
    ("verify-flat", ["--n", "2"]),
    ("legendre", ["--family", "quadratic"]),
    ("legendre", ["--family", "cross"]),
    ("ronkin", ["--kappa", "2"]),
    ("amoeba", ["--point", "3,0"]),
    ("amoeba", ["--poly", "1-z1+z2-z1z2", "--point", "0,800"]),
    ("collapse", ["--poly", "1+z+z^2"]),
    ("holonomy", ["--loop-file", None]),
]
# why each definition that only tests reach stays; ROADMAP items by number
_PAIR = "item 12: the dual-pair layer becomes the commands' input"
_JET = ("Jet arithmetic protocol: a lambdified sympy potential may call it "
        "on a Jet")
_TRACER = "item 1: perfbench/tracer.py TARGETS looks it up by name"
KEEP = {
    ("bessel.py", "k0_mp"): "item 1: tracer target; mpmath's K0 until item 6 "
                            "deletes it",
    ("decay.py", "fourier_modes"): _TRACER,
    ("fields.py", "Jet.__rsub__"): _JET,
    ("fields.py", "Jet.__rtruediv__"): _JET,
    ("fields.py", "Jet.__rpow__"): _JET,
    ("fields.py", "Jet.sin"): _JET,
    ("fields.py", "fd_step"): "item 13: finite-difference closedness on "
                              "tables",
    ("lattice.py", "LatticeSimplex.__repr__"): _PAIR,
    ("lattice.py", "WallComplex.__len__"): _PAIR,
    ("lattice.py", "DualSimplexPair.__init__"): _PAIR,
    ("lattice.py", "validate_dual_pair"): _PAIR,
    ("lattice.py", "_project_to_wall"): _PAIR,
    ("lattice.py", "distance_to_wall_complex"): _PAIR,
    ("lattice.py", "distance_to_discriminant"): _PAIR,
    ("legendre.py", "monodromy_generator"): _PAIR,
    ("legendre.py", "is_unipotent"): _PAIR,
    ("solutions.py", "taub_nut_V"): "item 13: the closed-form table of "
                                    "table closedness",
    ("solutions.py", "semiflat"): "north star: the semi-flat family",
    ("tropical.py", "_swapped"): "item 19: the swap of the two-variable "
                                 "ronkin_gradient, which items 3 and 18 call",
    ("tropical.py", "spine"): _PAIR,
    ("tropical.py", "laurent_from_pair"): _PAIR,
}

COMMANDS = ["verify-flat", "verify-taubnut", "ov", "ronkin", "amoeba",
            "legendre", "holonomy", "decay", "collapse"]

entered = set()
executed = set()   # (file name, line) of every line event in src/ghlab
_in_src = {}       # file name -> whether it is a module of src/ghlab


def _lines(frame, event, arg):
    if event == "line":
        executed.add((frame.f_code.co_filename, frame.f_lineno))
    return _lines


def _hook(frame, event, arg):
    # the global trace function sees only "call" events
    code = frame.f_code
    entered.add((code.co_filename, code.co_firstlineno, code.co_name))
    name = code.co_filename
    if name not in _in_src:
        _in_src[name] = os.path.dirname(os.path.realpath(name)) == str(SRC)
    return _lines if _in_src[name] else None


def _run_commands(tmp):
    from ghlab import cli

    loop = os.path.join(tmp, "loop.json")
    with open(loop, "w", encoding="utf-8") as fh:
        json.dump({"loop": [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0],
                            [0.0, -1.0]]}, fh)
    runs = [(cmd, []) for cmd in COMMANDS] + EXTRA_RUNS
    for k, (cmd, flags) in enumerate(runs):
        flags = [loop if f is None else f for f in flags]
        fields = {**cli._COMMANDS[cmd], **cli._COMMON}
        art = [a for kind in ("out", "csv", "svg") if kind in fields
               for a in (f"--{kind}", os.path.join(tmp, f"{k}.{kind}"))]
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.main([cmd, *flags, *art])
        if status != 0:
            raise SystemExit(f"ghlab {cmd} {' '.join(flags)} exited {status}")


def _run_library_sets():
    import numpy as np

    sys.path.insert(0, str(ROOT / "perfbench"))
    import library
    from run import Ledger

    ledger = Ledger()
    for k, (name, (inputs, run, check)) in enumerate(library.SETS.items()):
        inp = inputs(np.random.default_rng([1, k]))
        check(inp, run(inp), ledger)
    if ledger.failed:
        raise SystemExit(f"library sets failed: {ledger.failures}")


def _definitions(path):
    """(first line, def line, name, lines, enclosing definition, qualified
    name) of every def."""
    text = path.read_text(encoding="utf-8").splitlines()
    out = []

    def visit(node, parent, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list]
                            + [child.lineno])
                span = text[first - 1:child.end_lineno]
                size = sum(1 for s in span
                           if s.strip() and not s.lstrip().startswith("#"))
                entry = (first, child.lineno, child.name, size, parent,
                         prefix + child.name)
                out.append(entry)
                visit(child, entry, entry[5] + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, parent, prefix + child.name + ".")
            else:
                visit(child, parent, prefix)

    visit(ast.parse("\n".join(text)), None, "")
    return out


def _never_executed(path, lines):
    """Statements of ``path`` with no executed line in their span."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    docs = {id(node.body[0]) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef))
            and ast.get_docstring(node) is not None}
    return sum(
        1 for node in ast.walk(tree)
        if isinstance(node, ast.stmt) and id(node) not in docs
        and not isinstance(node, (ast.Raise, ast.Global, ast.Nonlocal))
        and not any(k in lines for k in range(node.lineno,
                                              node.end_lineno + 1)))


def _knobs():
    """The knob line: defaulted parameters in src/ghlab, flags per command."""
    from ghlab import cli

    defaulted = sum(
        len(node.defaults) + sum(d is not None for d in node.kw_defaults)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.arguments))
    flags = {cmd: len({**table, **cli._COMMON})
             for cmd, table in cli._COMMANDS.items()}
    return (f"knobs: {defaulted} defaulted parameters in src/ghlab; "
            f"{sum(flags.values())} field flags over {len(flags)} commands ("
            + ", ".join(f"{cmd} {n}" for cmd, n in flags.items()) + ")")


def main():
    sys.settrace(_hook)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            _run_commands(tmp)
        _run_library_sets()
    finally:
        sys.settrace(None)
    seen = {(os.path.realpath(f), line, name) for f, line, name in entered}
    ran = {(os.path.realpath(f), line) for f, line in executed}
    listed, total_defs, total_lines, keys = [], 0, 0, set()
    unrun = {}
    for path in sorted(SRC.glob("*.py")):
        fname = os.path.realpath(path)
        unrun[path.name] = _never_executed(
            path, {line for f, line in ran if f == fname})
        defs = _definitions(path)
        missed = {d for d in defs if not any(
            (fname, line, d[2]) in seen for line in (d[0], d[1]))}
        for d in defs:
            if d not in missed:
                continue
            nested = d[4] in missed
            listed.append(f"{path.name}:{d[1]} {d[5]} "
                          f"{'(nested)' if nested else d[3]}")
            if not nested:
                total_defs += 1
                total_lines += d[3]
                keys.add((path.name, d[5]))
    print("\n".join(listed))
    print(f"reached by tests only: {total_defs} definitions, "
          f"{total_lines} non-blank, non-comment lines")
    print(f"never executed: {sum(unrun.values())} statements in src/ghlab, "
          "raise not counted (" + ", ".join(
              f"{name} {n}" for name, n in unrun.items()) + ")")
    print(_knobs())
    for key in sorted(keys - KEEP.keys()):
        print(f"reached by tests only, with no reason in KEEP: {key}",
              file=sys.stderr)
    for key in sorted(KEEP.keys() - keys):
        print(f"KEEP entry no longer reached by tests only: {key}",
              file=sys.stderr)
    return 1 if keys ^ KEEP.keys() else 0


if __name__ == "__main__":
    sys.exit(main())
