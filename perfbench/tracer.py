"""Spans and counts around the public calls into each ghlab layer.

The wrappers are installed from outside the program: every target function
is replaced under each name it is reachable by in a loaded ``ghlab`` module
(``ghlab.solutions.k0`` is the re-export of ``ghlab.bessel.k0``, so both
names get the same wrapper), methods are replaced on their class, and the
sympy ``diff``/``lambdify`` that ``ghlab.fields`` calls are wrapped through a
proxy for its ``sp`` global.  Spans (name, start, end, parent) stay in memory
until ``export``.

As a script this is the traced CLI shim:

    PYTHONPATH=src python3 perfbench/tracer.py SPANS.json ronkin --csv r.csv

installs the wrappers, runs ``ghlab.cli.main`` on the remaining arguments,
writes the spans to SPANS.json and exits with the command's exit code.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import Counter

import numpy as np

# (layer, module, attribute or Class.method) of every traced call
TARGETS = [
    ("fields", "ghlab.fields", "fd_partial"),
    ("ghcore", "ghlab.ghcore", "verify_closed"),
    ("ghcore", "ghlab.ghcore", "verify_compat"),
    ("ghcore", "ghlab.ghcore", "chern_flux"),
    ("legendre", "ghlab.legendre", "SplitMASolution.from_potential"),
    ("legendre", "ghlab.legendre", "verify_classical_ma"),
    ("legendre", "ghlab.legendre", "beta_holonomy"),
    ("lattice", "ghlab.lattice", "wall_complex"),
    ("solutions", "ghlab.solutions", "taub_nut"),
    ("solutions", "ghlab.solutions", "ooguri_vafa"),
    ("solutions", "ghlab.solutions", "PeriodicFourierSolution.value"),
    ("solutions", "ghlab.solutions", "ov_total_flux"),
    ("solutions", "ghlab.solutions",
     "PeriodicFourierSolution.helmholtz_residual"),
    ("bessel", "ghlab.bessel", "k0"),
    ("bessel", "ghlab.bessel", "k0_mp"),
    ("decay", "ghlab.decay", "fourier_modes"),
    ("decay", "ghlab.decay", "decay_fit"),
    ("decay", "ghlab.decay", "collapse_distance"),
    ("decay", "ghlab.decay", "ronkin_collapse"),
    ("tropical", "ghlab.tropical", "ronkin"),
    ("tropical", "ghlab.tropical", "ronkin_grid"),
    ("tropical", "ghlab.tropical", "amoeba_contains"),
    ("tropical", "ghlab.tropical", "ronkin_hessian_mass"),
]
# the sympy calls that build symbolic derivatives in ghlab.fields
SYMPY_TARGETS = ["diff", "lambdify"]
GHLAB_MODULES = ["bessel", "cli", "decay", "fields", "ghcore", "lattice",
                 "legendre", "solutions", "svgplot", "tropical"]


def span_name(layer, attr):
    return f"{layer}.{attr.rsplit('.', 1)[-1]}"


class _Proxy:
    """Module stand-in: overridden attributes first, the module after."""

    def __init__(self, module, overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.spans = []            # [name, start, end, parent index]
        self.counts = Counter()    # argument totals, e.g. bessel.k0_args
        self._local = threading.local()
        self._undo = []

    def _wrap(self, name, fn):
        spans, counts, local = self.spans, self.counts, self._local
        sizes = name == "bessel.k0"

        @functools.wraps(fn)
        def traced(*args, **kw):
            stack = local.__dict__.setdefault("stack", [])
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            if sizes:
                x = args[0] if args else kw["x"]
                counts["bessel.k0_args"] += np.size(x)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kw)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
        return traced

    def _replace(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        modules = [importlib.import_module(f"ghlab.{m}")
                   for m in GHLAB_MODULES]
        for layer, modname, attr in TARGETS:
            name = span_name(layer, attr)
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, attr = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    self._replace(cls, attr,
                                  classmethod(self._wrap(name, raw.__func__)))
                else:
                    self._replace(cls, attr, self._wrap(name, raw))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(name, orig)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._replace(mod, key, wrapper)
        fields = sys.modules["ghlab.fields"]
        sp = fields.sp
        self._replace(fields, "sp", _Proxy(sp, {
            k: self._wrap(f"fields.{k}", getattr(sp, k))
            for k in SYMPY_TARGETS}))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def export(self):
        return {"spans": self.spans, "counts": dict(self.counts),
                "summary": summarize(self.spans)}


def summarize(spans):
    """Per span name: calls, inclusive time and self time.

    Inclusive time sums only the outermost span of a name on each call
    path, so a function that reaches itself is not counted twice; self
    time is a span's duration minus that of its direct children.
    """
    out = {}
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for i, (name, start, end, parent) in enumerate(spans):
        rec = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        rec["calls"] += 1
        rec["self_s"] += (end - start) - child_time[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            rec["total_s"] += end - start
    return out


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    from ghlab import cli

    tr = Tracer()
    tr.install()
    try:
        code = cli.main(cli_args)
    finally:
        tr.uninstall()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tr.export(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
