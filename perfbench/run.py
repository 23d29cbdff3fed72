"""ghlab benchmark: cold CLI, warm library and traced per-layer metrics.

    python3 perfbench/run.py --workload symbolic --seed 1 --seconds 30 \
        --trace 0

Run from the root of a source checkout; nothing needs to be installed, the
children import ghlab from ``src``.  See perfbench/README.md for the
workloads, the metrics and which layer should move which metric.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
per-rep samples, sample counts and machine record, which are also written
to ``.perfbench-out/`` with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402

CHILD_TIMEOUT_S = 150.0
LIB_REPS = 2        # timed library reps per round

# Each workload: its CLI commands (run at default settings) and the modules
# its calls import (timed for setup_s).
WORKLOADS = {
    "symbolic": {
        "cli": ["verify-flat", "verify-taubnut", "legendre", "holonomy"],
        "modules": ["ghlab.cli", "ghlab.fields", "ghlab.ghcore",
                    "ghlab.lattice", "ghlab.legendre", "ghlab.solutions"]},
    "periodic": {
        "cli": ["ov", "decay", "collapse"],
        "modules": ["ghlab.cli", "ghlab.bessel", "ghlab.decay",
                    "ghlab.solutions"]},
    "tropical": {
        "cli": ["ronkin", "amoeba"],
        "modules": ["ghlab.cli", "ghlab.decay", "ghlab.tropical"]},
}
ALL_COMMANDS = [c for w in WORKLOADS.values() for c in w["cli"]]
# The artifacts each command writes; all must be byte-identical across reps.
# legendre writes none: its --out report crashes (TypeError, a numpy bool in
# the JSON details), a known defect listed in perfbench/README.md.
ARTIFACTS = {"verify-flat": ["out"], "verify-taubnut": ["out"],
             "legendre": [], "holonomy": ["out"],
             "ov": ["out", "csv"], "decay": ["out", "csv", "svg"],
             "collapse": ["out", "csv"], "ronkin": ["out", "csv"],
             "amoeba": ["out"]}
SUFFIX = {"out": "json", "csv": "csv", "svg": "svg"}

END_TO_END = {"setup_s": "s", "cli_s": "s", "cli_cpu_s": "s",
              "library_s": "s", "peak_rss_mb": "MB"}

IMPORT_PROBE = (
    "import importlib, json, sys\n"
    "before = len(sys.modules)\n"
    "for name in sys.argv[1:]:\n"
    "    importlib.import_module(name)\n"
    "print(json.dumps({'sympy': 'sympy' in sys.modules,\n"
    "                  'modules': len(sys.modules) - before}))\n")


class Ledger:
    """Operations attempted and failed, with the first failure messages."""

    def __init__(self):
        self.ops = 0
        self.failed = 0
        self.failures = []

    def record(self, name, ok, why=""):
        self.ops += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{name}: {why}")


class ChildFailed(Exception):
    pass


def child_env(hash_seed):
    env = dict(os.environ)
    env.pop("GHLAB_THREADS", None)      # measure the default thread count
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = str(hash_seed)
    return env


class Child:
    """A child process with a watchdog; ``finish`` reaps it with wait4."""

    def __init__(self, argv, hash_seed, tmp, stdin=None):
        self.err = tempfile.TemporaryFile(dir=tmp)
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(hash_seed),
                                     stdin=stdin, stdout=subprocess.PIPE,
                                     stderr=self.err, text=True)
        self.watchdog = threading.Timer(CHILD_TIMEOUT_S, self.proc.kill)
        self.watchdog.start()

    def finish(self):
        """Read the rest of stdout, reap the child and record exit code,
        wall time, CPU time and peak RSS."""
        try:
            self.stdout = self.proc.stdout.read()
            _, status, usage = os.wait4(self.proc.pid, 0)
        finally:
            self.watchdog.cancel()
            self.proc.stdout.close()
        self.wall_s = time.perf_counter() - self.t0
        self.proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.err.seek(0)
        self.stderr = self.err.read().decode(errors="replace")
        self.err.close()
        return self

    def last_json(self):
        lines = self.stdout.strip().splitlines()
        return json.loads(lines[-1]) if lines else None


class LibraryChild(Child):
    """library.py kept alive for the whole run: it warms up once, then runs
    one rep per request and idles on stdin while the CLI children run."""

    def __init__(self, argv, hash_seed, tmp):
        super().__init__(argv, hash_seed, tmp, stdin=subprocess.PIPE)
        self.warmup_s = self.reply()["warmup_s"]

    def reply(self):
        line = self.proc.stdout.readline()
        if not line:
            self.proc.kill()
            self.finish()
            raise ChildFailed(f"library child exit {self.code}: "
                              f"{self.stderr.strip()[-300:]}")
        return json.loads(line)

    def request(self, what):
        self.proc.stdin.write(what + "\n")
        self.proc.stdin.flush()
        return self.reply()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.proc.returncode is None:    # left early: stop the child
            self.proc.kill()
            self.finish()

    def close(self):
        """End the child; returns its final line (operation counts)."""
        self.proc.stdin.write("exit\n")
        self.proc.stdin.close()
        self.finish()
        return self.last_json()


def hash_seed(seed, k):
    """PYTHONHASHSEED of the run's k-th child, derived from the run's seed.

    The order of sympy's sets follows the hash seed and moves the time of
    a symbolic build by up to 20 %, so every child draws its own hash seed
    and the medians over children average that out.
    """
    digest = hashlib.sha256(f"{seed}:{k}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


class Bench:
    def __init__(self, workload, seed, seconds, tmp, inject_fault=False):
        self.workload = WORKLOADS[workload]
        self.name = workload
        self.seed = seed
        self.seconds = seconds
        self.tmp = Path(tmp)
        self.inject_fault = inject_fault
        self.t0 = time.perf_counter()
        self.ledger = Ledger()
        self.peak_rss_mb = 0.0
        self.samples = {}
        self.reference = {}      # (command, artifact kind) -> first bytes
        self.children = 0
        self.versions = None     # library versions, reported by the child
        self.spans = {}          # traced run: spans per traced process

    def elapsed(self):
        return time.perf_counter() - self.t0

    def spawn(self, argv, cls=Child):
        self.children += 1
        return cls([sys.executable, *argv],
                   hash_seed(self.seed, self.children), self.tmp)

    def finish(self, child):
        child.finish()
        self.peak_rss_mb = max(self.peak_rss_mb, child.rss_mb)
        return child

    # -- set-up: a fresh interpreter importing the workload's modules -----

    def import_probe(self):
        """Import the workload's modules in a fresh interpreter; returns the
        wall time and whether sympy got loaded, or None on failure."""
        child = self.finish(self.spawn(
            ["-c", IMPORT_PROBE] + self.workload["modules"]))
        ok = child.code == 0
        self.ledger.record("import", ok, child.stderr[-300:])
        return (child.wall_s, child.last_json()) if ok else None

    # -- cold CLI processes, round-robin over the commands ---------------

    def cli_call(self, cmd, rep, spans_path=None, extra=()):
        argv = ["-m", "ghlab.cli"] if spans_path is None else \
            [str(BENCH / "tracer.py"), str(spans_path)]
        argv += [cmd, *extra]
        paths = {}
        for kind in ARTIFACTS[cmd]:
            paths[kind] = self.tmp / f"{cmd}-{rep}.{SUFFIX[kind]}"
            argv += [f"--{kind}", str(paths[kind])]
        child = self.finish(self.spawn(argv))
        lines = child.stdout.strip().splitlines()
        why = ""
        if child.code != 0:
            why = f"exit {child.code}: {child.stderr.strip()[-300:]}"
        elif not lines or not all(ln.startswith("PASS ") for ln in lines):
            why = "not every check line is PASS"
        for kind, path in paths.items():
            try:
                data = path.read_bytes()
                path.unlink()
            except OSError:
                why = why or f"missing --{kind} artifact"
                continue
            ref = self.reference.setdefault((cmd, kind), data)
            if data != ref:
                why = why or f"--{kind} artifact differs from the first rep"
        self.ledger.record(f"cli {cmd}", not why, why)
        return child

    # -- warm library reps in one long-lived child -----------------------

    def library(self, sets):
        argv = [str(BENCH / "library.py"), "--sets", ",".join(sets),
                "--seed", str(self.seed)]
        if self.inject_fault:
            argv.append("--inject-fault")
        return self.spawn(argv, LibraryChild)

    def close_library(self, child):
        final = child.close()
        self.peak_rss_mb = max(self.peak_rss_mb, child.rss_mb)
        if child.code != 0 or not final:
            raise ChildFailed(f"library child exit {child.code}: "
                              f"{child.stderr.strip()[-300:]}")
        self.ledger.ops += final["ops"]
        self.ledger.failed += final["failed"]
        self.ledger.failures += final["failures"]
        self.versions = final["versions"]

    def rounds(self, cmds, min_rounds, until_s, lib=None):
        """Round-robin rounds until ``until_s`` is spent.

        A round is, with a library child ``lib``, one timed import of the
        workload's modules, then one cold call of every command, then
        ``LIB_REPS`` timed library reps.  Spreading every metric's samples
        over the whole run averages out the drift of a shared machine.
        """
        wall = {c: [] for c in cmds}
        cpu = {c: [] for c in cmds}
        done, last = 0, 0.0
        while done < min_rounds or self.elapsed() + last <= until_s:
            start = self.elapsed()
            if lib is not None:
                probe = self.import_probe()
                if probe is not None:
                    self.samples["setup_s"].append(probe[0])
            for cmd in cmds:
                child = self.cli_call(cmd, done)
                wall[cmd].append(child.wall_s)
                cpu[cmd].append(child.cpu_s)
            if self.inject_fault:
                # a config error exits 2 and must count as a failed op
                self.cli_call("ronkin", f"fault{done}", extra=["--nodes=8"])
            for _ in range(LIB_REPS if lib is not None else 0):
                self.samples["library_s"].append(lib.request("rep")["rep_s"])
            done += 1
            last = self.elapsed() - start
        self.samples.update(cli_wall_s=wall, cli_cpu_s=cpu)
        return ({c: statistics.median(v) for c, v in wall.items()},
                {c: statistics.median(v) for c, v in cpu.items()})

    # -- the two kinds of run --------------------------------------------

    def main_run(self):
        self.import_probe()             # untimed: writes bytecode caches
        self.samples.update(setup_s=[], library_s=[])
        with self.library([self.name]) as lib:
            self.samples["library_warmup_s"] = lib.warmup_s
            wall, cpu = self.rounds(self.workload["cli"], min_rounds=3,
                                    until_s=self.seconds, lib=lib)
            self.close_library(lib)
        metrics = {"cli_s": sum(wall.values()), "cli_cpu_s": sum(cpu.values()),
                   "peak_rss_mb": self.peak_rss_mb}
        for name in ("setup_s", "library_s"):
            if self.samples[name]:
                metrics[name] = statistics.median(self.samples[name])
        return {k: (v, END_TO_END[k]) for k, v in metrics.items()}

    def trace_run(self):
        """Every layer on every workload: all nine commands and all three
        library sets, so that each per-layer metric is measured."""
        self.import_probe()             # untimed: writes bytecode caches
        probe = self.import_probe()
        wall, _ = self.rounds(ALL_COMMANDS, min_rounds=2,
                              until_s=0.5 * self.seconds)
        summaries, counts = [], {}
        for cmd in ALL_COMMANDS:
            spans_path = self.tmp / f"{cmd}.spans.json"
            self.cli_call(cmd, "traced", spans_path)
            try:
                data = json.loads(spans_path.read_text())
            except (OSError, ValueError):
                self.ledger.record(f"trace {cmd}", False, "no spans written")
                continue
            summaries.append(data["summary"])
            _add(counts, data["counts"])
            self.spans[f"cli {cmd}"] = data["spans"]
        with self.library(list(WORKLOADS)) as lib:
            untraced_s = lib.request("rep")["rep_s"]
            traced = lib.request("trace")
            self.close_library(lib)
        summaries.append(traced["trace"]["summary"])
        _add(counts, traced["trace"]["counts"])
        self.spans["library"] = traced["trace"]["spans"]
        merged = {}
        for summary in summaries:
            for name, rec in summary.items():
                _add(merged.setdefault(name, {}), rec)
        metrics = {f"cli.{c}_s": (wall[c], "s") for c in ALL_COMMANDS}
        if probe is not None:
            metrics["import.pulls_sympy"] = (int(probe[1]["sympy"]), "count")
            metrics["import.modules"] = (probe[1]["modules"], "count")
        metrics.update(layer_metrics(merged, counts))
        metrics["trace.overhead_s"] = (traced["rep_s"] - untraced_s, "s")
        self.samples.update(library_untraced_s=untraced_s,
                            library_traced_s=traced["rep_s"])
        return metrics


def _add(acc, values):
    for k, v in values.items():
        acc[k] = acc.get(k, 0) + v


def _count(samples):
    if isinstance(samples, dict):
        return {k: _count(v) for k, v in samples.items()}
    return len(samples) if isinstance(samples, list) else 1


def traced_names():
    names = [tracer.span_name(layer, attr)
             for layer, _, attr in tracer.TARGETS]
    return names + [f"fields.{k}" for k in tracer.SYMPY_TARGETS]


def layer_metrics(merged, counts):
    out = {}
    for name in traced_names():
        rec = merged.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        out[f"{name}_s"] = (rec["total_s"], "s")
        out[f"{name}_self_s"] = (rec["self_s"], "s")
        out[f"{name}_calls"] = (rec["calls"], "count")
    out["fields.build_s"] = (out["fields.diff_s"][0]
                             + out["fields.lambdify_s"][0], "s")
    out["bessel.k0_args"] = (counts.get("bessel.k0_args", 0), "count")
    return out


def per_layer_units():
    """Name and unit of every metric a traced run reports, in order."""
    units = {f"cli.{c}_s": "s" for c in ALL_COMMANDS}
    units.update({"import.pulls_sympy": "count", "import.modules": "count"})
    units.update({k: u for k, (_, u) in layer_metrics({}, {}).items()})
    units["trace.overhead_s"] = "s"
    return units


def git_sha():
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject-fault", action="store_true",
                    help="add a failing CLI call and a failing library op "
                         "to each rep (self-check of the failure count)")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "ghlab" / "cli.py").is_file():
        print(f"perfbench: no ghlab sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-",
                                     dir=ROOT) as tmp:
        bench = Bench(args.workload, args.seed, args.seconds, tmp,
                      args.inject_fault)
        try:
            metrics = bench.trace_run() if args.trace else bench.main_run()
        except ChildFailed as exc:
            bench.ledger.record("library child", False, str(exc))
            metrics = {}
    expected = per_layer_units() if args.trace else END_TO_END
    ledger = bench.ledger
    result = {
        "correct": ledger.failed == 0 and set(metrics) == set(expected),
        "attempted": ledger.ops,
        "failed": ledger.failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]}
                    for k in expected if k in metrics},
    }
    detail = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "wall_s": bench.elapsed(),
        "samples": bench.samples,
        "sample_counts": _count(bench.samples),
        "failures": ledger.failures,
        "machine": {"nproc": os.cpu_count(),
                    "affinity": len(os.sched_getaffinity(0)),
                    "system": " ".join(platform.uname()[::2]),
                    "python": platform.python_version(),
                    "versions": bench.versions, "git_sha": git_sha(),
                    "child_env": {"PYTHONPATH": "src",
                                  "GHLAB_THREADS": "unset",
                                  "PYTHONHASHSEED": "derived from --seed"}},
    }
    record = dict(detail, result=result, spans=bench.spans)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record))
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
