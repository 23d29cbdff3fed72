"""Self-checks of the benchmark itself (about four minutes).

    python3 perfbench/selfcheck.py

1. BENCHMARK.json declares exactly the metrics and units run.py emits.
2. A short untraced run emits every end-to-end metric with its unit, and
   nothing fails.
3. A run with --inject-fault counts the injected failures, so the
   correctness gate can fail.
4. Two traced runs with different workloads and seeds emit every
   per-layer metric with its unit, and their counts are equal.

Prints one line per check and exits 1 if any check fails.
"""

from __future__ import annotations

import json
import subprocess
import sys

import run

CHECKS = []


def check(name, ok, detail=""):
    CHECKS.append(ok)
    print(f"{'PASS' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail
                                                   else ""))


def bench(*args):
    proc = subprocess.run([sys.executable, str(run.BENCH / "run.py"), *args],
                          cwd=run.ROOT, capture_output=True, text=True,
                          timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def units(result):
    return {k: v["unit"] for k, v in result["metrics"].items()}


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    check("declared end-to-end metrics", declared == run.END_TO_END)
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check("declared per-layer metrics", declared == run.per_layer_units())

    res = bench("--workload", "tropical", "--seed", "3", "--seconds", "1",
                "--trace", "0")
    check("untraced run emits every end-to-end metric",
          res is not None and units(res) == run.END_TO_END)
    check("untraced run has no failures",
          res is not None and res["correct"] and res["failed"] == 0,
          res and f"failed={res['failed']}")

    res = bench("--workload", "tropical", "--seed", "3", "--seconds", "1",
                "--trace", "0", "--inject-fault")
    # one injected CLI call and one injected library op per round
    check("injected faults are counted",
          res is not None and not res["correct"] and res["failed"] >= 6,
          res and f"failed={res['failed']} of {res['attempted']}")

    traced = [bench("--workload", w, "--seed", s, "--seconds", "1",
                    "--trace", "1")
              for w, s in (("tropical", "3"), ("periodic", "4"))]
    for res in traced:
        check("traced run emits every per-layer metric",
              res is not None and res["correct"]
              and units(res) == run.per_layer_units())
    if all(traced):
        counts = [{k: v["value"] for k, v in res["metrics"].items()
                   if v["unit"] == "count" and not k.startswith("import.")}
                  for res in traced]
        diff = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
        check("traced counts repeat exactly", not diff, ", ".join(diff))
    return 0 if all(CHECKS) else 1


if __name__ == "__main__":
    sys.exit(main())
