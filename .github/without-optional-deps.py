"""The nine ghlab commands run without sympy and without mpmath.

A None entry in sys.modules makes every import of that module fail, as if it
were not installed.  Each command then runs in this process at defaults,
with every artifact flag it takes, and must exit 0 and write a non-empty
file for each flag.

Run from the repository root, writing into the directory DIR:

    PYTHONPATH=src python .github/without-optional-deps.py DIR
"""

from __future__ import annotations

import os
import sys

sys.modules["sympy"] = sys.modules["mpmath"] = None

from ghlab import cli  # noqa: E402


def main(argv):
    if len(argv) != 1:
        raise SystemExit("usage: without-optional-deps.py DIR")
    root = os.path.join(argv[0], "no-optional-deps")
    os.makedirs(root, exist_ok=True)
    for cmd, table in cli._COMMANDS.items():
        fields = {**table, **cli._COMMON}
        paths = {kind: os.path.join(root, f"{cmd}.{kind}")
                 for kind in ("out", "csv", "svg") if kind in fields}
        status = cli.main([cmd, *(a for kind, p in paths.items()
                                  for a in (f"--{kind}", p))])
        if status != 0:
            raise SystemExit(f"ghlab {cmd} exited {status}")
        for p in paths.values():
            if not os.path.getsize(p):
                raise SystemExit(f"ghlab {cmd} wrote an empty {p}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
