"""The nine ghlab commands run without sympy and without mpmath.

A None entry in sys.modules makes every import of that module fail, as if it
were not installed.  Each command then runs in this process at defaults,
with every artifact flag it takes, and must exit 0 and write for each flag
the bytes of its reference in tests/golden/; amoeba.json, whose witness
residual is rounding noise and has no reference, must be non-empty.

Run from the repository root, writing into the directory DIR:

    PYTHONPATH=src python .github/without-optional-deps.py DIR
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

sys.modules["sympy"] = sys.modules["mpmath"] = None

from ghlab import cli  # noqa: E402

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden"


def main(argv):
    if len(argv) != 1:
        raise SystemExit("usage: without-optional-deps.py DIR")
    root = os.path.join(argv[0], "no-optional-deps")
    os.makedirs(root, exist_ok=True)
    for cmd, table in cli._COMMANDS.items():
        fields = {**table, **cli._COMMON}
        paths = {kind: os.path.join(root, f"{cmd}.{suffix}")
                 for kind, suffix in (("out", "json"), ("csv", "csv"),
                                      ("svg", "svg")) if kind in fields}
        status = cli.main([cmd, *(a for kind, p in paths.items()
                                  for a in (f"--{kind}", p))])
        if status != 0:
            raise SystemExit(f"ghlab {cmd} exited {status}")
        for p in map(Path, paths.values()):
            if cmd == "amoeba":
                if not p.stat().st_size:
                    raise SystemExit(f"ghlab {cmd} wrote an empty {p}")
            elif p.read_bytes() != (GOLDEN / p.name).read_bytes():
                raise SystemExit(f"ghlab {cmd} wrote {p}, which differs "
                                 f"from tests/golden/{p.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
