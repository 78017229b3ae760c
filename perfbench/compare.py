"""Compare two benchmark result files, refusing mismatched environments.

Usage::

    python3 perfbench/compare.py BASE.json NEW.json

Prints each metric's value in both files and the change relative to the
base.  Exits 2, naming the field, when the two environment records differ
in anything but the code identity (see ``record.comparable``).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import record


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(Path(p).read_text()) for p in argv)
    field = record.comparable(base["env"], new["env"])
    if field is not None:
        print(f"refusing to compare: environment field {field!r} differs "
              f"({base['env'].get(field)!r} vs {new['env'].get(field)!r})")
        return 2
    for name, metric in base["metrics"].items():
        other = new["metrics"].get(name)
        if other is None:
            print(f"{name}: missing from {argv[1]}")
            continue
        a, b = metric["value"], other["value"]
        change = f"{(b - a) / a * 100:+.1f}%" if a else "n/a"
        print(f"{name:36s} {a:>14.6g} {b:>14.6g} {metric['unit']:>7s} "
              f"{change}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
