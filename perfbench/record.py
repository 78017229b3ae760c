"""The environment record every result carries, and the comparison rule.

Two results may be compared only when they ran on the same kind of
machine, at the same workload size and seed: ``comparable`` names the
first field that differs.  The code identity fields (``git_sha``,
``src_digest``) are recorded but never block a comparison, since
comparing two versions of the code is the point.
"""

from __future__ import annotations

import hashlib
import json
import platform
from pathlib import Path

#: Recorded for provenance only; they may differ between compared runs.
CODE_FIELDS = ("git_sha", "src_digest")


def _git_sha(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` without running git
    (benchmark checkouts are usually not repositories at all)."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _src_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(root: Path, workload: str, seed: int, seconds: float,
                trace: bool, sizes: dict) -> dict:
    from repro.bench.pool import effective_cores
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "cores": effective_cores(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": _git_sha(root),
        "src_digest": _src_digest(root),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "sizes": sizes,
    }


def write(path: Path, env: dict, metrics: dict, deterministic: dict,
          errors: list) -> None:
    path.write_text(json.dumps({
        "env": env, "metrics": metrics, "deterministic": deterministic,
        "errors": errors}, indent=1, sort_keys=True))


def comparable(a: dict, b: dict) -> str | None:
    """``None`` when two environment records may be compared, else the
    name of the first field that differs."""
    for key in sorted(set(a) | set(b)):
        if key not in CODE_FIELDS and a.get(key) != b.get(key):
            return key
    return None
