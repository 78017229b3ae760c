"""Charging byte-identity comparands for fleet replays.

Every execution mode of the fleet replay -- serial fabric, any shard
count, host-parallel at any ``jobs`` -- must charge each call exactly
the same cycles.  :func:`charging_signature` is that per-call comparand
(status, response bytes, accelerator cycles, CPU cycles) and
:func:`charging_digest` folds it into one sha256, so two runs compare
by a single string and a golden digest can be pinned in a test.
"""

from __future__ import annotations

import hashlib


def charging_signature(outcomes) -> list[tuple]:
    """Per-call charging, in offered order -- the byte-identity
    comparand across execution modes."""
    return [(o.status, o.response, o.accel_cycles, o.cpu_cycles)
            for o in outcomes]


def charging_digest(outcomes) -> str:
    """sha256 over the charging signature.  Floats render via ``repr``
    (shortest round-trip form), so equal digests mean bit-equal cycle
    charging call by call."""
    digest = hashlib.sha256()
    for status, response, accel, cpu in charging_signature(outcomes):
        digest.update(status.encode())
        digest.update(b"\x00")
        digest.update(b"-" if response is None else response)
        digest.update(f"\x00{accel!r}\x00{cpu!r}\x01".encode())
    return digest.hexdigest()
