"""Crash-safe artifact IO: atomic write-replace.

A torn artifact — a metrics export or a trace file half written when
the process died — is worse than a missing one: downstream
tooling reads garbage and either stack-traces or gates CI on noise.
Every writer in the repository that produces a consumable artifact goes
through :func:`atomic_write_bytes`: the payload is staged in a unique
temp file in the destination directory, fsynced, then ``os.replace``d
into place, so readers observe either the old complete file or the new
complete file, never a prefix.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
from typing import Any, Optional

#: Monotonic suffix so concurrent writers in one process never collide on
#: the staging file; the pid handles cross-process collisions.
_tmp_counter = itertools.count()


def _fsfault(op: str, path: str, scope: str, tmp: Optional[str] = None) -> None:
    """Chaos seam (:mod:`repro.check.fsfault`): zero-cost unless armed.

    Nothing is imported when ``REPRO_FSFAULT`` is unset and no injector
    module was loaded — the same contract the observability hooks keep.
    """
    if (
        "repro.check.fsfault" not in sys.modules
        and not os.environ.get("REPRO_FSFAULT")
    ):
        return
    from repro.check.fsfault import fault_check

    fault_check(op, path, scope=scope, tmp=tmp)


def atomic_write_bytes(
    path: str, data: bytes, fsync: bool = True, scope: str = "artifact"
) -> None:
    """Write ``data`` to ``path`` atomically (tmp + fsync + rename).

    The staging file lives in the destination directory so the final
    ``os.replace`` is a same-filesystem rename, which POSIX guarantees to
    be atomic.  ``fsync=False`` skips the durability barrier for callers
    that only need atomicity (tests, scratch output).  ``scope`` labels
    this write for the fault-injection harness (``cache``, ``ledger``,
    ``checkpoint``, or the default ``artifact``).
    """
    tmp = f"{path}.{os.getpid()}.{next(_tmp_counter)}.tmp"
    try:
        _fsfault("write", path, scope)
        with open(tmp, "wb") as fh:
            fh.write(data)
            if fsync:
                fh.flush()
                os.fsync(fh.fileno())
        _fsfault("rename", path, scope, tmp=tmp)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    if fsync:
        # Make the rename itself durable where the platform allows it.
        try:
            dir_fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(dir_fd)
        except OSError:
            pass
        finally:
            os.close(dir_fd)


def atomic_write_text(
    path: str, text: str, encoding: str = "utf-8", fsync: bool = True
) -> None:
    """Atomic text variant of :func:`atomic_write_bytes`.

    No newline translation is applied: the string is written byte-exact,
    matching ``open(path, "w", newline="")`` semantics.
    """
    atomic_write_bytes(path, text.encode(encoding), fsync=fsync)


def atomic_write_json(
    path: str, payload: Any, indent: int = 2, fsync: bool = True
) -> None:
    """Serialize ``payload`` as JSON and write it atomically."""
    atomic_write_text(
        path, json.dumps(payload, indent=indent) + "\n", fsync=fsync
    )

