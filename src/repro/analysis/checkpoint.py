"""Resumable evaluations: a checkpoint manifest of finished run keys.

A full paper-scale evaluation is hours of simulation; an interrupted
sweep must not start from zero.  The :class:`CheckpointManifest` records
the run keys (see :func:`repro.analysis.runcache.run_key`) that
finished.  It layers on the on-disk run cache: the cache holds the
*results*, the manifest records *completion* and exposes counters
(``resumed`` / ``resumed_hits`` / ``marked``) so drivers and tests can
assert that a resumed evaluation re-simulated only the missing pairs.

The manifest (format v2) is an append-only JSONL: each completed pair
is one complete line written with a single ``os.write`` on an
``O_APPEND`` descriptor — the same pattern
``repro.obs.events.EventLedger`` uses — which POSIX serializes in the
kernel, so concurrent resuming processes sharing one manifest never
lose each other's keys.  Loading merges every line.

The manifest is corruption-tolerant: a torn tail, a corrupt line or a
line of unknown schema is skipped (logged), never raised — losing a
checkpoint only costs re-simulation, exactly like a cold cache.

``examples/full_evaluation.py --resume`` wires a manifest into the
process-wide slot (:func:`set_checkpoint`), which ``run_suite`` picks up
by default, mirroring the run cache's global.
"""

from __future__ import annotations

import json
import logging
import os
import sys
from typing import Dict, Optional, Set

logger = logging.getLogger(__name__)

_MANIFEST_FORMAT_VERSION = 2


def _fsfault(path: str) -> None:
    """Chaos seam for manifest appends (zero-cost unless armed)."""
    if (
        "repro.check.fsfault" not in sys.modules
        and not os.environ.get("REPRO_FSFAULT")
    ):
        return
    from repro.check.fsfault import fault_check

    fault_check("append", path, scope="checkpoint")


class CheckpointManifest:
    """Append-only record of completed run keys (JSONL, format v2).

    ``resume=True`` (default) loads and merges any existing manifest at
    ``path``; ``resume=False`` starts empty and truncates on the first
    mark.
    """

    def __init__(self, path: str, resume: bool = True) -> None:
        self.path = path
        #: run key -> {"config": ..., "workload": ...}
        self.done: Dict[str, Dict[str, str]] = {}
        self.marked = 0          # new pairs recorded by this process
        self.resumed_hits = 0    # resumed pairs served without re-simulating
        self._fd: Optional[int] = None
        self._truncate = not resume
        self._write_failed = False
        if resume:
            self.done = self._load(path)
        self._resumed_keys: Set[str] = set(self.done)
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)

    @property
    def resumed(self) -> int:
        """Pairs already recorded as finished when the manifest loaded."""
        return len(self._resumed_keys)

    def __contains__(self, key: str) -> bool:
        return key in self.done

    def __len__(self) -> int:
        return len(self.done)

    def note_hit(self, key: str) -> None:
        """Count a pair that resumption spared from re-simulation."""
        if key in self._resumed_keys:
            self.resumed_hits += 1

    def mark_done(self, key: str, config: str, workload: str) -> None:
        """Record one finished pair and append it to the manifest."""
        if key in self.done:
            return
        self.done[key] = {"config": config, "workload": workload}
        self.marked += 1
        self._append(
            {
                "format": _MANIFEST_FORMAT_VERSION,
                "key": key,
                "config": config,
                "workload": workload,
            }
        )

    def close(self) -> None:
        if self._fd is not None:
            try:
                os.close(self._fd)
            except OSError:
                pass
            self._fd = None

    def stats_line(self) -> str:
        return (
            f"checkpoint: {len(self.done)} pairs done "
            f"({self.resumed} resumed, {self.resumed_hits} served from "
            f"cache, {self.marked} newly completed) -> {self.path}"
        )

    # -- persistence --------------------------------------------------------

    @staticmethod
    def _load(path: str) -> Dict[str, Dict[str, str]]:
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except FileNotFoundError:
            return {}
        except OSError:
            logger.warning(
                "checkpoint manifest %s is unreadable; starting fresh", path
            )
            return {}
        text = raw.decode("utf-8", errors="replace")

        # Merge every parseable line.  A torn tail — the final line cut
        # mid-write by a crash — is expected damage and silently skipped;
        # any other unparseable or unknown-schema line is logged.
        done: Dict[str, Dict[str, str]] = {}
        lines = text.split("\n")
        merged_any = False
        for idx, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            try:
                value = json.loads(line)
            except ValueError:
                if all(not rest.strip() for rest in lines[idx + 1 :]):
                    logger.debug(
                        "checkpoint manifest %s has a torn tail; skipped",
                        path,
                    )
                else:
                    logger.warning(
                        "checkpoint manifest %s line %d is corrupt; skipped",
                        path, idx + 1,
                    )
                continue
            if (
                not isinstance(value, dict)
                or value.get("format") != _MANIFEST_FORMAT_VERSION
                or "key" not in value
            ):
                logger.warning(
                    "checkpoint manifest %s line %d has an unknown schema; "
                    "skipped", path, idx + 1,
                )
                continue
            done[str(value["key"])] = {
                "config": str(value.get("config", "")),
                "workload": str(value.get("workload", "")),
            }
            merged_any = True
        if not merged_any and any(line.strip() for line in lines):
            logger.warning(
                "checkpoint manifest %s is unreadable/corrupt; starting "
                "fresh", path,
            )
        return done

    def _append(self, record: Dict[str, str]) -> None:
        line = (json.dumps(record) + "\n").encode("utf-8")
        try:
            _fsfault(self.path)
            if self._fd is None:
                flags = os.O_CREAT | os.O_RDWR | os.O_APPEND
                if self._truncate:
                    flags |= os.O_TRUNC
                    self._truncate = False
                self._fd = os.open(self.path, flags, 0o644)
                # A crash mid-append leaves a torn tail with no trailing
                # newline; start our first line on a line of its own, or
                # the torn tail and our record would fuse into one
                # unparseable line and our record would be lost.
                size = os.fstat(self._fd).st_size
                if size and os.pread(self._fd, 1, size - 1) != b"\n":
                    line = b"\n" + line
            # One os.write per record: O_APPEND writes are serialized by
            # the kernel, so concurrent resuming processes interleave
            # whole lines, never bytes — no marks are ever lost.
            os.write(self._fd, line)
        except OSError as exc:
            # Checkpointing is best-effort; an unwritable manifest only
            # costs resumability, never the evaluation itself.
            if not self._write_failed:
                self._write_failed = True
                logger.warning(
                    "checkpoint manifest %s is unwritable (%s); marks from "
                    "this process will not persist", self.path, exc,
                )


_active_checkpoint: Optional[CheckpointManifest] = None


def get_checkpoint() -> Optional[CheckpointManifest]:
    """The process-wide checkpoint manifest, or None (the default)."""
    return _active_checkpoint


def set_checkpoint(
    checkpoint: Optional[CheckpointManifest],
) -> Optional[CheckpointManifest]:
    """Install the process-wide manifest; returns the previous one."""
    global _active_checkpoint
    previous = _active_checkpoint
    _active_checkpoint = checkpoint
    return previous
