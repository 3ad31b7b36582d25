"""Seeded, injectable filesystem faults for the durability plane.

:class:`~repro.engine.store.CacheEntry` routes every commit-path
filesystem call — the temp-file write, both fsyncs, the ``os.replace``,
and entry reads — through the process-wide :class:`FsOps` shim this
module owns.  In production the shim is a transparent passthrough; the
durability tests, the crash-torture harness and the load-test disk-fault
beat swap in a :class:`FaultyOps` carrying a deterministic
:class:`FaultPlan`:

* ``enospc_at_byte=k`` — writes persist exactly ``k`` bytes in total,
  then raise ``ENOSPC`` (the partial write stays on disk, like a full
  filesystem would leave it);
* ``torn_write_at=n`` — the *n*-th write persists only half its payload
  and the process "crashes" (a torn page);
* ``crash_after_replace=True`` — the rename lands but the process dies
  before the directory fsync (the classic fsync-gap crash);
* ``kill_at=n`` — the process dies immediately before mutating
  filesystem operation *n* (the crash-torture harness sweeps ``n`` over
  the whole save sequence);
* ``write_enospc=True`` / ``read_error="eio"`` / ``bitflip_seed=s`` —
  persistent modes for the ``POST /_fault`` disk faults of :mod:`repro.service.faults`:
  every write fails, or reads fail / return one seeded flipped bit.

"Crashing" is real by default — ``SIGKILL`` to our own pid, so no
``finally`` blocks soften the cut — and :class:`CrashPoint` (a
``BaseException``) with ``crash="raise"`` for single-process tests:
``CacheEntry.save``'s cleanup handlers catch ``Exception`` only, so a
raised crash point leaves the same on-disk wreckage a kill would.

Subprocess writers self-arm from the :data:`SPEC_ENV` environment
variable (e.g. ``REPRO_FSFAULT_SPEC=kill:7``) on their first shim call,
so the torture harness needs no code changes in the system under test.
Running ``python -m repro.engine.fsfault --cache-dir D --draws N`` is
the harness's standard writer: it grows the Figure-2 torture entry's
sample prefix to ``N`` draws through the real session/cache machinery
and reports the shim's operation count (the dry run that sizes the kill
sweep).
"""

from __future__ import annotations

import contextlib
import errno
import json
import os
import random
import signal
from dataclasses import dataclass

__all__ = [
    "SPEC_ENV",
    "CrashPoint",
    "FaultPlan",
    "FsOps",
    "FaultyOps",
    "active",
    "install",
    "reset",
    "injected",
    "plan_from_spec",
    "torture_writer",
]

#: Environment variable carrying a fault-plan spec (see
#: :func:`plan_from_spec`); picked up by :func:`active` on first use so
#: subprocess writers arm themselves without code changes.
SPEC_ENV = "REPRO_FSFAULT_SPEC"


class CrashPoint(BaseException):
    """A simulated process death inside an in-process fault plan.

    Deliberately a ``BaseException``: crash points must sail through the
    ``except Exception`` cleanup handlers on the save path exactly like
    a real ``SIGKILL`` would, leaving the torn state on disk.
    """


@dataclass
class FaultPlan:
    """One deterministic filesystem fault scenario (see module docs)."""

    #: Die immediately *before* mutating filesystem operation number
    #: ``kill_at`` (1-based over write/fsync/replace/dir-fsync calls).
    kill_at: int | None = None
    #: ``"kill"`` SIGKILLs the process; ``"raise"`` raises
    #: :class:`CrashPoint` instead (for single-process tests).
    crash: str = "kill"
    #: Total byte budget across all writes; the write that would exceed
    #: it persists the remaining allowance and raises ``ENOSPC``.
    enospc_at_byte: int | None = None
    #: The 1-based write call that persists only half its bytes and then
    #: crashes.
    torn_write_at: int | None = None
    #: Crash at the directory fsync that follows a rename (the rename
    #: itself lands).
    crash_after_replace: bool = False
    #: Persistent mode: every write fails with ``ENOSPC`` immediately.
    write_enospc: bool = False
    #: Persistent read mode: ``"eio"`` makes reads raise ``EIO``.
    read_error: str | None = None
    #: Persistent read mode: flip one seeded bit per read (bitrot).
    bitflip_seed: int | None = None


class FsOps:
    """Passthrough filesystem operations (the production shim).

    The store calls these instead of the ``os`` functions directly so a
    fault plan can interpose; each method is the obvious one-liner.
    """

    def write(self, descriptor: int, data: bytes) -> int:
        return os.write(descriptor, data)

    def fsync(self, descriptor: int) -> None:
        os.fsync(descriptor)

    def fsync_dir(self, descriptor: int) -> None:
        # Separate from :meth:`fsync` so plans can target the
        # rename-then-dirsync gap specifically.
        os.fsync(descriptor)

    def replace(self, source: str, destination: str) -> None:
        os.replace(source, destination)

    def unlink(self, path: str) -> None:
        # Deliberately NOT a counted mutating op in :class:`FaultyOps`:
        # unlinks happen only on failure-cleanup and temp-sweep paths,
        # never in the commit sequence, so counting them would renumber
        # every ``kill_at`` sweep for no extra crash coverage.
        os.unlink(path)

    def read_bytes(self, path: str) -> bytes:
        with open(path, "rb") as handle:
            return handle.read()


class FaultyOps(FsOps):
    """An :class:`FsOps` executing one :class:`FaultPlan`.

    ``ops`` counts mutating calls (write/fsync/dir-fsync/replace) so a
    fault-free dry run measures the kill-point space; ``writes`` and
    ``bytes_written`` track the write-specific plans.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.ops = 0
        self.writes = 0
        self.bytes_written = 0
        self._rng = random.Random(plan.bitflip_seed)

    def _crash(self, where: str) -> None:
        if self.plan.crash == "raise":
            raise CrashPoint(where)
        os.kill(os.getpid(), signal.SIGKILL)  # pragma: no cover - dies here

    def _tick(self) -> None:
        """Count one mutating op; die first if it is the kill point."""
        self.ops += 1
        if self.plan.kill_at is not None and self.ops >= self.plan.kill_at:
            self._crash(f"kill_at op {self.ops}")

    def write(self, descriptor: int, data: bytes) -> int:
        self._tick()
        self.writes += 1
        if self.plan.write_enospc:
            raise OSError(errno.ENOSPC, "injected: no space left on device")
        if self.plan.torn_write_at is not None and self.writes == self.plan.torn_write_at:
            os.write(descriptor, data[: len(data) // 2])
            self._crash(f"torn write at write {self.writes}")
        if self.plan.enospc_at_byte is not None:
            allowance = self.plan.enospc_at_byte - self.bytes_written
            if len(data) > allowance:
                if allowance > 0:
                    os.write(descriptor, data[:allowance])
                    self.bytes_written += allowance
                raise OSError(errno.ENOSPC, "injected: no space left on device")
        written = os.write(descriptor, data)
        self.bytes_written += written
        return written

    def fsync(self, descriptor: int) -> None:
        self._tick()
        os.fsync(descriptor)

    def fsync_dir(self, descriptor: int) -> None:
        self._tick()
        if self.plan.crash_after_replace:
            self._crash("crash after replace, before directory fsync")
        os.fsync(descriptor)

    def replace(self, source: str, destination: str) -> None:
        self._tick()
        os.replace(source, destination)

    def read_bytes(self, path: str) -> bytes:
        if self.plan.read_error == "eio":
            raise OSError(errno.EIO, f"injected: input/output error reading {path}")
        data = super().read_bytes(path)
        if self.plan.bitflip_seed is not None and data:
            position = self._rng.randrange(len(data) * 8)
            flipped = bytearray(data)
            flipped[position // 8] ^= 1 << (position % 8)
            return bytes(flipped)
        return data


_PASSTHROUGH = FsOps()
_active: FsOps = _PASSTHROUGH
_armed_from_env = False


def active() -> FsOps:
    """The currently installed shim (arming from :data:`SPEC_ENV` once)."""
    global _active, _armed_from_env
    if not _armed_from_env:
        _armed_from_env = True
        spec = os.environ.get(SPEC_ENV)
        if spec:
            _active = FaultyOps(plan_from_spec(spec))
    return _active


def install(ops: FsOps) -> FsOps:
    """Install ``ops`` as the process-wide shim (returns it)."""
    global _active, _armed_from_env
    _armed_from_env = True  # an explicit install overrides the env spec
    _active = ops
    return ops


def reset() -> None:
    """Restore the passthrough shim (clears any installed fault plan)."""
    install(_PASSTHROUGH)


@contextlib.contextmanager
def injected(plan: FaultPlan | FsOps):
    """Temporarily install a plan (or a prebuilt shim) around a block."""
    previous = active()
    ops = install(plan if isinstance(plan, FsOps) else FaultyOps(plan))
    try:
        yield ops
    finally:
        install(previous)


def plan_from_spec(spec: str) -> FaultPlan:
    """Parse a comma-joined spec string into a :class:`FaultPlan`.

    Directives: ``kill:N``, ``enospc:BYTES``, ``torn:N``,
    ``dirsync-crash``, ``write-enospc``, ``eio``, ``bitflip:SEED``, and
    ``raise`` (crash by exception instead of SIGKILL).
    """
    plan = FaultPlan()
    for directive in spec.split(","):
        directive = directive.strip()
        if not directive:
            continue
        name, _, argument = directive.partition(":")
        if name == "kill":
            plan.kill_at = int(argument)
        elif name == "enospc":
            plan.enospc_at_byte = int(argument)
        elif name == "torn":
            plan.torn_write_at = int(argument)
        elif name == "dirsync-crash":
            plan.crash_after_replace = True
        elif name == "write-enospc":
            plan.write_enospc = True
        elif name == "eio":
            plan.read_error = "eio"
        elif name == "bitflip":
            plan.bitflip_seed = int(argument)
        elif name == "raise":
            plan.crash = "raise"
        else:
            raise ValueError(f"unknown fault directive {directive!r}")
    return plan


# -- the torture writer ------------------------------------------------------------------


def torture_writer(cache_dir: str, seed: int, draws: int) -> dict:
    """Grow the Figure-2 torture entry's sample prefix to ``draws``.

    The standard crash-torture writer body: warm-start the entry from
    ``cache_dir`` through the real session machinery, extend the shared
    pool, and save.  Returns the shim's mutating-operation count (the
    dry run sizes the kill sweep with it) and the persisted prefix
    length.  Faults arrive via :data:`SPEC_ENV`.
    """
    # Imported here: the engine must not depend on workloads at import
    # time (the writer is a harness entry point, not an engine layer).
    from ..chains import M_UR
    from ..workloads import figure2_database
    from .session import EstimationSession
    from .store import CacheStore

    database, constraints = figure2_database()
    entry = CacheStore(cache_dir).entry(database, constraints, M_UR.name, seed)
    session = EstimationSession(database, constraints, M_UR, cache=entry)
    pool = session.cached_pool(seed)
    pool.ensure(draws)
    entry.save()
    return {
        "ops": getattr(active(), "ops", 0),
        "samples": len(entry.sample_word_rows()),
    }


def _main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.engine.fsfault",
        description="crash-torture writer: extend the torture cache entry",
    )
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--draws", type=int, required=True)
    arguments = parser.parse_args(argv)
    report = torture_writer(arguments.cache_dir, arguments.seed, arguments.draws)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":  # pragma: no cover - subprocess entry
    import sys

    # ``python -m`` executes this file as a *second* module instance
    # (``__main__``) while the store talks to the canonical
    # ``repro.engine.fsfault`` — delegate so the shim the writer reports
    # on is the one the store actually used.
    from repro.engine.fsfault import _main as _canonical_main

    sys.exit(_canonical_main())
