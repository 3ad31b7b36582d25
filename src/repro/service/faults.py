"""The load-test fault surface: an estimation server with ``POST /_fault``.

Harness-only: the production server (``python -m repro serve``) has no
fault route and no fault state.  :class:`FaultServer` is the production
:class:`~repro.service.server.EstimationServer` plus ``POST /_fault``
(slow handlers, answer-cache poisoning, disk faults through
:mod:`repro.engine.fsfault`, session spills/drops, worker kills; the
document format is in ``docs/FORMATS.md``).  Only the load-test harness,
the tests and the benches use it.  Run one for
``python -m repro loadtest --url`` with the ``serve`` arguments::

    python -m repro.service.faults --port 8765 --seed 7 [--workers 2]
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from typing import Any, Mapping

from ..engine import fsfault
from .server import BackgroundServer, EstimationServer, _BadRequest, run_server
from .sharding import LocalPool, WorkerPool

#: The persistent fault state ``reset`` clears.
_FAULT_LEVELS = ("slow_seconds", "disk_enospc", "disk_bitflip")
#: Fault keys that act on the server process's own registry and store.
_IN_PROCESS_FAULTS = ("disk_enospc", "disk_bitflip", "spill_sessions", "drop_sessions")


class FaultServer(EstimationServer):
    """An :class:`EstimationServer` with ``POST /_fault``; its ``/stats``
    also reports the active fault state under ``faults``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.faults = dict.fromkeys(_FAULT_LEVELS, 0.0)

    def _routes(self):
        return {**super()._routes(), "/_fault": ("POST", self._fault)}

    async def _stats(self) -> dict:
        return {**await super()._stats(), "faults": dict(self.faults)}

    async def _with_budget(self, document: Mapping[str, Any], work):
        delay = self.faults["slow_seconds"]
        if not delay:
            return await super()._with_budget(document, work)

        async def slowed():
            await asyncio.sleep(delay)
            return await work()

        return await super()._with_budget(document, slowed)

    def _apply_disk_faults(self) -> None:
        """Install one fsfault plan for both disk faults (or the
        passthrough shim when both are off)."""
        enospc = bool(self.faults["disk_enospc"])
        bitflip = int(self.faults["disk_bitflip"])
        if not enospc and not bitflip:
            fsfault.reset()
            return
        plan = fsfault.FaultPlan(write_enospc=enospc, bitflip_seed=bitflip or None)
        fsfault.install(fsfault.FaultyOps(plan))

    async def _fault(self, document: Mapping[str, Any]) -> dict:
        """Inject operational faults; responds with what was done."""
        local_only = sorted(key for key in _IN_PROCESS_FAULTS if key in document)
        if local_only and not isinstance(self.pool, LocalPool):
            # The shim and the registry are process-local; under
            # --workers they would silently miss the shards.
            raise _BadRequest(
                f"{', '.join(local_only)} require in-process mode (no --workers)"
            )
        report: dict[str, Any] = {}
        if document.get("reset"):
            self.faults = dict.fromkeys(self.faults, 0.0)
            self._apply_disk_faults()
            report["reset"] = True
        if "slow_seconds" in document:
            value = document["slow_seconds"]
            if type(value) not in (int, float) or value < 0:  # bool is no number
                raise _BadRequest("'slow_seconds' must be a non-negative number")
            self.faults["slow_seconds"] = float(value)
        if "disk_enospc" in document:
            value = document["disk_enospc"]
            if not isinstance(value, bool):
                raise _BadRequest("'disk_enospc' must be a boolean")
            self.faults["disk_enospc"] = float(value)
        if "disk_bitflip" in document:
            value = document["disk_bitflip"]  # true/false mean seed 1/0
            if not isinstance(value, int) or value < 0:
                raise _BadRequest(
                    "'disk_bitflip' must be a boolean or a positive "
                    "integer seed (0/false clears it)"
                )
            self.faults["disk_bitflip"] = float(int(value))
        if "disk_enospc" in document or "disk_bitflip" in document:
            self._apply_disk_faults()
        if document.get("poison_cache"):
            if self.answer_cache is None:
                raise _BadRequest("answer cache is disabled; nothing to poison")
            count = document.get("poison_count")
            if count is not None and (not isinstance(count, int) or count < 0):
                raise _BadRequest("'poison_count' must be a non-negative integer")
            report["poisoned_entries"] = self.answer_cache.poison(count)
        if "kill_worker" in document:
            shard = document["kill_worker"]
            if not isinstance(self.pool, WorkerPool):
                raise _BadRequest("'kill_worker' requires sharded mode (--workers)")
            workers = self.pool.workers
            if type(shard) is not int or not 0 <= shard < workers:  # bool is no index
                raise _BadRequest(
                    f"'kill_worker' must be a shard index in [0, {workers})"
                )
            report["killed_worker"] = shard
            report["killed_pid"] = self.pool.kill(shard)
        if document.get("spill_sessions"):
            # Exercise the store now (after any disk-fault change above),
            # so injected failures — and recovery — surface immediately.
            # Spilling walks session locks: keep it off the event loop.
            loop = asyncio.get_running_loop()
            report["spilled_sessions"] = await loop.run_in_executor(
                None, self.registry.spill_all
            )
        if document.get("drop_sessions"):
            # Force the next request per group to re-admit from disk
            # (warm-start reads then run under any injected read fault).
            report["dropped_sessions"] = self.registry.drop_sessions()
        report["faults"] = dict(self.faults)
        return report


class FaultBackgroundServer(BackgroundServer):
    """A :class:`~repro.service.server.BackgroundServer` of a :class:`FaultServer`."""

    server_type = FaultServer


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.service.faults``: a :class:`FaultServer` with the
    ``serve`` arguments, run until SIGTERM/SIGINT."""
    from ..cli import _arguments_serve, serve_options

    parser = argparse.ArgumentParser(
        prog="python -m repro.service.faults", description=__doc__.splitlines()[0]
    )
    _arguments_serve(parser)
    args = parser.parse_args(argv)
    return run_server(FaultServer.build(args.host, args.port, **serve_options(args)))


if __name__ == "__main__":
    sys.exit(main())
