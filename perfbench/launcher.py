"""Start the estimation service with span wrappers installed (traced runs).

Usage: ``python3 perfbench/launcher.py SPANS_PATH SEED`` with the
repository's ``src`` on ``PYTHONPATH``.  Installs the server-side layer
wrappers, then runs ``repro.service.server.serve`` on an ephemeral
loopback port exactly as ``python -m repro serve --port 0 --seed SEED``
would.  ``serve`` returns after SIGTERM; the spans recorded over the
server's life are then written to ``SPANS_PATH``.
"""

from __future__ import annotations

import sys

import tracing


def main(argv) -> int:
    from repro.service.server import serve

    spans_path, seed = argv[0], int(argv[1])
    recorder = tracing.Recorder()
    recorder.install(tracing.SERVER_LAYERS)
    try:
        status = serve("127.0.0.1", 0, seed=seed)
    finally:
        recorder.uninstall()
        recorder.dump(spans_path)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
