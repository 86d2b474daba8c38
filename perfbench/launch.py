"""Run the gtlab CLI once in this fresh interpreter and record its timings.

    python3 perfbench/launch.py TIMING_JSON SPANS_NPZ|- -- <gtlab arguments>

This is what the ``gtlab`` console script does (call ``gtlab.cli.main``),
with clock readings around the import and around ``main``.  The readings
use ``time.monotonic``, the clock the parent reads when it spawns this
process, so the parent can time start-up from outside.  With a spans path
other than ``-``, the in-process tracer wraps gtlab after the import and
before ``main``, and its spans and per-layer metrics are written at exit.
Nothing but ``sys`` and ``time`` is imported before ``gtlab.cli``.
"""

import sys
import time


def main() -> int:
    timing_path, spans_path, sep, *cli_args = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: launch.py TIMING_JSON SPANS_NPZ|- -- ARGS")
    import gtlab.cli
    imported = time.monotonic()
    tracer = None
    if spans_path != "-":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    started = time.monotonic()
    try:
        rc = gtlab.cli.main(cli_args)
    finally:
        ended = time.monotonic()
        if tracer is not None:
            tracer.uninstall()
    import json
    timing = {"imported": imported, "started": started, "ended": ended,
              "rc": rc, "versions": _versions()}
    if tracer is not None:
        tracer.save(spans_path)
        timing["layers"] = tracer.metrics(ended - started)
    with open(timing_path, "w", encoding="utf-8") as handle:
        json.dump(timing, handle)
    return rc


def _versions() -> dict:
    import platform

    import numpy
    import scipy
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}"}


if __name__ == "__main__":
    sys.exit(main())
