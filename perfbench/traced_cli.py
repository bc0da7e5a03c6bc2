"""Run the depthwl CLI once with every layer traced.

    python3 perfbench/traced_cli.py METRICS_JSON -- <depthwl arguments>

Installs the tracer, calls ``depthwl.cli.main`` under a root span
``cli.main``, restores the patched functions and writes the per-layer metrics
plus whether every patched attribute was restored to METRICS_JSON.  Exits
with the CLI's exit code.
"""

import json
import sys
from pathlib import Path

import tracer


def main() -> int:
    out, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced_cli.py METRICS_JSON -- ARGS...")
    import depthwl.cli

    t = tracer.Tracer()
    t.install()
    try:
        code = t.wrap("cli.main", depthwl.cli.main)(argv)
    finally:
        t.uninstall()
    unrestored = t.unrestored()
    Path(out).write_text(json.dumps({
        "metrics": tracer.layer_metrics(t.spans),
        "unrestored": unrestored,
    }))
    return code if not unrestored else 3


if __name__ == "__main__":
    sys.exit(main())
