"""Run one dickestark CLI command with the span tracer installed, for the
traced ``cold_cli`` run, and write its span summary and counts as JSON.

    python3 perfbench/cli_child.py --spans FILE -- <dickestark arguments>
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        print("usage: cli_child.py --spans FILE -- <dickestark arguments>", file=sys.stderr)
        return 2
    from tracer import Tracer

    tracer = Tracer()
    with tracer.span("cli.import"):
        import dickestark.cli
    tracer.install()
    try:
        code = dickestark.cli.main(argv[3:])
    finally:
        tracer.uninstall()
        payload = {"summary": tracer.summary(), "counts": dict(tracer.counts)}
        Path(argv[1]).write_text(json.dumps(payload), encoding="utf-8")
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
