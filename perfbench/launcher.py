"""Start a ``repro`` command, optionally with the benchmark's layer wrappers.

    python3 perfbench/launcher.py [--spans DIR --role ROLE] -- serve --port 8001 ...

Without ``--spans`` this is ``python -m repro ...`` with ``src`` on the
path: untraced benchmark runs start the program through here with nothing
wrapped.  With ``--spans DIR`` it first wraps the public functions of
``ROLE``'s layers (:mod:`benchlib.layers`), keeps their spans in memory and
writes them to ``DIR`` when the process -- or a pool worker it forks --
exits normally (SIGINT is a normal exit for ``repro serve``/``route``).
"""

from __future__ import annotations

import argparse
import atexit
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", default=None, help="directory for span files")
    parser.add_argument("--role", default="shard", choices=("router", "shard"))
    parser.add_argument("command", nargs=argparse.REMAINDER, help="repro CLI arguments")
    arguments = parser.parse_args(argv)
    command = arguments.command[1:] if arguments.command[:1] == ["--"] else arguments.command
    if arguments.spans is not None:
        from benchlib import layers, spans

        recorder = spans.Recorder(arguments.role, arguments.spans)
        layers.install(arguments.role, recorder)
        atexit.register(recorder.flush)
    from repro.cli import main as repro_main

    return repro_main(command)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
