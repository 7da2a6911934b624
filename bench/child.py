"""One benchmark unit in a fresh process; started by bench.py, not by hand.

    child.py WORKLOAD SEED TRACE SPAWN_TIME

Runs in the unit's directory with diamrisk on PYTHONPATH. Imports the
program, writes the workload's generated inputs, then runs the unit's CLI
commands through diamrisk.cli.cli_main, each command's printed output going
to its own file. Writes result.json (and spans.json when TRACE is 1).
SPAWN_TIME is the parent's time.monotonic() just before it started this
process; on Linux that clock is shared by all processes, so the difference
is the set-up time a user pays before the first command can run.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from pathlib import Path


def main(argv) -> int:
    name, seed, trace, spawned = argv[0], int(argv[1]), argv[2] == "1", float(argv[3])
    import workloads

    from diamrisk import cli

    wl = workloads.WORKLOADS[name]
    wl.setup(seed)
    commands = wl.commands(seed)
    Path("stdout").mkdir()
    result = {"setup_s": time.monotonic() - spawned}

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    remove_hook = wl.observe(cli, result)
    codes = []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for index, command in enumerate(commands):
        with open(workloads.stdout_name(index, command), "w") as fh, contextlib.redirect_stdout(fh):
            codes.append(cli.cli_main(command))
    result["wall_s"] = time.perf_counter() - wall0
    result["cpu_s"] = time.process_time() - cpu0
    remove_hook()
    if tracer is not None:
        tracer.uninstall()
        Path("spans.json").write_text(json.dumps(tracer.dump()))
    result["exit_codes"] = codes
    Path("result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
