"""One benchmark operation: the user-facing commands run in-process.

Every command goes through ``strucsense.cli.main`` with its output captured,
so whatever later sits behind the CLI is what gets measured. This module
imports nothing from the program; callers pass the ``cli`` module in, which
lets the set-up probe time the program's import on its own.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
import traceback
from dataclasses import dataclass


@dataclass(frozen=True)
class Call:
    """One command: its exit code, captured streams and wall time."""

    command: str
    rc: int | None  # None when the command raised
    out: str
    err: str
    seconds: float

    @property
    def output_bytes(self) -> int:
        return len(self.out.encode()) + len(self.err.encode())


def run_command(cli, argv: list) -> Call:
    """Run ``strucsense <argv>`` and time only the call into ``cli.main``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter_ns()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects a command line this way
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an op that raises is counted as failed, not fatal
            rc = None
            err.write(traceback.format_exc())
        seconds = (time.perf_counter_ns() - start) / 1e9
    return Call(argv[0], rc, out.getvalue(), err.getvalue(), seconds)


def wdn_op(cli, path: str) -> list:
    """``info`` then ``place`` on one water network."""
    return [run_command(cli, ["info", path, "--format", "json"]), run_command(cli, ["place", path, "--format", "json"])]


def first_witness(call: Call) -> list | None:
    if call.rc != 0:
        return None
    try:
        witnesses = json.loads(call.out)["witnesses"]
    except (ValueError, KeyError, TypeError):
        return None
    return witnesses[0] if witnesses else None


def desk_op(cli, path: str) -> list:
    """``minimize`` then ``oracle`` on its first witness (default 100 trials)."""
    minimize = run_command(cli, ["minimize", path])
    witness = first_witness(minimize)
    if witness is None:
        return [minimize]
    return [minimize, run_command(cli, ["oracle", path, "--sensors", ",".join(map(str, witness))])]


OPS = {"wdn": wdn_op, "desk": desk_op}
