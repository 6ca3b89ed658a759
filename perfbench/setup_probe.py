"""Time the program's set-up in a fresh interpreter: import plus one warm-up op.

Usage: python3 setup_probe.py <src dir> <wdn|desk> <input path>

Prints the seconds from just before ``import strucsense.cli`` to the end of
one operation on the warm-up input, so work moved into import or into the
first call shows in the benchmark's ``setup_s``; then the calibration
kernel's time in this process, which the caller scales by.
"""

import sys
import time


def main() -> int:
    src, kind, path = sys.argv[1:4]
    start = time.perf_counter()
    sys.path.insert(0, src)
    from strucsense import cli

    import ops

    ops.OPS[kind](cli, path)  # a failing op is the timed loop's to count
    elapsed = time.perf_counter() - start
    import calibrate

    print(f"{elapsed:.9f} {calibrate.sample():.9f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
