"""Time one workload's set-up in a fresh interpreter.

run.py starts this script, notes the monotonic clock just before, and
reads back what this process prints once set-up is done: the monotonic
clock, and the times of the host-speed reference loop run at the start
of this process and after set-up.  A sample spans interpreter start,
imports, reading inputs and building everything the workload's timed
part assumes exists; run.py takes the first loop's time out of it.

Usage: python3 perfbench/probe.py WORKLOAD SEED CACHE_DIR
"""

import sys
import time

import hostspeed


def main(argv) -> int:
    ref_before = hostspeed.reference_s()
    name, seed, cache_dir = argv[0], int(argv[1]), argv[2]
    import workloads
    from tracer import NullTracer

    workloads.WORKLOADS[name](seed).setup(NullTracer(), cache_dir)
    end = time.monotonic()
    print(end, ref_before, hostspeed.reference_s())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
