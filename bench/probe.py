"""Set-up probe: import the package, build the workload, print "ready".

Usage: python bench/probe.py WORKLOAD SEED

The caller times this process from launch to the "ready" line; that is the
workload's set-up time. The package is imported first so that -X importtime
attributes numpy and scipy to it, as a user's first import would.
"""

import sys

import mzduality.cli  # noqa: F401

from run import build_workload

if __name__ == "__main__":
    build_workload(sys.argv[1], int(sys.argv[2]))
    print("ready", flush=True)
