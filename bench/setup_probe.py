"""One cold set-up of a workload: ``python3 bench/setup_probe.py <workload> <seed> <scale>``.

Imports numpy and opcalc, runs the workload's ``setup`` and prints ``ready``;
``run.py`` times a fresh interpreter from launch to that line.
"""

import sys

import env

env.bootstrap()

import workloads  # noqa: E402  (after the thread cap is set)

if __name__ == "__main__":
    name, seed, scale = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    workloads.make(name, seed, scale).setup()
    print("ready", flush=True)
