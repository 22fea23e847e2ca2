"""Time one cold set-up of a workload in a fresh interpreter.

    python3 perfbench/setup_probe.py WORKLOAD SEED    # prints the seconds taken

run.py starts this a few times and reports the median with its own set-up.
"""

import sys

from run import cold_setup


def main() -> None:
    _, _, seconds = cold_setup(sys.argv[1], int(sys.argv[2]))
    print(seconds)


if __name__ == "__main__":
    main()
