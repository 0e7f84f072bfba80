#!/usr/bin/env python3
"""Run the six-level manufactured-solution convergence study.

Equivalent to:  shearbeam convergence --levels 40,80,160,320,640,1280 \
                    --T 1.2 --dt-rule c/M --c 0.04

The levels run one after another; M=1280 takes most of the time.
"""

import sys

from shearbeam.cli import main

if __name__ == "__main__":
    sys.exit(main(["convergence", "--levels", "40,80,160,320,640,1280",
                   "--T", "1.2", "--dt-rule", "c/M", "--c", "0.04",
                   *sys.argv[1:]]))
