"""The repo's one performance ledger (see README.md beside this file).

Run as ``python3 -m benchmarks.ledger --workload <name> --seed <n>``
from the root of a checkout.  The package measures ``repro`` from
outside, through its public functions; it builds nothing and imports the
program straight from ``src/`` of the checkout it sits in.
"""

import os
import sys

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(LEDGER_DIR))
OUT_DIR = os.path.join(LEDGER_DIR, "out")

_SRC = os.path.join(REPO_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
