"""``python -m benchmarks.ledger`` — same command line as ``run.py``."""

import sys

from benchmarks.ledger.run import main

sys.exit(main())
