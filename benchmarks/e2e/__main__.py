"""``python -m benchmarks.e2e run|compare`` (see ``run.py``)."""

import sys

from .run import main

sys.exit(main(sys.argv[1:]))
