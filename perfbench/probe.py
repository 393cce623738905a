"""Set-up probe: a fresh interpreter does the benchmark's common set-up.

Usage: ``probe.py CACHE_DIR``.  It imports every module the workloads
drive and makes an empty result-cache directory, then exits.  The
harness times a few of these from spawn to exit and reports the median
as the import part of ``setup_s``.
"""

import sys
from pathlib import Path

import workloads  # noqa: F401  (the import is the work being timed)

Path(sys.argv[1]).mkdir(parents=True)
