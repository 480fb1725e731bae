"""Set-up probe: a fresh-process import of wishartmin.cli plus one spectrum load.

Usage: python3 bench/probe.py SPECTRUM_FILE
Prints the seconds taken and the path the package was imported from.
"""

import sys
import time

t0 = time.perf_counter()
import wishartmin.cli  # noqa: E402  (the import is what is timed)

wishartmin.cli.load_spectrum(sys.argv[1])
print(repr(time.perf_counter() - t0), wishartmin.cli.__file__)
