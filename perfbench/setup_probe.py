"""Set-up probe, run in a fresh process by the benchmark.

    python3 perfbench/setup_probe.py CONFIG [key=value ...]

Imports ``ramseydesign.cli``, parses CONFIG with ``parse_config`` (the
key=value pairs are applied as overrides, as the CLI flags would be) and
draws the prior cloud with ``init_prior``. Prints the three timings as
one JSON line.
"""

import time

t0 = time.perf_counter()
import ramseydesign.cli  # noqa: E402,F401  (the import is what is timed)

t1 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from ramseydesign.config import parse_config  # noqa: E402
from ramseydesign.particles import init_prior  # noqa: E402

overrides = dict(arg.split("=", 1) for arg in sys.argv[2:])
t2 = time.perf_counter()
cfg = parse_config(sys.argv[1], overrides)
t3 = time.perf_counter()
init_prior(cfg.prior, cfg.run.seed)
t4 = time.perf_counter()
print(json.dumps({
    "import_s": t1 - t0,
    "parse_config_ms": (t3 - t2) * 1e3,
    "init_prior_ms": (t4 - t3) * 1e3,
}))
