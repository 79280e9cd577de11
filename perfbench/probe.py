"""Set-up probe: the work a user pays before the first unit can run.

Imports the program (and with it numpy), parses the config document read
from stdin, builds its families, and prints the monotonic clock.  The
parent times this from just before the spawn, so ``setup_s`` also covers
interpreter start-up.  It imports nothing of the benchmark's own.
"""

import json
import sys
import time

from harmonichh import cli

config = cli.parse_config(json.load(sys.stdin))
for descriptor in config.families:
    cli.build_family(descriptor)
print(time.monotonic(), flush=True)
