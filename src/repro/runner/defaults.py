"""Defaults the CLI's argument parser shows, apart from the code that uses them.

The parser names the backends and prints these defaults in ``--help``;
importing them from here keeps the pool, queue and bench modules (and
:mod:`multiprocessing`) out of every start-up that does not run them.
"""

#: The ``--backend`` vocabulary, in documentation order.
BACKEND_NAMES = ("serial", "process", "queue")

#: Default tolerated relative regression before ``repro bench`` fails (20%).
DEFAULT_MAX_REGRESSION = 0.2

#: Seconds of heartbeat silence after which a queue worker is presumed dead
#: and its leases become stealable.
DEFAULT_LEASE_TIMEOUT = 30.0

#: Seconds idle queue workers (and the merging parent) sleep between scans.
DEFAULT_POLL_INTERVAL = 0.05
