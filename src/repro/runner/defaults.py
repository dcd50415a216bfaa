"""Defaults the CLI's argument parser shows, apart from the code that uses them.

The parser names the backends and prints these defaults in ``--help``;
importing them from here keeps the pool and bench modules (and
:mod:`multiprocessing`) out of every start-up that does not run them.
"""

#: The ``--backend`` vocabulary, in documentation order.
BACKEND_NAMES = ("serial", "process")

#: Default tolerated relative regression before ``repro bench`` fails (20%).
DEFAULT_MAX_REGRESSION = 0.2
