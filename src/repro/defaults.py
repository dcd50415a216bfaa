"""The constants the CLI's argument parser needs, apart from the code that uses them.

The parser lists the experiments, presets and backends and prints these
defaults in ``--help``.  This module imports nothing, so ``repro --version``,
``--help`` and an argument error load neither numpy nor any experiment, and
the pool and bench modules (and :mod:`multiprocessing`) stay out of every
start-up that does not run them.
"""

#: The registered experiment names, sorted; ``tests/test_cli.py`` pins them
#: to :func:`repro.api.list_experiments`.
EXPERIMENT_NAMES = (
    "ablation_estimators",
    "ablation_tap",
    "ablation_vit",
    "fig4",
    "fig5",
    "fig6",
    "fig8",
    "population",
)

#: The named fidelity/run-time presets every registered experiment provides.
#: ``paper`` runs figure-sized grids through the capture kernels, in
#: simulation mode or, where the points share one gateway capture (Figure 8,
#: the tap ablation, population), in hybrid mode; ``fast``
#: switches to the hybrid/analytic models; ``quick`` additionally shrinks the
#: grids to seconds; ``smoke`` is a tiny all-analytic grid for CI.
PRESETS = ("paper", "fast", "quick", "smoke")

#: Default master seed of CLI runs (the paper's publication year).
DEFAULT_SEED = 2003

#: The ``--backend`` vocabulary, in documentation order.
BACKEND_NAMES = ("serial", "process")

#: Default tolerated relative regression before ``repro bench`` fails (20%).
DEFAULT_MAX_REGRESSION = 0.2
