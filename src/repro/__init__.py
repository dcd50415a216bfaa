"""repro — reproduction of Fu et al., "Analytical and Empirical Analysis of
Countermeasures to Traffic Analysis Attacks" (ICPP 2003).

The package is organised as a small set of substrates (a vectorized capture
kernel with its discrete-event reference, traffic sources, link-padding
gateways, an unprotected network model, and a statistics toolbox) on top of
which the paper's two contributions are implemented:

* an **adversary** that recognises the hidden payload traffic rate from the
  packet inter-arrival times of the padded stream
  (:mod:`repro.adversary`), and
* an **analytical framework** giving closed-form detection-rate estimates
  and design guidelines for CIT/VIT link-padding systems
  (:mod:`repro.core`).

The :mod:`repro.experiments` subpackage wires everything together to
regenerate each figure of the paper's evaluation; ``README.md`` at the
repository root shows how to run them.
"""

from repro._version import __version__

__all__ = ["__version__"]
