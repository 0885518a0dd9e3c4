"""Baselines and ground truths.

* :mod:`centralized` — a single-site data-exchange engine (the chase)
  over the union of all node schemas.  The distributed global update
  must converge to the same instance up to null renaming; tests and
  experiment E12 verify that.
"""

from repro.baselines.centralized import CentralizedExchange

__all__ = ["CentralizedExchange"]
