"""Paper experiment harness: one module per table/figure.

Every module exposes ``run*(scale) -> rows``, ``main(scale)`` which prints
the same rows/series the paper reports and returns them, and
``claims(result, scale)`` which states the paper's shape claims on those
rows once (:mod:`repro.experiments.claims`; ``python -m repro.experiments``
judges them).  Modules share expensive artifacts
(histories, pre-trained encoders, tuning campaigns) through
:mod:`repro.experiments.context`, so running several experiments in one
process pays the pre-training cost once.

Scales (:mod:`repro.experiments.scale`): ``smoke`` for CI, ``default`` for
a laptop-minutes run, ``paper`` for the full 120-rate-change campaigns.
Select with the ``REPRO_SCALE`` environment variable.
"""

from repro.experiments.scale import ExperimentScale, resolve_scale

__all__ = ["ExperimentScale", "resolve_scale"]
