"""Which sweeps the engine may run as one plain layout search.

:func:`repro.engine.trials.run_trials` and
:func:`repro.engine.batch.compile_many` run a ``g_add`` sweep as one
:class:`~repro.core.bidirectional.SabreLayout` restart loop per seed
shard — one look-ahead memo for all its restarts — merged in the
parent, which builds the one winning circuit, whenever
:func:`ensemble_eligible` holds.  Every other configuration keeps one
single-trial pipeline per seed.
"""

from __future__ import annotations

from repro.exceptions import ReproError


def ensemble_eligible(pipeline: str) -> bool:
    """Whether one layout search over many seeds reproduces this
    pipeline's per-seed trials.

    The trial pipeline's routing stage must be the plain
    ``SabreLayoutPass`` search: presets that pin layouts
    (``PerfectEmbedding``), reroute per trial (``BaselineRoutePass``),
    or rewrite the distance/config (``NoiseAwareDistance``) decide per
    seed.  Any heuristic configuration and distance matrix qualifies.
    """
    from repro.pipeline.passes import (
        BaselineRoutePass,
        NoiseAwareDistance,
        PerfectEmbedding,
        SabreLayoutPass,
    )
    from repro.pipeline.runner import get_pipeline

    try:
        pipe = get_pipeline(pipeline)
    except ReproError:
        return False
    has_search = False
    for pass_ in pipe.passes:
        if isinstance(
            pass_, (PerfectEmbedding, BaselineRoutePass, NoiseAwareDistance)
        ):
            return False
        if isinstance(pass_, SabreLayoutPass):
            has_search = True
    return has_search
