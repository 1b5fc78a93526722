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

from typing import Optional, Sequence, Union

from repro.core.heuristic import HeuristicConfig
from repro.core.scoring import FlatDistance
from repro.exceptions import ReproError


def ensemble_eligible(
    pipeline: str,
    config: Optional[HeuristicConfig],
    distance: Optional[Union[FlatDistance, Sequence[Sequence[float]]]],
) -> bool:
    """Whether one layout search over many seeds reproduces this
    configuration's per-seed trials.

    Three requirements:

    - the scorer must be ``"vector"`` (the ``reference`` scorer is the
      differential oracle and stays on per-seed pipelines);
    - the distance matrix must be symmetric (otherwise the router
      itself falls back to the reference scorer, see
      :class:`~repro.core.router.SabreRouter`);
    - the trial pipeline's routing stage must be the plain
      ``SabreLayoutPass`` search: presets that pin layouts
      (``PerfectEmbedding``), reroute per trial (``BaselineRoutePass``),
      or rewrite the distance/config (``NoiseAwareDistance``) decide
      per seed.
    """
    if (config or HeuristicConfig()).scorer != "vector":
        return False
    if distance is not None:
        flat = (
            distance
            if isinstance(distance, FlatDistance)
            else FlatDistance.from_matrix(distance)
        )
        if not flat.symmetric:
            return False
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
