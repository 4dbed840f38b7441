"""Deterministic seed derivation for Monte Carlo realizations.

Realization ``i`` of a study always draws from
``default_rng(SeedSequence([master_seed, study_id, i]))`` so results are
independent of evaluation order and of how work is split across processes.
"""

from __future__ import annotations

from numpy.random import Generator, SeedSequence, default_rng

STUDY_IDS = {
    "densely-spaced": 1,
    "near-field": 2,
    "tri-pol": 3,
    "em-core-validation": 4,
}


def realization_rng(master_seed: int, study_id: int, index: int) -> Generator:
    """RNG for one realization, a pure function of (seed, study, index)."""
    return default_rng(SeedSequence([int(master_seed), int(study_id), int(index)]))


def generators(rng) -> tuple[bool, list[Generator]]:
    """(whether ``rng`` is a list, one generator per entry) of a generator or
    seed, or of a list of them: the channel samplers' ``rng`` argument."""
    stacked = isinstance(rng, (list, tuple))
    return stacked, [default_rng(r) for r in (rng if stacked else [rng])]
