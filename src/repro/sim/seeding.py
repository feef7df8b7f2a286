"""Deterministic per-shot random streams for sharded Monte-Carlo runs.

The sweep runner (:mod:`repro.sweep`) splits a Monte-Carlo experiment into
``(sweep_point, shot_shard)`` work units that may execute in any order across
any number of worker processes.  For the merged results to be bit-identical
to a serial run, the random stream a shot consumes must depend only on *which
shot it is* -- never on which shard it landed in, which worker ran it, or how
many shots share its batch.

:class:`ShotSeeds` encodes that contract.  It derives one independent
:class:`numpy.random.SeedSequence` per shot via the spawn-key mechanism,
keyed on ``(seed, point_index, shot_index)``:

    ``SeedSequence(seed, spawn_key=(point_index, shot_index))``

``spawn_key`` is exactly what ``SeedSequence.spawn`` uses internally, so the
streams are as statistically independent as NumPy's parallel-RNG machinery
guarantees, and two distinct ``(point, shot)`` coordinates can never collide.

This is the only random-stream contract noisy execution has.  Every Feynman
engine (:mod:`repro.sim.engine`) resolves its ``rng`` argument to a
``ShotSeeds`` window with :func:`as_shot_seeds` and draws through
:func:`draw_shot_randomness`: every shot's measurement uniforms and Pauli
error codes come from the shot's own generator, in noise-site order, via the
threshold sampler (:meth:`repro.sim.noise.PauliChannel.sample_thresholded`).
The engines' trajectories are therefore bit-identical to each other, any
sharding of the shot range reproduces the unsharded run exactly, and the
first ``n`` shots of a run equal an ``n``-shot run under the same ``rng``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

__all__ = ["ShotSeeds", "as_shot_seeds", "draw_shot_randomness"]


@dataclass(frozen=True)
class ShotSeeds:
    """Per-shot seed stream for one sweep point (see module docstring).

    Parameters
    ----------
    seed:
        Base entropy of the whole sweep (a non-negative integer).
    point_index:
        Index of the sweep point this stream belongs to.
    start:
        Absolute index of the first shot covered by this window.  A shard
        covering shots ``[start, start + shots)`` of a point simply carries a
        shifted window onto the same per-shot streams.
    """

    seed: int
    point_index: int = 0
    start: int = 0

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.point_index < 0:
            raise ValueError(
                f"point_index must be non-negative, got {self.point_index}"
            )
        if self.start < 0:
            raise ValueError(f"start must be non-negative, got {self.start}")

    def sequence(self, local_shot: int) -> np.random.SeedSequence:
        """The :class:`~numpy.random.SeedSequence` of shot ``start + local_shot``."""
        return np.random.SeedSequence(
            self.seed, spawn_key=(self.point_index, self.start + local_shot)
        )

    def generator(self, local_shot: int) -> np.random.Generator:
        """A fresh generator for shot ``start + local_shot`` of this window."""
        return np.random.default_rng(self.sequence(local_shot))

    def shifted(self, offset: int) -> "ShotSeeds":
        """The same stream with the window moved ``offset`` shots forward."""
        return replace(self, start=self.start + offset)


def as_shot_seeds(
    rng: ShotSeeds | np.random.Generator | int | None,
) -> ShotSeeds:
    """Resolve any accepted ``rng`` argument to the window noisy runs draw from.

    * a :class:`ShotSeeds` window passes through unchanged;
    * an ``int`` (or NumPy integer) seeds ``ShotSeeds(seed=rng)``;
    * a :class:`numpy.random.Generator` contributes one 63-bit seed drawn
      from it, so repeated calls sharing a generator get independent streams
      while equal generator states give equal results;
    * ``None`` seeds the window from fresh OS entropy.
    """
    if isinstance(rng, ShotSeeds):
        return rng
    if rng is None:
        return ShotSeeds(seed=np.random.SeedSequence().entropy)
    if isinstance(rng, np.random.Generator):
        return ShotSeeds(seed=int(rng.integers(2**63)))
    if isinstance(rng, (int, np.integer)):
        return ShotSeeds(seed=int(rng))
    raise TypeError(
        "rng must be a ShotSeeds window, a numpy Generator, an int seed or "
        f"None, got {type(rng).__name__}"
    )


def draw_shot_randomness(
    sites,
    seeds: ShotSeeds,
    shots: int,
    n_measurements: int = 0,
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Draw every shot's seeded randomness up front: ``(codes, uniforms)``.

    This is the single implementation of the per-shot random-stream contract
    (the Feynman engine delegates here, after :func:`as_shot_seeds`): each
    shot's generator is consumed in the fixed order -- **measurement uniforms
    first** (``n_measurements`` values), **then the noise-site codes** (one
    threshold draw per site of ``sites``, a
    :class:`~repro.circuit.ir.NoiseSiteTable` or ``None``).
    Because a shot's draws depend only on its own stream, any sharding of the
    shot range reproduces the unsharded draw exactly.

    Returns ``codes`` of shape ``(n_sites, shots)`` (``None`` without a site
    table) and ``uniforms`` of shape ``(n_measurements, shots)`` (``None``
    without measurements); both are laid out shot-per-column so downstream
    consumers can vectorise across the shot axis.  With neither, no shot
    stream is built at all.
    """
    if sites is None and not n_measurements:
        return None, None
    codes = (
        np.empty((sites.n_sites, shots), dtype=np.int64)
        if sites is not None
        else None
    )
    uniforms = (
        np.empty((n_measurements, shots), dtype=float) if n_measurements else None
    )
    for shot in range(shots):
        generator = seeds.generator(shot)
        if uniforms is not None:
            uniforms[:, shot] = generator.random(n_measurements)
        if codes is not None:
            codes[:, shot] = sites.draw_shot(generator)
    return codes, uniforms
