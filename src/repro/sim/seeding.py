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
:func:`draw_shot_randomness`: each shot's generator yields one uniform
vector -- the measurement uniforms, then one uniform per noise site in site
order -- and the site uniforms map to Pauli codes through the site table's
cumulative thresholds (:meth:`repro.circuit.ir.NoiseSiteTable.thresholds`).
Those are the floats and the comparison of the threshold sampler
(:meth:`repro.sim.noise.PauliChannel.sample_thresholded`), so the codes equal
sequential per-site threshold draws from the same generator.
The engines' trajectories are therefore bit-identical to each other, any
sharding of the shot range reproduces the unsharded run exactly, and the
first ``n`` shots of a run equal an ``n``-shot run under the same ``rng``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

__all__ = ["ShotSeeds", "as_shot_seeds", "draw_shot_randomness"]

#: Uniforms mapped per chunk of shots by :func:`draw_shot_randomness` (a
#: chunk holds at least one shot), which bounds its float scratch block.
_DRAW_CHUNK_VALUES = 1 << 15


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
    shot's generator is called once, for ``n_measurements + n_sites``
    uniforms -- **measurement uniforms first**, **then one uniform per noise
    site** of ``sites`` (a :class:`~repro.circuit.ir.NoiseSiteTable` or
    ``None``), in site order.  Site uniforms become Pauli codes through the
    table's cumulative thresholds, ``code = sum_k (u >= t_k)``, which equals
    sequential :meth:`~repro.sim.noise.PauliChannel.sample_thresholded`
    draws of one value per site.  Because a shot's draws depend only on its
    own stream, any sharding of the shot range reproduces the unsharded draw
    exactly.  Shots are mapped in chunks of about ``_DRAW_CHUNK_VALUES``
    uniforms, so the float block never spans the whole shot range.

    Returns ``codes`` of shape ``(n_sites, shots)`` and dtype ``uint8``
    (``None`` without a site table) and ``uniforms`` of shape
    ``(n_measurements, shots)`` (``None`` without measurements); both are
    laid out shot-per-column so downstream consumers can vectorise across
    the shot axis.  When a shot has nothing to draw, no shot stream is built
    at all.
    """
    n_sites = 0 if sites is None else sites.n_sites
    codes = None if sites is None else np.empty((n_sites, shots), dtype=np.uint8)
    uniforms = (
        np.empty((n_measurements, shots), dtype=float) if n_measurements else None
    )
    width = n_measurements + n_sites
    if not width:
        return codes, uniforms
    if n_sites:
        thresholds = sites.thresholds()[:, :, None]
    chunk = max(1, _DRAW_CHUNK_VALUES // width)
    block = np.empty((min(chunk, shots), width))
    for lo in range(0, shots, chunk):
        count = min(chunk, shots - lo)
        for row in range(count):
            seeds.generator(lo + row).random(out=block[row])
        drawn = block[:count].T
        if uniforms is not None:
            uniforms[:, lo : lo + count] = drawn[:n_measurements]
        if n_sites:
            site_uniforms = drawn[n_measurements:]
            chunk_codes = codes[:, lo : lo + count]
            np.greater_equal(site_uniforms, thresholds[0], out=chunk_codes)
            chunk_codes += site_uniforms >= thresholds[1]
            chunk_codes += site_uniforms >= thresholds[2]
    return codes, uniforms
