"""Deterministic per-shot random streams for sharded Monte-Carlo runs.

The sweep runner (:mod:`repro.sweep`) splits a Monte-Carlo experiment into
``(sweep_point, shot_shard)`` work units that may execute in any order across
any number of worker processes.  For the merged results to be bit-identical
to a serial run, the random stream a shot consumes must depend only on *which
shot it is* -- never on which shard it landed in, which worker ran it, or how
many shots share its batch.

:class:`ShotSeeds` encodes that contract with a stateless counter-based
generator, SplitMix64 (Steele, Lea and Flood, "Fast splittable pseudorandom
number generators", OOPSLA 2014).  With ``mix`` the SplitMix64 finaliser and
``phi = 0x9E3779B97F4A7C15`` (all arithmetic modulo ``2**64``):

* ``key = key(seed, point_index)`` folds the seed's 64-bit words and the
  point index through ``mix`` (:func:`_stream_key`; seeds of any size, so
  128-bit OS entropy keeps every bit);
* shot ``s`` starts from ``state_s = mix(key ^ s * phi)``;
* its uniform ``i`` is ``(mix(state_s + (i + 1) * phi) >> 11) * 2**-53``.

Each shot's row is therefore SplitMix64's output sequence seeded with
``state_s``, and any window of any shot is computed directly from its
coordinates: no per-shot generator object exists, and a block of shots is a
handful of in-place ``uint64`` array operations (:meth:`ShotSeeds.uniforms`).

This is the only random-stream contract noisy execution has.  Every Feynman
engine (:mod:`repro.sim.engine`) resolves its ``rng`` argument to a
``ShotSeeds`` window with :func:`as_shot_seeds` and draws through
:func:`draw_shot_randomness`: each shot's row holds the measurement
uniforms, then one uniform per noise site in site order, and the site
uniforms map to Pauli codes through the site table's cumulative thresholds
(:meth:`repro.circuit.ir.NoiseSiteTable.thresholds`).  Those are the floats
and the comparison of the threshold sampler
(:meth:`repro.sim.noise.PauliChannel.sample_thresholded`), so the codes equal
sequential per-site threshold draws that read the same row in order.
The engines' trajectories are therefore bit-identical to each other, any
sharding of the shot range reproduces the unsharded run exactly, and the
first ``n`` shots of a run equal an ``n``-shot run under the same ``rng``.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass, fields, replace

import numpy as np

__all__ = ["ShotSeeds", "as_shot_seeds", "draw_shot_randomness"]

#: Uniforms mapped per chunk of shots by :func:`draw_shot_randomness` (a
#: chunk holds at least one shot), which bounds its scratch blocks.
_DRAW_CHUNK_VALUES = 1 << 15

_MASK64 = (1 << 64) - 1
#: SplitMix64's increment ``phi``: the odd integer nearest ``2**64`` divided
#: by the golden ratio.
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
#: ``2**-53``: scales the top 53 bits of a mixed word to a uniform in [0, 1).
_UNIT = 2.0**-53


def _mix64(z: int) -> int:
    """SplitMix64's finaliser on one 64-bit Python integer."""
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def _mix64_inplace(z: np.ndarray, scratch: np.ndarray) -> None:
    """SplitMix64's finaliser over a ``uint64`` array, in place.

    ``scratch`` is a ``uint64`` array of ``z``'s shape that holds the shifted
    words; ``uint64`` products wrap modulo ``2**64`` as the finaliser needs.
    """
    np.right_shift(z, 30, out=scratch)
    z ^= scratch
    z *= np.uint64(_MIX1)
    np.right_shift(z, 27, out=scratch)
    z ^= scratch
    z *= np.uint64(_MIX2)
    np.right_shift(z, 31, out=scratch)
    z ^= scratch


def _stream_key(seed: int, point_index: int) -> int:
    """The 64-bit key of one sweep point's shot streams.

    Folds ``(number of seed words, seed words..., point_index words...)``,
    64 bits at a time, low word first, through ``key = mix((key + phi) ^
    word)``.  Prefixing the word count makes the folded sequence determine
    ``(seed, point_index)``, so distinct coordinates collide only through
    the 64-bit hash itself.
    """
    seed_words = _words64(seed)
    key = 0
    for word in (len(seed_words), *seed_words, *_words64(point_index)):
        key = _mix64(((key + _GAMMA) & _MASK64) ^ word)
    return key


def _words64(value: int) -> list[int]:
    """``value`` as 64-bit words, low word first (one word for zero)."""
    words = [value & _MASK64]
    value >>= 64
    while value:
        words.append(value & _MASK64)
        value >>= 64
    return words


@dataclass(frozen=True)
class ShotSeeds:
    """Per-shot random streams for one sweep point (see module docstring).

    Parameters
    ----------
    seed:
        Base entropy of the whole sweep (a non-negative integer of any size).
    point_index:
        Index of the sweep point this stream belongs to.
    start:
        Absolute index of the first shot covered by this window.  A shard
        covering shots ``[start, start + shots)`` of a point simply carries a
        shifted window onto the same per-shot streams.

    Each coordinate must be an ``int`` or NumPy integer (``bool`` is
    rejected) and is stored as a Python ``int``.
    """

    seed: int
    point_index: int = 0
    start: int = 0

    def __post_init__(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise TypeError(
                    f"ShotSeeds.{field.name} must be an integer, got "
                    f"{type(value).__name__} {value!r}"
                )
            if value < 0:
                raise ValueError(f"{field.name} must be non-negative, got {value}")
            object.__setattr__(self, field.name, int(value))

    def uniforms(
        self,
        local_start: int,
        count: int,
        width: int,
        out: np.ndarray | None = None,
        scratch: np.ndarray | None = None,
    ) -> np.ndarray:
        """The first ``width`` uniforms of shots ``local_start .. + count``.

        Row ``r`` holds uniforms ``0 .. width - 1`` of absolute shot
        ``start + local_start + r`` (taken modulo ``2**64``), as a
        ``float64`` array of shape ``(count, width)``: ``out`` when given.
        ``scratch``, when given, is a ``uint64`` array of the same shape that
        holds the hashed words; a caller drawing many blocks passes the same
        ``out`` and ``scratch`` each time, so no block is allocated per call.
        """
        if out is None:
            out = np.empty((count, width))
        if scratch is None:
            scratch = np.empty((count, width), dtype=np.uint64)
        first = (self.start + local_start) & _MASK64
        states = np.arange(count, dtype=np.uint64)
        states += np.uint64(first)
        states *= np.uint64(_GAMMA)
        states ^= np.uint64(_stream_key(self.seed, self.point_index))
        _mix64_inplace(states, np.empty_like(states))
        counters = np.arange(1, width + 1, dtype=np.uint64)
        counters *= np.uint64(_GAMMA)
        np.add(states[:, None], counters, out=scratch)
        # ``out``'s memory holds the shifted words until the last step.
        _mix64_inplace(scratch, out.view(np.uint64))
        scratch >>= np.uint64(11)
        # Below 2**53 the words are exact as int64, which converts fastest.
        np.multiply(scratch.view(np.int64), _UNIT, out=out)
        return out

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
    * ``None`` seeds the window with 128 bits of fresh OS entropy.
    """
    if isinstance(rng, ShotSeeds):
        return rng
    if rng is None:
        return ShotSeeds(seed=secrets.randbits(128))
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
    shot's row is its first ``n_measurements + n_sites`` uniforms
    (:meth:`ShotSeeds.uniforms`) -- **measurement uniforms first**, **then
    one uniform per noise site** of ``sites`` (a
    :class:`~repro.circuit.ir.NoiseSiteTable` or ``None``), in site order.
    Site uniforms become Pauli codes through the table's cumulative
    thresholds, ``code = sum_k (u >= t_k)``, which equals sequential
    :meth:`~repro.sim.noise.PauliChannel.sample_thresholded` draws of one
    value per site from that row.  Because a shot's row depends only on its
    absolute index, any sharding of the shot range reproduces the unsharded
    draw exactly.  Shots are hashed in chunks of about
    ``_DRAW_CHUNK_VALUES`` uniforms into one float block and one ``uint64``
    scratch block, so neither spans the whole shot range.

    Returns ``codes`` of shape ``(n_sites, shots)`` and dtype ``uint8``
    (``None`` without a site table) and ``uniforms`` of shape
    ``(n_measurements, shots)`` (``None`` without measurements); both are
    laid out shot-per-column so downstream consumers can vectorise across
    the shot axis.  When a shot has nothing to draw, nothing is hashed.
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
        thresholds = sites.thresholds()
    chunk = max(1, _DRAW_CHUNK_VALUES // width)
    rows = min(chunk, shots)
    block = np.empty((rows, width))
    words = np.empty((rows, width), dtype=np.uint64)
    # Codes and comparisons are formed shot-per-row, where the site axis is
    # contiguous, and transposed into ``codes`` once per chunk.
    row_codes = np.empty((rows, n_sites), dtype=np.uint8)
    above = np.empty((rows, n_sites), dtype=bool)
    for lo in range(0, shots, chunk):
        count = min(chunk, shots - lo)
        drawn = seeds.uniforms(lo, count, width, block[:count], words[:count])
        if uniforms is not None:
            uniforms[:, lo : lo + count] = drawn[:, :n_measurements].T
        if n_sites:
            site_uniforms = drawn[:, n_measurements:]
            chunk_codes = row_codes[:count]
            np.greater_equal(site_uniforms, thresholds[0], out=chunk_codes)
            for level in thresholds[1:]:
                np.greater_equal(site_uniforms, level, out=above[:count])
                chunk_codes += above[:count]
            codes[:, lo : lo + count] = chunk_codes.T
    return codes, uniforms
