"""Canonical, versioned fingerprints for scenario runs.

`ShotSeeds` makes every scenario run a pure function of
``(spec, seed, shots, engine, router)`` -- the same inputs produce
bit-identical records on any machine, worker count or shard size.  The
fingerprint is the content address of that function application: a SHA-256
over a canonical JSON serialization of the *resolved* inputs plus the cache
and record schema versions.

Resolution matters: a spec with ``router=None`` means "the session default",
which can change between sessions, so fingerprinting an unresolved spec
would let one configuration's artefact be served for another.
:func:`run_fingerprint` therefore refuses unresolved specs;
:func:`repro.scenarios.run.run_scenario` pins engine and router *before*
fingerprinting, and stamps the same resolved names into every record.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields

from repro.scenarios.record import RECORD_SCHEMA_VERSION
from repro.scenarios.spec import ScenarioSpec

#: Version of the fingerprint recipe itself (what is hashed, and how).
#: Bump whenever the canonical serialization, the input set or the meaning of
#: an input changes, so artefacts written under the old recipe can never be
#: returned as hits.  Version 2: the ``seed`` keys the SplitMix64 shot
#: streams of :class:`repro.sim.seeding.ShotSeeds` (version 1 keyed NumPy
#: ``SeedSequence`` streams), so the same inputs give different records.
CACHE_SCHEMA_VERSION = 2


def canonical_spec(spec: ScenarioSpec) -> dict[str, object]:
    """A JSON-safe dict of every spec field, tuples rendered as lists.

    Field order follows the dataclass declaration; :func:`run_fingerprint`
    re-serializes with sorted keys, so the order here is cosmetic.
    """
    payload: dict[str, object] = {}
    for field in fields(spec):
        value = getattr(spec, field.name)
        payload[field.name] = list(value) if isinstance(value, tuple) else value
    return payload


def canonical_run_payload(
    spec: ScenarioSpec, *, seed: int, shots: int, engine: str
) -> dict[str, object]:
    """The exact dict :func:`run_fingerprint` hashes (exposed for tests/docs).

    Raises ``ValueError`` if the spec's router is unresolved (``None``): a
    fingerprint must name the router that actually runs, never a session
    default that could differ when the artefact is read back.
    """
    if spec.router is None:
        raise ValueError(
            "cannot fingerprint a spec with router=None; resolve the session "
            "default first (run_scenario does this before consulting the cache)"
        )
    return {
        "cache_schema_version": CACHE_SCHEMA_VERSION,
        "record_schema_version": RECORD_SCHEMA_VERSION,
        "spec": canonical_spec(spec),
        "seed": seed,
        "shots": shots,
        "engine": engine,
    }


def run_fingerprint(
    spec: ScenarioSpec, *, seed: int, shots: int, engine: str
) -> str:
    """Content address of one scenario run: 64 lowercase hex characters.

    SHA-256 of the canonical payload serialized with sorted keys and no
    whitespace.  Two runs share a fingerprint iff they are bit-identical by
    the `ShotSeeds` determinism contract.
    """
    payload = canonical_run_payload(spec, seed=seed, shots=shots, engine=engine)
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
