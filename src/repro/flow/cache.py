"""Content-addressed, persistent store of implemented modules and datasets.

The paper's economic argument (§I, §VIII) rests on implementing each of
the 74 unique cnvW1A1 modules exactly once and reusing the result across
175 instances *and across DSE steps*.  :class:`ModuleCache` makes that
reuse durable: an implemented module is stored under a key
(:func:`cache_key`) derived from everything that determines the
implementation —

* the module's content (name, family, generator params, constructs),
* the CF policy and its parameters (a trained estimator hashes its
  weights), and
* the pre-implementation device grid.

The same store keeps the estimator's labeled sweep: a
:class:`~repro.dataset.generate.LabeledSweep` (records and report) from
:func:`~repro.dataset.generate.generate_dataset` under
:func:`dataset_key`, which covers the sweep size and seed, the grid, the
CF sweep parameters and the placer-noise amplitude.

Entries live in an in-memory dict with an optional disk layer underneath
(one pickle file per key inside ``cache_dir``), so a second flow run — or
a DSE session started tomorrow — warm-starts with zero tool runs for
unchanged modules.  Keys are SHA-256 hex digests; any change to a
module, policy, grid or sweep parameter produces a different key, so
stale entries can never be served.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.device.grid import DeviceGrid
from repro.rtlgen.base import RTLModule

if TYPE_CHECKING:  # annotations only: keys hash a policy, never build one
    from repro.flow.policy import CFPolicy

__all__ = [
    "CacheStats",
    "ModuleCache",
    "cache_key",
    "dataset_key",
    "grid_fingerprint",
    "module_fingerprint",
    "policy_fingerprint",
]

#: Bump when the on-disk entry layout (an ``ImplementedModule``, or a
#: dataset's ``LabeledSweep``) changes; part of every key, so old stores
#: are silently treated as cold instead of mis-deserialized.  An entry
#: of another type is a miss anyway (:meth:`ModuleCache.get`).
CACHE_FORMAT = 1


def _digest(*parts: object) -> str:
    """SHA-256 over ``repr`` of the parts (stable across processes)."""
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode("utf-8"))
        h.update(b"\x1f")
    return h.hexdigest()


def module_fingerprint(module: RTLModule) -> str:
    """Content hash of one module.

    Includes the module *name* because per-module placer noise is keyed
    on it — two identical construct bags with different names implement
    to different slice counts (see :mod:`repro.place.packer`).
    """
    return _digest(
        "module",
        module.name,
        module.family,
        module.params,
        tuple(repr(c) for c in module.constructs),
    )


def grid_fingerprint(grid: DeviceGrid) -> str:
    """Hash of the device geometry a pre-implementation targeted.

    Every key hashes its grid, so the digest (a walk over the column
    kinds plus a SHA-256) is kept in the grid's :attr:`DeviceGrid.memo`
    and computed once per grid object.
    """
    memo = grid.memo
    fp = memo.get("fingerprint")
    if fp is None:
        fp = memo["fingerprint"] = _digest(
            "grid",
            grid.name,
            grid.n_regions,
            tuple(k.value for k in grid.kinds()),
        )
    return fp


def policy_fingerprint(policy: "CFPolicy") -> str:
    """Hash of a CF policy's identity and parameters.

    Digests the policy's own :meth:`~repro.flow.policy.CFPolicy.fingerprint`
    (the class name plus dataclass init fields, which a learned policy
    overrides to hash its trained weights).
    """
    return _digest("policy", policy.fingerprint())


def cache_key(module: RTLModule, grid: DeviceGrid, policy: "CFPolicy") -> str:
    """The content-addressed key of one (module, grid, policy) triple."""
    return _digest(
        "preimpl",
        CACHE_FORMAT,
        module_fingerprint(module),
        grid_fingerprint(grid),
        policy_fingerprint(policy),
    )


def dataset_key(
    n_modules: int,
    seed: int,
    grid: DeviceGrid,
    *,
    start: float,
    step: float,
    max_cf: float,
    skip_trivial: bool,
    adaptive_step: bool,
    noise_amplitude: float,
) -> str:
    """The content-addressed key of one dataset generation configuration.

    The placer-noise amplitude is part of it: the noise ablation
    regenerates under an override, which must never be served the
    default sweep's labels.
    """
    return _digest(
        "dataset",
        CACHE_FORMAT,
        n_modules,
        seed,
        grid_fingerprint(grid),
        start,
        step,
        max_cf,
        skip_trivial,
        adaptive_step,
        noise_amplitude,
    )


def stable_json_digest(obj: object) -> str:
    """Hash an arbitrary JSON-able object (used for estimator weights)."""
    from repro.utils.serialization import to_jsonable

    return hashlib.sha256(
        json.dumps(to_jsonable(obj), sort_keys=True).encode("utf-8")
    ).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss counters of one :class:`ModuleCache`."""

    mem_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stores: int = 0

    @property
    def hits(self) -> int:
        """All hits, either layer."""
        return self.mem_hits + self.disk_hits

    @property
    def lookups(self) -> int:
        """Total ``get`` calls."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache."""
        return self.hits / self.lookups if self.lookups else 0.0


class ModuleCache:
    """Two-layer (memory + optional disk) store of implemented modules
    and generated datasets.

    Parameters
    ----------
    cache_dir:
        Directory for the persistent layer; ``None`` keeps the cache
        purely in-memory.  The directory is created on first use, and
        each entry is one ``<key>.pkl`` file written atomically
        (temp file + rename), so concurrent flows sharing a directory
        never observe torn entries.

    Notes
    -----
    Unreadable, corrupt or wrong-type disk entries are treated as misses
    (and removed), never as errors: a cache must degrade to "cold", not
    crash the flow.  Unpickling runs whatever constructor an entry
    names, so any exception it raises counts as corruption.
    """

    def __init__(self, cache_dir: str | os.PathLike | None = None) -> None:
        self._mem: dict[str, Any] = {}
        self.cache_dir = Path(cache_dir).expanduser() if cache_dir else None
        self.stats = CacheStats()

    # ------------------------------------------------------------------ keys

    @staticmethod
    def key(module: RTLModule, grid: DeviceGrid, policy: "CFPolicy") -> str:
        """Delegates to :func:`cache_key`."""
        return cache_key(module, grid, policy)

    # ------------------------------------------------------------------ store

    def _path(self, key: str) -> Path:
        assert self.cache_dir is not None
        return self.cache_dir / f"{key}.pkl"

    def get(self, key: str, kind: type) -> Any:
        """Look a key up: memory first, then disk.  ``None`` on miss.

        ``kind`` is the type the caller stores under ``key``; a disk
        entry of any other type is a miss, like a corrupt one.
        """
        entry = self._mem.get(key)
        if entry is not None:
            self.stats.mem_hits += 1
            return entry
        if self.cache_dir is not None:
            entry = self._load(self._path(key), kind)
            if entry is not None:
                self._mem[key] = entry
                self.stats.disk_hits += 1
                return entry
        self.stats.misses += 1
        return None

    @staticmethod
    def _load(path: Path, kind: type) -> Any:
        """The ``kind`` entry stored at ``path``, else ``None``.

        An absent file is a plain miss and is left alone: a concurrent
        :meth:`put` may be about to rename its entry into place.  An
        entry that exists but is unreadable, corrupt or of another type
        is removed, so the next run rebuilds it.
        """
        try:
            fh = open(path, "rb")
        except FileNotFoundError:
            return None
        except OSError:
            entry = None
        else:
            with fh:
                try:
                    entry = pickle.load(fh)
                except Exception:  # unpickling runs arbitrary constructors
                    entry = None
        if isinstance(entry, kind):
            return entry
        try:
            path.unlink(missing_ok=True)
        except OSError:
            pass
        return None

    def put(self, key: str, entry: Any) -> None:
        """Store an entry in memory and (when configured) on disk."""
        self._mem[key] = entry
        self.stats.stores += 1
        if self.cache_dir is None:
            return
        try:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            path = self._path(key)
            tmp = path.with_suffix(f".tmp.{os.getpid()}")
            with open(tmp, "wb") as fh:
                pickle.dump(entry, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except OSError:
            # Read-only or full filesystem: keep the in-memory layer only.
            pass
