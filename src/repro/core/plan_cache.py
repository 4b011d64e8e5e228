"""Cross-query plan cache keyed by a canonical join-graph signature.

A heavy query workload repeats itself: dashboards, templated API
endpoints, and benchmark drivers send the same BGP shapes with the same
statistics over and over, and every repetition pays full TD-CMD
enumeration.  PHD-Store-style systems amortize that by caching optimizer
output across queries; this module is that layer for the reproduction.

The cache key is the canonical JSON text of everything the optimizer's
answer depends on — the text itself, not a digest of it, so two calls
share a key exactly when their canonical payloads are equal:

* the triple patterns, with variables renamed by first appearance (so
  two queries identical up to variable naming share one entry),
* the per-pattern statistics fingerprint (cardinality plus the
  per-variable distinct-binding counts, canonically named),
* the algorithm, the cost-model parameters, and the partitioning method
  (partitioning changes local-query detection and therefore plans).

Entries store the winning plan in the :mod:`.serialize` wire format with
join variables canonicalized; a hit rebuilds the plan against the *new*
query object, mapping canonical variable ids back to the query's actual
variables, so downstream execution never sees foreign variable names.

Eviction is LRU with hit/miss/eviction counters, and the whole cache
round-trips through JSON so the CLI can keep it warm across processes.
"""

from __future__ import annotations

import json
import time
from collections import OrderedDict
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..observability import runtime as obs
from ..partitioning.base import PartitioningMethod
from ..rdf.terms import Variable
from ..sparql.ast import BGPQuery
from .cardinality import StatisticsCatalog
from .cost import CostParameters, PAPER_PARAMETERS
from .enumeration import EnumerationStats, OptimizationResult
from .serialize import plan_from_dict, plan_to_dict


def canonical_variable_map(query: BGPQuery) -> Dict[str, str]:
    """Actual variable name → canonical id, by first appearance.

    Walking patterns in index order and positions in (s, p, o) order
    makes the mapping a pure function of query structure, so queries
    that differ only in variable naming collapse to one signature.
    """
    mapping: Dict[str, str] = {}
    for tp in query:
        for term in tp.terms():
            if isinstance(term, Variable) and term.name not in mapping:
                mapping[term.name] = f"v{len(mapping)}"
    return mapping


def query_signature(
    query: BGPQuery,
    statistics: StatisticsCatalog,
    algorithm: str,
    parameters: CostParameters = PAPER_PARAMETERS,
    partitioning: Optional[PartitioningMethod] = None,
) -> Tuple[str, Dict[str, str]]:
    """The cache key for one optimization call, plus the variable map.

    Returns ``(canonical JSON text, actual→canonical variable mapping)``;
    the text is the key (``json.loads`` gives the payload back) and the
    mapping is needed again to canonicalize or restore plans.
    """
    mapping = canonical_variable_map(query)
    patterns: List[Dict[str, Any]] = []
    for index, tp in enumerate(query):
        terms = [
            f"?{mapping[term.name]}" if isinstance(term, Variable) else str(term)
            for term in tp.terms()
        ]
        stats = statistics[index]
        bindings = sorted(
            (mapping[v.name], count) for v, count in stats.bindings.items()
        )
        patterns.append(
            {
                "terms": terms,
                "cardinality": stats.cardinality,
                "bindings": bindings,
            }
        )
    payload = {
        "algorithm": algorithm.lower(),
        "parameters": asdict(parameters),
        "partitioning": repr(partitioning) if partitioning is not None else None,
        "patterns": patterns,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")), mapping


def _rename_plan(data: Dict[str, Any], rename: Dict[str, str]) -> Dict[str, Any]:
    """A copy of a serialized plan with join-variable names mapped."""
    out = dict(data)
    if out.get("kind") == "join":
        variable = out.get("join_variable")
        if variable is not None:
            out["join_variable"] = rename.get(variable, variable)
        out["children"] = [_rename_plan(child, rename) for child in data["children"]]
    return out


@dataclass
class PlanCacheStats:
    """Hit/miss/eviction counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    #: entries dropped because a rebuilt plan failed verification
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when idle)."""
        total = self.lookups
        return self.hits / total if total else 0.0


class PlanCache:
    """An LRU map from canonical query signatures to optimized plans."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("plan cache capacity must be at least 1")
        self._capacity = capacity
        self._entries: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self.stats = PlanCacheStats()

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        """Maximum number of entries before LRU eviction kicks in."""
        return self._capacity

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    # ------------------------------------------------------------------
    # the optimizer-facing API
    # ------------------------------------------------------------------
    def lookup(
        self,
        query: BGPQuery,
        statistics: StatisticsCatalog,
        algorithm: str,
        parameters: CostParameters = PAPER_PARAMETERS,
        partitioning: Optional[PartitioningMethod] = None,
    ) -> Optional[OptimizationResult]:
        """Return the cached result for this call, or ``None`` on a miss.

        A hit rebuilds the stored plan against *query* (pattern objects
        and actual variable names restored) and returns a fresh
        :class:`OptimizationResult` whose ``elapsed_seconds`` measures
        only the lookup itself — that is the latency a repeated-query
        workload actually pays.
        """
        started = time.perf_counter()
        key, mapping = query_signature(
            query, statistics, algorithm, parameters, partitioning
        )
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            obs.event("plan_cache.lookup", hit=False, algorithm=algorithm)
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        entry["hits"] = int(entry.get("hits", 0)) + 1
        obs.event("plan_cache.lookup", hit=True, algorithm=algorithm)
        inverse = {canonical: actual for actual, canonical in mapping.items()}
        plan = plan_from_dict(_rename_plan(entry["plan"], inverse), query)
        stats = EnumerationStats(**entry["stats"])
        return OptimizationResult(
            plan=plan,
            algorithm=f"{entry['algorithm']}+cache",
            stats=stats,
            elapsed_seconds=time.perf_counter() - started,
        )

    def store(
        self,
        query: BGPQuery,
        statistics: StatisticsCatalog,
        algorithm: str,
        result: OptimizationResult,
        parameters: CostParameters = PAPER_PARAMETERS,
        partitioning: Optional[PartitioningMethod] = None,
    ) -> str:
        """Insert an optimization result; return its cache key."""
        key, mapping = query_signature(
            query, statistics, algorithm, parameters, partitioning
        )
        entry = {
            "algorithm": result.algorithm,
            "plan": _rename_plan(plan_to_dict(result.plan), mapping),
            "stats": asdict(result.stats),
        }
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = entry
        self.stats.stores += 1
        evicted = 0
        while len(self._entries) > self._capacity:
            self._entries.popitem(last=False)
            evicted += 1
        self.stats.evictions += evicted
        obs.event("plan_cache.store", algorithm=result.algorithm, evicted=evicted)
        return key

    def hits_for(
        self,
        query: BGPQuery,
        statistics: StatisticsCatalog,
        algorithm: str,
        parameters: CostParameters = PAPER_PARAMETERS,
        partitioning: Optional[PartitioningMethod] = None,
    ) -> int:
        """Accumulated lookup hits for this call's entry (0 when absent).

        Per-entry recurrence evidence for the adaptive repartitioning
        advisor (:mod:`repro.partitioning.adaptive`): a query shape
        repeatedly served from the cache recurs even though the
        optimizer never re-ran.  Does not touch LRU order or the
        hit/miss statistics — it is a pure read.
        """
        key, _ = query_signature(
            query, statistics, algorithm, parameters, partitioning
        )
        entry = self._entries.get(key)
        if entry is None:
            return 0
        return int(entry.get("hits", 0))

    def invalidate(
        self,
        query: BGPQuery,
        statistics: StatisticsCatalog,
        algorithm: str,
        parameters: CostParameters = PAPER_PARAMETERS,
        partitioning: Optional[PartitioningMethod] = None,
    ) -> bool:
        """Drop the entry for this call, if any.

        The ``--verify`` path uses this when a rebuilt cached plan fails
        invariant verification: the corrupt entry is removed so the
        lookup behaves as a miss and a fresh optimization replaces it.
        """
        key, _ = query_signature(
            query, statistics, algorithm, parameters, partitioning
        )
        return self.invalidate_key(key)

    def invalidate_key(self, key: str) -> bool:
        """Drop one entry by cache key; return whether it existed."""
        if key in self._entries:
            del self._entries[key]
            self.stats.invalidations += 1
            obs.event("plan_cache.invalidate", key=key)
            return True
        return False

    # ------------------------------------------------------------------
    # persistence (the CLI keeps the cache warm across processes)
    # ------------------------------------------------------------------
    def save(self, path: Union[str, Path]) -> None:
        """Write the cache to *path* as JSON (LRU order preserved)."""
        payload = {
            "capacity": self._capacity,
            "entries": list(self._entries.items()),
        }
        Path(path).write_text(json.dumps(payload), encoding="utf-8")

    @classmethod
    def load(
        cls, path: Union[str, Path], capacity: Optional[int] = None
    ) -> "PlanCache":
        """Rebuild a cache saved with :meth:`save`.

        *capacity* overrides the stored capacity (extra entries are
        evicted oldest-first).  An entry not keyed by canonical JSON text
        (a SHA-256 hex digest, as files written up to 2.18 hold) can never
        be hit again, so it is skipped rather than given an LRU slot.
        """
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        cache = cls(capacity=capacity or payload["capacity"])
        for key, entry in payload["entries"]:
            if not key.startswith("{"):
                continue
            cache._entries[key] = entry
            while len(cache._entries) > cache._capacity:
                cache._entries.popitem(last=False)
        return cache

    def __repr__(self) -> str:
        return (
            f"PlanCache({len(self)}/{self._capacity} entries, "
            f"hits={self.stats.hits}, misses={self.stats.misses})"
        )
