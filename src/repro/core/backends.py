"""The backend registry: one declaration per (entry point, backend).

Every headline entry point (`dual_prefix`, `dual_sort`, `large_prefix`,
`large_sort`, `hypercube_bitonic_sort`) accepts a ``backend=`` keyword.
Before this registry existed each entry point carried its own if-chain of
string comparisons, and the chains drifted: option sets differed, error
messages disagreed about where the cycle-accurate variant lives, and
capability guards (trace/profiler) were copy-pasted with different
wording.  The registry is the single source of truth:

* each :class:`BackendSpec` declares a backend's **capabilities** (which
  optional features — ``counters``, ``trace``, ``profiler``, ``shards``
  — it honors) and its **return shape** once;
* :func:`resolve_backend` turns ``(entry point, backend name, requested
  features)`` into a runner callable, raising uniformly-worded errors
  for unknown backends and unsupported features;
* runners import their implementation lazily, so importing an entry
  point never drags in the columnar or replay machinery.

The REP007 lint rule enforces the monopoly: inline ``backend == "..."``
string comparisons are forbidden everywhere outside this module.

Three backends exist (the large-input entry points have no engine):

=============  ==============================================================
``columnar``   the default: structured-array state, in-place reshape-view
               combines, D_1 to D_11; honours counters, trace and profiler
``engine``     per-rank generator programs on the cycle-accurate simulator;
               returns ``(result_array, EngineResult)``
``replay``     straight-line plans compiled from the extracted
               :class:`~repro.analysis.static.schedule.CommSchedule`
               (:mod:`repro.core.replay`); optional per-cluster
               multiprocessing sharding for the prefix algorithms
=============  ==============================================================

Every entry point's ``backend=`` default is ``"columnar"``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

__all__ = [
    "BackendSpec",
    "FEATURES",
    "backend_names",
    "backend_spec",
    "entry_points",
    "resolve_backend",
]

# Every optional feature a backend may honor, with the reason text used
# when a caller requests it from a backend that does not.  The trace
# wording is pinned by tests (they match on "no per-rank values to
# trace").
_FEATURE_REASONS = {
    "counters": (
        "takes no external counters (the returned EngineResult carries "
        "its own ledger)"
    ),
    "trace": "keeps no per-rank values to trace",
    "profiler": "has no per-phase profiling hooks",
    "shards": "has no multiprocessing sharding",
}

#: The feature names a :class:`BackendSpec` may declare.
FEATURES = frozenset(_FEATURE_REASONS)

# Appended to unknown-backend errors where a separate cycle-accurate
# function exists outside the backend= dispatch.
_ENGINE_HINTS = {
    "large_prefix": "large_prefix_engine is the cycle-accurate entry point",
}


@dataclass(frozen=True)
class BackendSpec:
    """One backend of one entry point: capabilities + lazy runner.

    ``features`` lists the optional keywords the backend honors
    (subset of :data:`FEATURES`); ``returns`` documents the return
    shape; ``loader`` imports the implementation on first use and
    returns the runner callable (every runner of one entry point shares
    that entry point's full keyword surface).
    """

    entry_point: str
    name: str
    features: frozenset
    returns: str
    description: str
    loader: Callable[[], Callable] = field(repr=False)

    def __post_init__(self):
        unknown = self.features - FEATURES
        if unknown:
            raise ValueError(
                f"backend {self.name!r} declares unknown features "
                f"{sorted(unknown)}; known: {sorted(FEATURES)}"
            )


# -- runner adapters (lazy imports; one shared surface per entry point) --------


def _dual_prefix_engine() -> Callable:
    from repro.core.dual_prefix import dual_prefix_engine

    def run(dc, values, op, *, inclusive, paper_literal, counters, trace,
            profiler, shards):
        return dual_prefix_engine(
            dc, values, op, inclusive=inclusive, paper_literal=paper_literal,
            trace=trace,
        )

    return run


def _dual_prefix_columnar() -> Callable:
    from repro.core.columnar import dual_prefix_columnar

    def run(dc, values, op, *, inclusive, paper_literal, counters, trace,
            profiler, shards):
        return dual_prefix_columnar(
            dc, values, op, inclusive=inclusive, paper_literal=paper_literal,
            counters=counters, trace=trace, profiler=profiler,
        )

    return run


def _dual_prefix_replay() -> Callable:
    from repro.core.replay import dual_prefix_replay

    def run(dc, values, op, *, inclusive, paper_literal, counters, trace,
            profiler, shards):
        return dual_prefix_replay(
            dc, values, op, inclusive=inclusive, paper_literal=paper_literal,
            counters=counters, shards=shards,
        )

    return run


def _dual_sort_engine() -> Callable:
    from repro.core.dual_sort import dual_sort_engine

    def run(rdc, keys, *, descending, payload_policy, counters, trace,
            profiler):
        return dual_sort_engine(
            rdc, keys, descending=descending, payload_policy=payload_policy,
            trace=trace,
        )

    return run


def _dual_sort_columnar() -> Callable:
    from repro.core.columnar import dual_sort_columnar

    def run(rdc, keys, *, descending, payload_policy, counters, trace,
            profiler):
        return dual_sort_columnar(
            rdc, keys, descending=descending, payload_policy=payload_policy,
            counters=counters, trace=trace, profiler=profiler,
        )

    return run


def _dual_sort_replay() -> Callable:
    from repro.core.replay import dual_sort_replay

    def run(rdc, keys, *, descending, payload_policy, counters, trace,
            profiler):
        return dual_sort_replay(
            rdc, keys, descending=descending, payload_policy=payload_policy,
            counters=counters,
        )

    return run


def _large_prefix_columnar() -> Callable:
    from repro.core.columnar import large_prefix_columnar

    def run(dc, values, op, *, counters, profiler, shards):
        return large_prefix_columnar(
            dc, values, op, counters=counters, profiler=profiler
        )

    return run


def _large_prefix_replay() -> Callable:
    from repro.core.replay import large_prefix_replay

    def run(dc, values, op, *, counters, profiler, shards):
        return large_prefix_replay(
            dc, values, op, counters=counters, profiler=profiler,
            shards=shards,
        )

    return run


def _large_sort_columnar() -> Callable:
    from repro.core.columnar import large_sort_columnar

    def run(rdc, keys, *, descending, payload_policy, counters, profiler):
        return large_sort_columnar(
            rdc, keys, descending=descending, payload_policy=payload_policy,
            counters=counters, profiler=profiler,
        )

    return run


def _large_sort_replay() -> Callable:
    from repro.core.replay import large_sort_replay

    def run(rdc, keys, *, descending, payload_policy, counters, profiler):
        return large_sort_replay(
            rdc, keys, descending=descending, payload_policy=payload_policy,
            counters=counters, profiler=profiler,
        )

    return run


def _bitonic_engine() -> Callable:
    from repro.core.bitonic import _sort_cube, hypercube_bitonic_sort_engine

    def run(keys, *, descending, counters, trace):
        arr = list(keys)
        cube = _sort_cube(len(arr))
        return hypercube_bitonic_sort_engine(
            cube, arr, descending=descending, trace=trace
        )

    return run


def _bitonic_columnar() -> Callable:
    from repro.core.bitonic import hypercube_bitonic_sort_columnar

    def run(keys, *, descending, counters, trace):
        return hypercube_bitonic_sort_columnar(
            keys, descending=descending, counters=counters, trace=trace
        )

    return run


def _bitonic_replay() -> Callable:
    from repro.core.replay import hypercube_bitonic_sort_replay

    def run(keys, *, descending, counters, trace):
        return hypercube_bitonic_sort_replay(
            keys, descending=descending, counters=counters
        )

    return run


# -- the registry --------------------------------------------------------------

_ARRAY = "result array"
_PAIR = "(result array, EngineResult)"


def _spec(entry: str, name: str, features, returns: str, description: str,
          loader: Callable[[], Callable]) -> BackendSpec:
    return BackendSpec(
        entry_point=entry,
        name=name,
        features=frozenset(features),
        returns=returns,
        description=description,
        loader=loader,
    )


_REGISTRY: dict[str, dict[str, BackendSpec]] = {}
for _s in (
    _spec("dual_prefix", "columnar", ("counters", "trace", "profiler"),
          _ARRAY, "structured-array in-place combines (default)",
          _dual_prefix_columnar),
    _spec("dual_prefix", "engine", ("trace",), _PAIR,
          "cycle-accurate SPMD generators", _dual_prefix_engine),
    _spec("dual_prefix", "replay", ("counters", "shards"), _ARRAY,
          "compiled straight-line plan; optional per-cluster sharding",
          _dual_prefix_replay),
    _spec("dual_sort", "columnar", ("counters", "trace", "profiler"),
          _ARRAY, "reshape-view compare-exchanges (default)",
          _dual_sort_columnar),
    _spec("dual_sort", "engine", ("trace",), _PAIR,
          "cycle-accurate SPMD generators", _dual_sort_engine),
    _spec("dual_sort", "replay", ("counters",), _ARRAY,
          "compiled straight-line compare-exchange plan", _dual_sort_replay),
    _spec("large_prefix", "columnar", ("counters", "profiler"), _ARRAY,
          "blocked structured-array prefix (default)",
          _large_prefix_columnar),
    _spec("large_prefix", "replay", ("counters", "profiler", "shards"),
          _ARRAY, "compiled network phase; optional per-cluster sharding",
          _large_prefix_replay),
    _spec("large_sort", "columnar", ("counters", "profiler"), _ARRAY,
          "blocked reshape-view merge-splits (default)",
          _large_sort_columnar),
    _spec("large_sort", "replay", ("counters", "profiler"), _ARRAY,
          "compiled merge-split plan", _large_sort_replay),
    _spec("bitonic", "columnar", ("counters", "trace"), _ARRAY,
          "reshape-view Batcher network (default)", _bitonic_columnar),
    _spec("bitonic", "engine", ("trace",), _PAIR,
          "cycle-accurate SPMD generators", _bitonic_engine),
    _spec("bitonic", "replay", ("counters",), _ARRAY,
          "compiled straight-line Batcher plan", _bitonic_replay),
):
    _REGISTRY.setdefault(_s.entry_point, {})[_s.name] = _s
del _s


def entry_points() -> tuple[str, ...]:
    """All registered entry points, sorted."""
    return tuple(sorted(_REGISTRY))


def backend_names(entry_point: str) -> tuple[str, ...]:
    """The backend names registered for ``entry_point``, sorted."""
    return tuple(sorted(_table(entry_point)))


def backend_spec(entry_point: str, name: str) -> BackendSpec:
    """The :class:`BackendSpec` of one backend (raises like the dispatch)."""
    table = _table(entry_point)
    spec = table.get(name)
    if spec is None:
        raise ValueError(_unknown_backend_message(entry_point, name, table))
    return spec


def _table(entry_point: str) -> dict[str, BackendSpec]:
    table = _REGISTRY.get(entry_point)
    if table is None:
        raise ValueError(
            f"unknown entry point {entry_point!r}; "
            f"known: {', '.join(sorted(_REGISTRY))}"
        )
    return table


def _unknown_backend_message(
    entry_point: str, name: str, table: dict[str, BackendSpec]
) -> str:
    opts = ", ".join(repr(k) for k in sorted(table))
    hint = _ENGINE_HINTS.get(entry_point)
    suffix = f" ({hint})" if hint else ""
    return (
        f"unknown backend {name!r} for {entry_point}; "
        f"choose one of {opts}{suffix}"
    )


def resolve_backend(entry_point: str, name: str, **requested) -> Callable:
    """Resolve ``(entry point, backend)`` into a runner callable.

    ``requested`` maps feature names (see :data:`FEATURES`) to booleans:
    a feature marked True that the chosen backend does not declare raises
    a uniformly-worded ``ValueError`` naming the backends that do support
    it.  The returned runner takes the entry point's full keyword surface
    (the registry's adapters drop keywords their backend does not use —
    the feature check guarantees those are ``None``).
    """
    table = _table(entry_point)
    spec = table.get(name)
    if spec is None:
        raise ValueError(_unknown_backend_message(entry_point, name, table))
    for feature, wanted in requested.items():
        if feature not in _FEATURE_REASONS:
            raise ValueError(
                f"unknown backend feature {feature!r}; "
                f"known: {', '.join(sorted(_FEATURE_REASONS))}"
            )
        if wanted and feature not in spec.features:
            supported = ", ".join(
                repr(k) for k, s in sorted(table.items())
                if feature in s.features
            )
            raise ValueError(
                f"the {name!r} backend of {entry_point} "
                f"{_FEATURE_REASONS[feature]}; "
                f"{feature} is supported by: {supported}"
            )
    return spec.loader()
