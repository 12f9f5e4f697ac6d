"""The paper's algorithms: parallel prefix and sorting in the dual-cube.

Every algorithm exists in three executions:

* an **engine program** — SPMD generator run on the cycle-accurate
  simulator, which *measures* communication/computation steps under the
  1-port model (this is what validates Theorems 1 and 2);
* the **columnar backend** (the default) — structured-array node state
  with in-place reshape-view combines, orders of magnitude faster than
  the engine, scaling the same schedules to D_9-D_11, and the array
  backend that records traces and profiler spans;
* a **replay backend** — the communication schedule compiled once (and
  cached) into a straight-line plan of permutations and masks, the
  fastest option on repeat runs at small sizes and the only one with
  per-cluster multiprocessing sharding.

Backend selection is declarative: every entry point dispatches through
:mod:`repro.core.backends`, where each backend registers its
capabilities (counters/trace/profiler/shards support, return shape)
exactly once.  All executions are cross-checked against each other and
against sequential oracles in the test suite.
"""

from repro.core.ops import (
    AssocOp,
    ADD,
    MUL,
    MIN,
    MAX,
    CONCAT,
    MATMUL2,
    combine_arrays,
    combine_into,
)
from repro.core.arrangement import (
    arranged_index,
    arranged_index_v,
    arrange,
    dearrange,
)
from repro.core.cube_prefix import (
    cube_prefix,
    cube_prefix_vec,
    cube_prefix_program,
)
from repro.core.dual_prefix import (
    dual_prefix,
    dual_prefix_program,
    dual_prefix_engine,
    dual_suffix_vec,
)
from repro.core.backends import (
    BackendSpec,
    backend_names,
    backend_spec,
    entry_points,
    resolve_backend,
)
from repro.core.bitonic import (
    is_bitonic,
    hypercube_bitonic_sort,
    hypercube_bitonic_sort_engine,
    hypercube_bitonic_sort_columnar,
    bitonic_schedule,
)
from repro.core.dual_sort import (
    dual_sort,
    dual_sort_engine,
    dual_sort_schedule,
    schedule_program,
    ScheduleStep,
)
from repro.core.large_inputs import (
    large_prefix,
    large_prefix_engine,
    large_sort,
)
from repro.core.columnar import (
    dual_prefix_columnar,
    execute_schedule_columnar,
    dual_sort_columnar,
    large_prefix_columnar,
    large_sort_columnar,
)
from repro.core.replay import (
    clear_plan_cache,
    dual_prefix_replay,
    dual_sort_replay,
    execute_schedule_replay,
    hypercube_bitonic_sort_replay,
    large_prefix_replay,
    large_sort_replay,
    plan_cache_stats,
    registry_from_plan_cache,
)
from repro.core.emulation import (
    emulated_cube_prefix,
    emulated_cube_prefix_vec,
    exchange_algorithm_program,
    run_exchange_algorithm_engine,
    run_exchange_algorithm_vec,
    emulation_comm_steps,
)
from repro.core.ring_sort import (
    ring_sort_engine,
    ring_sort_program,
    ring_sort_vec,
    ring_sort_steps,
)
from repro.core.sorting_networks import (
    bitonic_sort_network,
    odd_even_merge_sort_network,
    schedule_to_network,
    apply_network,
    network_depth,
    comparator_count,
    verify_zero_one,
    is_dimension_exchange_network,
)
from repro.core.run_faulty import FaultyRunResult, build_faulty_program, run_faulty
from repro.core.verify import (
    check_prefix,
    check_sorted,
    is_permutation_of,
    sequential_prefix,
)

__all__ = [
    "AssocOp",
    "ADD",
    "MUL",
    "MIN",
    "MAX",
    "CONCAT",
    "MATMUL2",
    "combine_arrays",
    "combine_into",
    "arranged_index",
    "arranged_index_v",
    "arrange",
    "dearrange",
    "cube_prefix",
    "cube_prefix_vec",
    "cube_prefix_program",
    "dual_prefix",
    "dual_prefix_program",
    "dual_prefix_engine",
    "dual_suffix_vec",
    "BackendSpec",
    "backend_names",
    "backend_spec",
    "entry_points",
    "resolve_backend",
    "is_bitonic",
    "hypercube_bitonic_sort",
    "hypercube_bitonic_sort_engine",
    "hypercube_bitonic_sort_columnar",
    "bitonic_schedule",
    "dual_sort",
    "dual_sort_engine",
    "dual_sort_schedule",
    "schedule_program",
    "ScheduleStep",
    "large_prefix",
    "large_prefix_engine",
    "large_sort",
    "dual_prefix_columnar",
    "execute_schedule_columnar",
    "dual_sort_columnar",
    "large_prefix_columnar",
    "large_sort_columnar",
    "clear_plan_cache",
    "dual_prefix_replay",
    "dual_sort_replay",
    "execute_schedule_replay",
    "hypercube_bitonic_sort_replay",
    "large_prefix_replay",
    "large_sort_replay",
    "plan_cache_stats",
    "registry_from_plan_cache",
    "emulated_cube_prefix",
    "emulated_cube_prefix_vec",
    "exchange_algorithm_program",
    "run_exchange_algorithm_engine",
    "run_exchange_algorithm_vec",
    "emulation_comm_steps",
    "ring_sort_engine",
    "ring_sort_program",
    "ring_sort_vec",
    "ring_sort_steps",
    "bitonic_sort_network",
    "odd_even_merge_sort_network",
    "schedule_to_network",
    "apply_network",
    "network_depth",
    "comparator_count",
    "verify_zero_one",
    "is_dimension_exchange_network",
    "FaultyRunResult",
    "build_faulty_program",
    "run_faulty",
    "check_prefix",
    "check_sorted",
    "is_permutation_of",
    "sequential_prefix",
]
