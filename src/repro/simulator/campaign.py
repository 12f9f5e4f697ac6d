"""Randomized SLO fault campaigns over dynamic fault plans.

The static half of the fault story (``repro.analysis.static.faults``)
proves exact minimal crash/cut sets against recovery predicates, but it
deliberately refuses *dynamic* plans — transient drops/delays and the
downtime intervals behind churn, correlated whole-cluster outages, and
rolling restarts — whose effect depends on runtime timing.  This module
is the dynamic half:

* **schedule generators** — :func:`churn_downtimes` (seeded random
  join/leave events), :func:`cluster_outage` (every member of one
  dual-cube cluster down for a shared window) and
  :func:`rolling_restart` (a staggered sweep of cluster outages covering
  the whole machine) all return ``(rank, start, end)`` downtime triples
  for :class:`~repro.simulator.faults.FaultPlan`;

* **SLO predicates** — availability (fraction of arrivals not dropped,
  checked on the final stats *and* every checkpoint interval of a
  serving run), p99 sojourn under fault, and result correctness of the
  real lockstep collectives versus the fault-free oracle
  (``run_faulty(mode="retry")``), plus the recovery predicate
  (all healthy ranks included after degraded recovery) whose static
  twin is proven exact by Menger;

* **the campaign engine** — :func:`run_campaign` draws seeded random
  fault sets from a per-SLO candidate universe, and when one violates
  the SLO, greedily shrinks it to a locally minimal violating set
  (element removal in deterministic order — the classic
  minimal-hitting-set shrink).  Every violation is triaged through the
  static analyzer: the plan's structural over-approximation (a downtime
  becomes a crash at its start cycle) runs through
  ``analyze_fault_impact`` and ``FaultImpact.diagnose()``, attaching the
  deadlock/orphan class and blast radius to the report.  For the
  structural-only recovery SLO the campaign cross-checks itself against
  the proven-exact static cut: a dynamic answer *smaller* than the
  exact minimum is a soundness bug and raises :class:`CampaignError`.

Everything is deterministic under a fixed seed — same seed, same
topology, byte-identical JSON report — which is what lets
``repro campaign --smoke`` gate the report schema in CI.
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.simulator.errors import SimulationError
from repro.simulator.faults import FaultPlan, StaticFaultView
from repro.simulator.serving import (
    ServingConfig,
    open_loop_pairs,
    poisson_arrivals,
    run_serving,
)
from repro.topology.dualcube import DualCube

__all__ = [
    "CAMPAIGN_SCHEMA",
    "CampaignError",
    "SLO",
    "Triage",
    "CampaignViolation",
    "CrossCheck",
    "CampaignResult",
    "churn_downtimes",
    "cluster_outage",
    "rolling_restart",
    "plan_from_elements",
    "structural_overapproximation",
    "default_slos",
    "run_campaign",
    "validate_report",
]

CAMPAIGN_SCHEMA = 1

_SLO_KINDS = ("availability", "p99", "correctness", "recovery")

# Frozen key sets of the JSON report — ``repro campaign --smoke`` fails
# CI when a report stops matching them (schema drift).
REPORT_KEYS = frozenset(
    {
        "schema",
        "topology",
        "num_nodes",
        "seed",
        "trials",
        "evaluations",
        "slos",
        "violations",
        "cross_checks",
        "ok",
    }
)
VIOLATION_KEYS = frozenset(
    {"slo", "kind", "threshold", "observed", "elements", "size", "trial",
     "triage"}
)
TRIAGE_KEYS = frozenset(
    {"classes", "blast_radius", "dead", "blocked", "tainted",
     "lost_messages"}
)
CROSS_CHECK_KEYS = frozenset(
    {"slo", "dynamic_size", "static_size", "static_exact", "ok"}
)


class CampaignError(RuntimeError):
    """A campaign invariant failed (e.g. a dynamic minimal violating set
    smaller than the proven-exact static cut — a soundness bug)."""


# -- downtime schedule generators ----------------------------------------------


def churn_downtimes(
    dc: DualCube,
    *,
    events: int,
    duration: int,
    horizon: int,
    seed: int = 0,
) -> list[tuple[int, int, int]]:
    """Seeded random churn: ``events`` leave/rejoin episodes.

    Each episode picks a node and a start cycle in ``1..horizon`` and
    takes the node offline for ``duration`` cycles.  Episodes landing on
    a rank that is already down at an overlapping window are re-rolled
    (downtime intervals per rank may not overlap), so the schedule is
    always a valid :class:`~repro.simulator.faults.FaultPlan` input.

    Best-effort on saturation: when the re-roll loop cannot place more
    non-overlapping episodes (every node is already down everywhere the
    draws land), the schedule is truncated to what fit and a
    :class:`RuntimeWarning` is emitted — check ``len(result)`` against
    ``events`` if the experiment requires the full count.
    """
    if events < 0:
        raise ValueError(f"events must be >= 0, got {events}")
    if duration < 1:
        raise ValueError(f"duration must be >= 1, got {duration}")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    rng = random.Random(0xC0FFEE ^ (seed * 0x9E3779B1))
    spans: dict[int, list[tuple[int, int]]] = {}
    out: list[tuple[int, int, int]] = []
    attempts = 0
    while len(out) < events:
        attempts += 1
        if attempts > 100 * max(1, events):
            warnings.warn(
                f"churn_downtimes saturated: placed {len(out)} of "
                f"{events} requested episodes (duration={duration}, "
                f"horizon={horizon}, {dc.num_nodes} nodes)",
                RuntimeWarning,
                stacklevel=2,
            )
            break
        rank = rng.randrange(dc.num_nodes)
        start = rng.randint(1, horizon)
        end = start + duration
        if any(s < end and start < e for s, e in spans.get(rank, ())):
            continue
        spans.setdefault(rank, []).append((start, end))
        out.append((rank, start, end))
    return sorted(out)


def cluster_outage(
    dc: DualCube, cls: int, cluster: int, start: int, end: int
) -> list[tuple[int, int, int]]:
    """Correlated outage: every member of one cluster down for a window.

    The dual-cube's cluster is the natural failure domain — one rack /
    one power feed in the deployment reading — so a correlated outage is
    ``nodes_per_cluster`` synchronized downtime triples.
    """
    members = dc.cluster_members(cls, cluster)
    return [(r, start, end) for r in members]


def rolling_restart(
    dc: DualCube,
    *,
    duration: int,
    stagger: int | None = None,
    start: int = 1,
) -> list[tuple[int, int, int]]:
    """Rolling-restart sweep: every cluster restarts once, staggered.

    Clusters restart in class-major order (class 0's clusters, then
    class 1's), each ``stagger`` cycles after the previous (default:
    ``duration``, i.e. back-to-back with no overlap — the classic safe
    rolling deploy).  Returns the downtime triples covering the whole
    machine.
    """
    if stagger is None:
        stagger = duration
    if stagger < 1 or duration < 1:
        raise ValueError("duration and stagger must be >= 1")
    out: list[tuple[int, int, int]] = []
    wave = 0
    for cls in range(2):
        for cluster in range(dc.clusters_per_class):
            s = start + wave * stagger
            out.extend(cluster_outage(dc, cls, cluster, s, s + duration))
            wave += 1
    return out


# -- fault elements (the campaign's search currency) ---------------------------
#
# The static minimal-cut search trades in ("node", r) / ("link", (u, v))
# elements; the campaign extends the currency with the dynamic kinds:
#   ("down",   (rank, start, end))          one downtime interval
#   ("outage", (cls, cluster, start, end))  one correlated cluster outage


def _coalesce_downtimes(
    downs: Iterable[tuple[int, int, int]]
) -> list[tuple[int, int, int]]:
    """Merge overlapping/adjacent per-rank downtime spans into their union.

    Fault elements are drawn independently, so a probe can hold two
    ``down`` spans for the same rank (or a ``down`` plus a covering
    ``outage``) whose windows overlap.  The *union* of the windows is
    exactly what such a set denotes, and :class:`FaultPlan` rejects raw
    overlapping intervals, so coalesce before constructing the plan.
    """
    per_rank: dict[int, list[tuple[int, int]]] = {}
    for r, s, e in downs:
        per_rank.setdefault(r, []).append((s, e))
    out: list[tuple[int, int, int]] = []
    for r, spans in per_rank.items():
        spans.sort()
        cur_s, cur_e = spans[0]
        for s, e in spans[1:]:
            if s <= cur_e:  # overlapping or adjacent: extend the union
                cur_e = max(cur_e, e)
            else:
                out.append((r, cur_s, cur_e))
                cur_s, cur_e = s, e
        out.append((r, cur_s, cur_e))
    return sorted(out)


def plan_from_elements(
    dc: DualCube,
    elements: Iterable[tuple],
    *,
    seed: int = 0,
    max_retries: int = 6,
    timeout: int | None = None,
    on_timeout: str = "raise",
) -> FaultPlan:
    """Build the :class:`FaultPlan` a set of fault elements denotes."""
    crashes: dict[int, int] = {}
    cuts: dict[tuple[int, int], int] = {}
    downs: list[tuple[int, int, int]] = []
    for kind, payload in elements:
        if kind == "node":
            crashes[int(payload)] = 1
        elif kind == "link":
            u, v = payload
            cuts[(int(u), int(v))] = 1
        elif kind == "down":
            r, s, e = payload
            downs.append((int(r), int(s), int(e)))
        elif kind == "outage":
            cls, cluster, s, e = payload
            downs.extend(cluster_outage(dc, cls, cluster, s, e))
        else:
            raise ValueError(
                f"fault element kind must be node/link/down/outage, "
                f"got {kind!r}"
            )
    return FaultPlan(
        node_crashes=crashes,
        link_cuts=cuts,
        downtimes=_coalesce_downtimes(downs),
        seed=seed,
        max_retries=max_retries,
        timeout=timeout,
        on_timeout=on_timeout,
    )


def structural_overapproximation(
    dc: DualCube, elements: Iterable[tuple]
) -> StaticFaultView:
    """Project fault elements onto a static view the analyzer accepts.

    Crashes and cuts carry over unchanged; a downtime (or each member of
    a cluster outage) is *over-approximated* as a crash at its start
    cycle — pessimistic (the node never rejoins) but sound for triage:
    every rank the real outage can block is blocked in the
    approximation.
    """
    crashes: dict[int, int] = {}
    cuts: dict[tuple[int, int], int] = {}
    for kind, payload in elements:
        if kind == "node":
            crashes[int(payload)] = 1
        elif kind == "link":
            u, v = payload
            cuts[(min(int(u), int(v)), max(int(u), int(v)))] = 1
        elif kind == "down":
            r, s, _ = payload
            crashes[int(r)] = min(crashes.get(int(r), int(s)), int(s))
        elif kind == "outage":
            cls, cluster, s, _ = payload
            for r in dc.cluster_members(cls, cluster):
                crashes[r] = min(crashes.get(r, int(s)), int(s))
        else:
            raise ValueError(f"unknown fault element kind {kind!r}")
    return StaticFaultView(
        crashes=tuple(sorted(crashes.items())),
        cuts=tuple(sorted(cuts.items())),
    )


# -- SLOs ----------------------------------------------------------------------


@dataclass(frozen=True)
class SLO:
    """One service-level objective the campaign attacks.

    ``kind`` selects the evaluation:

    * ``"availability"`` — fraction of arrivals *not* dropped must stay
      >= ``threshold``, on the run total and on every checkpoint
      interval of the serving timeline;
    * ``"p99"`` — the serving p99 sojourn must stay <= ``threshold``;
    * ``"correctness"`` — ``run_faulty(mode="retry")`` under the plan
      must complete and equal the fault-free oracle (``threshold``
      unused);
    * ``"recovery"`` — every healthy rank must be included after
      ``run_faulty(mode="degraded")`` recovery (``threshold`` unused);
      structural candidates only, cross-checked against the
      proven-exact static cut.
    """

    name: str
    kind: str
    threshold: float | None = None

    def __post_init__(self):
        if self.kind not in _SLO_KINDS:
            raise ValueError(
                f"SLO kind must be one of {_SLO_KINDS}, got {self.kind!r}"
            )


def default_slos(
    *,
    availability: float = 0.8,
    p99_factor: float = 3.0,
) -> tuple[SLO, ...]:
    """The stock SLO family (p99 threshold resolved from the baseline).

    ``p99`` ships with ``threshold=None`` — :func:`run_campaign` fills
    in ``p99_factor * baseline_p99 + 3`` after measuring the fault-free
    workload, so the bound adapts to the topology and workload.
    """
    return (
        SLO("availability", "availability", availability),
        SLO("p99_sojourn", "p99", None),
        SLO("result_correctness", "correctness"),
        SLO("recovery_all_included", "recovery"),
    )


# -- report records ------------------------------------------------------------


@dataclass(frozen=True)
class Triage:
    """Static diagnosis of one violation's structural over-approximation."""

    classes: tuple[str, ...]
    blast_radius: tuple[int, ...]
    dead: tuple[int, ...]
    blocked: tuple[int, ...]
    tainted: tuple[int, ...]
    lost_messages: int

    def to_dict(self) -> dict:
        return {
            "classes": list(self.classes),
            "blast_radius": list(self.blast_radius),
            "dead": list(self.dead),
            "blocked": list(self.blocked),
            "tainted": list(self.tainted),
            "lost_messages": self.lost_messages,
        }


@dataclass(frozen=True)
class CampaignViolation:
    """One locally minimal fault set that violates an SLO."""

    slo: str
    kind: str
    threshold: float | None
    observed: float | str
    elements: tuple
    trial: int
    triage: Triage

    @property
    def size(self) -> int:
        return len(self.elements)

    def to_dict(self) -> dict:
        return {
            "slo": self.slo,
            "kind": self.kind,
            "threshold": self.threshold,
            "observed": self.observed,
            "elements": [_element_json(e) for e in self.elements],
            "size": self.size,
            "trial": self.trial,
            "triage": self.triage.to_dict(),
        }


@dataclass(frozen=True)
class CrossCheck:
    """Dynamic-vs-static minimality comparison for one structural SLO."""

    slo: str
    dynamic_size: int | None
    static_size: int | None
    static_exact: bool
    ok: bool

    def to_dict(self) -> dict:
        return {
            "slo": self.slo,
            "dynamic_size": self.dynamic_size,
            "static_size": self.static_size,
            "static_exact": self.static_exact,
            "ok": self.ok,
        }


@dataclass(frozen=True)
class CampaignResult:
    """Everything one campaign run found, JSON- and table-renderable."""

    topology: str
    num_nodes: int
    seed: int
    trials: int
    evaluations: int
    slos: tuple[SLO, ...]
    violations: tuple[CampaignViolation, ...]
    cross_checks: tuple[CrossCheck, ...]

    @property
    def ok(self) -> bool:
        """All cross-checks passed (violations themselves are findings,
        not failures)."""
        return all(c.ok for c in self.cross_checks)

    def to_dict(self) -> dict:
        return {
            "schema": CAMPAIGN_SCHEMA,
            "topology": self.topology,
            "num_nodes": self.num_nodes,
            "seed": self.seed,
            "trials": self.trials,
            "evaluations": self.evaluations,
            "slos": [
                {"name": s.name, "kind": s.kind, "threshold": s.threshold}
                for s in self.slos
            ],
            "violations": [v.to_dict() for v in self.violations],
            "cross_checks": [c.to_dict() for c in self.cross_checks],
            "ok": self.ok,
        }

    def render_table(self) -> str:
        lines = [
            f"campaign on {self.topology} ({self.num_nodes} nodes), "
            f"seed {self.seed}, {self.trials} trials/SLO, "
            f"{self.evaluations} evaluations:"
        ]
        if not self.violations:
            lines.append("  no SLO violations found")
        for v in self.violations:
            thr = "-" if v.threshold is None else f"{v.threshold:g}"
            obs = (
                v.observed if isinstance(v.observed, str)
                else f"{v.observed:g}"
            )
            els = ", ".join(_element_str(e) for e in v.elements)
            classes = ",".join(v.triage.classes) or "none"
            lines.append(
                f"  {v.slo}: size-{v.size} set [{els}] "
                f"(threshold {thr}, observed {obs})"
            )
            lines.append(
                f"    triage: {classes}; blast radius "
                f"{len(v.triage.blast_radius)} rank(s)"
            )
        for c in self.cross_checks:
            tag = "ok" if c.ok else "SOUNDNESS BUG"
            exact = "exact" if c.static_exact else "bound"
            lines.append(
                f"  cross-check {c.slo}: dynamic {c.dynamic_size} vs "
                f"static {c.static_size} ({exact}) -> {tag}"
            )
        return "\n".join(lines)


def _element_json(e: tuple) -> list:
    kind, payload = e
    return [kind, list(payload) if isinstance(payload, tuple) else payload]


def _element_str(e: tuple) -> str:
    kind, payload = e
    return f"{kind}:{payload}"


def validate_report(report: dict) -> list[str]:
    """Schema-drift check of a campaign JSON report; returns problems.

    Used by ``repro campaign --smoke`` (nonzero exit on any finding):
    the top-level, violation, triage and cross-check key sets must match
    the frozen constants exactly, and the schema version must be
    :data:`CAMPAIGN_SCHEMA`.
    """
    problems: list[str] = []

    def check(name: str, got: dict, want: frozenset) -> None:
        keys = set(got)
        if keys != want:
            missing = sorted(want - keys)
            extra = sorted(keys - want)
            problems.append(
                f"{name}: keys drifted (missing {missing}, extra {extra})"
            )

    check("report", report, REPORT_KEYS)
    if report.get("schema") != CAMPAIGN_SCHEMA:
        problems.append(
            f"report: schema {report.get('schema')!r} != {CAMPAIGN_SCHEMA}"
        )
    for i, v in enumerate(report.get("violations", ())):
        check(f"violations[{i}]", v, VIOLATION_KEYS)
        if isinstance(v, dict) and isinstance(v.get("triage"), dict):
            check(f"violations[{i}].triage", v["triage"], TRIAGE_KEYS)
    for i, c in enumerate(report.get("cross_checks", ())):
        check(f"cross_checks[{i}]", c, CROSS_CHECK_KEYS)
    return problems


# -- SLO evaluation ------------------------------------------------------------


class _Evaluator:
    """Evaluates ``violated(slo, elements)`` against one fixed workload.

    The serving workload (arrivals, pairs, horizon, checkpoints) and the
    lockstep oracle are built once, so every probe of the campaign sees
    the same world and verdicts are pure functions of the fault set.
    Two things follow.  The workload is routed once: each distinct pair
    is routed when the evaluator is built, and ``router`` looks its path
    up in that table.  And verdicts are memoized per ``(slo, elements)``,
    so a probe the shrink revisits is not simulated again; every request
    still counts toward :attr:`evaluations`, memo hits included.
    """

    def __init__(
        self,
        dc: DualCube,
        *,
        seed: int,
        requests_per_node: int,
        correctness_timeout: int,
    ):
        from repro.core.ops import ADD
        from repro.core.run_faulty import run_faulty
        from repro.routing.dualcube_routing import route

        self.dc = dc
        self.seed = seed
        self.correctness_timeout = correctness_timeout
        self.evaluations = 0
        self._run_faulty = run_faulty
        self._op = ADD

        n = dc.num_nodes
        requests = requests_per_node * n
        rate = 0.3 * n
        self.arrivals = poisson_arrivals(rate, requests, seed)
        self.pairs = open_loop_pairs(dc, requests, seed)
        table = {pair: route(dc, *pair) for pair in dict.fromkeys(self.pairs)}
        self.router = lambda u, v: table[(u, v)]
        self._verdicts: dict[tuple[SLO, tuple], tuple[bool, float | str]] = {}
        horizon = float(math.ceil(float(self.arrivals[-1])) + 10)
        self.horizon = horizon
        self.config = ServingConfig(
            horizon=horizon, checkpoint_every=max(2.0, horizon / 8.0)
        )
        # Downtime / outage window used by the dynamic candidates.
        self.w0 = max(1, int(horizon * 0.25))
        self.w1 = max(self.w0 + 1, int(horizon * 0.6))

        self.data = list(range(n))
        self.oracle = run_faulty(
            "prefix", dc, self.data, op=ADD, plan=FaultPlan(), mode="retry"
        ).values
        self.baseline = self._serve(None)

    def _serve(self, plan: FaultPlan | None):
        return run_serving(
            self.dc,
            self.router,
            self.arrivals,
            self.pairs,
            config=self.config,
            fault_plan=plan,
        )

    # Per-kind verdicts ---------------------------------------------------

    def _availability(self, stats) -> float:
        """Worst not-dropped fraction over the total and every
        checkpoint interval (the trailing post-fix intervals included)."""
        worst = 1.0
        if stats.arrivals:
            worst = (stats.arrivals - stats.drops) / stats.arrivals
        prev_a = prev_d = 0
        for cp in stats.checkpoints:
            da = cp.arrivals - prev_a
            dd = cp.drops - prev_d
            prev_a, prev_d = cp.arrivals, cp.drops
            if da > 0:
                # Retransmission drops can land in a later interval than
                # their arrival, so clamp: 0 means "everything lost".
                worst = min(worst, max(0.0, (da - dd) / da))
        return worst

    def violated(self, slo: SLO, elements: tuple) -> tuple[bool, float | str]:
        """Whether ``elements`` violates ``slo``; returns the observation."""
        self.evaluations += 1
        key = (slo, elements)
        verdict = self._verdicts.get(key)
        if verdict is None:
            verdict = self._verdicts[key] = self._judge(slo, elements)
        return verdict

    def _judge(self, slo: SLO, elements: tuple) -> tuple[bool, float | str]:
        if slo.kind == "availability":
            plan = plan_from_elements(self.dc, elements, seed=self.seed)
            avail = self._availability(self._serve(plan))
            return avail < slo.threshold, avail
        if slo.kind == "p99":
            plan = plan_from_elements(self.dc, elements, seed=self.seed)
            p99 = self._serve(plan).p99
            return p99 > slo.threshold, p99
        if slo.kind == "correctness":
            plan = plan_from_elements(
                self.dc,
                elements,
                seed=self.seed,
                timeout=self.correctness_timeout,
                on_timeout="raise",
            )
            try:
                out = self._run_faulty(
                    "prefix", self.dc, self.data, op=self._op,
                    plan=plan, mode="retry",
                ).values
            except SimulationError as exc:  # timeout/retry-limit/deadlock
                return True, type(exc).__name__
            return out != self.oracle, "mismatch" if out != self.oracle else "match"
        # recovery: structural elements only, degraded collective.
        from repro.analysis.static.faults import fault_set_of

        fs = fault_set_of(elements)
        result = self._run_faulty(
            "prefix", self.dc, self.data, op=self._op,
            faults=fs, mode="degraded",
        )
        excluded_healthy = [
            r for r in result.excluded if r not in fs.nodes
        ]
        return bool(excluded_healthy), float(len(excluded_healthy))

    def seeds(self, slo: SLO) -> tuple[tuple, ...]:
        """Deterministic seed probes tried before the random draws.

        The recovery SLO gets whole-neighborhood crash sets (crashing
        every neighbor of a rank always disconnects it), the same upper
        bound the static ``minimal_cut`` search seeds itself with — the
        shrink pass then works the set down toward kappa(G).
        """
        if slo.kind != "recovery":
            return ()
        return tuple(
            tuple(sorted(("node", v) for v in self.dc.neighbors(r)))
            for r in (0, self.dc.num_nodes // 2)
        )

    # Candidate universes -------------------------------------------------

    def candidates(self, slo: SLO) -> tuple[tuple, ...]:
        dc = self.dc
        n = dc.num_nodes
        if slo.kind == "availability":
            els: list[tuple] = [("node", r) for r in range(n)]
            for cls in range(2):
                for cluster in range(dc.clusters_per_class):
                    els.append(("outage", (cls, cluster, self.w0, self.w1)))
            els.extend(
                ("down", (r, self.w0, self.w1)) for r in range(n)
            )
            return tuple(els)
        if slo.kind == "p99":
            els = [("link", e) for e in sorted(_edges(dc))]
            els.extend(("down", (r, self.w0, self.w1)) for r in range(n))
            return tuple(els)
        if slo.kind == "correctness":
            long_end = 2 + self.correctness_timeout + 2
            els = [("down", (r, 2, long_end)) for r in range(n)]
            els.extend(("down", (r, 3, 4)) for r in range(n))
            return tuple(els)
        return tuple(("node", r) for r in range(n))


def _edges(dc: DualCube) -> set[tuple[int, int]]:
    return {
        (min(u, v), max(u, v))
        for u in range(dc.num_nodes)
        for v in dc.neighbors(u)
    }


# -- triage --------------------------------------------------------------------


def _triage(dc: DualCube, elements: tuple) -> Triage:
    """Classify a violation through the static analyzer.

    The structural over-approximation of the fault set runs through the
    fault-aware abstract interpreter on the prefix collective's schedule
    (the representative lockstep workload), and
    :meth:`FaultImpact.diagnose` names the hang class — ``deadlock``,
    ``orphan``, ``stall`` … — that a blocked operator would see.
    """
    from repro.analysis.static import analyze_fault_impact, extract_schedule
    from repro.core.dual_prefix import dual_prefix_program
    from repro.core.ops import ADD

    view = structural_overapproximation(dc, elements)
    schedule = extract_schedule(
        dc, dual_prefix_program(dc, list(range(dc.num_nodes)), ADD)
    )
    impact = analyze_fault_impact(schedule, view)
    classes = tuple(sorted({v.code for v in impact.diagnose()}))
    return Triage(
        classes=classes,
        blast_radius=impact.blast_radius,
        dead=impact.dead,
        blocked=impact.blocked,
        tainted=impact.tainted,
        lost_messages=len(impact.lost),
    )


# -- the campaign engine -------------------------------------------------------


def _shrink(
    evaluator: _Evaluator, slo: SLO, elements: tuple, observed
) -> tuple[tuple, float | str]:
    """Greedy minimal-hitting-set shrink: drop elements while the
    violation persists (deterministic order, first-to-fixpoint)."""
    cur = list(elements)
    changed = True
    while changed:
        changed = False
        for e in sorted(cur):
            if len(cur) == 1:
                break
            candidate = tuple(x for x in cur if x != e)
            bad, obs = evaluator.violated(slo, candidate)
            if bad:
                cur.remove(e)
                observed = obs
                changed = True
    return tuple(sorted(cur)), observed


def run_campaign(
    dc: DualCube | int,
    *,
    seed: int = 0,
    trials: int = 8,
    max_probe: int = 3,
    requests_per_node: int = 20,
    correctness_timeout: int = 5,
    slos: Sequence[SLO] | None = None,
    availability: float = 0.8,
    p99_factor: float = 3.0,
) -> CampaignResult:
    """Search for the smallest fault sets violating each SLO.

    Per SLO: ``trials`` seeded random probes draw 1..``max_probe``
    elements from the SLO's candidate universe; each violating draw is
    greedily shrunk to a locally minimal violating set, and the smallest
    one found is reported with its static triage.  For the structural
    ``recovery`` SLO the result is cross-checked against the
    proven-exact static node cut — a dynamic answer smaller than the
    exact minimum raises :class:`CampaignError`.

    Deterministic: same arguments, byte-identical
    :meth:`CampaignResult.to_dict`.
    """
    if isinstance(dc, int):
        dc = DualCube(dc)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if max_probe < 1:
        raise ValueError(f"max_probe must be >= 1, got {max_probe}")

    evaluator = _Evaluator(
        dc,
        seed=seed,
        requests_per_node=requests_per_node,
        correctness_timeout=correctness_timeout,
    )
    if slos is None:
        slos = default_slos(availability=availability, p99_factor=p99_factor)
    # Resolve workload-relative thresholds from the fault-free baseline.
    resolved: list[SLO] = []
    for s in slos:
        if s.kind == "p99" and s.threshold is None:
            resolved.append(
                SLO(s.name, s.kind, p99_factor * evaluator.baseline.p99 + 3.0)
            )
        else:
            resolved.append(s)

    violations: list[CampaignViolation] = []
    cross_checks: list[CrossCheck] = []
    for idx, slo in enumerate(resolved):
        rng = random.Random((seed * 0x9E3779B1 + idx * 0x85EBCA77) & (2**63 - 1))
        universe = evaluator.candidates(slo)
        probes = list(evaluator.seeds(slo))
        for _ in range(trials):
            k = rng.randint(1, min(max_probe, len(universe)))
            probes.append(
                tuple(
                    sorted(
                        universe[i]
                        for i in rng.sample(range(len(universe)), k)
                    )
                )
            )
        best: tuple[tuple, float | str, int] | None = None
        for trial, probe in enumerate(probes):
            bad, observed = evaluator.violated(slo, probe)
            if not bad:
                continue
            minimal, observed = _shrink(evaluator, slo, probe, observed)
            if best is None or len(minimal) < len(best[0]):
                best = (minimal, observed, trial)
                if len(minimal) == 1:
                    break  # cannot shrink below one element
        if best is not None:
            minimal, observed, trial = best
            violations.append(
                CampaignViolation(
                    slo=slo.name,
                    kind=slo.kind,
                    threshold=slo.threshold,
                    observed=observed,
                    elements=minimal,
                    trial=trial,
                    triage=_triage(dc, minimal),
                )
            )
        if slo.kind == "recovery":
            cross_checks.append(
                _cross_check_recovery(
                    dc, slo.name,
                    None if best is None else len(best[0]),
                )
            )

    result = CampaignResult(
        topology=dc.name,
        num_nodes=dc.num_nodes,
        seed=seed,
        trials=trials,
        evaluations=evaluator.evaluations,
        slos=tuple(resolved),
        violations=tuple(violations),
        cross_checks=tuple(cross_checks),
    )
    if not result.ok:
        bad = [c for c in result.cross_checks if not c.ok]
        raise CampaignError(
            f"dynamic campaign beat the proven-exact static cut: {bad} — "
            f"the dynamic search or the engine's fault semantics is unsound"
        )
    return result


def _cross_check_recovery(
    dc: DualCube, slo_name: str, dynamic_size: int | None
) -> CrossCheck:
    """Compare the campaign's recovery answer with the static exact cut.

    ``structural_node_cut`` is proven exact (Menger max-flow witnesses),
    so a *smaller* dynamic answer is impossible unless something is
    unsound; equal or larger (or no dynamic find at all) is fine — the
    randomized probe has no exactness guarantee.
    """
    from repro.analysis.static.faults import structural_node_cut

    static = structural_node_cut(dc, mode="degraded")
    ok = (
        dynamic_size is None
        or static.size is None
        or not static.exact
        or dynamic_size >= static.size
    )
    return CrossCheck(
        slo=slo_name,
        dynamic_size=dynamic_size,
        static_size=static.size,
        static_exact=static.exact,
        ok=ok,
    )
