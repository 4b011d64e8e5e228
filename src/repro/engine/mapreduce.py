"""MapReduce stage compilation: the Hadoop substrate behind the paper.

The paper's prototype runs distributed joins as Hadoop jobs, and the
whole flat-plan discussion (MSC's motivation, Section IV) exists
because every MapReduce job pays a fixed startup overhead on top of its
data costs: fewer levels → fewer sequential job waves.  The cost model
of Table I deliberately omits that overhead; this module makes it
explicit so the trade-off can be studied:

* :func:`compile_stages` lowers a bushy plan onto MapReduce *stages* —
  every distributed join is one job; jobs whose inputs are ready run in
  the same wave (children of independent subtrees run concurrently,
  exactly the ``max`` in Eq. 3); local joins and scans ride along with
  the job that consumes them (map-side work);
* :class:`MapReduceSimulator` prices a schedule: per-wave sequential
  barrier, per-job startup overhead, plus the Table I data costs.

The ablation bench sweeps the startup overhead and shows the paper's
observation both ways: with large overheads the flattest plan (MSC)
wins; with small overheads the cost-optimal bushy plan (TD-CMD) wins —
"the flattest plan is not always the best plan".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..core.cost import CostParameters, PAPER_PARAMETERS
from ..core.plans import JoinAlgorithm, JoinNode, PlanNode, ScanNode
from .recovery import DEFAULT_RETRY_POLICY, RetryPolicy


@dataclass
class Stage:
    """One MapReduce job: a distributed join plus its map-side inputs."""

    job_id: int
    wave: int  # 0-based wave index; waves run sequentially
    algorithm: JoinAlgorithm
    arity: int
    input_cardinalities: List[float]
    output_cardinality: float

    def data_cost(self, parameters: CostParameters) -> float:
        """The job's Table I data cost (I/O + transfer + join)."""
        return parameters.operator_cost(
            self.algorithm, self.input_cardinalities, self.output_cardinality
        )


@dataclass
class MapReduceSchedule:
    """A plan lowered to waves of concurrent jobs."""

    stages: List[Stage] = field(default_factory=list)

    @property
    def job_count(self) -> int:
        """Total number of MapReduce jobs."""
        return len(self.stages)

    @property
    def wave_count(self) -> int:
        """Number of sequential job waves (the plan's 'levels')."""
        if not self.stages:
            return 0
        return max(stage.wave for stage in self.stages) + 1

    def jobs_in_wave(self, wave: int) -> List[Stage]:
        """The jobs scheduled in wave *wave*."""
        return [stage for stage in self.stages if stage.wave == wave]


def compile_stages(plan: PlanNode) -> MapReduceSchedule:
    """Lower a bushy plan to MapReduce stages.

    A node's wave = max(children's waves) + 1 for distributed joins;
    scans and local joins are wave −1 (map-side, no job of their own).
    """
    schedule = MapReduceSchedule()
    counter = [0]

    def lower(node: PlanNode) -> int:
        """Return the wave index after which *node*'s output is ready."""
        if isinstance(node, ScanNode):
            return -1
        assert isinstance(node, JoinNode)
        child_wave = -1
        for child in node.children:
            child_wave = max(child_wave, lower(child))
        if node.algorithm is JoinAlgorithm.LOCAL:
            # local joins piggyback on the consuming job's map phase
            return child_wave
        wave = child_wave + 1
        schedule.stages.append(
            Stage(
                job_id=counter[0],
                wave=wave,
                algorithm=node.algorithm,
                arity=node.arity,
                input_cardinalities=[c.cardinality for c in node.children],
                output_cardinality=node.cardinality,
            )
        )
        counter[0] += 1
        return wave

    lower(plan)
    return schedule


class MapReduceSimulator:
    """Price a schedule with per-job startup overhead and fault cost.

    ``makespan`` = Σ over waves of (startup + max *expected* job cost
    in the wave): jobs inside a wave run concurrently, waves are
    sequential — a faithful reduction of how Hadoop executes a bushy
    plan's levels.

    With ``fault_rate > 0`` each job's cost is inflated analytically:
    every attempt fails independently with probability ``fault_rate``
    and is retried under *retry_policy*, so the expected job cost is
    ``data_cost × E[attempts] + E[backoff]`` (both truncated at the
    policy's retry budget).  This is the closed-form counterpart of the
    executor's injected-fault measurements: deeper plans pay the fault
    tax once per wave on the critical path, which is the shape-vs-
    robustness trade-off `bench_fault_tolerance` sweeps.

    Prices with the *parameters* it is given (by default the paper's
    Table I / II constants), the same ones the executor prices measured
    counts with.
    """

    def __init__(
        self,
        parameters: CostParameters = PAPER_PARAMETERS,
        job_startup_cost: float = 0.0,
        fault_rate: float = 0.0,
        retry_policy: RetryPolicy = DEFAULT_RETRY_POLICY,
    ) -> None:
        if not 0.0 <= fault_rate < 1.0:
            raise ValueError(
                f"fault_rate must be in [0, 1) for expected-cost pricing, "
                f"got {fault_rate}"
            )
        self.parameters = parameters
        self.job_startup_cost = job_startup_cost
        self.fault_rate = fault_rate
        self.retry_policy = retry_policy

    def expected_job_cost(self, stage: Stage) -> float:
        """One job's data cost inflated by expected retries and backoff."""
        base = stage.data_cost(self.parameters)
        if self.fault_rate <= 0.0:
            return base
        return base * self.retry_policy.expected_attempts(
            self.fault_rate
        ) + self.retry_policy.expected_backoff(self.fault_rate)

    def makespan(self, schedule: MapReduceSchedule) -> float:
        """Σ over waves of (startup + max expected job cost in the wave)."""
        total = 0.0
        for wave in range(schedule.wave_count):
            jobs = schedule.jobs_in_wave(wave)
            total += self.job_startup_cost + max(
                self.expected_job_cost(job) for job in jobs
            )
        return total

    def simulate_plan(self, plan: PlanNode) -> Tuple[MapReduceSchedule, float]:
        """Compile *plan* to stages and price its makespan."""
        schedule = compile_stages(plan)
        return schedule, self.makespan(schedule)


@dataclass(frozen=True)
class CrossoverAnalysis:
    """Which plan wins as the per-job startup overhead ``o`` grows.

    Compares ``flat_data + o·flat_waves`` against
    ``bushy_data + o·bushy_waves`` over ``o ≥ 0``:

    * ``flat_always_wins`` — flat's makespan never exceeds bushy's;
    * ``flat_never_wins`` — flat never strictly beats bushy;
    * otherwise ``crossover`` is the overhead where the winner flips —
      flat wins *above* it when it is the flatter plan
      (``wave_difference > 0``) and *below* it when it is the deeper
      plan.

    This replaces the old scalar API's conflation of "flat never wins"
    with "flat always wins" (both returned ``None``).
    """

    flat_data: float
    bushy_data: float
    flat_waves: int
    bushy_waves: int
    crossover: Optional[float]
    flat_always_wins: bool
    flat_never_wins: bool

    @property
    def wave_difference(self) -> int:
        """``bushy_waves − flat_waves`` (> 0 when flat is flatter)."""
        return self.bushy_waves - self.flat_waves

    def describe(self) -> str:
        """A one-cell human-readable verdict for reports."""
        if self.flat_always_wins:
            return "flat always wins"
        if self.flat_never_wins:
            return "flat never wins"
        side = "above" if self.wave_difference > 0 else "below"
        return f"flat wins {side} o={self.crossover:.1f}"


def overhead_crossover_analysis(
    flat_plan: PlanNode,
    bushy_plan: PlanNode,
    parameters: CostParameters = PAPER_PARAMETERS,
) -> CrossoverAnalysis:
    """Full win/lose analysis of *flat_plan* vs *bushy_plan* over ``o ≥ 0``."""
    flat = compile_stages(flat_plan)
    bushy = compile_stages(bushy_plan)
    simulator = MapReduceSimulator(parameters, job_startup_cost=0.0)
    flat_data = simulator.makespan(flat) if flat.stages else 0.0
    bushy_data = simulator.makespan(bushy) if bushy.stages else 0.0
    wave_difference = bushy.wave_count - flat.wave_count
    crossover: Optional[float] = None
    if wave_difference == 0:
        # parallel makespan lines: the data costs decide at every o
        always = flat_data < bushy_data
        never = not always
    elif wave_difference > 0:
        # flat is flatter: it wins at large o, so it either always wins
        # or starts winning at the intersection point
        point = (flat_data - bushy_data) / wave_difference
        if point <= 0.0:
            always, never = True, False
        else:
            always, never, crossover = False, False, point
    else:
        # flat is the *deeper* plan: overhead only hurts it, so it wins
        # at most on a bounded prefix of o values
        if flat_data >= bushy_data:
            always, never = False, True
        else:
            always, never = False, False
            crossover = (flat_data - bushy_data) / wave_difference
    return CrossoverAnalysis(
        flat_data=flat_data,
        bushy_data=bushy_data,
        flat_waves=flat.wave_count,
        bushy_waves=bushy.wave_count,
        crossover=crossover,
        flat_always_wins=always,
        flat_never_wins=never,
    )


def overhead_crossover(
    flat_plan: PlanNode,
    bushy_plan: PlanNode,
    parameters: CostParameters = PAPER_PARAMETERS,
) -> Optional[float]:
    """The job-startup cost at which *flat_plan* starts beating *bushy_plan*.

    Backwards-compatible scalar view of
    :func:`overhead_crossover_analysis`: returns ``None`` whenever the
    flat plan is not strictly flatter (which covers both "flat never
    wins" *and* "flat always wins because its data cost is lower" —
    the two cases the analysis object distinguishes), ``0.0`` when the
    flatter flat plan wins at every overhead, and the break-even
    overhead otherwise.
    """
    analysis = overhead_crossover_analysis(flat_plan, bushy_plan, parameters)
    if analysis.wave_difference <= 0:
        return None  # the flat plan is not actually flatter
    if analysis.crossover is None:
        return 0.0  # flat always wins
    return analysis.crossover
