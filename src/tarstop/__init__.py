"""Stopping-point decisions for ranked screening workloads.

The package models the occurrence of relevant documents down a ranking
with declining rate curves, turns fitted curves into count distributions
for the unscreened remainder, and stops screening once the target share
of the estimated total has been found. Sampling, knee, and hindsight
baselines plus the standard evaluation metrics round out the toolkit.
"""

from .baselines import (
    KneeConfig,
    TargetConfig,
    adapted_target_size,
    knee_stop,
    oracle_stop,
    target_stop,
)
from .corpus import (
    RankedTopic,
    SyntheticSpec,
    generate_synthetic,
    join,
    join_all,
    parse_qrels,
    parse_run,
)
from .estimates import (
    ProcessKind,
    RemainingEstimate,
    estimate_remaining_cox,
    estimate_remaining_ip,
    poisson_pmf,
    poisson_quantile,
)
from .metrics import (
    CollectionMetrics,
    TopicMetrics,
    aggregate,
    mean_remaining_error,
    ranking_effectiveness,
    remaining_error,
    topic_metrics,
)
from .rates import (
    RateCurve,
    RateKind,
    RateParams,
    WindowedEstimates,
    fit_rate,
    nrmse,
    rate_integral,
    rate_value,
    window_estimates,
)
from .stopping import (
    BatchSchedule,
    DynamicMinRel,
    Gate,
    IterationTrace,
    StaticMinRel,
    StoppingConfig,
    StoppingOutcome,
    checkpoints,
    run_stopping,
    stop_decision,
)

__version__ = "0.1.0"
