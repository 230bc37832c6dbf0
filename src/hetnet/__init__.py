"""Sparse nodal-attribute models for heterogeneity in directed count networks.

Fits paired skip-layer networks, one for sender effects and one for
receiver effects, to a Poisson edge-count model, selecting the relevant
node attributes through a hierarchical L1 penalty.  Includes classical
baselines, a simulation benchmark harness, and Shapley attribution for
fitted models.
"""

from .netdata import (
    NetworkDataError,
    CountNetwork,
    AttributeMatrix,
    load_edge_list,
    load_attributes,
    write_edge_list,
    write_attributes,
)
from .skipnet import (
    Layer,
    SkipLayerNet,
    NetGradients,
    forward_batch,
    init_net,
    net_to_json_dict,
    net_from_json_dict,
)
from .objective import (
    LossBreakdown,
    poisson_nll,
    identifiability_penalty,
    l1_penalty,
)
from .optimizer import (
    FitConfig,
    HeterogeneityEstimate,
    OuterIterationRecord,
    GridResult,
    FitDivergenceError,
    HierarchyViolationError,
    hierarchical_prox,
    update_side,
    fit,
    extract_selected,
    hbic,
    grid_search,
)
from .baselines import MleEstimate, mle_fit, two_stage_select
from .simbench import (
    GroundTruth,
    MethodResult,
    MetricsReport,
    gen_attributes,
    linear_truth,
    nonlinear_truth,
    sample_network,
    rmse,
    aggregate_rmse,
    selection_metrics,
    run_replications,
    write_metrics_csv,
    write_raw_csv,
)
from .importance import AttributionReport, shapley_importance
from .rng import Rng, derive_seed, seed_for

__version__ = "0.1.0"
