"""Traffic-adaptive provider exposure guarantees for two-sided top-K re-ranking.

The package splits into: `domain` (instances, ingestion, synthetic data),
`bankruptcy` (interval allocation of exposure floors), `forecast` (traffic
predictors), `reranker` (the online dual re-ranker), `metrics` (NDCG / Vio /
ESP and diagnostics), `harness` (the end-to-end driver and sweeps), and
`acceptance` (the built-in verification suite behind `bankfair verify`).
"""

from .bankruptcy import plan_interval, talmud
from .domain import (Catalog, FairnessPolicy, LogSchema, SynthConfig, UserRequest,
                     load_interactions, resample_traffic, save_instance, synth_instance)
from .errors import (BankfairError, ConfigError, ConsistencyError,
                     InfeasibleAllocationError, ParseError)
from .forecast import Forecast, forecast_traffic
from .harness import RunConfig, SweepSpec, run, sweep
from .metrics import SimReport, esp_at_k, feasible_region_ratio, ndcg_at_k, vio_at_k
from .reranker import (RerankConfig, compute_caps, compute_penalties, conjugate_argmax,
                       conjugate_value, dual_step, run_interval, select_list, top_k)

__version__ = "0.1.0"

__all__ = [
    "BankfairError", "Catalog", "ConfigError", "ConsistencyError",
    "FairnessPolicy", "Forecast", "InfeasibleAllocationError", "LogSchema",
    "ParseError", "RerankConfig", "RunConfig", "SimReport", "SweepSpec",
    "SynthConfig", "UserRequest", "compute_caps", "compute_penalties",
    "conjugate_argmax", "conjugate_value", "dual_step", "esp_at_k",
    "feasible_region_ratio", "forecast_traffic", "load_interactions",
    "ndcg_at_k", "plan_interval", "resample_traffic", "run",
    "run_interval", "save_instance", "select_list", "sweep", "synth_instance",
    "talmud", "top_k", "vio_at_k",
]
