"""Voyage energy-efficiency analytics for short-sea fleets.

Subpackages cover the pipeline end to end: geographic primitives and voyage
segmentation (geo), onboard/weather ingestion (ingestion), efficiency
scoring and percentile clustering (efficiency), speed-profile optimization
(speed_opt, hmm), vessel path identification (path_id), synthetic fleet
generation (synth), and a CLI (cli) orchestrating everything.
"""

__version__ = "0.1.0"

from .efficiency import (
    FEATURE_CASES,
    EfficiencyEstimator,
    PercentileClusters,
    VoyageSummary,
    build_percentile_clusters,
    efficiency_gain,
    efficiency_score,
    estimate_fuel_time,
    normalize_and_score,
    summarize_voyages,
    train_estimator,
    voyage_totals,
)
from .geo import (
    GeoPoint,
    RouteSegmentSpec,
    Track,
    Voyage,
    merge_tracks,
    split_into_voyages,
)
from .hmm import WeatherStateModel, fit_weather_hmm, hmm_predict
from .ingestion import (
    WeatherGrid,
    attach_weather,
    parse_onboard_csv,
    parse_weather_grid,
    resample_voyage,
    trilinear_interpolate,
)
from .path_id import (
    DistanceMatrix,
    Path,
    SegmentModelSet,
    align_labels,
    annd,
    build_distance_matrix,
    classify_by_segment_likelihood,
    confusion_and_metrics,
    fit_segment_gmms,
    gmm_rows,
    hierarchical_cluster,
    kmeans_rows,
)
from .speed_opt import (
    GainReport,
    dtw_distance,
    run_optimization_benchmark,
)
from .synth import SyntheticFleetSpec, default_fleet_spec, generate_fleet, write_fleet
