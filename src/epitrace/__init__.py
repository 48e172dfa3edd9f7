"""Privacy-first epidemic tracing toolkit.

Protocol pieces (ephemeral-ID tracing, personal data stores with
granularity-controlled sharing, masked count aggregation, authority-side
density analytics, citizen-side risk analytics) plus the deterministic
agent-based simulator that wires them together.
"""

from .crypto_ids import (
    EPOCHS_PER_DAY,
    DailySeed,
    EscrowTable,
    ExposureReport,
    derive_next_seed,
    report_from_seeds,
)
from .contact_store import ContactStore, EncounterRecord, ExposureEvent
from .pds import (
    CoarsenedVisit,
    Granularity,
    LocationPoint,
    PersonalDataStore,
    Purpose,
    SharePayload,
    coarsen,
    minimum_granularity,
)
from .secure_agg import (
    CellIndexSpace,
    ContributionVector,
    MaskedShare,
    PairwiseSeed,
    aggregate,
    mask_contribution,
    pairwise_mask,
)
from .authority import (
    DensityMap,
    Hotspot,
    LocationStore,
    PublicBoard,
    RiskMap,
    detect_hotspots,
    publish_risk_map,
    resolve_and_notify,
)
from .self_awareness import exposure_score, flag_risky_segments, safer_route
from .sim import Intervention, ScenarioConfig, SimMetrics, Simulation, run_scenario, sweep

__version__ = "0.1.0"
