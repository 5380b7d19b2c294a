//! Engine-wide vocabulary shared by every entry point: the paper's
//! optimisation levels ([`OptLevel`]), the error a search reports
//! ([`SearchError`]), and the fixed search a streaming index answers every
//! frame ([`RtnnConfig`]).

use crate::index::EngineConfig;
use crate::plan::{PlanError, QueryPlan};
use crate::result::SearchParams;
use rtnn_gpusim::device::OutOfDeviceMemory;

/// Which of the paper's optimisations are enabled — the five configurations
/// compared in Figure 13 (the `Oracle` variant is an exhaustive search over
/// these configurations and lives in the bench harness).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum OptLevel {
    /// The basic mapping only (Section 3.1); equivalent to the FastRNN
    /// baseline for KNN.
    NoOpt,
    /// Plus spatially-ordered query scheduling (Section 4).
    Sched,
    /// Plus query partitioning with one BVH per partition (Section 5.1).
    SchedPartition,
    /// Plus partition bundling with the analytical cost model (Section 5.2).
    /// The default.
    #[default]
    Full,
}

impl OptLevel {
    /// All levels in ascending order (used by the ablation bench).
    pub fn all() -> [OptLevel; 4] {
        [
            OptLevel::NoOpt,
            OptLevel::Sched,
            OptLevel::SchedPartition,
            OptLevel::Full,
        ]
    }

    /// Label used in figures and reports.
    pub fn label(&self) -> &'static str {
        match self {
            OptLevel::NoOpt => "NoOpt",
            OptLevel::Sched => "Sched.",
            OptLevel::SchedPartition => "Sched.+Partition",
            OptLevel::Full => "Sched.+Partition+Bundle",
        }
    }

    pub(crate) fn scheduling(&self) -> bool {
        *self >= OptLevel::Sched
    }

    pub(crate) fn partitioning(&self) -> bool {
        *self >= OptLevel::SchedPartition
    }

    pub(crate) fn bundling(&self) -> bool {
        *self >= OptLevel::Full
    }
}

/// A fixed search bundled with the engine configuration it runs under —
/// what a `DynamicIndex` answers every frame (any other plan goes through
/// a per-call [`QueryPlan`] on an [`Index`](crate::Index)).
#[derive(Debug, Clone, Copy)]
pub struct RtnnConfig {
    /// Search radius, K, and variant.
    pub params: SearchParams,
    /// Engine-wide tuning.
    pub engine: EngineConfig,
}

impl RtnnConfig {
    /// `params` under the default engine configuration (every optimisation
    /// enabled, exact results).
    pub fn new(params: SearchParams) -> Self {
        RtnnConfig {
            params,
            engine: EngineConfig::default(),
        }
    }

    /// The search parameters as a typed plan.
    pub fn plan(&self) -> QueryPlan {
        QueryPlan::from_params(self.params)
    }
}

/// Errors a search can report.
#[derive(Debug, Clone, PartialEq)]
pub enum SearchError {
    /// The query plan, search parameters or engine configuration are
    /// invalid; the typed [`PlanError`] names the offending field.
    InvalidPlan(PlanError),
    /// The working set does not fit in the simulated device memory (the
    /// `OOM` outcomes of Figure 11).
    OutOfDeviceMemory(OutOfDeviceMemory),
}

impl std::fmt::Display for SearchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SearchError::InvalidPlan(e) => write!(f, "invalid configuration: {e}"),
            SearchError::OutOfDeviceMemory(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SearchError {}

impl From<OutOfDeviceMemory> for SearchError {
    fn from(e: OutOfDeviceMemory) -> Self {
        SearchError::OutOfDeviceMemory(e)
    }
}

impl From<PlanError> for SearchError {
    fn from(e: PlanError) -> Self {
        SearchError::InvalidPlan(e)
    }
}
