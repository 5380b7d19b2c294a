//! # rtnn-gpusim
//!
//! A deterministic, first-order simulator of a Turing-class GPU — the
//! substrate that stands in for the RTX 2080 / 2080 Ti hardware the RTNN
//! paper evaluates on (see DESIGN.md for the substitution argument).
//!
//! The simulator is *not* cycle-accurate. It models exactly the mechanisms
//! the paper's analysis depends on:
//!
//! * **SIMT execution**: work is issued in 32-lane warps; a warp's cost is
//!   dominated by the union of the work its lanes perform (divergent lanes
//!   make the union larger) and by the slowest lane for lockstep shader
//!   execution. The ratio between useful lane-work and issued warp-work is
//!   reported as *SIMT efficiency*, the analogue of the SM occupancy the
//!   paper measures in Figure 6.
//! * **Memory hierarchy**: a per-SM L1 and a (sharded) L2, both
//!   set-associative with LRU replacement, fed with the cache-line addresses
//!   each warp touches (after intra-warp coalescing). Incoherent rays touch
//!   more distinct lines, so their hit rates drop — the second half of
//!   Figure 6.
//! * **RT cores vs. SMs**: BVH node tests are charged at RT-core rates;
//!   intersection-shader work is charged at SM rates, with the
//!   range/KNN/no-sphere-test cost split the paper describes (Sections 3.1,
//!   5.1 and Appendix A).
//! * **Acceleration-structure builds** are charged linearly in the number of
//!   primitives (Figure 15) and **PCIe transfers** linearly in bytes
//!   (the `Data` component of Figure 12).
//!
//! Higher layers (`rtnn-optix` for ray launches, `rtnn-baselines` through
//! [`kernel`] for plain compute kernels) charge their work to a [`Device`],
//! and every experiment in `rtnn-bench` reports the resulting simulated
//! milliseconds.

pub mod cache;
pub mod config;
pub mod device;
pub mod kernel;
pub mod metrics;
pub mod shard;

pub use cache::{CacheConfig, CacheStats, SetAssociativeCache};
pub use config::{CostModel, DeviceConfig, IsShaderKind};
pub use device::{Device, StructureTiming};
pub use kernel::{run_sm_kernel, ThreadWork};
pub use metrics::{FrameAccumulator, KernelMetrics, MemoryStats};
pub use shard::SmShard;
