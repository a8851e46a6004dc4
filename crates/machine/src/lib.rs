//! A deterministic, trace-driven simulator of the cache-coherent
//! shared-memory multiprocessor assumed by the paper's system model
//! (§2.2, Fig. 2) — the `alp` stand-in for the Alewife machine.
//!
//! The machine: `P` processors, each with a coherent cache (infinite or
//! finite set-associative LRU; **unit cache lines**, per the paper's
//! assumption), backed by memory that is either monolithic (uniform
//! access, the model of §2.2) or distributed across the processing nodes
//! (the Alewife configuration of §4, with a 2-D mesh and per-hop cost).
//! Coherence is a full-map invalidate directory protocol in MSI form.
//!
//! The simulator answers the questions the paper's analysis predicts:
//! how many cache misses does a loop partition incur ([`TrafficReport`]'s
//! cold misses ≈ cumulative footprint), how much invalidation traffic
//! does tile-boundary sharing generate, and — with distributed memory —
//! how many misses are served remotely (the data-alignment experiments).
//!
//! Determinism: per-processor access traces are built one after another
//! on the calling thread, then the coherence protocol processes accesses
//! in a fixed round-robin interleaving, so every run of the same input
//! produces the same counters.  [`run_plan`] simulates a plan on its own
//! `P` processors, each running the tiles the executor's static schedule
//! gives the same worker ([`alp_plan::Tiling::worker_tiles`]).

pub mod cache;
pub mod layout;
pub mod machine;
pub mod report;

pub use cache::{Cache, CacheConfig};
pub use layout::{ArrayLayout, BlockRowMajorHome, FnHome, HomeMap, TiledHome, UniformHome};
pub use machine::{run_nest, run_plan, DirectoryKind, Machine, MachineConfig};
pub use report::{MissKind, ProcessorCounters, TrafficReport};
