//! # spttn-cost
//!
//! Cost models and search algorithms for SpTTN loop nests (paper
//! Sec. 4):
//!
//! - [`TreeCost`]: tree-separable cost functions `(φ, ⊕)` — Def. 4.4.
//! - [`MaxBufferDim`] / [`MaxBufferSize`]: Def. 4.5 buffer metrics.
//! - [`CacheMiss`]: Def. 4.6 cache-miss model.
//! - [`BlasAware`]: the Sec. 5 evaluation metric (max independent dense
//!   loops under a buffer-dimension bound).
//! - [`Traversal`]: sparse node visits times the trips of the loops
//!   enclosing them, plus Eq.-5 buffer zeroing — the work the op count
//!   does not see.
//! - [`optimal_order`]: Algorithm 1 — `O(N³·2^m·m)` dynamic program.
//! - [`exhaustive_search`] / [`all_nest_costs`]: the factorial-size
//!   enumeration, for autotuning and cross-checking.
//! - [`plan`]: the Sec. 5 pipeline (path ranking + per-path DP under
//!   the chosen model), with one change to selection. The paper keeps
//!   the first op-count tier holding a feasible nest. [`plan`] instead
//!   scores every feasible per-path DP winner by modeled work,
//!   `flops + 2·traversal`, and keeps the least. It scans tiers in
//!   op-count order and stops once a tier's op count exceeds the best
//!   work. This is what keeps the default MTTKRP nest from re-walking
//!   the CSF once per rank column.
//! - [`plan_mode_orders`]: the CSF storage-order search layered on top
//!   of [`plan`] — one pipeline run per candidate order
//!   ([`candidate_orders`]), winners compared by the same key as [`plan`];
//!   [`ModeOrderPolicy`] is the knob the facade exposes.

// Cost modeling and search are pure computation: no unsafe code, ever.
#![forbid(unsafe_code)]

pub mod blas;
pub mod cache;
pub mod dp;
pub mod eval;
pub mod exhaustive;
pub mod orders;
pub mod planner;
pub mod traversal;
pub mod tree_cost;

pub use blas::{BlasAware, BlasValue};
pub use cache::CacheMiss;
pub use dp::{optimal_order, SearchResult};
pub use eval::eval_forest;
pub use exhaustive::{all_nest_costs, exhaustive_search, ExhaustiveResult};
pub use orders::{
    candidate_orders, plan_mode_orders, ModeOrderPolicy, OrderCost, OrderSearch,
    EXHAUSTIVE_ORDER_LIMIT,
};
pub use planner::{plan, PlanOptions, PlannedNest};
pub use traversal::Traversal;
pub use tree_cost::{MaxBufferDim, MaxBufferSize, TreeCost, VertexCtx};
