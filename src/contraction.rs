//! The `Contraction` facade: parse → plan → bind → execute.
//!
//! One front door for the whole SpTTN pipeline, split into two stages so
//! iterative algorithms can plan once and execute many times:
//!
//! 1. **Symbolic planning** — [`Contraction::parse`] reads an
//!    einsum-style expression (structure only), and [`Contraction::plan`]
//!    runs the Sec. 5 planner against a data-independent [`Shapes`]
//!    description (index dimensions plus a sparsity profile or modeled
//!    nnz). The resulting [`Plan`] holds only the kernel, contraction
//!    path, loop orders, fused forest, and buffer specs — **no tensors**.
//! 2. **Binding and execution** — [`Plan::bind`] attaches a CSF sparse
//!    input and named dense factors, producing an
//!    [`Executor`] whose preallocated workspace makes
//!    repeated execution allocation-free.
//!
//! The one-shot convenience path survives as [`Contraction::compile`]:
//! bind operands with [`Contraction::with_sparse_input`] /
//! [`Contraction::with_factor`], and dimensions plus the exact sparsity
//! profile are inferred from the bound tensors before planning.
//!
//! Two expression syntaxes are accepted:
//!
//! - paper style: `"A(i,a) = T(i,j,k) * B(j,a) * C(k,a)"` (use `+=`
//!   instead of `=` to accumulate into the bound output on
//!   `execute_into`)
//! - arrow style: `"T[i,j,k]*B[j,a]*C[k,a]->A[i,a]"`
//!
//! In both, the **first right-hand-side tensor is the sparse input**,
//! and its written index order must match the CSF storage order of the
//! bound tensor. When the output's index set equals the sparse input's,
//! the output shares the sparse pattern (TTTP-like) and execution
//! returns [`ContractionOutput::Sparse`](crate::ContractionOutput).

use crate::executor::Executor;
use crate::{Result, SpttnError};
use spttn_cost::{
    candidate_orders, plan_mode_orders, BlasAware, CacheMiss, MaxBufferDim, MaxBufferSize,
    ModeOrderPolicy, OrderCost, OrderSearch, TreeCost,
};
use spttn_exec::{CancelToken, Microkernels};
use spttn_ir::{
    buffers_for_forest, build_forest, BufferSpec, ContractionPath, Kernel, KernelBuilder,
    KernelError, LoopForest, NestSpec,
};
use spttn_tensor::{CooTensor, Csf, DenseTensor, SparsityProfile};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Duration;

/// Cost model driving the planner (paper Defs. 4.5, 4.6 and Sec. 5).
///
/// All variants carry only integral parameters, so the model derives
/// `Eq`/`Hash` and can appear verbatim in [`crate::PlanKey`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CostModel {
    /// Minimize the maximum intermediate-buffer dimensionality (Def. 4.5).
    MaxBufferDim,
    /// Minimize the maximum intermediate-buffer element count (Def. 4.5).
    MaxBufferSize,
    /// Minimize modeled cache misses with footprint exponent `d` (Def. 4.6).
    CacheMiss {
        /// Cache-footprint exponent.
        d: usize,
    },
    /// Maximize BLAS-offloadable dense loops under a buffer-dimension
    /// bound (Sec. 5; the paper's experiments use bound 2).
    BlasAware {
        /// Maximum allowed buffer dimensionality.
        buffer_dim_bound: usize,
    },
}

/// Thread-count selection for parallel execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Threads {
    /// One thread per available hardware core
    /// ([`std::thread::available_parallelism`], falling back to 1).
    Auto,
    /// Exactly `n` threads; `N(1)` (or `N(0)`) is the serial path,
    /// byte-identical to a plan executed without parallelism.
    N(usize),
}

impl Threads {
    /// Resolve to a concrete thread count (≥ 1).
    pub fn resolve(self) -> usize {
        match self {
            Threads::Auto => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            Threads::N(n) => n.max(1),
        }
    }
}

/// Which execution engine a bound [`crate::Executor`] runs.
///
/// Both engines execute the identical plan and mirror each other's
/// floating-point operation order, so results agree to the last bit in
/// practice (and are held to ≤1e-9 by the differential suite). The
/// interpreter is kept as the independently-implemented oracle: run it
/// when validating the tape engine, bisecting a suspected executor
/// bug, or measuring the specialization speedup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Engine {
    /// Compile the loop forest to a flat instruction tape at bind time
    /// ([`spttn_exec::tape`]): per-visit dispatch, microkernel
    /// selection, and operand addressing are resolved once, densely
    /// iterated sparse modes use a monotone finger search, and the
    /// driver runs allocation- and atomic-free. The default.
    #[default]
    Tape,
    /// The recursive loop-forest interpreter
    /// ([`spttn_exec::execute_forest_into`]) — re-derives per-visit
    /// decisions from the forest; slower, kept as the oracle engine.
    Interp,
}

/// Resource budget evaluated at [`Plan::bind`] (and
/// `NetworkPlan::bind` in `spttn-net`) **before** any workspace is
/// allocated — the admission-control half of the hardened runtime.
///
/// Both limits are modeled quantities from the paper's Sec.-5 cost
/// pipeline, so rejection is predictable and allocation-free:
/// `max_workspace_bytes` bounds the Eq.-5 intermediate-buffer
/// footprint replicated per worker thread
/// ([`Plan::parallel_footprint`] × 8 bytes; network binds add their
/// materialized intermediates), and `max_modeled_flops` bounds the
/// plan's modeled operation count. Workspace pressure degrades
/// gracefully — the bind drops to the largest thread count (and hence
/// tile count) that fits, down to the serial path — before a typed
/// [`crate::SpttnError::BudgetExceeded`] reports predicted vs allowed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct RunBudget {
    /// Maximum preallocated workspace, in bytes. `None` = unlimited.
    pub max_workspace_bytes: Option<u64>,
    /// Maximum modeled flops per execution. `None` = unlimited.
    pub max_modeled_flops: Option<u128>,
}

impl RunBudget {
    /// No limits (the default).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Cap the preallocated workspace footprint (builder style).
    pub fn with_max_workspace_bytes(mut self, bytes: u64) -> Self {
        self.max_workspace_bytes = Some(bytes);
        self
    }

    /// Cap the modeled flops per execution (builder style).
    pub fn with_max_modeled_flops(mut self, flops: u128) -> Self {
        self.max_modeled_flops = Some(flops);
        self
    }

    /// Whether any limit is set.
    pub fn is_limited(&self) -> bool {
        self.max_workspace_bytes.is_some() || self.max_modeled_flops.is_some()
    }
}

/// Execution-stage options, carried by a [`Plan`] into [`Plan::bind`].
///
/// With more than one thread, binding partitions the CSF root level
/// into leaf-balanced tiles and the executor fans them out over a
/// persistent worker pool with one preallocated workspace and private
/// output per thread; partial outputs combine through a deterministic
/// tree reduction, so results are bit-reproducible run to run at a
/// fixed thread count (and within ≤1e-9 of the serial path). The
/// [`Engine`] choice is orthogonal: one compiled tape is shared by
/// every worker thread.
///
/// The robustness fields ([`RunBudget`], `deadline`, `cancel`) gate
/// and bound executions: the budget is enforced at bind time, the
/// deadline and token are re-checked at every root-iteration
/// checkpoint of every execution the plan's executors run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecOptions {
    /// Threads the bound executor runs on.
    pub threads: Threads,
    /// Engine executions run on (default [`Engine::Tape`]).
    pub engine: Engine,
    /// Statically verify the compiled tape at bind time
    /// ([`CompiledTape::verify`](spttn_exec::CompiledTape::verify))
    /// even in release builds. Debug builds always verify; the check
    /// is O(program size) and runs once per bind, never per execute.
    pub verify: bool,
    /// Microkernel policy for the tape engine (default
    /// [`Microkernels::Auto`]): `Auto` selects explicit-SIMD kernels
    /// (AVX2+FMA / NEON) by runtime CPU detection once at bind time
    /// and enables the fused/rank-specialized tape superinstructions;
    /// `Scalar` pins the plain scalar kernels, bitwise-identical to
    /// the pre-SIMD tape. The `SPTTN_MICROKERNELS` environment
    /// variable (`auto` / `scalar`) overrides either. Interpreter
    /// executions always use the scalar kernels.
    pub microkernels: Microkernels,
    /// Per-execution wall-clock limit, measured from each
    /// `execute_into` call; expiry surfaces as
    /// [`crate::SpttnError::Cancelled`] with the output contractually
    /// untouched (re-execute to retry). `None` = no deadline.
    pub deadline: Option<Duration>,
    /// Cooperative cancellation token checked alongside the deadline.
    /// Clone the token before planning and call
    /// [`CancelToken::cancel`] from any thread to stop in-flight
    /// executions; [`CancelToken::reset`] re-arms it for retries.
    pub cancel: Option<CancelToken>,
    /// Bind-time admission budget (default: unlimited).
    pub budget: RunBudget,
}

impl Default for ExecOptions {
    /// Serial execution — parallelism is opt-in, keeping default plans
    /// byte-identical to previous releases — on the tape engine, with
    /// no deadline, token, or budget.
    fn default() -> Self {
        ExecOptions {
            threads: Threads::N(1),
            engine: Engine::Tape,
            verify: false,
            microkernels: Microkernels::Auto,
            deadline: None,
            cancel: None,
            budget: RunBudget::default(),
        }
    }
}

/// Options for [`Contraction::plan`].
#[derive(Debug, Clone)]
pub struct PlanOptions {
    /// Cost model selecting among loop nests.
    pub cost_model: CostModel,
    /// How the CSF storage order of the sparse input is chosen:
    /// the expression's written order
    /// ([`ModeOrderPolicy::Natural`], the default), a caller-specified
    /// permutation of it ([`ModeOrderPolicy::Fixed`]), or a search over
    /// candidate orders keeping the cheapest
    /// ([`ModeOrderPolicy::Auto`]). Whatever is chosen, [`Plan::bind`]
    /// still takes a CSF stored in the *written* order and rebuilds it
    /// when the plan's order differs — see [`Plan::mode_order`].
    pub mode_order: ModeOrderPolicy,
    /// Maximum contraction paths the DP runs on per cost tier (a tier
    /// is the set of paths with exactly equal op count).
    pub max_paths_per_tier: usize,
    /// Maximum op-count tiers the planner scans before giving up.
    pub max_tiers: usize,
    /// Execution-stage options the plan carries into [`Plan::bind`].
    /// Not part of [`crate::PlanKey`]: the symbolic plan is identical
    /// for every thread count.
    pub exec: ExecOptions,
}

impl Default for PlanOptions {
    fn default() -> Self {
        PlanOptions {
            cost_model: CostModel::BlasAware {
                buffer_dim_bound: 2,
            },
            mode_order: ModeOrderPolicy::Natural,
            max_paths_per_tier: 64,
            max_tiers: 16,
            exec: ExecOptions::default(),
        }
    }
}

impl PlanOptions {
    /// Options with a specific cost model and default search limits.
    pub fn with_cost_model(cost_model: CostModel) -> Self {
        PlanOptions {
            cost_model,
            ..Default::default()
        }
    }

    /// Set the execution thread count (builder style).
    pub fn with_threads(mut self, threads: Threads) -> Self {
        self.exec.threads = threads;
        self
    }

    /// Set the execution engine (builder style). [`Engine::Tape`] is
    /// the default; [`Engine::Interp`] selects the recursive
    /// interpreter — the differential-testing oracle.
    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.exec.engine = engine;
        self
    }

    /// Statically verify the compiled tape at bind time even in
    /// release builds (builder style). Debug builds always verify.
    /// Like every [`ExecOptions`] field this is honored on
    /// [`crate::PlanCache`] hits too — cached plans are re-bound with
    /// the caller's options, not the flight leader's.
    pub fn with_verify(mut self, verify: bool) -> Self {
        self.exec.verify = verify;
        self
    }

    /// Set the tape microkernel policy (builder style).
    /// [`Microkernels::Scalar`] forces the plain scalar kernels —
    /// bitwise-identical to the pre-SIMD tape engine — while
    /// [`Microkernels::Auto`] (the default) picks the best SIMD
    /// implementation the host supports at bind time. Honored on
    /// [`crate::PlanCache`] hits like every [`ExecOptions`] field.
    pub fn with_microkernels(mut self, microkernels: Microkernels) -> Self {
        self.exec.microkernels = microkernels;
        self
    }

    /// Set a per-execution wall-clock deadline (builder style). Every
    /// execution of an executor bound from this plan is cancelled —
    /// [`crate::SpttnError::Cancelled`], output untouched — once
    /// `deadline` elapses from its own `execute_into` call.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.exec.deadline = Some(deadline);
        self
    }

    /// Attach a cooperative [`CancelToken`] (builder style). Keep a
    /// clone and call [`CancelToken::cancel`] from any thread to stop
    /// in-flight executions at their next checkpoint.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.exec.cancel = Some(cancel);
        self
    }

    /// Set the bind-time admission [`RunBudget`] (builder style).
    pub fn with_budget(mut self, budget: RunBudget) -> Self {
        self.exec.budget = budget;
        self
    }

    /// Set the CSF mode-order policy (builder style).
    ///
    /// [`ModeOrderPolicy::Auto`] runs the Sec. 5 planner once per
    /// candidate order (every permutation up to 4 sparse modes, a
    /// pruned family above) and keeps the cheapest by
    /// `(modeled work, cost value)` — exact per-order fiber counts when the
    /// pattern is known ([`Shapes::with_pattern`] or the one-shot
    /// [`Contraction::compile`] path), the uniform model with
    /// [`Shapes::with_nnz`]. A lone [`Shapes::with_profile`] cannot
    /// score other orders comparably, so `Auto` keeps the natural
    /// order there.
    /// Plan time multiplies accordingly; execution is unaffected except
    /// for the one-time CSF rebuild at [`Plan::bind`] when a
    /// non-natural order wins. For pattern-sharing (TTTP-like) outputs
    /// a non-natural order also reorders the output's nonzero
    /// enumeration (the set of entries is unchanged).
    pub fn with_mode_order(mut self, mode_order: ModeOrderPolicy) -> Self {
        self.mode_order = mode_order;
        self
    }

    fn search(&self) -> spttn_cost::PlanOptions {
        spttn_cost::PlanOptions {
            max_paths_per_tier: self.max_paths_per_tier,
            max_tiers: self.max_tiers,
        }
    }
}

/// Data-independent operand description for symbolic planning: one
/// dimension per index name, plus sparsity information for the sparse
/// input — either an exact [`SparsityProfile`] or a modeled uniform
/// nonzero count.
///
/// ```
/// use spttn::Shapes;
/// let shapes = Shapes::new()
///     .with_dims(&[("i", 30), ("j", 20), ("k", 25), ("r", 8)])
///     .with_nnz(200);
/// assert_eq!(shapes.dim("j"), Some(20));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Shapes {
    dims: HashMap<String, usize>,
    nnz: Option<u64>,
    profile: Option<SparsityProfile>,
    pattern: Option<PatternRef>,
}

/// A shared coordinate pattern plus its fingerprint, computed once at
/// [`Shapes::with_pattern`] time so neither repeated plans nor cache
/// lookups re-copy or re-hash `O(nnz)` coordinates.
#[derive(Debug, Clone)]
pub(crate) struct PatternRef {
    pub(crate) coo: Arc<CooTensor>,
    pub(crate) fp: u64,
}

/// Order-sensitive hash of a pattern's shape and flat coordinates —
/// the cache-key fingerprint that keeps two patterns with identical
/// natural-order profiles from sharing a mode-order-search key.
pub(crate) fn pattern_fingerprint(coo: &CooTensor) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    coo.dims().hash(&mut h);
    coo.coords().hash(&mut h);
    h.finish()
}

impl Shapes {
    /// Empty description; add dimensions and sparsity with the builder
    /// methods.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bind one index name to a dimension.
    pub fn with_dim(mut self, name: &str, dim: usize) -> Self {
        self.dims.insert(name.to_string(), dim);
        self
    }

    /// Bind several index dimensions at once.
    pub fn with_dims(mut self, dims: &[(&str, usize)]) -> Self {
        for &(name, dim) in dims {
            self.dims.insert(name.to_string(), dim);
        }
        self
    }

    /// Model the sparse input as a uniformly-random pattern with `nnz`
    /// nonzeros (see [`SparsityProfile::uniform`]).
    pub fn with_nnz(mut self, nnz: u64) -> Self {
        self.nnz = Some(nnz);
        self
    }

    /// Use exact per-level fiber counts for the sparse input. Takes
    /// precedence over [`Shapes::with_pattern`] and [`Shapes::with_nnz`].
    ///
    /// A profile describes exactly one CSF order, so it cannot score
    /// alternatives: under
    /// [`ModeOrderPolicy::Auto`](crate::cost::ModeOrderPolicy) the
    /// search degenerates to the natural order (use
    /// [`Shapes::with_pattern`] to search on exact per-order counts);
    /// a `Fixed` non-natural order falls back to the uniform model at
    /// this profile's nonzero count.
    pub fn with_profile(mut self, profile: SparsityProfile) -> Self {
        self.profile = Some(profile);
        self
    }

    /// Use the exact sparsity *pattern* of the sparse input: a COO
    /// tensor whose mode `m` is the index written at position `m` of
    /// the expression (values are ignored — only coordinates matter).
    ///
    /// A pattern carries strictly more information than a profile: the
    /// planner can derive exact per-level fiber counts for **any** CSF
    /// mode order, which is what makes
    /// [`ModeOrderPolicy::Auto`](crate::cost::ModeOrderPolicy) searches
    /// profile-guided rather than model-guided. Takes precedence over
    /// [`Shapes::with_nnz`]; [`Shapes::with_profile`] takes precedence
    /// over both.
    pub fn with_pattern(mut self, pattern: CooTensor) -> Self {
        let fp = pattern_fingerprint(&pattern);
        self.pattern = Some(PatternRef {
            coo: Arc::new(pattern),
            fp,
        });
        self
    }

    /// The dimension bound to an index name, if any.
    pub fn dim(&self, name: &str) -> Option<usize> {
        self.dims.get(name).copied()
    }

    /// Resolve the sparsity description into a natural-(written-)order
    /// [`SparsityProfile`] for a sparse input whose written index names
    /// are `names` — the profile multi-kernel schedulers (`spttn-net`)
    /// score candidate contraction sequences against before any
    /// per-step plan exists. Exact when built from
    /// [`Shapes::with_profile`] or [`Shapes::with_pattern`]; the
    /// uniform model under [`Shapes::with_nnz`].
    pub fn natural_profile(&self, names: &[String]) -> Result<SparsityProfile> {
        let mut dims = Vec::with_capacity(names.len());
        for n in names {
            dims.push(self.dim(n).ok_or_else(|| {
                SpttnError::Planning(format!(
                    "no dimension bound for index '{n}'; call Shapes::with_dim(\"{n}\", ...)"
                ))
            })?);
        }
        let natural: Vec<usize> = (0..names.len()).collect();
        if let Some(p) = &self.profile {
            if p.order() != names.len() {
                return Err(SpttnError::Shape(format!(
                    "sparsity profile has {} modes but the sparse input has {}",
                    p.order(),
                    names.len()
                )));
            }
            return Ok(p.clone());
        }
        if let Some(p) = &self.pattern {
            if p.coo.order() != names.len() {
                return Err(SpttnError::Shape(format!(
                    "sparsity pattern has {} modes but the sparse input has {}",
                    p.coo.order(),
                    names.len()
                )));
            }
            return SparsityProfile::from_coo(&p.coo, &natural).map_err(SpttnError::from);
        }
        if let Some(nnz) = self.nnz {
            return SparsityProfile::uniform(&dims, &natural, nnz).map_err(SpttnError::from);
        }
        Err(SpttnError::Planning(
            "no sparsity information for the sparse input; call Shapes::with_nnz \
             (uniform model), Shapes::with_pattern (exact coordinates), or \
             Shapes::with_profile (exact counts)"
                .into(),
        ))
    }

    /// Resolve the sparsity source the planner runs on, validated
    /// against the kernel's sparse-input dimensions.
    pub(crate) fn resolve_source(&self, kernel: &Kernel) -> Result<SparsitySource> {
        let levels = kernel.csf_index_order().len();
        if let Some(p) = &self.profile {
            if p.order() != levels {
                return Err(SpttnError::Shape(format!(
                    "sparsity profile has {} modes but the sparse input has {levels}",
                    p.order()
                )));
            }
            for l in 0..levels {
                let want = kernel.dim(kernel.index_at_level(l));
                let got = p.dims()[p.mode_order()[l]];
                if want != got {
                    return Err(SpttnError::Shape(format!(
                        "sparsity profile level {l} has dimension {got}, kernel expects {want}"
                    )));
                }
            }
            return Ok(SparsitySource::Profile(p.clone()));
        }
        if let Some(p) = &self.pattern {
            if p.coo.order() != levels {
                return Err(SpttnError::Shape(format!(
                    "sparsity pattern has {} modes but the sparse input has {levels}",
                    p.coo.order()
                )));
            }
            for l in 0..levels {
                let want = kernel.dim(kernel.index_at_level(l));
                let got = p.coo.dims()[l];
                if want != got {
                    return Err(SpttnError::Shape(format!(
                        "sparsity pattern mode {l} has dimension {got}, kernel expects {want}"
                    )));
                }
            }
            return Ok(SparsitySource::Pattern {
                coo: Arc::clone(&p.coo),
                base: (0..levels).collect(),
                fp: p.fp,
            });
        }
        if let Some(nnz) = self.nnz {
            return Ok(SparsitySource::Uniform { nnz });
        }
        Err(SpttnError::Planning(
            "no sparsity information for the sparse input; call Shapes::with_nnz \
             (uniform model), Shapes::with_pattern (exact coordinates), or \
             Shapes::with_profile (exact counts)"
                .into(),
        ))
    }
}

/// How the planner obtains a [`SparsityProfile`] for a candidate CSF
/// mode order: from an exact pattern (any order, exact counts), from
/// one exact profile (its own order exact, others modeled), or from the
/// uniform model.
#[derive(Debug, Clone)]
pub(crate) enum SparsitySource {
    /// Exact fiber counts for the natural written order; a `Fixed`
    /// non-natural order falls back to the uniform model at the same
    /// nonzero count (`Auto` does not search past natural here — see
    /// `run_planner`).
    Profile(SparsityProfile),
    /// Exact coordinates (shared, with a precomputed fingerprint for
    /// cache keys): `coo` mode `base[p]` is the index written at
    /// position `p` of the expression. Exact counts for every order.
    Pattern {
        coo: Arc<CooTensor>,
        base: Vec<usize>,
        fp: u64,
    },
    /// Uniform random model with `nnz` nonzeros, every order.
    Uniform { nnz: u64 },
}

impl SparsitySource {
    /// Profile for the candidate order `order` (a permutation of
    /// written positions) of `kernel`'s sparse input, where `kernel` is
    /// in natural written order. `None` skips the candidate.
    pub(crate) fn profile_for(&self, kernel: &Kernel, order: &[usize]) -> Option<SparsityProfile> {
        let identity = order.iter().enumerate().all(|(l, &p)| l == p);
        let modeled_dims = || -> Vec<usize> {
            order
                .iter()
                .map(|&p| kernel.dim(kernel.index_at_level(p)))
                .collect()
        };
        let natural: Vec<usize> = (0..order.len()).collect();
        match self {
            SparsitySource::Profile(p) => {
                if identity {
                    Some(p.clone())
                } else {
                    SparsityProfile::uniform(&modeled_dims(), &natural, p.nnz()).ok()
                }
            }
            SparsitySource::Pattern { coo, base, .. } => {
                let new_order: Vec<usize> = order.iter().map(|&p| base[p]).collect();
                SparsityProfile::from_coo(coo, &new_order).ok()
            }
            SparsitySource::Uniform { nnz } => {
                SparsityProfile::uniform(&modeled_dims(), &natural, *nnz).ok()
            }
        }
    }
}

/// One tensor reference parsed from the expression.
#[derive(Debug, Clone)]
struct RawRef {
    name: String,
    indices: Vec<String>,
}

/// A contraction being assembled: parsed structure, plus operands when
/// the one-shot [`Contraction::compile`] path is used.
#[derive(Debug, Clone, Default)]
pub struct Contraction {
    output: Option<RawRef>,
    inputs: Vec<RawRef>,
    /// Pre-built kernel (bypasses parsing and dimension inference).
    kernel: Option<Kernel>,
    /// `+=` expression: execution accumulates into the bound output.
    accumulate: bool,
    sparse: Option<Csf>,
    factors: HashMap<String, DenseTensor>,
}

impl Contraction {
    /// Parse an einsum-style SpTTN expression (structure only;
    /// dimensions are supplied at [`Contraction::plan`] time or inferred
    /// from bound tensors by [`Contraction::compile`]).
    pub fn parse(expr: &str) -> Result<Self> {
        let (output, inputs, accumulate) = parse_expression(expr)?;
        if inputs.is_empty() {
            return Err(KernelError::NoInputs.into());
        }
        // An output index appearing in no input factor has nothing to
        // produce it; reject at parse time with the offending name
        // instead of surfacing later as an opaque planner error.
        for idx in &output.indices {
            if !inputs.iter().any(|r| r.indices.contains(idx)) {
                return Err(SpttnError::Kernel(KernelError::Parse(format!(
                    "output index '{idx}' appears in no input factor of '{expr}'"
                ))));
            }
        }
        Ok(Contraction {
            output: Some(output),
            inputs,
            accumulate,
            ..Default::default()
        })
    }

    /// Start from an existing [`Kernel`] (e.g. one of
    /// [`spttn_ir::stdkernels`]); the kernel's declared dimensions are
    /// used directly, and bound tensors are validated against them.
    pub fn from_kernel(kernel: Kernel) -> Self {
        let as_raw = |r: &spttn_ir::TensorRef| RawRef {
            name: r.name.clone(),
            indices: r
                .indices
                .iter()
                .map(|&i| kernel.index_name(i).to_string())
                .collect(),
        };
        Contraction {
            output: Some(as_raw(&kernel.output)),
            inputs: kernel.inputs.iter().map(as_raw).collect(),
            kernel: Some(kernel),
            ..Default::default()
        }
    }

    /// Index names written on the sparse input (the first
    /// right-hand-side tensor), in written order — the names whose
    /// dimensions an ingested tensor file supplies. `None` before an
    /// expression is parsed.
    pub fn sparse_index_names(&self) -> Option<Vec<String>> {
        if let Some(k) = &self.kernel {
            return Some(
                k.csf_index_order()
                    .iter()
                    .map(|&i| k.index_name(i).to_string())
                    .collect(),
            );
        }
        self.inputs.first().map(|r| r.indices.clone())
    }

    /// Parsed input tensor references as `(name, written index names)`
    /// pairs, in expression order — the first entry is the sparse
    /// input. Multi-kernel schedulers (the `spttn-net` crate) read the
    /// network structure through this instead of re-parsing.
    pub fn input_refs(&self) -> Vec<(String, Vec<String>)> {
        self.inputs
            .iter()
            .map(|r| (r.name.clone(), r.indices.clone()))
            .collect()
    }

    /// The parsed output reference as `(name, written index names)`,
    /// `None` before an expression is parsed.
    pub fn output_ref(&self) -> Option<(String, Vec<String>)> {
        self.output
            .as_ref()
            .map(|r| (r.name.clone(), r.indices.clone()))
    }

    /// True when execution accumulates into the bound output (a `+=`
    /// expression, or [`Contraction::with_accumulate`]).
    pub fn is_accumulate(&self) -> bool {
        self.accumulate
    }

    /// All distinct index names in the expression, inputs first (in
    /// first-appearance order) then any output-only names. Drivers use
    /// this to know which dimensions still need declaring.
    pub fn all_index_names(&self) -> Vec<String> {
        let mut seen = Vec::new();
        let mut push = |n: &String| {
            if !seen.contains(n) {
                seen.push(n.clone());
            }
        };
        if let Some(k) = &self.kernel {
            return k.indices.iter().map(|i| i.name.clone()).collect();
        }
        for r in &self.inputs {
            r.indices.iter().for_each(&mut push);
        }
        if let Some(o) = &self.output {
            o.indices.iter().for_each(&mut push);
        }
        seen
    }

    /// Mark the contraction as accumulating into the bound output
    /// (`+=` semantics for `execute_into`). Parsing a `+=` expression
    /// sets this automatically.
    pub fn with_accumulate(mut self, accumulate: bool) -> Self {
        self.accumulate = accumulate;
        self
    }

    /// Bind the sparse input (the first right-hand-side tensor) for the
    /// one-shot [`Contraction::compile`] path. The CSF's storage order
    /// must match the expression's written index order for that tensor.
    pub fn with_sparse_input(mut self, csf: Csf) -> Self {
        self.sparse = Some(csf);
        self
    }

    /// Bind a dense factor by tensor name for the one-shot
    /// [`Contraction::compile`] path.
    pub fn with_factor(mut self, name: &str, tensor: DenseTensor) -> Self {
        self.factors.insert(name.to_string(), tensor);
        self
    }

    /// **Stage 1 — symbolic planning.** Choose a contraction path and
    /// loop orders minimizing the configured cost model, with tier
    /// fallback (paper Sec. 5), using only the index dimensions and
    /// sparsity description in `shapes` — no tensor data. The returned
    /// [`Plan`] can be bound to many operand sets via [`Plan::bind`].
    pub fn plan(self, shapes: &Shapes, opts: &PlanOptions) -> Result<Plan> {
        let (kernel, accumulate) = self.resolve_symbolic(shapes)?;
        let source = shapes.resolve_source(&kernel)?;
        Plan::build(kernel, source, accumulate, opts)
    }

    /// One-shot convenience: infer dimensions and the exact sparsity
    /// profile from the operands bound with
    /// [`Contraction::with_sparse_input`] / [`Contraction::with_factor`],
    /// plan, and bind — parse → plan → bind in one call. Equivalent to
    /// the two-stage API with a [`Shapes`] built from the bound tensors.
    /// Since the bound CSF supplies the exact pattern, a non-natural
    /// [`PlanOptions::mode_order`] policy is scored on exact per-order
    /// fiber counts here.
    pub fn compile(self, opts: PlanOptions) -> Result<Executor> {
        let (kernel, csf, factors, accumulate) = self.take_operands()?;
        let plan = Plan::build(kernel, source_from_csf(&csf, &opts), accumulate, &opts)?;
        plan.into_executor(csf, factors)
    }

    /// One-shot convenience through a [`crate::PlanCache`]: like
    /// [`Contraction::compile`], but the symbolic plan is looked up by
    /// [`crate::PlanKey`] first and the Sec. 5 DP only runs on a miss.
    pub fn compile_cached(self, cache: &crate::PlanCache, opts: &PlanOptions) -> Result<Executor> {
        let (kernel, csf, factors, accumulate) = self.take_operands()?;
        let source = source_from_csf(&csf, opts);
        // The cache re-applies the caller's exec options (thread count,
        // engine) on a hit, so the returned plan binds as requested.
        let plan = cache.plan_from_parts(kernel, source, accumulate, opts)?;
        (*plan).clone().into_executor(csf, factors)
    }

    /// Resolve the validated kernel for symbolic planning: a pre-built
    /// kernel is used as-is, otherwise every index dimension comes from
    /// `shapes`.
    pub(crate) fn resolve_symbolic(self, shapes: &Shapes) -> Result<(Kernel, bool)> {
        if let Some(kernel) = self.kernel {
            // Dimensions live in the kernel; catch contradictions early.
            for info in &kernel.indices {
                if let Some(d) = shapes.dim(&info.name) {
                    if d != info.dim {
                        return Err(SpttnError::Shape(format!(
                            "index '{}' is {} in the kernel but {d} in the shapes",
                            info.name, info.dim
                        )));
                    }
                }
            }
            return Ok((kernel, self.accumulate));
        }
        let output = self
            .output
            .as_ref()
            .ok_or_else(|| SpttnError::Planning("no expression parsed".into()))?;
        let kernel = build_kernel(output, &self.inputs, |name| shapes.dim(name))?;
        Ok((kernel, self.accumulate))
    }

    /// Consume the bound operands of the one-shot path: validated
    /// kernel, CSF, dense factors in input order, and the accumulate
    /// flag.
    pub(crate) fn take_operands(mut self) -> Result<(Kernel, Csf, Vec<DenseTensor>, bool)> {
        let Some(csf) = self.sparse.take() else {
            return Err(SpttnError::Planning(
                "no sparse input bound; call with_sparse_input".into(),
            ));
        };
        let output = self
            .output
            .clone()
            .ok_or_else(|| SpttnError::Planning("no expression parsed".into()))?;

        let kernel = match self.kernel.take() {
            Some(k) => k,
            None => infer_kernel(&output, &self.inputs, &csf, &self.factors)?,
        };

        // Collect dense factors in input order, moving each binding out
        // of the map (no clone); a name appearing in several input slots
        // reuses the first tensor taken.
        let mut factors: Vec<DenseTensor> = Vec::new();
        let mut taken: HashMap<String, usize> = HashMap::new();
        for (slot, r) in kernel.inputs.iter().enumerate() {
            if slot == kernel.sparse_input {
                continue;
            }
            let t = match self.factors.remove(&r.name) {
                Some(t) => t,
                None => match taken.get(&r.name) {
                    Some(&at) => factors[at].clone(),
                    None => {
                        return Err(SpttnError::Planning(format!(
                            "dense factor '{}' not bound; call with_factor(\"{}\", ...)",
                            r.name, r.name
                        )))
                    }
                },
            };
            taken.insert(r.name.clone(), factors.len());
            factors.push(t);
        }
        if let Some(name) = self.factors.keys().next() {
            return Err(SpttnError::Planning(format!(
                "bound factor '{name}' does not appear in the expression"
            )));
        }

        // Validate the CSF and factor shapes with the same rules the
        // executor applies.
        let refs: Vec<&DenseTensor> = factors.iter().collect();
        spttn_exec::validate_operands(&kernel, &csf, &refs)?;
        drop(refs);

        Ok((kernel, csf, factors, self.accumulate))
    }
}

/// Sparsity source for the one-shot paths: the bound CSF's own profile
/// under the natural policy (cheap, no coordinate extraction), the full
/// coordinate pattern when a non-natural policy needs exact counts for
/// other orders.
fn source_from_csf(csf: &Csf, opts: &PlanOptions) -> SparsitySource {
    match opts.mode_order {
        ModeOrderPolicy::Natural => SparsitySource::Profile(SparsityProfile::from_csf(csf)),
        _ => {
            let coo = csf.to_coo();
            let fp = pattern_fingerprint(&coo);
            SparsitySource::Pattern {
                coo: Arc::new(coo),
                base: csf.mode_order().to_vec(),
                fp,
            }
        }
    }
}

/// Type-erased planner output.
struct Planned {
    /// Kernel with the sparse input's written order permuted to the
    /// chosen CSF order (identical to the input kernel when natural).
    kernel: Kernel,
    /// Profile the winning nest was planned against.
    profile: SparsityProfile,
    /// Chosen CSF order as a permutation of written positions.
    order: Vec<usize>,
    /// Per-candidate-order search record (single entry when fixed).
    order_costs: Vec<OrderCost>,
    path: ContractionPath,
    spec: NestSpec,
    flops: u128,
    traversal: u128,
    work: u128,
    tier: usize,
    cost: String,
}

fn erase<V: std::fmt::Debug>(s: OrderSearch<V>) -> Planned {
    Planned {
        kernel: s.kernel,
        profile: s.profile,
        order: s.order,
        order_costs: s.explored,
        cost: format!("{:?}", s.planned.value),
        path: s.planned.path,
        spec: s.planned.spec,
        flops: s.planned.flops,
        traversal: s.planned.traversal,
        work: s.planned.work,
        tier: s.planned.tier,
    }
}

fn run_planner(kernel: &Kernel, source: &SparsitySource, opts: &PlanOptions) -> Result<Planned> {
    fn go<C: TreeCost>(
        kernel: &Kernel,
        source: &SparsitySource,
        cost: &C,
        opts: &PlanOptions,
    ) -> Result<Planned>
    where
        C::Value: std::fmt::Debug,
    {
        let d = kernel.csf_index_order().len();
        let orders: Vec<Vec<usize>> = match &opts.mode_order {
            ModeOrderPolicy::Natural => vec![(0..d).collect()],
            ModeOrderPolicy::Fixed(order) => {
                // Surface a bad permutation as its own error instead of
                // an opaque "no feasible nest".
                kernel.permute_sparse_modes(order)?;
                vec![order.clone()]
            }
            // Auto needs comparable scores across candidates. A lone
            // exact profile can score only its own (natural) order;
            // modeling the others uniformly would compare exact against
            // modeled counts and could crown a genuinely worse order —
            // so the search degenerates to natural there. Patterns
            // (exact everywhere) and the uniform model (consistent
            // everywhere) search the full candidate set.
            ModeOrderPolicy::Auto => match source {
                SparsitySource::Profile(_) => vec![(0..d).collect()],
                SparsitySource::Pattern { .. } | SparsitySource::Uniform { .. } => {
                    candidate_orders(&kernel.ref_dims(kernel.sparse_ref()))
                }
            },
        };
        plan_mode_orders(kernel, cost, &opts.search(), &orders, |o| {
            source.profile_for(kernel, o)
        })
        .map(erase)
        .ok_or_else(|| SpttnError::Planning("no feasible loop nest found".into()))
    }
    match opts.cost_model {
        CostModel::MaxBufferDim => go(kernel, source, &MaxBufferDim, opts),
        CostModel::MaxBufferSize => go(kernel, source, &MaxBufferSize, opts),
        CostModel::CacheMiss { d } => go(kernel, source, &CacheMiss { d }, opts),
        CostModel::BlasAware { buffer_dim_bound } => {
            go(kernel, source, &BlasAware { buffer_dim_bound }, opts)
        }
    }
}

/// A planned contraction: the symbolic artifact of Stage 1.
///
/// Holds the kernel, chosen contraction path, loop orders, fused loop
/// forest, and Eq.-5 buffer specs — **no tensors**. A plan is reusable:
/// bind it to operands with [`Plan::bind`] as many times as needed, or
/// store it in a [`crate::PlanCache`] keyed by [`crate::PlanKey`].
#[derive(Debug, Clone)]
pub struct Plan {
    /// Kernel in the plan's chosen CSF order (the sparse input's
    /// written order is permuted when [`Plan::mode_order`] is not the
    /// identity).
    pub(crate) kernel: Kernel,
    pub(crate) path: ContractionPath,
    pub(crate) spec: NestSpec,
    pub(crate) forest: LoopForest,
    pub(crate) buffers: Vec<BufferSpec>,
    pub(crate) accumulate: bool,
    pub(crate) profile: SparsityProfile,
    pub(crate) exec: ExecOptions,
    /// Chosen CSF order: level `l` stores the index written at position
    /// `mode_order[l]` of the original expression.
    pub(crate) mode_order: Vec<usize>,
    /// Per-candidate-order planning record (one entry per explored
    /// order; a single entry under a natural/fixed policy).
    pub(crate) order_costs: Vec<OrderCost>,
    /// Leading-order scalar-operation count of the chosen path.
    pub flops: u128,
    /// Modeled sparse node visits plus buffer zeroing volume of the
    /// chosen nest, in multiply-add units ([`spttn_cost::Traversal`]).
    pub traversal: u128,
    /// Modeled work `flops + 2·traversal`: what the planner minimizes.
    /// A nest may win with more flops than another when it walks the
    /// sparse tensor fewer times.
    pub work: u128,
    /// Op-count tier the path came from: the rank of its exact op count
    /// among all contraction paths (0 = the fewest flops).
    pub tier: usize,
    /// Debug rendering of the chosen nest's cost value.
    pub cost: String,
}

impl Plan {
    /// Run the planner on fully-resolved parts.
    pub(crate) fn build(
        kernel: Kernel,
        source: SparsitySource,
        accumulate: bool,
        opts: &PlanOptions,
    ) -> Result<Plan> {
        let planned = run_planner(&kernel, &source, opts)?;
        let forest = build_forest(&planned.kernel, &planned.path, &planned.spec)?;
        let buffers = buffers_for_forest(
            &planned.kernel,
            &planned.path,
            &forest,
            Some(&planned.profile),
        );
        Ok(Plan {
            kernel: planned.kernel,
            path: planned.path,
            spec: planned.spec,
            forest,
            buffers,
            accumulate,
            profile: planned.profile,
            exec: opts.exec.clone(),
            mode_order: planned.order,
            order_costs: planned.order_costs,
            flops: planned.flops,
            traversal: planned.traversal,
            work: planned.work,
            tier: planned.tier,
            cost: planned.cost,
        })
    }

    /// Replace the execution options this plan carries into
    /// [`Plan::bind`] (builder style). The symbolic nest is untouched —
    /// the same plan can be bound serially and in parallel.
    pub fn with_exec(mut self, exec: ExecOptions) -> Plan {
        self.exec = exec;
        self
    }

    /// The execution options [`Plan::bind`] will apply.
    pub fn exec(&self) -> ExecOptions {
        self.exec.clone()
    }

    /// Preallocated workspace elements needed to execute this plan at
    /// `threads` parallel workers (each worker replicates every Eq.-5
    /// buffer).
    pub fn parallel_footprint(&self, threads: usize) -> u128 {
        spttn_ir::tiled_workspace_footprint(&self.buffers, threads)
    }

    /// The validated kernel.
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// The chosen contraction path.
    pub fn path(&self) -> &ContractionPath {
        &self.path
    }

    /// The chosen loop orders.
    pub fn spec(&self) -> &NestSpec {
        &self.spec
    }

    /// The fused loop forest the executor walks.
    pub fn forest(&self) -> &LoopForest {
        &self.forest
    }

    /// Intermediate buffers of the nest (Eq. 5).
    pub fn buffers(&self) -> &[BufferSpec] {
        &self.buffers
    }

    /// The sparsity profile the plan was made for (in the plan's chosen
    /// CSF order).
    pub fn profile(&self) -> &SparsityProfile {
        &self.profile
    }

    /// The chosen CSF storage order: level `l` of the tree holds the
    /// sparse index written at position `mode_order()[l]` of the
    /// original expression. The identity permutation under
    /// [`ModeOrderPolicy::Natural`](crate::cost::ModeOrderPolicy); a
    /// non-identity order makes [`Plan::bind`] rebuild the incoming
    /// CSF (which is always interpreted as written-order storage).
    pub fn mode_order(&self) -> &[usize] {
        &self.mode_order
    }

    /// True when the chosen order is the expression's written order —
    /// binding then reuses the incoming CSF without a rebuild.
    pub fn is_natural_order(&self) -> bool {
        self.mode_order.iter().enumerate().all(|(l, &p)| l == p)
    }

    /// The kernel with the sparse input back in the expression's
    /// written order (inverting [`Plan::mode_order`]). Reference
    /// checkers (e.g. a naive einsum over written-order dense operands)
    /// want this view rather than [`Plan::kernel`].
    pub fn natural_kernel(&self) -> Kernel {
        if self.is_natural_order() {
            return self.kernel.clone();
        }
        let mut inv = vec![0usize; self.mode_order.len()];
        for (l, &p) in self.mode_order.iter().enumerate() {
            inv[p] = l;
        }
        self.kernel
            .permute_sparse_modes(&inv)
            .expect("inverse of a valid permutation")
    }

    /// Per-candidate-order planning record: the orders the search
    /// explored (natural/fixed policies record exactly one), each with
    /// the best nest's op count, traversal and work (`None` when
    /// infeasible for that order) and cost rendering. The chosen order
    /// is the `(work, cost)` minimum.
    pub fn order_costs(&self) -> &[OrderCost] {
        &self.order_costs
    }

    /// True when execution accumulates into the bound output (`+=`).
    pub fn accumulate(&self) -> bool {
        self.accumulate
    }

    /// Human-readable summary: kernel, path, orders, loop nest, buffers.
    pub fn describe(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!("kernel: {}\n", self.kernel.to_einsum()));
        if !self.is_natural_order() {
            let names: Vec<&str> = self
                .kernel
                .csf_index_order()
                .iter()
                .map(|&i| self.kernel.index_name(i))
                .collect();
            s.push_str(&format!(
                "storage: CSF order ({}) — chosen over {} candidate order(s); \
                 bind re-sorts written-order tensors\n",
                names.join(","),
                self.order_costs.len()
            ));
        }
        s.push_str(&format!("path:   {}\n", self.path.describe(&self.kernel)));
        s.push_str(&format!("orders: {}\n", self.spec.describe(&self.kernel)));
        s.push_str(&format!(
            "cost:   {} (tier {}, ~{} flops, ~{} traversal, ~{} work)\n",
            self.cost, self.tier, self.flops, self.traversal, self.work
        ));
        for b in &self.buffers {
            let names: Vec<&str> = b.inds.iter().map(|&i| self.kernel.index_name(i)).collect();
            s.push_str(&format!(
                "buffer: X{} [{}] = {} elems\n",
                b.producer,
                names.join(","),
                b.size()
            ));
        }
        s.push_str("nest:\n");
        s.push_str(&self.forest.render(&self.kernel, &self.path));
        s
    }
}

/// Parse either expression syntax into (output, inputs, accumulate).
fn parse_expression(expr: &str) -> Result<(RawRef, Vec<RawRef>, bool)> {
    let e = expr.replace('[', "(").replace(']', ")");
    let (lhs, rhs, accumulate) = if let Some((ins, out)) = e.split_once("->") {
        (out.trim().to_string(), ins.trim().to_string(), false)
    } else if let Some(pos) = e.find("+=") {
        (
            e[..pos].trim().to_string(),
            e[pos + 2..].trim().to_string(),
            true,
        )
    } else if let Some(pos) = e.find('=') {
        (
            e[..pos].trim().to_string(),
            e[pos + 1..].trim().to_string(),
            false,
        )
    } else {
        return Err(SpttnError::Kernel(KernelError::Parse(
            "expected '=' or '->' in contraction expression".into(),
        )));
    };
    let output = parse_ref(&lhs)?;
    let mut inputs = Vec::new();
    for part in split_top_level(&rhs, '*') {
        if part.trim().is_empty() {
            return Err(SpttnError::Kernel(KernelError::Parse(format!(
                "empty factor in '{}' (stray or doubled '*'?)",
                rhs.trim()
            ))));
        }
        inputs.push(parse_ref(&part)?);
    }
    Ok((output, inputs, accumulate))
}

fn parse_ref(s: &str) -> Result<RawRef> {
    let s = s.trim();
    let err = |m: String| SpttnError::Kernel(KernelError::Parse(m));
    let open = s
        .find('(')
        .ok_or_else(|| err(format!("expected '(' or '[' in tensor reference '{s}'")))?;
    if !s.ends_with(')') {
        return Err(err(format!("unterminated tensor reference '{s}'")));
    }
    let name = s[..open].trim();
    if name.is_empty() || !name.chars().all(|c| c.is_alphanumeric() || c == '_') {
        return Err(err(format!("bad tensor name in '{s}'")));
    }
    let inner = &s[open + 1..s.len() - 1];
    let indices: Vec<String> = if inner.trim().is_empty() {
        Vec::new()
    } else {
        inner.split(',').map(|x| x.trim().to_string()).collect()
    };
    for i in &indices {
        if i.is_empty() || !i.chars().all(|c| c.is_alphanumeric() || c == '_') {
            return Err(err(format!("bad index name '{i}' in '{s}'")));
        }
    }
    Ok(RawRef {
        name: name.to_string(),
        indices,
    })
}

/// Split on `sep` outside parentheses. Every segment is kept — including
/// empty ones from doubled or trailing separators — so the caller can
/// reject them with a pointed message instead of silently dropping them.
fn split_top_level(s: &str, sep: char) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut cur = String::new();
    for c in s.chars() {
        match c {
            '(' => {
                depth += 1;
                cur.push(c);
            }
            ')' => {
                depth = depth.saturating_sub(1);
                cur.push(c);
            }
            c if c == sep && depth == 0 => out.push(std::mem::take(&mut cur)),
            _ => cur.push(c),
        }
    }
    out.push(cur);
    out
}

/// Build the validated kernel from parsed structure and a dimension
/// oracle (symbolic path: dimensions come from [`Shapes`]; one-shot
/// path: from the bound tensors).
fn build_kernel(
    output: &RawRef,
    inputs: &[RawRef],
    dim_of: impl Fn(&str) -> Option<usize>,
) -> Result<Kernel> {
    let mut b = KernelBuilder::new();
    // Declare indices in first-appearance order (sparse modes first).
    for r in inputs {
        for idx in &r.indices {
            let dim = dim_of(idx).ok_or_else(|| {
                SpttnError::Planning(format!(
                    "no dimension bound for index '{idx}'; call Shapes::with_dim(\"{idx}\", ...)"
                ))
            })?;
            b = b.index(idx, dim);
        }
    }
    for idx in &output.indices {
        if dim_of(idx).is_none() {
            return Err(SpttnError::Kernel(KernelError::UnboundOutputIndex(
                idx.clone(),
            )));
        }
    }
    let oinds: Vec<&str> = output.indices.iter().map(String::as_str).collect();
    b = b.output(&output.name, &oinds);
    for r in inputs {
        let iinds: Vec<&str> = r.indices.iter().map(String::as_str).collect();
        b = b.input(&r.name, &iinds);
    }
    // Pattern-sharing output: index set equals the sparse input's.
    let sparse = &inputs[0];
    let mut oset: Vec<&String> = output.indices.iter().collect();
    let mut sset: Vec<&String> = sparse.indices.iter().collect();
    oset.sort();
    oset.dedup();
    sset.sort();
    sset.dedup();
    if oset == sset {
        b = b.sparse_output();
    }
    Ok(b.build()?)
}

/// Infer every index dimension from the bound tensors and build the
/// validated kernel (one-shot path).
fn infer_kernel(
    output: &RawRef,
    inputs: &[RawRef],
    csf: &Csf,
    factors: &HashMap<String, DenseTensor>,
) -> Result<Kernel> {
    let mut dims: HashMap<String, usize> = HashMap::new();
    let mut learn = |name: &str, dim: usize| -> Result<()> {
        match dims.get(name) {
            Some(&d) if d != dim => Err(SpttnError::Shape(format!(
                "index '{name}' bound to both dimension {d} and {dim}"
            ))),
            Some(_) => Ok(()),
            None => {
                dims.insert(name.to_string(), dim);
                Ok(())
            }
        }
    };

    // Sparse input: written order == CSF storage order.
    let sparse = &inputs[0];
    if csf.order() != sparse.indices.len() {
        return Err(SpttnError::Shape(format!(
            "sparse tensor '{}' is written with {} indices but the CSF has {} modes",
            sparse.name,
            sparse.indices.len(),
            csf.order()
        )));
    }
    for (level, idx) in sparse.indices.iter().enumerate() {
        learn(idx, csf.dims()[csf.mode_order()[level]])?;
    }
    for r in &inputs[1..] {
        let t = factors.get(&r.name).ok_or_else(|| {
            SpttnError::Planning(format!(
                "dense factor '{}' not bound; call with_factor(\"{}\", ...)",
                r.name, r.name
            ))
        })?;
        if t.order() != r.indices.len() {
            return Err(SpttnError::Shape(format!(
                "factor '{}' is written with {} indices but the tensor has {} modes",
                r.name,
                r.indices.len(),
                t.order()
            )));
        }
        for (pos, idx) in r.indices.iter().enumerate() {
            learn(idx, t.dims()[pos])?;
        }
    }
    build_kernel(output, inputs, |name| dims.get(name).copied())
}
