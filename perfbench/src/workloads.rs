//! The four workloads. Each calls the public `spttn` / `spttn-net` API
//! the way its user would, with the library's default options except
//! the thread count and mode-order policy named in its description.
//!
//! A *job* is one set-up (every CSF build, plan and bind the user
//! needs) followed by a fixed number of ops; `solve_s` times a whole job.

use crate::check::{compare, reference, Einsum};
use crate::inputs::{dense, uniform_coo, write_tns, Fingerprint, Rng};
use crate::trace::Tracer;
use spttn::exec::CompiledTape;
use spttn::tensor::{read_tns, CooTensor, Csf, DenseTensor};
use spttn::{
    Contraction, ContractionOutput, ExecOptions, ExecStats, Executor, ModeOrderPolicy, Plan,
    PlanOptions, Shapes, Threads,
};
use spttn_net::{NetOptions, Network, NetworkExecutor, NetworkPlan};
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;

pub type Counts = Vec<(String, u64)>;

/// Untimed work done inside an op (checks, output poisoning) and the
/// check results of the run.
#[derive(Default)]
pub struct Checks {
    pub untimed_s: f64,
    pub check_ms: Vec<f64>,
    pub max_rel_err: f64,
}

impl Checks {
    /// Run `f` inside an op without counting it in the op's latency.
    pub fn untimed<T>(&mut self, tr: &mut Tracer, span: &str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let s = tr.begin(span);
        let r = f();
        tr.end(s);
        self.untimed_s += t.elapsed().as_secs_f64();
        r
    }

    /// Compare `got` against `want`, then fill `got` with NaN so the next
    /// op must overwrite every element to pass. Returns whether it matched.
    pub fn check(
        &mut self,
        tr: &mut Tracer,
        got: &mut ContractionOutput,
        want: &DenseTensor,
    ) -> bool {
        let t = Instant::now();
        let c = self.untimed(tr, "check", || match got {
            ContractionOutput::Dense(d) => {
                let c = compare(d.as_slice(), want.as_slice());
                d.fill(f64::NAN);
                c
            }
            ContractionOutput::Sparse(_) => compare(&[], want.as_slice()),
        });
        self.check_ms.push(t.elapsed().as_secs_f64() * 1e3);
        self.max_rel_err = self.max_rel_err.max(c.max_rel_err);
        c.ok()
    }
}

/// What one op did.
pub struct OpOutcome {
    /// Set-up time spent inside the op (the one-shot path sets up
    /// every time); `None` when the op reuses the job's executors.
    pub setup_s: Option<f64>,
    pub ok: bool,
    /// Counts of work that must repeat exactly from op to op.
    pub counts: Counts,
}

pub trait Workload {
    type State;
    /// The einsum expressions the workload contracts.
    fn expressions(&self) -> Vec<&'static str>;
    /// Bytes of input file read per op (0 without ingest).
    fn ingest_bytes(&self) -> u64 {
        0
    }
    /// True when the workload runs through `spttn-net`.
    fn is_network(&self) -> bool {
        false
    }
    fn threads(&self) -> usize;
    fn ops_per_job(&self) -> usize;
    /// Nonzeros contracted by one op (nnz × kernel executions).
    fn nnz_per_op(&self) -> u64;
    /// Byte-exact fingerprint of every input the library sees.
    fn input_fingerprint(&self) -> String;
    fn setup(&self, tr: &mut Tracer) -> spttn::Result<Self::State>;
    fn op(
        &self,
        st: &mut Self::State,
        tr: &mut Tracer,
        chk: &mut Checks,
    ) -> spttn::Result<OpOutcome>;
    /// Structural counts of the set-up (plans, CSF, binds, tapes).
    fn layer_counts(&self, st: &Self::State) -> spttn::Result<Counts>;
    /// Traced run only, after the timed jobs: the tape compile+verify and
    /// the 1-thread re-bind. Never inside a timed op.
    fn extras(&self, st: &mut Self::State, tr: &mut Tracer) -> spttn::Result<Vec<(String, f64)>>;
}

fn dims_map(pairs: &[(&str, usize)]) -> HashMap<String, usize> {
    pairs.iter().map(|&(n, d)| (n.to_string(), d)).collect()
}

fn shapes_of(pairs: &[(&str, usize)]) -> Shapes {
    Shapes::new().with_dims(pairs)
}

fn stat_counts(suffix: &str, s: &ExecStats) -> Counts {
    vec![
        (format!("exec.counted_flops{suffix}"), s.flops()),
        (format!("exec.dispatches{suffix}"), s.total()),
        (format!("exec.elems{suffix}"), s.elems()),
        (format!("exec.node_searches{suffix}"), s.node_searches),
        (format!("exec.search_probes{suffix}"), s.search_probes),
    ]
}

fn csf_fibers(csf: &Csf) -> u64 {
    (0..csf.order().saturating_sub(1))
        .map(|k| csf.level_nnz(k) as u64)
        .sum()
}

/// Plan-layer and tape-structure counts of one kernel plan, suffixed.
fn plan_counts(m: usize, plan: &Plan) -> spttn::Result<Counts> {
    let tape = CompiledTape::compile_with(
        plan.kernel(),
        plan.path(),
        plan.forest(),
        plan.buffers(),
        plan.exec().microkernels,
    )?;
    Ok(vec![
        (
            format!("plan.order_candidates.m{m}"),
            plan.order_costs().len() as u64,
        ),
        (format!("plan.modeled_flops.m{m}"), plan.flops as u64),
        (format!("plan.tier.m{m}"), plan.tier as u64),
        (
            format!("bind.resorted.m{m}"),
            u64::from(!plan.is_natural_order()),
        ),
        (format!("tape.instrs.m{m}"), tape.num_instrs() as u64),
        (
            format!("tape.kernel_width.m{m}"),
            tape.kernel_width() as u64,
        ),
        (format!("tape.specialized.m{m}"), tape.specialized() as u64),
        (
            format!("tape.superinstructions.m{m}"),
            tape.superinstructions() as u64,
        ),
    ])
}

fn workspace_bytes(plan: &Plan, threads: usize) -> u64 {
    (plan.parallel_footprint(threads) * 8) as u64
}

/// Median time (ms) of `reps` calls of `f`.
fn median_ms(reps: usize, mut f: impl FnMut() -> spttn::Result<()>) -> spttn::Result<f64> {
    let mut v = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        f()?;
        v.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Ok(crate::stats::median(&v))
}

/// Time `Plan::verify_tape` over every plan, as the workload's tape
/// compile+verify cost.
fn verify_extras(plans: &[&Plan], tr: &mut Tracer) -> spttn::Result<Vec<(String, f64)>> {
    let ms = median_ms(3, || {
        for p in plans {
            let s = tr.begin("tape.verify");
            let r = p.verify_tape();
            tr.end(s);
            r?;
        }
        Ok(())
    })?;
    Ok(vec![("tape.compile_verify_ms".to_string(), ms)])
}

/// Re-bind `plan` at one thread and time its executions: the `parallel`
/// layer's baseline. Returns (median ms, counted flops at one thread).
fn one_thread_exec(
    plan: &Plan,
    csf: Csf,
    factors: &[(&str, &DenseTensor)],
    tr: &mut Tracer,
) -> spttn::Result<(f64, u64)> {
    let serial = plan.clone().with_exec(ExecOptions {
        threads: Threads::N(1),
        ..plan.exec()
    });
    let mut ex = serial.bind(csf, factors)?;
    let mut out = ex.output_template();
    let ms = median_ms(5, || {
        let s = tr.begin("parallel.exec_1t");
        let r = ex.execute_into(&mut out);
        tr.end(s);
        r
    })?;
    Ok((ms, ex.last_stats().flops()))
}

/// Traced-run extras of kernel plans bound to `coo` and their factors:
/// the tape compile+verify time and the one-thread re-bind, summed over
/// the plans.
fn plan_extras(
    coo: &CooTensor,
    kernels: &[(&Plan, Vec<(&str, &DenseTensor)>)],
    tr: &mut Tracer,
) -> spttn::Result<Vec<(String, f64)>> {
    let plans: Vec<&Plan> = kernels.iter().map(|(p, _)| *p).collect();
    let mut v = verify_extras(&plans, tr)?;
    let (mut ms, mut flops) = (0.0, 0u64);
    for (plan, factors) in kernels {
        let csf = Csf::from_coo(coo, &[0, 1, 2])?;
        let (t, f) = one_thread_exec(plan, csf, factors, tr)?;
        ms += t;
        flops += f;
    }
    v.push(("parallel.exec_ms_1t".to_string(), ms));
    v.push(("parallel.counted_flops_1t".to_string(), flops as f64));
    Ok(v)
}

// ---------------------------------------------------------------- als

/// CP-ALS sweep: three MTTKRPs, each followed by a column-normalised
/// factor update pushed into the other two executors.
pub struct AlsMttkrp {
    coo: CooTensor,
    init: [DenseTensor; 3],
    dims: Vec<(&'static str, usize)>,
}

const ALS_EXPRS: [&str; 3] = [
    "T[i,j,k]*B[j,a]*C[k,a]->A[i,a]",
    "T[i,j,k]*A[i,a]*C[k,a]->B[j,a]",
    "T[i,j,k]*A[i,a]*B[j,a]->C[k,a]",
];
const ALS_NAMES: [&str; 3] = ["A", "B", "C"];

pub struct AlsState {
    plans: Vec<Plan>,
    execs: Vec<Executor>,
    outs: Vec<ContractionOutput>,
    factors: [DenseTensor; 3],
    fibers: u64,
}

impl AlsMttkrp {
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let (i, j, k, r) = (512, 96, 96, 32);
        let coo = uniform_coo(&mut rng, &[i, j, k], 250_000);
        let init = [
            dense(&mut rng, &[i, r]),
            dense(&mut rng, &[j, r]),
            dense(&mut rng, &[k, r]),
        ];
        AlsMttkrp {
            coo,
            init,
            dims: vec![("i", i), ("j", j), ("k", k), ("a", r)],
        }
    }

    fn others(m: usize) -> [usize; 2] {
        [(m + 1) % 3, (m + 2) % 3]
    }

    fn bound(m: usize, f: &[DenseTensor; 3]) -> Vec<(&'static str, &DenseTensor)> {
        Self::others(m)
            .iter()
            .map(|&o| (ALS_NAMES[o], &f[o]))
            .collect()
    }
}

/// Each column divided by its 2-norm (a zero column stays zero).
fn column_normalised(out: &ContractionOutput) -> DenseTensor {
    let mut t = out.to_dense();
    let (rows, cols) = (t.dims()[0], t.dims()[1]);
    let data = t.as_mut_slice();
    for c in 0..cols {
        let norm = (0..rows)
            .map(|r| data[r * cols + c].powi(2))
            .sum::<f64>()
            .sqrt();
        if norm > 0.0 {
            for r in 0..rows {
                data[r * cols + c] /= norm;
            }
        }
    }
    t
}

impl Workload for AlsMttkrp {
    type State = AlsState;

    fn expressions(&self) -> Vec<&'static str> {
        ALS_EXPRS.to_vec()
    }
    fn threads(&self) -> usize {
        2
    }
    fn ops_per_job(&self) -> usize {
        2
    }
    fn nnz_per_op(&self) -> u64 {
        3 * self.coo.nnz() as u64
    }
    fn input_fingerprint(&self) -> String {
        let mut f = Fingerprint::new();
        f.coo(&self.coo);
        self.init.iter().for_each(|t| f.dense(t));
        f.hex()
    }

    fn setup(&self, tr: &mut Tracer) -> spttn::Result<AlsState> {
        let s = tr.begin("csf");
        let csf = Csf::from_coo(&self.coo, &[0, 1, 2])?;
        tr.end(s);
        let fibers = csf_fibers(&csf);
        let shapes = shapes_of(&self.dims).with_nnz(self.coo.nnz() as u64);
        let opts = PlanOptions::default().with_threads(Threads::N(self.threads()));
        let mut plans = Vec::with_capacity(3);
        for (m, expr) in ALS_EXPRS.iter().enumerate() {
            let s = tr.begin(&format!("plan.m{m}"));
            let plan = Contraction::parse(expr).and_then(|c| c.plan(&shapes, &opts));
            tr.end(s);
            plans.push(plan?);
        }
        let mut execs = Vec::with_capacity(3);
        for (m, (plan, csf)) in plans
            .iter()
            .zip([csf.clone(), csf.clone(), csf])
            .enumerate()
        {
            let s = tr.begin(&format!("bind.m{m}"));
            let ex = plan.bind(csf, &Self::bound(m, &self.init));
            tr.end(s);
            execs.push(ex?);
        }
        let outs = execs.iter().map(Executor::output_template).collect();
        Ok(AlsState {
            plans,
            execs,
            outs,
            factors: self.init.clone(),
            fibers,
        })
    }

    fn op(&self, st: &mut AlsState, tr: &mut Tracer, chk: &mut Checks) -> spttn::Result<OpOutcome> {
        let mut ok = true;
        let mut counts = Vec::new();
        for m in 0..3 {
            let s = tr.begin(&format!("exec.m{m}"));
            let r = st.execs[m].execute_into(&mut st.outs[m]);
            tr.end(s);
            r?;
            counts.extend(stat_counts(&format!(".m{m}"), &st.execs[m].last_stats()));
            let update = column_normalised(&st.outs[m]);
            // The reference uses the factors this executor was bound to.
            let want = chk.untimed(tr, "check.reference", || {
                reference(
                    &Einsum::parse(ALS_EXPRS[m]),
                    &dims_map(&self.dims),
                    &self.coo,
                    &Self::bound(m, &st.factors),
                )
            });
            ok &= chk.check(tr, &mut st.outs[m], &want);
            for o in Self::others(m) {
                let s = tr.begin("rebind");
                let r = st.execs[o].set_factor(ALS_NAMES[m], &update);
                tr.end(s);
                r?;
            }
            st.factors[m] = update;
        }
        Ok(OpOutcome {
            setup_s: None,
            ok,
            counts,
        })
    }

    fn layer_counts(&self, st: &AlsState) -> spttn::Result<Counts> {
        let mut v = vec![("csf.fibers".to_string(), st.fibers)];
        for (m, p) in st.plans.iter().enumerate() {
            v.extend(plan_counts(m, p)?);
            v.push((
                format!("bind.workspace_bytes.m{m}"),
                workspace_bytes(p, st.execs[m].threads()),
            ));
        }
        Ok(v)
    }

    fn extras(&self, st: &mut AlsState, tr: &mut Tracer) -> spttn::Result<Vec<(String, f64)>> {
        let kernels: Vec<_> = st
            .plans
            .iter()
            .enumerate()
            .map(|(m, p)| (p, Self::bound(m, &st.factors)))
            .collect();
        plan_extras(&self.coo, &kernels, tr)
    }
}

// ------------------------------------------------------------- tucker

/// TTMc for Tucker/HOOI: one `execute_into` per op, single thread.
pub struct TuckerTtmc {
    coo: CooTensor,
    u: DenseTensor,
    v: DenseTensor,
    want: DenseTensor,
    dims: Vec<(&'static str, usize)>,
}

const TUCKER_EXPR: &str = "T[i,j,k]*U[j,r]*V[k,s]->Y[i,r,s]";

pub struct SingleState {
    plan: Plan,
    exec: Executor,
    out: ContractionOutput,
    fibers: u64,
}

impl TuckerTtmc {
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let (i, j, k, r, s) = (384, 64, 64, 32, 32);
        let coo = uniform_coo(&mut rng, &[i, j, k], 120_000);
        let u = dense(&mut rng, &[j, r]);
        let v = dense(&mut rng, &[k, s]);
        let dims = vec![("i", i), ("j", j), ("k", k), ("r", r), ("s", s)];
        let want = reference(
            &Einsum::parse(TUCKER_EXPR),
            &dims_map(&dims),
            &coo,
            &[("U", &u), ("V", &v)],
        );
        TuckerTtmc {
            coo,
            u,
            v,
            want,
            dims,
        }
    }
}

fn single_layer_counts(st: &SingleState) -> spttn::Result<Counts> {
    let mut v = vec![("csf.fibers".to_string(), st.fibers)];
    v.extend(plan_counts(0, &st.plan)?);
    v.push((
        "bind.workspace_bytes.m0".to_string(),
        workspace_bytes(&st.plan, st.exec.threads()),
    ));
    Ok(v)
}

impl Workload for TuckerTtmc {
    type State = SingleState;

    fn expressions(&self) -> Vec<&'static str> {
        vec![TUCKER_EXPR]
    }
    fn threads(&self) -> usize {
        1
    }
    fn ops_per_job(&self) -> usize {
        50
    }
    fn nnz_per_op(&self) -> u64 {
        self.coo.nnz() as u64
    }
    fn input_fingerprint(&self) -> String {
        let mut f = Fingerprint::new();
        f.coo(&self.coo);
        f.dense(&self.u);
        f.dense(&self.v);
        f.hex()
    }

    fn setup(&self, tr: &mut Tracer) -> spttn::Result<SingleState> {
        let s = tr.begin("csf");
        let csf = Csf::from_coo(&self.coo, &[0, 1, 2])?;
        tr.end(s);
        let fibers = csf_fibers(&csf);
        let shapes = shapes_of(&self.dims).with_nnz(self.coo.nnz() as u64);
        let s = tr.begin("plan.m0");
        let plan =
            Contraction::parse(TUCKER_EXPR).and_then(|c| c.plan(&shapes, &PlanOptions::default()));
        tr.end(s);
        let plan = plan?;
        let s = tr.begin("bind.m0");
        let exec = plan.bind(csf, &[("U", &self.u), ("V", &self.v)]);
        tr.end(s);
        let exec = exec?;
        let out = exec.output_template();
        Ok(SingleState {
            plan,
            exec,
            out,
            fibers,
        })
    }

    fn op(
        &self,
        st: &mut SingleState,
        tr: &mut Tracer,
        chk: &mut Checks,
    ) -> spttn::Result<OpOutcome> {
        let s = tr.begin("exec.m0");
        let r = st.exec.execute_into(&mut st.out);
        tr.end(s);
        r?;
        let counts = stat_counts(".m0", &st.exec.last_stats());
        let ok = chk.check(tr, &mut st.out, &self.want);
        Ok(OpOutcome {
            setup_s: None,
            ok,
            counts,
        })
    }

    fn layer_counts(&self, st: &SingleState) -> spttn::Result<Counts> {
        single_layer_counts(st)
    }

    fn extras(&self, st: &mut SingleState, tr: &mut Tracer) -> spttn::Result<Vec<(String, f64)>> {
        let factors = vec![("U", &self.u), ("V", &self.v)];
        plan_extras(&self.coo, &[(&st.plan, factors)], tr)
    }
}

// ------------------------------------------------------------ oneshot

/// The `spttn run` path: read the `.tns` file, plan under
/// `--mode-order auto` from the pattern, build the CSF, bind (which
/// re-sorts) and execute once — all inside one op.
pub struct OneShotAuto {
    path: PathBuf,
    file_bytes: u64,
    file_fingerprint: String,
    nnz: u64,
    sparse_dims: Vec<usize>,
    b: DenseTensor,
    c: DenseTensor,
    want: DenseTensor,
    dims: Vec<(&'static str, usize)>,
}

const ONESHOT_EXPR: &str = "T[i,j,k]*B[j,a]*C[k,a]->A[i,a]";

impl OneShotAuto {
    /// Same tensor as `als-mttkrp` for this seed, written once to `path`.
    pub fn new(seed: u64, path: PathBuf) -> std::io::Result<Self> {
        let als = AlsMttkrp::new(seed);
        write_tns(&als.coo, &path)?;
        let bytes = std::fs::read(&path)?;
        let mut f = Fingerprint::new();
        f.bytes(&bytes);
        let [_, b, c] = als.init.clone();
        f.dense(&b);
        f.dense(&c);
        let want = reference(
            &Einsum::parse(ONESHOT_EXPR),
            &dims_map(&als.dims),
            &als.coo,
            &[("B", &b), ("C", &c)],
        );
        Ok(OneShotAuto {
            path,
            file_bytes: bytes.len() as u64,
            file_fingerprint: f.hex(),
            nnz: als.coo.nnz() as u64,
            sparse_dims: als.coo.dims().to_vec(),
            b,
            c,
            want,
            dims: als.dims,
        })
    }
}

pub struct OneShotState {
    last: Option<(SingleState, CooTensor)>,
}

impl Workload for OneShotAuto {
    type State = OneShotState;

    fn expressions(&self) -> Vec<&'static str> {
        vec![ONESHOT_EXPR]
    }
    fn ingest_bytes(&self) -> u64 {
        self.file_bytes
    }
    fn threads(&self) -> usize {
        2
    }
    fn ops_per_job(&self) -> usize {
        1
    }
    fn nnz_per_op(&self) -> u64 {
        self.nnz
    }
    fn input_fingerprint(&self) -> String {
        self.file_fingerprint.clone()
    }

    fn setup(&self, _tr: &mut Tracer) -> spttn::Result<OneShotState> {
        Ok(OneShotState { last: None })
    }

    fn op(
        &self,
        st: &mut OneShotState,
        tr: &mut Tracer,
        chk: &mut Checks,
    ) -> spttn::Result<OpOutcome> {
        let t = Instant::now();
        let s = tr.begin("ingest");
        let coo = std::fs::File::open(&self.path)
            .map_err(|e| spttn::SpttnError::Execution(format!("open {}: {e}", self.path.display())))
            .and_then(|f| {
                read_tns(std::io::BufReader::new(f), Some(&self.sparse_dims))
                    .map_err(|e| spttn::SpttnError::Execution(format!("read_tns: {e}")))
            });
        tr.end(s);
        let coo = coo?;
        let s = tr.begin("plan.m0");
        let shapes = shapes_of(&self.dims).with_pattern(coo.clone());
        let opts = PlanOptions::default()
            .with_threads(Threads::N(self.threads()))
            .with_mode_order(ModeOrderPolicy::Auto);
        let plan = Contraction::parse(ONESHOT_EXPR).and_then(|c| c.plan(&shapes, &opts));
        tr.end(s);
        let plan = plan?;
        let s = tr.begin("csf");
        let csf = Csf::from_coo(&coo, &[0, 1, 2]);
        tr.end(s);
        let csf = csf?;
        let fibers = csf_fibers(&csf);
        let s = tr.begin("bind.m0");
        let exec = plan.bind(csf, &[("B", &self.b), ("C", &self.c)]);
        tr.end(s);
        let mut exec = exec?;
        let mut out = exec.output_template();
        let setup_s = t.elapsed().as_secs_f64();
        let s = tr.begin("exec.m0");
        let r = exec.execute_into(&mut out);
        tr.end(s);
        r?;
        let counts = stat_counts(".m0", &exec.last_stats());
        let ok = chk.check(tr, &mut out, &self.want);
        st.last = Some((
            SingleState {
                plan,
                exec,
                out,
                fibers,
            },
            coo,
        ));
        Ok(OpOutcome {
            setup_s: Some(setup_s),
            ok,
            counts,
        })
    }

    fn layer_counts(&self, st: &OneShotState) -> spttn::Result<Counts> {
        match &st.last {
            Some((s, _)) => single_layer_counts(s),
            None => Ok(Vec::new()),
        }
    }

    fn extras(&self, st: &mut OneShotState, tr: &mut Tracer) -> spttn::Result<Vec<(String, f64)>> {
        let Some((s, coo)) = &st.last else {
            return Ok(Vec::new());
        };
        let factors = vec![("B", &self.b), ("C", &self.c)];
        plan_extras(coo, &[(&s.plan, factors)], tr)
    }
}

// ---------------------------------------------------------------- net

/// A four-tensor network with one dense-dense pair, planned by
/// `spttn-net` under its default (greedy) order search. It runs on one
/// thread: at two threads on a 2-vCPU host its op time swung between
/// 50 and 140 ms with the host's load (run-to-run spread 0.27 of the
/// median), while `als-mttkrp` already measures the parallel layer.
pub struct NetKrpChain {
    coo: CooTensor,
    a: DenseTensor,
    b: DenseTensor,
    c: DenseTensor,
    want: DenseTensor,
    dims: Vec<(&'static str, usize)>,
}

const NET_EXPR: &str = "T[i,j,k]*A[j,r]*B[k,r]*C[r,s]->O[i,s]";

pub struct NetState {
    plan: NetworkPlan,
    exec: NetworkExecutor,
    out: ContractionOutput,
    fibers: u64,
}

impl NetKrpChain {
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let (i, j, k, r, s) = (256, 96, 96, 32, 32);
        let coo = uniform_coo(&mut rng, &[i, j, k], 100_000);
        let a = dense(&mut rng, &[j, r]);
        let b = dense(&mut rng, &[k, r]);
        let c = dense(&mut rng, &[r, s]);
        let dims = vec![("i", i), ("j", j), ("k", k), ("r", r), ("s", s)];
        let want = reference(
            &Einsum::parse(NET_EXPR),
            &dims_map(&dims),
            &coo,
            &[("A", &a), ("B", &b), ("C", &c)],
        );
        NetKrpChain {
            coo,
            a,
            b,
            c,
            want,
            dims,
        }
    }

    fn options(threads: usize) -> NetOptions {
        NetOptions::default()
            .with_plan_options(PlanOptions::default().with_threads(Threads::N(threads)))
    }

    fn factors(&self) -> [(&'static str, &DenseTensor); 3] {
        [("A", &self.a), ("B", &self.b), ("C", &self.c)]
    }

    fn plan_and_bind(&self, threads: usize, tr: &mut Tracer) -> spttn::Result<NetState> {
        let s = tr.begin("csf");
        let csf = Csf::from_coo(&self.coo, &[0, 1, 2]);
        tr.end(s);
        let csf = csf?;
        let fibers = csf_fibers(&csf);
        let shapes = shapes_of(&self.dims).with_nnz(self.coo.nnz() as u64);
        let s = tr.begin("net.plan");
        let plan = Network::parse(NET_EXPR).and_then(|n| n.plan(&shapes, &Self::options(threads)));
        tr.end(s);
        let plan = plan?;
        let s = tr.begin("net.bind");
        let exec = plan.bind(csf, &self.factors());
        tr.end(s);
        let exec = exec?;
        let out = exec.output_template();
        Ok(NetState {
            plan,
            exec,
            out,
            fibers,
        })
    }
}

impl Workload for NetKrpChain {
    type State = NetState;

    fn expressions(&self) -> Vec<&'static str> {
        vec![NET_EXPR]
    }
    fn is_network(&self) -> bool {
        true
    }
    fn threads(&self) -> usize {
        1
    }
    fn ops_per_job(&self) -> usize {
        10
    }
    fn nnz_per_op(&self) -> u64 {
        self.coo.nnz() as u64
    }
    fn input_fingerprint(&self) -> String {
        let mut f = Fingerprint::new();
        f.coo(&self.coo);
        f.dense(&self.a);
        f.dense(&self.b);
        f.dense(&self.c);
        f.hex()
    }

    fn setup(&self, tr: &mut Tracer) -> spttn::Result<NetState> {
        self.plan_and_bind(self.threads(), tr)
    }

    fn op(&self, st: &mut NetState, tr: &mut Tracer, chk: &mut Checks) -> spttn::Result<OpOutcome> {
        let s = tr.begin("net.exec");
        let r = st.exec.execute_into(&mut st.out);
        tr.end(s);
        r?;
        let mut counts = stat_counts(".m0", &st.exec.kernel_stats());
        counts.push((
            "net.dense_step_flops".to_string(),
            st.exec.dense_step_flops() as u64,
        ));
        let ok = chk.check(tr, &mut st.out, &self.want);
        Ok(OpOutcome {
            setup_s: None,
            ok,
            counts,
        })
    }

    fn layer_counts(&self, st: &NetState) -> spttn::Result<Counts> {
        let kp = st.plan.kernel_plan();
        let report = st.plan.report();
        let mut v = vec![("csf.fibers".to_string(), st.fibers)];
        v.extend(plan_counts(0, kp)?);
        v.push((
            "bind.workspace_bytes.m0".to_string(),
            workspace_bytes(kp, st.exec.threads()),
        ));
        v.push(("net.evaluated_pairs".to_string(), report.evaluated_pairs));
        v.push(("net.chosen_flops".to_string(), report.chosen_flops as u64));
        v.push(("net.greedy_flops".to_string(), report.greedy_flops as u64));
        v.push((
            "net.dense_steps".to_string(),
            st.exec.num_dense_steps() as u64,
        ));
        Ok(v)
    }

    fn extras(&self, st: &mut NetState, tr: &mut Tracer) -> spttn::Result<Vec<(String, f64)>> {
        let mut v = verify_extras(&[st.plan.kernel_plan()], tr)?;
        // The whole network at one thread (its dense steps are serial
        // either way), bound outside every timed op.
        let mut serial = self.plan_and_bind(1, &mut Tracer::new(false))?;
        let ms = median_ms(5, || {
            let s = tr.begin("parallel.exec_1t");
            let r = serial.exec.execute_into(&mut serial.out);
            tr.end(s);
            r
        })?;
        v.push(("parallel.exec_ms_1t".to_string(), ms));
        v.push((
            "parallel.counted_flops_1t".to_string(),
            serial.exec.kernel_stats().flops() as f64,
        ));
        Ok(v)
    }
}
