//! spttn benchmark: four seeded workloads timed end to end (tracing
//! off) and per layer (tracing on), every output checked against a
//! reference written here.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <als-mttkrp|tucker-ttmc|oneshot-auto|net-krp-chain> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Lines before it (prefixed `#`) give the host and configuration
//! fingerprint, sample counts, `op_ms.p90` where a run has at least
//! 100 ops, `failed_frac`, the span summary, absent metrics with the
//! reason, and counts that did not repeat.
//!
//! Seeds 1 to 10 were used while the benchmark was written; seed 7919
//! is held back as the unseen seed on which a claimed gain must also
//! hold.
//!
//! Files written under `perfbench/out/`: the `.tns` input of
//! `oneshot-auto` (removed at exit), each traced run's spans, the
//! counts of each traced (workload, seed), and the fingerprint log
//! that flags runs made under a different host or configuration.

mod check;
mod inputs;
mod stats;
mod trace;
mod workloads;

use stats::{median, quantile};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::Tracer;
use workloads::{AlsMttkrp, Checks, NetKrpChain, OneShotAuto, TuckerTtmc, Workload};

const WORKLOADS: [&str; 4] = ["als-mttkrp", "tucker-ttmc", "oneshot-auto", "net-krp-chain"];

/// Fewest jobs a run makes, so `setup_s` is a median of several set-ups.
const MIN_JOBS: u32 = 5;

/// `(name, unit, better)` of every end-to-end metric the JSON line holds.
const END_TO_END: [(&str, &str, &str); 5] = [
    ("setup_s", "s", "lower"),
    ("op_ms.p50", "ms", "lower"),
    ("solve_s", "s", "lower"),
    ("nnz_per_s", "nnz/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
];

const KERNELS: [&str; 3] = [".m0", ".m1", ".m2"];
const PLAN_PER_KERNEL: [&str; 4] = [
    "plan.ms",
    "plan.order_candidates",
    "plan.modeled_flops",
    "plan.tier",
];
const EXEC_PER_KERNEL: [&str; 8] = [
    "exec.ms",
    "exec.counted_flops",
    "exec.dispatches",
    "exec.elems",
    "exec.node_searches",
    "exec.search_probes",
    "exec.counted_over_modeled",
    "exec.ns_per_nnz",
];

/// `(name, unit)` of every per-layer metric, kernel-suffixed names
/// included, in print order.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &str)> = Vec::new();
    let mut add = |n: &str, u: &'static str| v.push((n.to_string(), u));
    add("ingest.ms", "ms");
    add("ingest.mb_per_s", "MB/s");
    add("csf.ms", "ms");
    add("csf.fibers", "count");
    for n in PLAN_PER_KERNEL {
        add(n, unit_of(n));
    }
    add("bind.ms", "ms");
    add("bind.workspace_bytes", "bytes");
    add("bind.resorted", "count");
    add("tape.compile_verify_ms", "ms");
    add("tape.instrs", "count");
    add("tape.kernel_width", "lanes");
    add("tape.specialized", "count");
    add("tape.superinstructions", "count");
    for n in EXEC_PER_KERNEL {
        add(n, unit_of(n));
    }
    add("parallel.exec_ms_1t", "ms");
    add("parallel.speedup", "x");
    add("parallel.replicated_flops", "flop");
    add("rebind.ms", "ms");
    add("net.plan_ms", "ms");
    add("net.evaluated_pairs", "count");
    add("net.chosen_flops", "flop");
    add("net.greedy_flops", "flop");
    add("net.bind_ms", "ms");
    add("net.exec_ms", "ms");
    add("net.dense_steps", "count");
    add("net.dense_step_flops", "flop");
    add("net.kernel_counted_flops", "flop");
    add("trace.overhead_frac", "frac");
    add("check.ms", "ms");
    add("check.max_rel_err", "frac");
    add("counts.nonrepeating", "count");
    for base in PLAN_PER_KERNEL.iter().chain(&EXEC_PER_KERNEL) {
        for k in KERNELS {
            add(&format!("{base}{k}"), unit_of(base));
        }
    }
    v
}

fn unit_of(base: &str) -> &'static str {
    match base {
        "plan.ms" | "exec.ms" => "ms",
        "plan.modeled_flops" | "exec.counted_flops" => "flop",
        "exec.counted_over_modeled" => "ratio",
        "exec.ns_per_nnz" => "ns",
        "plan.tier" => "tier",
        _ => "count",
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// What the timed jobs of one phase measured.
#[derive(Default)]
struct Record {
    setup_s: Vec<f64>,
    solve_s: Vec<f64>,
    op_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
}

/// Per count name, every value observed; a count repeats when all are equal.
#[derive(Default)]
struct CountLog(BTreeMap<String, Vec<u64>>);

impl CountLog {
    fn record(&mut self, counts: impl IntoIterator<Item = (String, u64)>) {
        for (k, v) in counts {
            self.0.entry(k).or_default().push(v);
        }
    }

    fn first(&self, name: &str) -> Option<u64> {
        self.0.get(name).and_then(|v| v.first().copied())
    }

    fn nonrepeating(&self) -> Vec<String> {
        self.0
            .iter()
            .filter(|(_, v)| v.iter().any(|x| *x != v[0]))
            .map(|(k, _)| k.clone())
            .collect()
    }
}

/// Run jobs (set-up plus the workload's ops) until `seconds` have
/// passed and at least [`MIN_JOBS`] jobs ran. Op latency excludes the
/// untimed checks inside it. Returns the last job's state.
fn measure<W: Workload>(
    w: &W,
    seconds: f64,
    tr: &mut Tracer,
    chk: &mut Checks,
    counts: &mut CountLog,
) -> (Record, Option<W::State>) {
    let mut rec = Record::default();
    let mut last = None;
    let start = Instant::now();
    let mut job = 0u32;
    while job < MIN_JOBS || start.elapsed().as_secs_f64() < seconds {
        // One job's executors alive at a time keeps the peak RSS steady.
        drop(last.take());
        tr.set_run(job);
        job += 1;
        let js = tr.begin("job");
        let t = Instant::now();
        let ss = tr.begin("setup");
        let st = w.setup(tr);
        tr.end(ss);
        let mut setup = t.elapsed().as_secs_f64();
        let mut st = match st {
            Ok(st) => st,
            Err(e) => {
                eprintln!("set-up failed: {e}");
                rec.attempted += w.ops_per_job() as u64;
                rec.failed += w.ops_per_job() as u64;
                tr.end(js);
                continue;
            }
        };
        let mut solve = setup;
        for _ in 0..w.ops_per_job() {
            let untimed = chk.untimed_s;
            let t = Instant::now();
            let os = tr.begin("op");
            let r = w.op(&mut st, tr, chk);
            tr.end(os);
            let secs = t.elapsed().as_secs_f64() - (chk.untimed_s - untimed);
            rec.attempted += 1;
            match r {
                Ok(o) => {
                    rec.failed += u64::from(!o.ok);
                    rec.op_ms.push(secs * 1e3);
                    solve += secs;
                    if let Some(s) = o.setup_s {
                        // The op sets up inside itself (one-shot path).
                        setup = s;
                    }
                    counts.record(o.counts);
                }
                Err(e) => {
                    eprintln!("op failed: {e}");
                    rec.failed += 1;
                }
            }
        }
        rec.setup_s.push(setup);
        rec.solve_s.push(solve);
        if tr.is_on() {
            match w.layer_counts(&st) {
                Ok(c) => counts.record(c),
                Err(e) => eprintln!("layer counts failed: {e}"),
            }
        }
        last = Some(st);
        tr.end(js);
    }
    (rec, last)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn host_fingerprint(threads: usize) -> String {
    let ks = spttn::exec::KernelSet::resolve(spttn::Microkernels::Auto);
    format!(
        "cpu={}; nproc={}; cpu_features={}; microkernels={}/{}; threads={}; SPTTN_MICROKERNELS={}",
        cpu_model(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        spttn::exec::detected_cpu_features(),
        ks.name(),
        ks.width(),
        threads,
        std::env::var("SPTTN_MICROKERNELS").unwrap_or_else(|_| "unset".into()),
    )
}

/// Append this run's fingerprint to the log and count earlier runs of
/// the same workload whose fingerprint differs.
fn log_fingerprint(dir: &Path, workload: &str, fp: &str) -> usize {
    let path = dir.join("fingerprints.log");
    let prev = std::fs::read_to_string(&path).unwrap_or_default();
    let differing = prev
        .lines()
        .filter_map(|l| l.split_once('\t'))
        .filter(|(w, f)| *w == workload && *f != fp)
        .count();
    let line = format!("{prev}{workload}\t{fp}\n");
    if let Err(e) = std::fs::write(&path, line) {
        eprintln!("writing {}: {e}", path.display());
    }
    differing
}

/// Compare this traced run's counts with the previous traced run of the
/// same workload and seed, then store them. Returns the names that differ.
fn compare_saved_counts(dir: &Path, workload: &str, seed: u64, counts: &CountLog) -> Vec<String> {
    let path = dir.join(format!("counts-{workload}-{seed}.txt"));
    let mut differ = Vec::new();
    if let Ok(prev) = std::fs::read_to_string(&path) {
        for l in prev.lines() {
            if let Some((k, v)) = l.split_once(' ') {
                if counts.first(k).map(|x| x.to_string()).as_deref() != Some(v) {
                    differ.push(k.to_string());
                }
            }
        }
    }
    let body: String = counts
        .0
        .iter()
        .filter_map(|(k, v)| v.first().map(|x| format!("{k} {x}\n")))
        .collect();
    if let Err(e) = std::fs::write(&path, body) {
        eprintln!("writing {}: {e}", path.display());
    }
    differ
}

/// Non-finite values are not JSON; report them as the largest double.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        format!("{}", f64::MAX)
    }
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_num(*v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn end_to_end(w: &impl Workload, rec: &Record) -> Vec<(String, f64, &'static str)> {
    let op_s: f64 = rec.op_ms.iter().sum::<f64>() * 1e-3;
    let values = [
        median(&rec.setup_s),
        median(&rec.op_ms),
        median(&rec.solve_s),
        w.nnz_per_op() as f64 * rec.op_ms.len() as f64 / op_s,
        peak_rss_mb(),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(n, u, _), v)| (n.to_string(), v, u))
        .collect()
}

/// Per-layer metrics of a traced phase, from its spans, counts and extras.
fn layer_metrics(
    w: &impl Workload,
    tr: &Tracer,
    counts: &CountLog,
    extras: &BTreeMap<String, f64>,
    chk: &Checks,
    overhead: f64,
) -> BTreeMap<String, f64> {
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let span_ms = |pick: &dyn Fn(&str) -> bool| -> Option<f64> {
        let v = tr.child_sums_ms(pick);
        (!v.is_empty()).then(|| median(&v))
    };
    let put = |m: &mut BTreeMap<String, f64>, k: &str, v: Option<f64>| {
        if let Some(v) = v {
            m.insert(k.to_string(), v);
        }
    };
    put(&mut m, "ingest.ms", span_ms(&|n| n == "ingest"));
    if let (Some(ms), bytes) = (m.get("ingest.ms").copied(), w.ingest_bytes()) {
        put(
            &mut m,
            "ingest.mb_per_s",
            (bytes > 0).then(|| bytes as f64 * 1e-6 / (ms * 1e-3)),
        );
    }
    put(&mut m, "csf.ms", span_ms(&|n| n == "csf"));
    put(&mut m, "rebind.ms", span_ms(&|n| n == "rebind"));
    put(&mut m, "net.plan_ms", span_ms(&|n| n == "net.plan"));
    put(&mut m, "net.bind_ms", span_ms(&|n| n == "net.bind"));
    put(&mut m, "net.exec_ms", span_ms(&|n| n == "net.exec"));
    for layer in ["plan", "bind", "exec"] {
        let prefix = format!("{layer}.m");
        put(
            &mut m,
            &format!("{layer}.ms"),
            span_ms(&|n| n.starts_with(&prefix)),
        );
    }
    for k in KERNELS {
        for layer in ["plan", "exec"] {
            let name = format!("{layer}{k}");
            put(&mut m, &format!("{layer}.ms{k}"), span_ms(&|n| n == name));
        }
    }

    // Counts: kernel-suffixed values, then their sums (max for tiers
    // and lane widths) under the base name.
    let present: Vec<&str> = KERNELS
        .iter()
        .copied()
        .filter(|k| counts.first(&format!("exec.counted_flops{k}")).is_some())
        .collect();
    for (k, _) in counts.0.iter() {
        if let Some(v) = counts.first(k) {
            m.insert(k.clone(), v as f64);
        }
    }
    for base in [
        "exec.counted_flops",
        "exec.dispatches",
        "exec.elems",
        "exec.node_searches",
        "exec.search_probes",
        "plan.order_candidates",
        "plan.modeled_flops",
        "bind.workspace_bytes",
        "bind.resorted",
        "tape.instrs",
        "tape.specialized",
        "tape.superinstructions",
    ] {
        let vals: Vec<f64> = present
            .iter()
            .filter_map(|k| m.get(&format!("{base}{k}")).copied())
            .collect();
        put(&mut m, base, (!vals.is_empty()).then(|| vals.iter().sum()));
    }
    for base in ["plan.tier", "tape.kernel_width"] {
        let vals: Vec<f64> = present
            .iter()
            .filter_map(|k| m.get(&format!("{base}{k}")).copied())
            .collect();
        put(
            &mut m,
            base,
            (!vals.is_empty()).then(|| vals.iter().fold(0.0, |a: f64, &b| a.max(b))),
        );
    }
    // Per-kernel names that are not metrics of their own.
    for k in KERNELS {
        for base in [
            "bind.workspace_bytes",
            "bind.resorted",
            "tape.instrs",
            "tape.kernel_width",
            "tape.specialized",
            "tape.superinstructions",
        ] {
            m.remove(&format!("{base}{k}"));
        }
    }
    let nnz = w.nnz_per_op() as f64 / present.len().max(1) as f64;
    for sfx in std::iter::once("").chain(present.iter().copied()) {
        let counted = m.get(&format!("exec.counted_flops{sfx}")).copied();
        let modeled = m.get(&format!("plan.modeled_flops{sfx}")).copied();
        if let (Some(c), Some(p)) = (counted, modeled) {
            put(
                &mut m,
                &format!("exec.counted_over_modeled{sfx}"),
                (p > 0.0).then(|| c / p),
            );
        }
        let kernels = if sfx.is_empty() {
            present.len() as f64
        } else {
            1.0
        };
        if let Some(ms) = m.get(&format!("exec.ms{sfx}")).copied() {
            put(
                &mut m,
                &format!("exec.ns_per_nnz{sfx}"),
                Some(ms * 1e6 / (nnz * kernels)),
            );
        }
    }
    if w.is_network() {
        let kc = m.get("exec.counted_flops").copied();
        put(&mut m, "net.kernel_counted_flops", kc);
    }

    put(
        &mut m,
        "tape.compile_verify_ms",
        extras.get("tape.compile_verify_ms").copied(),
    );
    if let Some(&t1) = extras.get("parallel.exec_ms_1t") {
        m.insert("parallel.exec_ms_1t".into(), t1);
        let exec_ms = m.get("exec.ms").or(m.get("net.exec_ms")).copied();
        put(&mut m, "parallel.speedup", exec_ms.map(|e| t1 / e));
    }
    if let (Some(&f1), Some(&fnt)) = (
        extras.get("parallel.counted_flops_1t"),
        m.get("exec.counted_flops"),
    ) {
        m.insert("parallel.replicated_flops".into(), fnt - f1);
    }
    put(&mut m, "trace.overhead_frac", Some(overhead));
    put(
        &mut m,
        "check.ms",
        (!chk.check_ms.is_empty()).then(|| median(&chk.check_ms)),
    );
    m.insert("check.max_rel_err".into(), chk.max_rel_err);
    m
}

fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let dir = out_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("error: creating {}: {e}", dir.display());
        std::process::exit(1);
    }
    let result = match args.workload.as_str() {
        "als-mttkrp" => run(&args, &dir, AlsMttkrp::new(args.seed)),
        "tucker-ttmc" => run(&args, &dir, TuckerTtmc::new(args.seed)),
        "net-krp-chain" => run(&args, &dir, NetKrpChain::new(args.seed)),
        _ => {
            let path = dir.join(format!("oneshot-{}-{}.tns", args.seed, std::process::id()));
            let w = OneShotAuto::new(args.seed, path.clone());
            let r = match w {
                Ok(w) => run(&args, &dir, w),
                Err(e) => Err(format!("writing {}: {e}", path.display())),
            };
            let _ = std::fs::remove_file(&path);
            r
        }
    };
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// Self-test the check: the reference against `naive_einsum` on tiny
/// shapes, and a NaN-poisoned output that must be counted as failed.
fn self_test(w: &impl Workload) -> Result<(), String> {
    for (s, expr) in w.expressions().iter().enumerate() {
        check::self_test(expr, s as u64)?;
    }
    let want = spttn::tensor::DenseTensor::from_data(&[2], vec![1.0, 2.0]).expect("2 values");
    let mut poisoned = spttn::ContractionOutput::Dense(
        spttn::tensor::DenseTensor::from_data(&[2], vec![1.0, f64::NAN]).expect("2 values"),
    );
    if Checks::default().check(&mut Tracer::new(false), &mut poisoned, &want) {
        return Err("a NaN-poisoned output passed the check".into());
    }
    Ok(())
}

fn run<W: Workload>(args: &Args, dir: &Path, w: W) -> Result<String, String> {
    let fp = host_fingerprint(w.threads());
    let differing = log_fingerprint(dir, &args.workload, &fp);
    println!("# host: {fp}");
    if differing > 0 {
        println!(
            "# NOT COMPARABLE: {differing} earlier run(s) of {} here had another fingerprint",
            args.workload
        );
    }
    println!(
        "# inputs: seed {} fingerprint {}",
        args.seed,
        w.input_fingerprint()
    );
    self_test(&w)?;

    let mut chk = Checks::default();
    if !args.trace {
        let (rec, _) = measure(
            &w,
            args.seconds,
            &mut Tracer::new(false),
            &mut chk,
            &mut CountLog::default(),
        );
        if rec.op_ms.is_empty() {
            return Err(format!("no op completed ({} attempted)", rec.attempted));
        }
        let metrics = end_to_end(&w, &rec);
        println!(
            "# {}: {} jobs, {} ops ({} failed, failed_frac {})",
            args.workload,
            rec.setup_s.len(),
            rec.attempted,
            rec.failed,
            rec.failed as f64 / rec.attempted as f64
        );
        for (n, v, u) in &metrics {
            println!("#   {n} = {v} {u}");
        }
        if rec.op_ms.len() >= 100 {
            println!(
                "#   op_ms.p90 = {} ms (of {} ops)",
                quantile(&rec.op_ms, 0.9),
                rec.op_ms.len()
            );
        }
        println!("#   check.max_rel_err = {:e}", chk.max_rel_err);
        let correct = rec.failed == 0 && chk.max_rel_err <= check::TOLERANCE;
        return Ok(result_line(correct, rec.attempted, rec.failed, &metrics));
    }

    // Traced run: an untraced half for the overhead baseline, then a
    // traced half, then the extra work that no timed op may contain.
    let (plain, _) = measure(
        &w,
        args.seconds / 2.0,
        &mut Tracer::new(false),
        &mut chk,
        &mut CountLog::default(),
    );
    let mut tr = Tracer::new(true);
    let mut counts = CountLog::default();
    let (rec, last) = measure(&w, args.seconds / 2.0, &mut tr, &mut chk, &mut counts);
    let mut extras = BTreeMap::new();
    if let Some(mut st) = last {
        tr.set_run(u32::MAX);
        match w.extras(&mut st, &mut tr) {
            Ok(x) => extras.extend(x),
            Err(e) => eprintln!("traced extras failed: {e}"),
        }
    }
    if rec.op_ms.is_empty() || plain.op_ms.is_empty() {
        return Err("no op completed".into());
    }
    let overhead = median(&rec.op_ms) / median(&plain.op_ms) - 1.0;
    let mut m = layer_metrics(&w, &tr, &counts, &extras, &chk, overhead);

    let mut bad = counts.nonrepeating();
    for k in compare_saved_counts(dir, &args.workload, args.seed, &counts) {
        if !bad.contains(&k) {
            bad.push(k);
        }
    }
    m.insert("counts.nonrepeating".into(), bad.len() as f64);
    println!(
        "# counts that did not repeat exactly: {}",
        if bad.is_empty() {
            "none".into()
        } else {
            bad.join(", ")
        }
    );

    println!("# spans (name: count, total ms, self ms)");
    for (name, (n, total, own)) in tr.summary() {
        println!("#   {name}: {n}, {total:.3}, {own:.3}");
    }
    let spans_path = dir.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    if let Err(e) = tr.write_jsonl(&spans_path) {
        eprintln!("writing {}: {e}", spans_path.display());
    }

    let mut absent = Vec::new();
    let metrics: Vec<(String, f64, &str)> = per_layer()
        .into_iter()
        .map(|(n, u)| {
            let v = m.get(&n).copied().unwrap_or_else(|| {
                absent.push(n.clone());
                0.0
            });
            (n, v, u)
        })
        .collect();
    println!(
        "# absent on {} (reported as 0; the workload makes no such call or has no such kernel): {}",
        args.workload,
        absent.join(", ")
    );
    if w.is_network() {
        println!("# the plan, bind and exec layers run inside Network::plan, NetworkPlan::bind and NetworkExecutor::execute_into: their time is in net.*");
    }
    let (attempted, failed) = (plain.attempted + rec.attempted, plain.failed + rec.failed);
    let correct = failed == 0 && chk.max_rel_err <= check::TOLERANCE;
    Ok(result_line(correct, attempted, failed, &metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use spttn::tensor::DenseTensor;
    use spttn::ContractionOutput;

    #[test]
    fn one_seed_reproduces_byte_identical_inputs() {
        let dir = out_dir();
        std::fs::create_dir_all(&dir).unwrap();
        let fp = |seed| {
            let path = dir.join(format!("test-{seed}-{}.tns", std::process::id()));
            let w = OneShotAuto::new(seed, path.clone()).unwrap();
            std::fs::remove_file(&path).unwrap();
            [
                AlsMttkrp::new(seed).input_fingerprint(),
                TuckerTtmc::new(seed).input_fingerprint(),
                NetKrpChain::new(seed).input_fingerprint(),
                w.input_fingerprint(),
            ]
        };
        let (a, b, c) = (fp(3), fp(3), fp(4));
        assert_eq!(a, b);
        for (x, y) in a.iter().zip(&c) {
            assert_ne!(x, y);
        }
    }

    /// Every op returns a NaN-poisoned output.
    struct Poisoned;

    impl Workload for Poisoned {
        type State = ();
        fn expressions(&self) -> Vec<&'static str> {
            Vec::new()
        }
        fn threads(&self) -> usize {
            1
        }
        fn ops_per_job(&self) -> usize {
            2
        }
        fn nnz_per_op(&self) -> u64 {
            1
        }
        fn input_fingerprint(&self) -> String {
            String::new()
        }
        fn setup(&self, _: &mut Tracer) -> spttn::Result<()> {
            Ok(())
        }
        fn op(
            &self,
            _: &mut (),
            tr: &mut Tracer,
            chk: &mut Checks,
        ) -> spttn::Result<workloads::OpOutcome> {
            let want = DenseTensor::from_data(&[2], vec![1.0, 2.0]).unwrap();
            let mut got = ContractionOutput::Dense(
                DenseTensor::from_data(&[2], vec![1.0, f64::NAN]).unwrap(),
            );
            Ok(workloads::OpOutcome {
                setup_s: None,
                ok: chk.check(tr, &mut got, &want),
                counts: Vec::new(),
            })
        }
        fn layer_counts(&self, _: &()) -> spttn::Result<workloads::Counts> {
            Ok(Vec::new())
        }
        fn extras(&self, _: &mut (), _: &mut Tracer) -> spttn::Result<Vec<(String, f64)>> {
            Ok(Vec::new())
        }
    }

    #[test]
    fn nan_poisoned_outputs_count_as_failed() {
        let mut chk = Checks::default();
        let (rec, _) = measure(
            &Poisoned,
            0.0,
            &mut Tracer::new(false),
            &mut chk,
            &mut CountLog::default(),
        );
        assert_eq!(rec.attempted, 2 * u64::from(MIN_JOBS));
        assert_eq!(rec.failed, rec.attempted);
        assert!(chk.max_rel_err > check::TOLERANCE);
    }

    #[test]
    fn benchmark_json_lists_the_metrics_this_program_prints() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .unwrap();
        for (name, unit, better) in END_TO_END {
            let entry =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"");
            assert!(json.contains(&entry), "{entry}");
        }
        for (name, unit) in per_layer() {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "{entry}");
        }
        for w in WORKLOADS {
            assert!(json.contains(&format!("{{\"name\": \"{w}\"")), "{w}");
        }
    }
}
