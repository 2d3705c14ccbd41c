//! One workload's measurement: timed set-ups, repetitions until the time budget is
//! spent, the correctness checks, and the metrics.
//!
//! Each repetition's arms are reduced to an [`Arm`] summary as soon as they finish, so
//! the benchmark's own records stay small and do not grow with the run length (they
//! would otherwise show up in `peak_rss_mb`).

use crate::ledger::{BackendLedger, DriverLog, Mode};
use crate::metrics::{median, quantile};
use crate::os::{self, Reference, Usage};
use crate::workload::{
    baseline_fingerprint, setup, tree_fingerprint, BaselineRun, SetupTimes, Spec, Transport,
    TreeRun, Workload,
};
use std::collections::BTreeMap;
use std::sync::atomic::Ordering::Relaxed;
use std::time::Instant;
use treevqa::TreeVqaResult;
use vqa::VqaRunResult;

/// Set-ups per run are repeated at least this many times, and until
/// [`SETUP_SECONDS`] have been spent (at most [`MAX_SETUPS`]); `setup_s` is the median
/// of their times, each scaled by the host reference timed right after it.
pub const MIN_SETUPS: usize = 5;
/// See [`MIN_SETUPS`].
pub const SETUP_SECONDS: f64 = 2.0;
/// See [`MIN_SETUPS`].
pub const MAX_SETUPS: usize = 2000;
/// The reconciliation bound: the traced time accounts of every driver thread must
/// sum to its wall time within this share.
pub const RECONCILE_BOUND: f64 = 0.01;

/// What one workload run measured.
pub struct Outcome {
    /// Every correctness check passed.
    pub correct: bool,
    /// Jobs the backends executed, plus failed jobs.
    pub attempted: u64,
    /// Failed or refused jobs.
    pub failed: u64,
    /// End-to-end metrics (untraced repetitions).
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Per-layer metrics (traced repetitions; empty unless tracing).
    pub per_layer: BTreeMap<&'static str, f64>,
    /// Human-readable check failures.
    pub failures: Vec<String>,
}

/// The driver threads' phases of one baseline solve, reduced to the statistics the
/// metrics use.
#[derive(Clone, Copy, Debug, Default)]
struct DriverStats {
    optimizer_phases: usize,
    rtt_p50_us: f64,
    rtt_p90_us: f64,
    rtt_p99_us: f64,
    submit_p50_us: f64,
    wait_overhead_p50_us: f64,
    wait_overhead_p99_us: f64,
    self_s: f64,
    /// Summed round trips of every phase, probes included.
    rtt_sum_s: f64,
    request_bytes: u64,
    reply_bytes: u64,
    /// Worst share by which a driver thread's time accounts miss its wall time.
    reconcile_error: f64,
}

impl DriverStats {
    fn of(drivers: &[DriverLog]) -> DriverStats {
        let phases: Vec<_> = drivers.iter().flat_map(|d| d.phases.iter()).collect();
        let optimizer: Vec<_> = phases.iter().filter(|p| !p.probe).collect();
        let us = |ns: f64| ns * 1e-3;
        let rtt: Vec<f64> = optimizer.iter().map(|p| us(p.rtt_ns as f64)).collect();
        let submit: Vec<f64> = optimizer.iter().map(|p| us(p.submit_ns as f64)).collect();
        let overhead: Vec<f64> = optimizer
            .iter()
            .map(|p| us(p.wait_ns as f64 - p.busy_ns as f64))
            .collect();
        let q = |v: &[f64], q: f64| quantile(v, q).unwrap_or(f64::NAN);
        DriverStats {
            optimizer_phases: optimizer.len(),
            rtt_p50_us: q(&rtt, 0.5),
            rtt_p90_us: q(&rtt, 0.9),
            rtt_p99_us: q(&rtt, 0.99),
            submit_p50_us: q(&submit, 0.5),
            wait_overhead_p50_us: q(&overhead, 0.5),
            wait_overhead_p99_us: q(&overhead, 0.99),
            self_s: drivers.iter().map(|d| d.self_ns).sum::<u64>() as f64 * 1e-9,
            rtt_sum_s: phases.iter().map(|p| p.rtt_ns).sum::<u64>() as f64 * 1e-9,
            request_bytes: phases.iter().map(|p| p.request_bytes).sum(),
            reply_bytes: phases.iter().map(|p| p.reply_bytes).sum(),
            reconcile_error: drivers
                .iter()
                .map(|d| (d.attributed_ns() as f64 - d.wall_ns as f64).abs() / d.wall_ns as f64)
                .fold(0.0, f64::max),
        }
    }
}

/// One arm of one repetition, summarized.
#[derive(Clone, Debug, Default)]
struct Arm {
    label: &'static str,
    wall_s: f64,
    usage: Usage,
    calls: u64,
    requests: u64,
    probes: u64,
    busy_s: f64,
    computed_bytes: u64,
    pauli_terms: u64,
    /// Fingerprint of everything the arm computed; `None` if it failed.
    fingerprint: Option<u64>,
    error: Option<String>,
    driver: DriverStats,
    /// Median wire round trip of the connections (served arm only).
    wire_rtt_p50_us: f64,
    /// The workload's host reference just before and just after the arm, averaged.
    reference_ms: f64,
}

impl Arm {
    fn new(wall_s: f64, usage: Usage, backend: &BackendLedger) -> Arm {
        Arm {
            wall_s,
            usage,
            calls: backend.calls.load(Relaxed),
            requests: backend.requests.load(Relaxed),
            probes: backend.probes.load(Relaxed),
            busy_s: backend.busy_s(),
            computed_bytes: backend.computed_bytes.load(Relaxed),
            pauli_terms: backend.pauli_terms.load(Relaxed),
            ..Arm::default()
        }
    }

    fn of_tree(run: &TreeRun) -> Arm {
        let mut arm = Arm::new(run.wall_s, run.usage, &run.backend);
        arm.label = "tree";
        match &run.result {
            Ok(result) => arm.fingerprint = Some(tree_fingerprint(result)),
            Err(e) => arm.error = Some(e.to_string()),
        }
        arm
    }

    fn of_baseline(run: &BaselineRun, label: &'static str) -> Arm {
        let mut arm = Arm::new(run.wall_s, run.usage, &run.backend);
        arm.label = label;
        match &run.result {
            Ok(per_task) => arm.fingerprint = Some(baseline_fingerprint(per_task)),
            Err(e) => arm.error = Some(e.to_string()),
        }
        arm.driver = DriverStats::of(&run.drivers);
        arm.wire_rtt_p50_us = run
            .rtt
            .as_ref()
            .and_then(|h| h.quantile(0.5))
            .map_or(f64::NAN, |ns| ns as f64 * 1e-3);
        arm
    }

    fn jobs(&self) -> u64 {
        self.requests + self.probes
    }

    /// A time measured on this arm, scaled to the speed of a quiet reference host: by
    /// the reference's nominal time over its time around the arm.
    fn at_reference(&self, time: f64, reference: Reference) -> f64 {
        time * reference.nominal_ms() / self.reference_ms
    }
}

/// A workload's arms for one repetition.
struct Rep {
    mode: Mode,
    tree: Arm,
    /// The baseline driven in-process (the bit-identity reference on `h2-served`).
    local: Arm,
    /// The baseline served over loopback (`h2-served` only).
    remote: Option<Arm>,
}

impl Rep {
    /// The arm the workload is about: TreeVQA in-process, or the served baseline.
    fn primary(&self) -> &Arm {
        self.remote.as_ref().unwrap_or(&self.tree)
    }

    /// The arm driven through `JobSubmitter`s, whose phases the driver metrics time.
    fn driver_arm(&self) -> &Arm {
        self.remote.as_ref().unwrap_or(&self.local)
    }

    fn arms(&self) -> impl Iterator<Item = &Arm> {
        [Some(&self.tree), Some(&self.local), self.remote.as_ref()]
            .into_iter()
            .flatten()
    }
}

/// The full results of the first repetition, for the shot and fidelity metrics.
struct Results {
    tree: Option<TreeVqaResult>,
    baseline: Option<Vec<VqaRunResult>>,
}

/// A deterministic permutation of `0..n` from `seed` (SplitMix64 + Fisher–Yates).
pub fn task_order(n: usize, seed: u64) -> Vec<usize> {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    order
}

/// The host's speed now: the median of three timings of `reference`.
fn reference_ms(reference: Reference) -> f64 {
    med((0..3).map(|_| reference.time_ms()))
}

/// Times `reference` again and returns its mean with the previous reading, `last`,
/// which it replaces: the host's speed over what ran in between.
fn reference_since(reference: Reference, last: &mut f64) -> f64 {
    let now = reference_ms(reference);
    let mean = (*last + now) / 2.0;
    *last = now;
    mean
}

/// Runs one repetition.  `last_reference` holds the latest host reference reading; the
/// reference is timed again after every arm.
fn run_rep(
    workload: &Workload,
    order: &[usize],
    mode: Mode,
    last_reference: &mut f64,
) -> Result<(Rep, Results), String> {
    let drivers = workload.drivers();
    let reference = workload.spec.reference();
    let baseline = |transport, last: &mut f64| -> Result<(BaselineRun, f64), String> {
        let run = workload.run_baseline(transport, drivers, order, mode)?;
        Ok((run, reference_since(reference, last)))
    };
    let tree = |last: &mut f64| {
        let run = workload.run_tree(mode);
        (run, reference_since(reference, last))
    };
    let (remote, local, (tree, tree_reference)) = if workload.spec.served {
        let remote = baseline(Transport::Remote, last_reference)?;
        let local = baseline(Transport::Local, last_reference)?;
        (Some(remote), local, tree(last_reference))
    } else {
        let tree = tree(last_reference);
        (None, baseline(Transport::Local, last_reference)?, tree)
    };
    let arm = |run: &BaselineRun, label, reference_ms| Arm {
        reference_ms,
        ..Arm::of_baseline(run, label)
    };
    let rep = Rep {
        mode,
        tree: Arm {
            reference_ms: tree_reference,
            ..Arm::of_tree(&tree)
        },
        local: arm(&local.0, "baseline", local.1),
        remote: remote.as_ref().map(|r| arm(&r.0, "served", r.1)),
    };
    let results = Results {
        tree: tree.result.ok(),
        baseline: local.0.result.ok(),
    };
    Ok((rep, results))
}

/// Runs `spec` for `seconds` of repetitions after the timed set-ups.  With `trace`,
/// repetitions alternate untraced and traced (which goes first follows the seed) and
/// the per-layer metrics are computed too.
pub fn run(spec: &Spec, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let reference = spec.reference();
    let mut setups = Setups::default();
    let start = Instant::now();
    let workload = loop {
        let (workload, times) = setup(spec)?;
        setups.times.push(times);
        setups.reference_ms.push(reference.time_ms());
        let n = setups.times.len();
        let enough = n >= MIN_SETUPS && start.elapsed().as_secs_f64() >= SETUP_SECONDS;
        if enough || n >= MAX_SETUPS {
            break workload;
        }
    };
    let mut last_reference = reference_ms(reference);
    let order = task_order(workload.app.tasks.len(), seed);
    println!(
        "{}: {} tasks, {} iterations, target {}, task order {order:?}, {} set-ups",
        spec.name,
        spec.tasks,
        spec.iterations,
        spec.target,
        setups.times.len()
    );

    let modes: &[Mode] = match (trace, seed % 2) {
        (false, _) => &[Mode::Count],
        (true, 0) => &[Mode::Count, Mode::Trace],
        (true, _) => &[Mode::Trace, Mode::Count],
    };
    let min_reps = 2 * modes.len();
    let start = Instant::now();
    let mut reps = Vec::new();
    let mut first = None;
    // Start another repetition only while it is expected to end within the budget, so
    // a run lasts about `seconds` however long one repetition takes.
    while reps.len() < min_reps
        || start.elapsed().as_secs_f64() * (reps.len() + 1) as f64 / reps.len() as f64 <= seconds
    {
        let mode = modes[reps.len() % modes.len()];
        let (rep, results) = run_rep(&workload, &order, mode, &mut last_reference)?;
        println!(
            "  repetition {} ({mode:?}): {}",
            reps.len(),
            rep.arms()
                .map(|a| format!(
                    "{} {:.4} s ({:.2} s user, {:.2} s sys, host reference {:.3} ms)",
                    a.label, a.wall_s, a.usage.user_s, a.usage.sys_s, a.reference_ms
                ))
                .collect::<Vec<_>>()
                .join(", ")
        );
        reps.push(rep);
        first.get_or_insert(results);
    }
    let first = first.expect("at least one repetition");
    Ok(summarize(&workload, &setups, &reps, &first, trace))
}

/// The timed set-ups, each with the workload's host reference timed right after it.
#[derive(Default)]
struct Setups {
    times: Vec<SetupTimes>,
    reference_ms: Vec<f64>,
}

impl Setups {
    /// The median whole set-up in wall seconds.
    fn wall_s(&self) -> f64 {
        med(self.times.iter().map(SetupTimes::total_s))
    }

    /// The median whole set-up, each scaled as [`Arm::at_reference`] scales.
    fn at_reference_s(&self, reference: Reference) -> f64 {
        med(self
            .times
            .iter()
            .zip(&self.reference_ms)
            .map(|(t, r)| t.total_s() * reference.nominal_ms() / r))
    }
}

fn med(values: impl IntoIterator<Item = f64>) -> f64 {
    median(&values.into_iter().collect::<Vec<_>>()).unwrap_or(f64::NAN)
}

fn summarize(
    workload: &Workload,
    setups: &Setups,
    reps: &[Rep],
    first: &Results,
    trace: bool,
) -> Outcome {
    let spec = &workload.spec;
    let mut failures = Vec::new();
    let failed = reps
        .iter()
        .flat_map(Rep::arms)
        .filter(|arm| arm.error.is_some())
        .count() as u64;
    let attempted = reps.iter().flat_map(Rep::arms).map(Arm::jobs).sum::<u64>() + failed;

    // Every arm must succeed and compute bit-identical results in every repetition,
    // traced or not; the served baseline must match the in-process one.
    for (i, rep) in reps.iter().enumerate() {
        let checks = [
            ("TreeVQA", Some(&rep.tree), &reps[0].tree),
            ("in-process baseline", Some(&rep.local), &reps[0].local),
            ("served baseline", rep.remote.as_ref(), &reps[0].local),
        ];
        for (name, arm, reference) in checks {
            let Some(arm) = arm else { continue };
            if let Some(e) = &arm.error {
                failures.push(format!("repetition {i}: {name} arm failed: {e}"));
            } else if arm.fingerprint != reference.fingerprint {
                failures.push(format!(
                    "repetition {i}: {name} results differ from repetition 0's {}",
                    reference.label
                ));
            }
        }
    }

    let untraced: Vec<&Rep> = reps.iter().filter(|r| r.mode == Mode::Count).collect();
    let mut e2e: BTreeMap<&'static str, f64> = BTreeMap::new();
    // Every time is scaled to the speed of a quiet reference host (`Arm::at_reference`).
    let reference = spec.reference();
    let scaled = |arm: fn(&Rep) -> &Arm, f: fn(&Arm) -> f64| {
        med(untraced
            .iter()
            .map(|r| arm(r).at_reference(f(arm(r)), reference)))
    };
    e2e.insert("setup_s", setups.at_reference_s(reference));
    e2e.insert("solve_s", scaled(Rep::primary, |a| a.wall_s));
    e2e.insert("baseline_solve_s", scaled(|r| &r.local, |a| a.wall_s));
    e2e.insert(
        "jobs_per_s",
        1.0 / scaled(Rep::primary, |a| a.wall_s / a.jobs() as f64),
    );
    e2e.insert(
        "phase_rtt_p50_us",
        scaled(Rep::driver_arm, |a| a.driver.rtt_p50_us),
    );
    e2e.insert(
        "phase_rtt_p90_us",
        scaled(Rep::driver_arm, |a| a.driver.rtt_p90_us),
    );
    println!(
        "  ({} untraced repetitions, {} optimizer phases each)",
        untraced.len(),
        reps[0].driver_arm().driver.optimizer_phases
    );

    let tree = first.tree.as_ref();
    let baseline = first.baseline.as_deref();
    let tree_shots = tree.and_then(|r| r.shots_to_reach_min_fidelity(spec.target));
    let base_shots = baseline.and_then(|r| workload.baseline_shots_to_target(r));
    if tree_shots.is_none() {
        failures.push(format!("TreeVQA did not reach fidelity {}", spec.target));
    }
    if base_shots.is_none() {
        failures.push(format!(
            "the baseline did not reach fidelity {}",
            spec.target
        ));
    }
    let count = |v: Option<u64>| v.map_or(f64::NAN, |v| v as f64);
    e2e.insert("tree_shots_to_target", count(tree_shots));
    e2e.insert("baseline_shots_to_target", count(base_shots));
    e2e.insert(
        "shot_savings_x",
        match (base_shots, tree_shots) {
            (Some(b), Some(t)) => b as f64 / t as f64,
            _ => f64::NAN,
        },
    );
    let min_fidelity = if spec.served {
        baseline.and_then(|r| workload.baseline_min_fidelity(r))
    } else {
        tree.and_then(TreeVqaResult::min_fidelity)
    };
    e2e.insert("min_fidelity", min_fidelity.unwrap_or(f64::NAN));
    e2e.insert(
        "peak_rss_mb",
        os::peak_rss_bytes() as f64 / (1024.0 * 1024.0),
    );

    let per_layer = if trace {
        per_layer(workload, setups, reps, tree, &mut failures)
    } else {
        BTreeMap::new()
    };
    Outcome {
        correct: failures.is_empty() && failed == 0,
        attempted,
        failed,
        end_to_end: e2e,
        per_layer,
        failures,
    }
}

fn per_layer(
    workload: &Workload,
    setups: &Setups,
    reps: &[Rep],
    tree: Option<&TreeVqaResult>,
    failures: &mut Vec<String>,
) -> BTreeMap<&'static str, f64> {
    let served = workload.spec.served;
    let traced: Vec<&Rep> = reps.iter().filter(|r| r.mode == Mode::Trace).collect();
    let untraced: Vec<&Rep> = reps.iter().filter(|r| r.mode == Mode::Count).collect();
    // The median over the traced repetitions of a per-solve quantity.
    let per_rep = |f: &dyn Fn(&Rep) -> f64| med(traced.iter().map(|r| f(r)));
    let mut l: BTreeMap<&'static str, f64> = BTreeMap::new();

    // treevqa + cluster: the tree's shape, and the controller's time per job outside
    // the backend.
    let shape = |f: fn(&TreeVqaResult) -> usize| tree.map_or(f64::NAN, |t| f(t) as f64);
    l.insert(
        "treevqa.rounds",
        shape(|t| t.history.last().map_or(0, |h| h.round)),
    );
    l.insert("treevqa.splits", shape(|t| t.tree.num_splits()));
    l.insert("treevqa.nodes", shape(|t| t.tree.num_nodes()));
    l.insert("treevqa.critical_depth", shape(|t| t.tree.critical_depth()));
    l.insert(
        "treevqa.overhead_us_per_job",
        per_rep(&|r| (r.tree.wall_s - r.tree.busy_s) * 1e6 / r.tree.jobs() as f64),
    );

    // qopt + qexec, on the arm driven through `JobSubmitter`s.
    let driver = |f: fn(&DriverStats) -> f64| per_rep(&|r| f(&r.driver_arm().driver));
    l.insert(
        "driver.self_us_per_phase",
        driver(|d| d.self_s * 1e6 / d.optimizer_phases as f64),
    );
    l.insert("driver.phase_rtt_p99_us", driver(|d| d.rtt_p99_us));
    l.insert("qexec.submit_us_p50", driver(|d| d.submit_p50_us));
    l.insert(
        "qexec.wait_overhead_us_p50",
        driver(|d| d.wait_overhead_p50_us),
    );
    l.insert(
        "qexec.wait_overhead_us_p99",
        driver(|d| d.wait_overhead_p99_us),
    );

    // vqa + qsim/qop, on the primary arm.
    let primary = |f: fn(&Arm) -> f64| per_rep(&|r| f(r.primary()));
    l.insert(
        "qexec.jobs_per_batch",
        primary(|a| a.requests as f64 / a.calls as f64),
    );
    l.insert("backend.calls", primary(|a| a.calls as f64));
    l.insert("backend.requests", primary(|a| a.requests as f64));
    l.insert("backend.probes", primary(|a| a.probes as f64));
    l.insert("backend.busy_s", primary(|a| a.busy_s));
    l.insert(
        "backend.us_per_request",
        primary(|a| a.busy_s * 1e6 / a.jobs() as f64),
    );
    l.insert("backend.share_of_solve", primary(|a| a.busy_s / a.wall_s));
    l.insert("kernel.amplitudes", workload.shape.amplitudes as f64);
    l.insert("kernel.compiled_ops", workload.shape.compiled_ops as f64);
    l.insert(
        "kernel.pauli_terms",
        primary(|a| a.pauli_terms as f64 / a.jobs() as f64),
    );
    l.insert(
        "kernel.computed_bytes_per_request",
        primary(|a| a.computed_bytes as f64 / a.jobs() as f64),
    );
    l.insert(
        "kernel.computed_gb_per_s",
        primary(|a| a.computed_bytes as f64 * 1e-9 / a.busy_s),
    );

    // qnoise + qrng and qnet exist only on `h2-served`; elsewhere they read 0.
    let only_served = |value: f64| if served { value } else { 0.0 };
    let trajectories = workload.shape.trajectories as f64;
    l.insert("noise.trajectories_per_request", only_served(trajectories));
    l.insert(
        "noise.us_per_trajectory",
        only_served(per_rep(&|r| {
            let a = r.primary();
            a.busy_s * 1e6 / (a.requests as f64 * trajectories + a.probes as f64)
        })),
    );
    l.insert(
        "qnet.client_rtt_p50_us",
        only_served(primary(|a| a.wire_rtt_p50_us)),
    );
    l.insert(
        "qnet.overhead_us_per_job",
        only_served(primary(|a| {
            (a.driver.rtt_sum_s - a.busy_s) * 1e6 / a.jobs() as f64
        })),
    );
    l.insert(
        "qnet.request_bytes_per_job",
        only_served(primary(|a| a.driver.request_bytes as f64 / a.jobs() as f64)),
    );
    l.insert(
        "qnet.reply_bytes_per_job",
        only_served(primary(|a| a.driver.reply_bytes as f64 / a.jobs() as f64)),
    );

    // The OS process, during the primary arm's solves.
    l.insert("os.cpu_user_s", primary(|a| a.usage.user_s));
    l.insert("os.cpu_sys_s", primary(|a| a.usage.sys_s));
    l.insert(
        "os.ctx_switches_per_job",
        primary(|a| a.usage.ctx_switches as f64 / a.jobs() as f64),
    );

    // qchem/qcircuit set-up.
    let stage = |f: fn(&SetupTimes) -> f64| med(setups.times.iter().map(f));
    l.insert("setup.build_s", stage(|s| s.build_s));
    l.insert("setup.reference_s", stage(|s| s.reference_s));
    l.insert("setup.tree_init_s", stage(|s| s.tree_init_s));
    l.insert("setup.service_start_s", stage(|s| s.service_start_s));

    // Reconciliation.  The primary arm's wall time splits into backend busy time and
    // an unattributed remainder (controller, executor hand-offs, wire), which cannot
    // be negative; every driver thread's submit + wait + self time must sum to its
    // wall time.
    l.insert(
        "ledger.unattributed_share",
        primary(|a| 1.0 - a.busy_s / a.wall_s),
    );
    let mut worst = 0.0f64;
    for (i, rep) in traced.iter().enumerate() {
        for arm in rep.arms() {
            if arm.busy_s > arm.wall_s * (1.0 + RECONCILE_BOUND) {
                failures.push(format!(
                    "traced repetition {i}: backend busy time {:.6} s exceeds the arm's \
                     wall time {:.6} s",
                    arm.busy_s, arm.wall_s
                ));
            }
            worst = worst.max(arm.driver.reconcile_error);
        }
    }
    if worst > RECONCILE_BOUND {
        failures.push(format!(
            "driver time accounts miss wall time by {:.3}% (bound {:.1}%)",
            worst * 100.0,
            RECONCILE_BOUND * 100.0
        ));
    }
    l.insert("ledger.reconcile_error_pct", worst * 100.0);

    // The host reference, and the end-to-end times as measured, before scaling.
    l.insert(
        "os.reference_ms",
        med(reps.iter().flat_map(Rep::arms).map(|a| a.reference_ms)),
    );
    l.insert("wall.setup_s", setups.wall_s());
    l.insert(
        "wall.solve_s",
        med(untraced.iter().map(|r| r.primary().wall_s)),
    );
    l.insert(
        "wall.baseline_solve_s",
        med(untraced.iter().map(|r| r.local.wall_s)),
    );

    let reference = workload.spec.reference();
    let scaled_solve = |r: &&Rep| r.primary().at_reference(r.primary().wall_s, reference);
    let traced_wall = med(traced.iter().map(scaled_solve));
    let untraced_wall = med(untraced.iter().map(scaled_solve));
    l.insert(
        "trace.overhead_pct",
        (traced_wall / untraced_wall - 1.0) * 100.0,
    );
    l
}
