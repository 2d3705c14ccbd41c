//! Schedule-independence property suite: the `qexec` contract that **results are
//! bit-identical under any schedule**.
//!
//! Every job pins its own counter-based `qrng` stream, so nothing about the realized
//! execution — worker count, slate partitioning, submission interleaving, retries,
//! failovers — may change any result or any job's number of RNG draws.  The properties
//! here randomize the submission order and sweep `workers ∈ {1, 2, 4}` over a
//! four-backend executor, for exact, sampled, and noisy-trajectory backends, and
//! demand bit-identical per-job `(result, shots, draws)` against the single-worker
//! in-order baseline.  A final scenario injects transient
//! faults (rescued by retries) and a permanently dead backend (rescued by failover)
//! and demands the survivors still match the undisturbed baseline bit-for-bit.

use proptest::prelude::*;
use qcircuit::{Circuit, Entanglement, HardwareEfficientAnsatz};
use qexec::fault::{FaultKind, FaultPlan, FaultyBackend};
use qexec::{EvalJob, Executor, StreamId, SubmitOptions};
use qnoise::PauliNoiseModel;
use qop::PauliOp;
use rand::Rng;
use std::sync::Arc;
use vqa::{
    Backend, EvalResult, InitialState, NoisyStatevectorBackend, SampledBackend, StatevectorBackend,
};

const BACKENDS: usize = 4;
const JOBS: usize = 12;

fn demo_circuit(num_qubits: usize) -> Arc<Circuit> {
    Arc::new(HardwareEfficientAnsatz::new(num_qubits, 2, Entanglement::Circular).build())
}

fn demo_ops(num_qubits: usize) -> (Arc<PauliOp>, Arc<PauliOp>) {
    let mut charged = String::from("ZZ");
    let mut free = String::from("XI");
    while charged.len() < num_qubits {
        charged.push('I');
        free.push(if free.len() % 2 == 0 { 'Z' } else { 'I' });
    }
    (
        Arc::new(PauliOp::from_labels(
            num_qubits,
            &[(charged.as_str(), -1.0), (free.as_str(), 0.3)],
        )),
        Arc::new(PauliOp::from_labels(num_qubits, &[(free.as_str(), 0.7)])),
    )
}

/// A boxed factory producing one identically configured backend per call.
type BackendFactory = Box<dyn Fn() -> Box<dyn Backend + Send>>;

/// The three backend families under test, as boxed factories so one scenario runner
/// covers them all.  Index `i` is the registration slot (all slots get identically
/// configured drivers, so failover between them preserves results).
fn backend_factories() -> Vec<(&'static str, BackendFactory)> {
    let model = PauliNoiseModel::ibm_like("sched-indep", 0.02, 0.05, 0.01, 0.01);
    vec![
        (
            "exact",
            Box::new(|| Box::new(StatevectorBackend::with_shots(64)) as Box<dyn Backend + Send>),
        ),
        (
            "sampled",
            Box::new(|| Box::new(SampledBackend::new(256, 42)) as Box<dyn Backend + Send>),
        ),
        (
            "noisy-trajectory",
            Box::new(move || {
                Box::new(
                    NoisyStatevectorBackend::new(model.clone(), 50, 3)
                        .with_trajectories(5)
                        .with_shot_sampling(),
                ) as Box<dyn Backend + Send>
            }),
        ),
    ]
}

/// Job `i` of the scenario: parameters derived from `i`, pinned to its own named
/// stream (so its identity survives any submission order), targeted at backend
/// `i % BACKENDS`.
fn scenario_job(
    circuit: &Arc<Circuit>,
    charged: &Arc<PauliOp>,
    free: &Arc<PauliOp>,
    i: usize,
) -> EvalJob {
    let params: Vec<f64> = (0..circuit.num_parameters())
        .map(|p| 0.05 * p as f64 + 0.017 * i as f64)
        .collect();
    EvalJob::new(
        Arc::clone(circuit),
        params,
        InitialState::Basis(0),
        Arc::clone(charged),
    )
    .with_free_ops(vec![Arc::clone(free)])
    .with_rng_stream(StreamId::named(&format!("sched-indep-job{i}")))
}

/// One job's result reduced to comparable bits: charged, free values, shots, draws.
type Bits = (u64, Vec<u64>, u64, u64);

fn to_bits(r: &EvalResult) -> Bits {
    (
        r.charged.to_bits(),
        r.free.iter().map(|v| v.to_bits()).collect(),
        r.shots,
        r.draws,
    )
}

/// Runs the standard scenario — `JOBS` stream-pinned jobs spread round-robin over
/// `BACKENDS` identically configured backends — submitting in `order`, on an executor
/// with `workers` execution threads.  Returns per-job result bits, indexed by job id
/// rather than submission position.
fn run_scenario(
    make: &dyn Fn() -> Box<dyn Backend + Send>,
    workers: usize,
    order: &[usize],
) -> Vec<Bits> {
    let circuit = demo_circuit(3);
    let (charged, free) = demo_ops(3);
    let mut builder = Executor::builder().workers(workers).paused();
    for b in 0..BACKENDS {
        builder = builder.register_boxed(format!("b{b}"), make());
    }
    let executor = builder.start();
    let client = executor.client();
    let mut handles: Vec<Option<qexec::JobHandle>> = (0..JOBS).map(|_| None).collect();
    for &i in order {
        let job = scenario_job(&circuit, &charged, &free, i);
        let opts = SubmitOptions::new().backend(format!("b{}", i % BACKENDS));
        handles[i] = Some(client.submit_with(job, &opts).expect("well-formed job"));
    }
    executor.resume();
    handles
        .into_iter()
        .map(|h| {
            to_bits(
                &h.expect("every job submitted")
                    .wait()
                    .expect("job executes"),
            )
        })
        .collect()
}

/// A deterministic Fisher–Yates shuffle of `0..JOBS` keyed by `seed` (the property's
/// randomness source, kept reproducible through `qrng` itself).
fn shuffled_order(seed: u64) -> Vec<usize> {
    let mut rng = qrng::CounterRng::new(qrng::mix(seed, 0x5348_5546));
    let mut order: Vec<usize> = (0..JOBS).collect();
    for i in (1..order.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Worker counts, slate partitionings, and submission interleavings never change
    /// any job's result, shots, or RNG draw count, for every backend family.
    #[test]
    fn results_and_draw_counts_are_schedule_independent(shuffle_seed in 0u64..u64::MAX) {
        let in_order: Vec<usize> = (0..JOBS).collect();
        let shuffled = shuffled_order(shuffle_seed);
        for (family, make) in backend_factories() {
            let baseline = run_scenario(make.as_ref(), 1, &in_order);
            // Stochastic families must draw, so the draw comparison is not vacuous.
            prop_assert!(
                family == "exact" || baseline.iter().all(|b| b.3 > 0),
                "{} jobs reported no draws",
                family
            );
            for workers in [1usize, 2, 4] {
                for order in [&in_order, &shuffled] {
                    let results = run_scenario(make.as_ref(), workers, order);
                    prop_assert_eq!(
                        &results,
                        &baseline,
                        "{} results or draw counts diverged at workers={} order={:?}",
                        family,
                        workers,
                        order
                    );
                }
            }
        }
    }
}

/// Retry and failover perturbations leave every surviving result bit-identical to the
/// undisturbed single-worker baseline: the re-executions reuse each job's pinned
/// stream, and the standby backends are configured identically — so supervision
/// machinery is invisible in the results.
#[test]
fn retries_and_failovers_do_not_disturb_results() {
    // Injected faults unwind through catch_unwind by design; keep the log quiet.
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| std::panic::set_hook(Box::new(|_| {})));

    let circuit = demo_circuit(3);
    let (charged, free) = demo_ops(3);
    let in_order: Vec<usize> = (0..JOBS).collect();
    let make_clean = || Box::new(SampledBackend::new(256, 42)) as Box<dyn Backend + Send>;
    let baseline = run_scenario(&make_clean, 1, &in_order);

    for workers in [1usize, 2, 4] {
        let mut builder = Executor::builder().workers(workers).paused();
        for b in 0..BACKENDS {
            // b0's first batch faults transiently (rescued by the retry budget); b3 is
            // permanently dead, including its canary probes (rescued by failover).
            let plan = match b {
                0 => FaultPlan::new(1).with_fault_at(0, Some(FaultKind::Transient)),
                3 => FaultPlan::new(2).with_panic_rate(1.0),
                _ => FaultPlan::new(3),
            };
            builder = builder.register_boxed(
                format!("b{b}"),
                Box::new(FaultyBackend::new(SampledBackend::new(256, 42), plan)),
            );
        }
        let executor = builder.start();
        let client = executor.client();
        let mut handles = Vec::new();
        for i in 0..JOBS {
            let job = scenario_job(&circuit, &charged, &free, i);
            let opts = SubmitOptions::new()
                .backend(format!("b{}", i % BACKENDS))
                .retries(2)
                .failover(true);
            handles.push(client.submit_with(job, &opts).expect("well-formed job"));
        }
        executor.resume();
        for (i, handle) in handles.iter().enumerate() {
            let bits = to_bits(&handle.wait().expect("retries/failover rescue every job"));
            assert!(bits.3 > 0, "sampled jobs report their draws");
            assert_eq!(
                bits, baseline[i],
                "job {i} diverged from the undisturbed baseline at workers={workers}"
            );
        }
        let stats = executor.stats();
        assert!(stats.retries > 0, "the transient fault should have retried");
        assert!(
            stats.failovers > 0,
            "the dead backend should have failed over"
        );
        drop(executor);
    }
}
