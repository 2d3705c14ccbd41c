//! The ledger's own guarantees: its wrappers are transparent, its time accounts
//! reconcile with wall time, and its metric tables match `BENCHMARK.json`.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.  The workloads
//! run here with a few iterations each; their configuration is otherwise the
//! benchmark's.

use qexec::{run_single_vqa, Executor};
use std::sync::Once;
use treevqa_perfbench::bench::{task_order, RECONCILE_BOUND};
use treevqa_perfbench::ledger::Mode;
use treevqa_perfbench::metrics::{END_TO_END, PER_LAYER};
use treevqa_perfbench::workload::{
    baseline_fingerprint, setup, tree_fingerprint, Spec, Transport, Workload, OPTIMIZER_SEED,
    WORKLOADS,
};
use vqa::VqaRunConfig;

const ITERATIONS: usize = 12;

fn workload(name: &str) -> Workload {
    static PIN: Once = Once::new();
    PIN.call_once(|| {
        treevqa_perfbench::knobs::pin();
    });
    let spec = Spec::named(name).expect("a benchmark workload");
    setup(&spec.with_iterations(ITERATIONS)).expect("set-up").0
}

fn order(w: &Workload) -> Vec<usize> {
    task_order(w.app.tasks.len(), 5)
}

#[test]
fn tree_arm_matches_an_unwrapped_run() {
    for name in WORKLOADS {
        let w = workload(name);
        let executor = Executor::builder()
            .register_boxed(qexec::DEFAULT_BACKEND, w.backend())
            .workers(1)
            .start();
        let zeros = vec![0.0; w.app.num_parameters()];
        let bare = w
            .tree
            .run_with_initial(&executor, &zeros)
            .expect("bare run");
        for mode in [Mode::Count, Mode::Trace] {
            let run = w.run_tree(mode);
            let result = run.result.expect("wrapped run");
            assert_eq!(result.total_shots, bare.total_shots, "{name} {mode:?}");
            assert_eq!(
                tree_fingerprint(&result),
                tree_fingerprint(&bare),
                "{name} {mode:?}: the backend wrapper changed the result"
            );
            assert_eq!(
                run.backend.jobs(),
                run.backend
                    .requests
                    .load(std::sync::atomic::Ordering::Relaxed)
                    + run
                        .backend
                        .probes
                        .load(std::sync::atomic::Ordering::Relaxed)
            );
        }
    }
}

#[test]
fn driver_submitter_matches_a_plain_exec_client() {
    // The exact workloads draw no randomness, so the stream pins cannot matter and a
    // plain `ExecClient` must give the same per-task results and shots.
    for name in ["h2-pes", "tfim12"] {
        let w = workload(name);
        let executor = Executor::builder()
            .register_boxed(qexec::DEFAULT_BACKEND, w.backend())
            .workers(1)
            .start();
        let client = executor.client();
        let zeros = vec![0.0; w.app.num_parameters()];
        let bare: Vec<_> = (0..w.app.tasks.len())
            .map(|task| {
                let config = VqaRunConfig {
                    max_iterations: ITERATIONS,
                    optimizer: qopt::OptimizerSpec::default_spsa(),
                    seed: OPTIMIZER_SEED
                        .wrapping_add(task as u64)
                        .wrapping_mul(0x9E37),
                    record_every: 5,
                };
                let app = &w.app;
                run_single_vqa(
                    &app.tasks[task],
                    &app.ansatz,
                    &app.initial_state,
                    &zeros,
                    &client,
                    &config,
                )
                .expect("bare run")
            })
            .collect();
        for mode in [Mode::Count, Mode::Trace] {
            let run = w
                .run_baseline(Transport::Local, 1, &order(&w), mode)
                .expect("service");
            let per_task = run.result.expect("wrapped run");
            assert_eq!(
                baseline_fingerprint(&per_task),
                baseline_fingerprint(&bare),
                "{name} {mode:?}: the submitter wrapper changed the result"
            );
        }
    }
}

#[test]
fn served_baseline_is_bit_identical_to_in_process() {
    let w = workload("h2-served");
    let order = order(&w);
    let reference = w
        .run_baseline(Transport::Local, 2, &order, Mode::Count)
        .expect("service")
        .result
        .expect("in-process run");
    for (transport, drivers, mode) in [
        (Transport::Remote, 2, Mode::Count),
        (Transport::Remote, 2, Mode::Trace),
        (Transport::Local, 1, Mode::Trace),
        (Transport::Remote, 1, Mode::Count),
    ] {
        let run = w
            .run_baseline(transport, drivers, &task_order(10, 9), mode)
            .expect("service");
        let per_task = run.result.expect("run");
        assert_eq!(
            baseline_fingerprint(&per_task),
            baseline_fingerprint(&reference),
            "{transport:?} x{drivers} {mode:?}: pinned jobs must not depend on transport, \
             driver count, task order or tracing"
        );
    }
}

#[test]
fn ledger_reconciles_with_wall_time() {
    for name in WORKLOADS {
        let w = workload(name);
        let tree = w.run_tree(Mode::Trace);
        assert!(
            tree.backend.busy_s() <= tree.wall_s,
            "{name}: backend busy {} s inside a {} s solve",
            tree.backend.busy_s(),
            tree.wall_s
        );
        let transport = if w.spec.served {
            Transport::Remote
        } else {
            Transport::Local
        };
        let run = w
            .run_baseline(transport, w.drivers(), &order(&w), Mode::Trace)
            .expect("service");
        run.result.as_ref().expect("run");
        assert!(
            run.backend.busy_s() <= run.wall_s,
            "{name}: busy beyond wall"
        );
        let mut phases = 0;
        for driver in &run.drivers {
            let attributed = driver.attributed_ns() as f64;
            let wall = driver.wall_ns as f64;
            assert!(
                (attributed - wall).abs() <= RECONCILE_BOUND * wall,
                "{name}: submit + wait + self = {attributed} ns against {wall} ns of wall"
            );
            assert!(
                wall <= run.wall_s * 1e9,
                "{name}: a driver outlived its arm"
            );
            phases += driver.phases.iter().filter(|p| !p.probe).count();
            for phase in &driver.phases {
                assert!(
                    phase.submit_ns + phase.wait_ns <= phase.rtt_ns + 1,
                    "{name}"
                );
            }
        }
        // SPSA submits each iteration (calibration included) as one phase.
        assert_eq!(phases, w.app.tasks.len() * ITERATIONS, "{name}");
        if w.spec.served {
            let bytes: u64 = run
                .drivers
                .iter()
                .flat_map(|d| &d.phases)
                .map(|p| p.request_bytes.min(p.reply_bytes))
                .sum();
            assert!(bytes > 0, "the served arm measures wire bytes");
        }
    }
}

#[test]
fn task_order_is_a_seeded_permutation() {
    for seed in 0..20 {
        let mut order = task_order(10, seed);
        assert_eq!(order, task_order(10, seed));
        order.sort_unstable();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }
    assert_ne!(task_order(10, 1), task_order(10, 2));
}

#[test]
fn metric_tables_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    // The names listed under `key`, in order: every `"name": "…"` between the key and
    // the closing bracket of its array.
    let names = |key: &str| -> Vec<String> {
        let start = json.find(&format!("\"{key}\"")).expect(key);
        let body = &json[start..];
        let body = &body[..body.find(']').expect("array end")];
        body.split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("a quoted name").to_string())
            .collect()
    };
    let ours = |defs: &[treevqa_perfbench::metrics::MetricDef]| -> Vec<String> {
        defs.iter().map(|d| d.name.to_string()).collect()
    };
    assert_eq!(names("end_to_end"), ours(END_TO_END));
    assert_eq!(names("per_layer"), ours(PER_LAYER));
    assert_eq!(names("workloads"), WORKLOADS.to_vec());
    for def in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!(
            "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
            def.name, def.unit, def.better
        );
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
}
