//! The outside-in per-layer ledger: delegating wrappers around the program's layer
//! boundaries, recorded from the benchmark's own code.
//!
//! * [`LedgerBackend`] wraps a `vqa::Backend` and records every `evaluate_batch` and
//!   `probe` call the executor makes into it: calls, requests, probes, and — when
//!   tracing — busy time and the computed bytes the kernels move.
//! * [`DriverSubmitter`] wraps a `qexec::JobSubmitter` (a local `ExecClient` or a
//!   remote `qnet::NetClient`).  It pins each job's draw stream by (task, job
//!   ordinal), always times each optimizer phase from submit to its last result, and —
//!   when tracing — times every submit and wait call, the driver's own time between
//!   them, the backend busy time inside each phase, and the bytes the phase would put
//!   on the wire.
//!
//! Both wrappers are transparent: they hand every call through unchanged, so a traced
//! run computes exactly what an untraced one does (asserted by `tests/ledger.rs`).

use qexec::{CompletionHandle, EvalJob, ExecError, JobSubmitter, StreamId, SubmitOptions};
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;
use vqa::{Backend, BackendCaps, EvalRequest, EvalResult, InitialState};

/// Bytes per amplitude of a dense statevector (one `Complex64`).
const AMPLITUDE_BYTES: u64 = 16;

/// What a ledger wrapper records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Counts only (jobs, phases) and the end-to-end phase latency: the untraced run.
    Count,
    /// Counts plus per-call timings and computed bytes: the traced run.
    Trace,
}

/// The static shape of a workload's kernels, for the computed-bytes estimate.
#[derive(Clone, Copy, Debug)]
pub struct KernelShape {
    /// Amplitudes of the statevector (`2^qubits`).
    pub amplitudes: u64,
    /// Compiled operations (state passes) of the ansatz, from `CompiledCircuit::stats`.
    pub compiled_ops: u64,
    /// Trajectories per request (1 for the exact backend).
    pub trajectories: u64,
}

impl KernelShape {
    /// Computed (not measured) bytes one request moves: every compiled op reads and
    /// writes the state once per trajectory, and every Pauli term of every observable
    /// reads it once.
    fn request_bytes(&self, pauli_terms: u64) -> u64 {
        self.amplitudes
            * AMPLITUDE_BYTES
            * self.trajectories
            * (2 * self.compiled_ops + pauli_terms)
    }
}

/// Counters of one arm's backend, shared between the executor-owned wrapper and the
/// benchmark.
#[derive(Debug, Default)]
pub struct BackendLedger {
    /// `evaluate_batch` (and `evaluate`) calls.
    pub calls: AtomicU64,
    /// Requests evaluated across those calls.
    pub requests: AtomicU64,
    /// `probe` calls.
    pub probes: AtomicU64,
    /// Nanoseconds inside the wrapped backend (traced runs only).
    pub busy_ns: AtomicU64,
    /// Computed bytes the kernels moved (traced runs only).
    pub computed_bytes: AtomicU64,
    /// Pauli terms summed over every request's observables (traced runs only).
    pub pauli_terms: AtomicU64,
}

impl BackendLedger {
    /// Jobs the backend executed: evaluation requests plus probes.
    pub fn jobs(&self) -> u64 {
        self.requests.load(Relaxed) + self.probes.load(Relaxed)
    }

    /// Busy seconds inside the backend.
    pub fn busy_s(&self) -> f64 {
        self.busy_ns.load(Relaxed) as f64 * 1e-9
    }
}

/// A `vqa::Backend` that delegates every call to `inner` and records it in a
/// [`BackendLedger`].
pub struct LedgerBackend {
    inner: Box<dyn Backend + Send>,
    ledger: Arc<BackendLedger>,
    mode: Mode,
    shape: KernelShape,
}

impl LedgerBackend {
    /// Wraps `inner`, recording into `ledger`.
    pub fn new(
        inner: Box<dyn Backend + Send>,
        ledger: Arc<BackendLedger>,
        mode: Mode,
        shape: KernelShape,
    ) -> Self {
        LedgerBackend {
            inner,
            ledger,
            mode,
            shape,
        }
    }

    fn record_busy(&self, start: Instant, pauli_terms: u64, bytes: u64) {
        self.ledger
            .busy_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Relaxed);
        self.ledger.pauli_terms.fetch_add(pauli_terms, Relaxed);
        self.ledger.computed_bytes.fetch_add(bytes, Relaxed);
    }

    fn request_terms(req: &EvalRequest<'_>) -> u64 {
        let free: usize = req.free_ops.iter().map(|op| op.num_terms()).sum();
        (req.charged_op.num_terms() + free) as u64
    }
}

impl Backend for LedgerBackend {
    fn evaluate(
        &mut self,
        circuit: &qcircuit::Circuit,
        params: &[f64],
        initial: &InitialState,
        charged_op: &qop::PauliOp,
        free_ops: &[&qop::PauliOp],
    ) -> (f64, Vec<f64>) {
        self.ledger.calls.fetch_add(1, Relaxed);
        self.ledger.requests.fetch_add(1, Relaxed);
        let start = (self.mode == Mode::Trace).then(Instant::now);
        let out = self
            .inner
            .evaluate(circuit, params, initial, charged_op, free_ops);
        if let Some(start) = start {
            let terms = (charged_op.num_terms()
                + free_ops.iter().map(|op| op.num_terms()).sum::<usize>())
                as u64;
            self.record_busy(start, terms, self.shape.request_bytes(terms));
        }
        out
    }

    fn evaluate_batch(&mut self, requests: &[EvalRequest<'_>]) -> Vec<EvalResult> {
        self.ledger.calls.fetch_add(1, Relaxed);
        self.ledger
            .requests
            .fetch_add(requests.len() as u64, Relaxed);
        let (terms, bytes) = match self.mode {
            Mode::Count => (0, 0),
            Mode::Trace => requests.iter().fold((0, 0), |(t, b), req| {
                let terms = Self::request_terms(req);
                (t + terms, b + self.shape.request_bytes(terms))
            }),
        };
        let start = (self.mode == Mode::Trace).then(Instant::now);
        let results = self.inner.evaluate_batch(requests);
        if let Some(start) = start {
            self.record_busy(start, terms, bytes);
        }
        results
    }

    fn probe(
        &mut self,
        circuit: &qcircuit::Circuit,
        params: &[f64],
        initial: &InitialState,
        op: &qop::PauliOp,
    ) -> f64 {
        self.ledger.probes.fetch_add(1, Relaxed);
        let start = (self.mode == Mode::Trace).then(Instant::now);
        let value = self.inner.probe(circuit, params, initial, op);
        if let Some(start) = start {
            // A probe is one ideal rollout plus one expectation pass.
            let terms = op.num_terms() as u64;
            let bytes =
                self.shape.amplitudes * AMPLITUDE_BYTES * (2 * self.shape.compiled_ops + terms);
            self.record_busy(start, terms, bytes);
        }
        value
    }

    fn shots_used(&self) -> u64 {
        self.inner.shots_used()
    }

    fn reset_shots(&mut self) {
        self.inner.reset_shots()
    }

    fn shots_per_pauli(&self) -> u64 {
        self.inner.shots_per_pauli()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn capabilities(&self) -> BackendCaps {
        self.inner.capabilities()
    }

    fn recover(&mut self) {
        self.inner.recover()
    }
}

/// One optimizer phase (or probe) as a driver saw it.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseRecord {
    /// Jobs in the phase.
    pub jobs: u32,
    /// Whether the phase was an uncharged probe rather than an optimizer phase.
    pub probe: bool,
    /// Submit call start → last result returned, in nanoseconds (always recorded).
    pub rtt_ns: u64,
    /// Nanoseconds inside the submit call (traced).
    pub submit_ns: u64,
    /// Nanoseconds inside the phase's wait calls (traced).
    pub wait_ns: u64,
    /// Backend busy nanoseconds between submit and last result (traced).
    pub busy_ns: u64,
    /// Bytes of the phase's submit frame, encoded with `qnet::wire` (traced, remote).
    pub request_bytes: u64,
    /// Bytes of the phase's result frames, encoded with `qnet::wire` (traced, remote).
    pub reply_bytes: u64,
}

/// Everything one driver thread recorded.
#[derive(Clone, Debug, Default)]
pub struct DriverLog {
    /// Completed phases, in completion order.
    pub phases: Vec<PhaseRecord>,
    /// Nanoseconds on the driver thread outside every submit and wait call (traced):
    /// the optimizer's propose/observe, job construction, and the runner loop.
    pub self_ns: u64,
    /// The driver thread's wall time from construction to [`DriverSubmitter::finish`].
    pub wall_ns: u64,
}

impl DriverLog {
    /// The traced time accounts: submit + wait + driver self time.  Equal to
    /// [`DriverLog::wall_ns`] up to clock rounding when every phase completed.
    pub fn attributed_ns(&self) -> u64 {
        let calls: u64 = self.phases.iter().map(|p| p.submit_ns + p.wait_ns).sum();
        calls + self.self_ns
    }
}

/// State shared by a [`DriverSubmitter`] and the handles it returns.
struct DriverShared {
    mode: Mode,
    wire: bool,
    backend: Arc<BackendLedger>,
    started: Instant,
    /// When the driver last returned from a wrapped call (traced self-time clock).
    last_exit: Cell<Instant>,
    log: RefCell<DriverLog>,
}

impl DriverShared {
    /// Marks entry into a wrapped call, charging the gap since the last exit to the
    /// driver's self time.
    fn enter(&self) -> Instant {
        let now = Instant::now();
        if self.mode == Mode::Trace {
            self.log.borrow_mut().self_ns += (now - self.last_exit.get()).as_nanos() as u64;
        }
        now
    }

    fn exit(&self) -> Instant {
        let now = Instant::now();
        self.last_exit.set(now);
        now
    }
}

/// One in-flight phase.
struct PhaseState {
    start: Instant,
    busy_at_start: u64,
    remaining: Cell<usize>,
    record: RefCell<PhaseRecord>,
}

/// A `qexec::JobSubmitter` that delegates to `inner`, pins every job's draw stream by
/// (task, job ordinal), and records each phase into a [`DriverLog`].
///
/// One driver thread owns one `DriverSubmitter`; call [`DriverSubmitter::begin_task`]
/// before each task's jobs.
pub struct DriverSubmitter<'a, S: JobSubmitter> {
    inner: &'a S,
    shared: Rc<DriverShared>,
    task_stream: Cell<StreamId>,
    ordinal: Cell<u64>,
}

/// The draw stream of `task`'s jobs; its `n`-th job draws from substream `n`.  A pure
/// function of (task, job ordinal), so a job draws the same randomness whichever
/// connection, worker or slate carries it.
fn task_stream(task: usize) -> StreamId {
    StreamId::named("perfbench/task").substream(task as u64)
}

impl<'a, S: JobSubmitter> DriverSubmitter<'a, S> {
    /// Wraps `inner`.  `wire` marks a remote submitter, whose phases are also measured
    /// in encoded frame bytes when tracing; `backend` is the serving backend's ledger,
    /// read for the busy time inside each phase.
    pub fn new(inner: &'a S, mode: Mode, wire: bool, backend: Arc<BackendLedger>) -> Self {
        let now = Instant::now();
        DriverSubmitter {
            inner,
            shared: Rc::new(DriverShared {
                mode,
                wire,
                backend,
                started: now,
                last_exit: Cell::new(now),
                log: RefCell::new(DriverLog::default()),
            }),
            task_stream: Cell::new(task_stream(0)),
            ordinal: Cell::new(0),
        }
    }

    /// Starts pinning streams for `task`'s jobs, from ordinal 0.
    pub fn begin_task(&self, task: usize) {
        self.task_stream.set(task_stream(task));
        self.ordinal.set(0);
    }

    /// Stops the clock and returns the log.
    pub fn finish(self) -> DriverLog {
        let now = Instant::now();
        let mut log = self.shared.log.take();
        if self.shared.mode == Mode::Trace {
            log.self_ns += (now - self.shared.last_exit.get()).as_nanos() as u64;
        }
        log.wall_ns = (now - self.shared.started).as_nanos() as u64;
        log
    }

    fn pin(&self, job: EvalJob) -> EvalJob {
        let ordinal = self.ordinal.get();
        self.ordinal.set(ordinal + 1);
        job.with_rng_stream(self.task_stream.get().substream(ordinal))
    }

    fn submit_phase(
        &self,
        jobs: Vec<EvalJob>,
        probe: bool,
        submit: impl FnOnce(Vec<EvalJob>) -> Result<Vec<S::Handle>, ExecError>,
    ) -> Result<Vec<DriverHandle<S::Handle>>, ExecError> {
        let jobs: Vec<EvalJob> = jobs.into_iter().map(|job| self.pin(job)).collect();
        let shared = &self.shared;
        let request_bytes = if shared.wire && shared.mode == Mode::Trace {
            submit_frame_bytes(&jobs, probe)
        } else {
            0
        };
        let count = jobs.len();
        let busy_at_start = shared.backend.busy_ns.load(Relaxed);
        let start = shared.enter();
        let handles = submit(jobs);
        let end = shared.exit();
        let handles = handles?;
        let phase = Rc::new(PhaseState {
            start,
            busy_at_start,
            remaining: Cell::new(count),
            record: RefCell::new(PhaseRecord {
                jobs: count as u32,
                probe,
                submit_ns: (end - start).as_nanos() as u64,
                request_bytes,
                ..PhaseRecord::default()
            }),
        });
        Ok(handles
            .into_iter()
            .map(|inner| DriverHandle {
                inner,
                shared: Rc::clone(&self.shared),
                phase: Rc::clone(&phase),
                done: Cell::new(false),
            })
            .collect())
    }
}

fn submit_frame_bytes(jobs: &[EvalJob], probe: bool) -> u64 {
    use qnet::wire::{write_frame, SubmitFrame};
    let entries: Vec<SubmitFrame> = jobs
        .iter()
        .enumerate()
        .map(|(id, job)| SubmitFrame {
            request_id: id as u64,
            probe,
            opts: SubmitOptions::default(),
            job: job.clone(),
        })
        .collect();
    // The client ships a probe as a single submit frame and a phase as one batch frame.
    let frame = if probe {
        qnet::Frame::Submit(entries.into_iter().next().expect("a probe is one job"))
    } else {
        qnet::Frame::SubmitBatch(entries)
    };
    let mut buf = Vec::new();
    write_frame(&mut buf, &frame, usize::MAX).expect("encoding into memory") as u64
}

fn result_frame_bytes(result: &EvalResult) -> u64 {
    let frame = qnet::Frame::Result {
        request_id: 0,
        result: result.clone(),
    };
    let mut buf = Vec::new();
    qnet::wire::write_frame(&mut buf, &frame, usize::MAX).expect("encoding into memory") as u64
}

impl<S: JobSubmitter> JobSubmitter for DriverSubmitter<'_, S> {
    type Handle = DriverHandle<S::Handle>;

    fn submit_job(&self, job: EvalJob, opts: &SubmitOptions) -> Result<Self::Handle, ExecError> {
        let mut handles = self.submit_phase(vec![job], false, |mut jobs| {
            Ok(vec![self.inner.submit_job(jobs.remove(0), opts)?])
        })?;
        Ok(handles.remove(0))
    }

    fn submit_probe_job(
        &self,
        job: EvalJob,
        opts: &SubmitOptions,
    ) -> Result<Self::Handle, ExecError> {
        let mut handles = self.submit_phase(vec![job], true, |mut jobs| {
            Ok(vec![self.inner.submit_probe_job(jobs.remove(0), opts)?])
        })?;
        Ok(handles.remove(0))
    }

    fn submit_job_group(&self, jobs: Vec<EvalJob>) -> Result<Vec<Self::Handle>, ExecError> {
        self.submit_phase(jobs, false, |jobs| self.inner.submit_job_group(jobs))
    }
}

/// The completion handle of a [`DriverSubmitter`] job.
pub struct DriverHandle<H> {
    inner: H,
    shared: Rc<DriverShared>,
    phase: Rc<PhaseState>,
    done: Cell<bool>,
}

impl<H: CompletionHandle> DriverHandle<H> {
    /// Accounts a wait that started at `start` and produced `result` (if it did).
    fn account(&self, start: Instant, result: Option<&Result<EvalResult, ExecError>>) {
        let end = self.shared.exit();
        let shared = &self.shared;
        let mut record = self.phase.record.borrow_mut();
        if shared.mode == Mode::Trace {
            record.wait_ns += (end - start).as_nanos() as u64;
        }
        let Some(result) = result else { return };
        if self.done.replace(true) {
            return;
        }
        if let (Ok(result), true, Mode::Trace) = (result, shared.wire, shared.mode) {
            record.reply_bytes += result_frame_bytes(result);
        }
        let remaining = self.phase.remaining.get() - 1;
        self.phase.remaining.set(remaining);
        if remaining == 0 {
            record.rtt_ns = (end - self.phase.start).as_nanos() as u64;
            if shared.mode == Mode::Trace {
                record.busy_ns = shared.backend.busy_ns.load(Relaxed) - self.phase.busy_at_start;
            }
            shared.log.borrow_mut().phases.push(*record);
        }
    }
}

impl<H: CompletionHandle> CompletionHandle for DriverHandle<H> {
    fn wait(&self) -> Result<EvalResult, ExecError> {
        let start = self.shared.enter();
        let result = self.inner.wait();
        self.account(start, Some(&result));
        result
    }

    fn wait_timeout(&self, timeout: std::time::Duration) -> Option<Result<EvalResult, ExecError>> {
        let start = self.shared.enter();
        let result = self.inner.wait_timeout(timeout);
        self.account(start, result.as_ref());
        result
    }

    fn try_result(&self) -> Option<Result<EvalResult, ExecError>> {
        let start = self.shared.enter();
        let result = self.inner.try_result();
        self.account(start, result.as_ref());
        result
    }
}
