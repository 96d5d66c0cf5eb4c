//! The service itself: worker pool, bounded queue, admission control,
//! single-flight factoring and multi-RHS batch solving.
//!
//! Scheduling invariants:
//!
//! * **Bounded admission** — `submit` rejects with
//!   [`SolveError::Overloaded`] once `max_queue` requests are pending;
//!   nothing inside the service ever blocks a client indefinitely on a
//!   full queue.
//! * **Single-flight factoring** — at most one worker factors a given
//!   fingerprint at a time (the `factoring` set); other workers skip past
//!   its queued requests instead of duplicating the `O(n³)` work, and are
//!   woken when the factor lands in the cache.
//! * **Batching** — a worker that obtains a factor drains every queued
//!   request with the same fingerprint (up to `max_batch`) and solves them
//!   as one `n × ΣK` multi-RHS pass: the factor streams through the
//!   blocked `trsm` kernels once instead of once per request.
//! * **Drain on shutdown** — workers exit only when shutdown is flagged
//!   *and* the queue is empty, so every accepted ticket gets an answer.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use conflux::LuGrid;
use denselin::gemm::gemm_auto;
use denselin::Matrix;
use simnet::{AlphaBeta, ClockDomain, Event, RankTracer, Trace};
use sparselin::{CsrMatrix, Preconditioner};

use crate::api::{MatrixKind, RequestStats, SolveError, SolveRequest, SolveResponse};
use crate::cache::{CachedFactor, FactorCache};
use crate::exec::{self, AnyRegistered, Registered, Slot, SparseRegistered};
use crate::fingerprint::Fingerprint;
use crate::stats::{Collector, ServiceStats};

/// Route cold factorizations of large matrices through the real
/// distributed driver ([`conflux::factorize_threaded`]).
#[derive(Clone, Copy, Debug)]
pub struct DistributedConfig {
    /// Minimum matrix order that takes the distributed path; smaller
    /// matrices always factor locally (the SPMD spawn overhead would
    /// dominate).
    pub min_n: usize,
    /// COnfLUX block size `v`. The distributed path additionally requires
    /// `n % tile == 0` and `tile ≥ grid.c`; incompatible requests fall
    /// back to the local lookahead LU.
    pub tile: usize,
    /// The `[q, q, c]` processor grid (`q` must be a power of two).
    pub grid: LuGrid,
}

/// Service tuning knobs.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads servicing the queue.
    pub workers: usize,
    /// Admission bound: pending requests beyond this are rejected with
    /// [`SolveError::Overloaded`].
    pub max_queue: usize,
    /// Factor-cache byte budget.
    pub cache_budget_bytes: usize,
    /// Most requests one batch may coalesce.
    pub max_batch: usize,
    /// Panel width for the local blocked factorizations.
    pub panel: usize,
    /// Refinement sweeps allowed when a solve misses its tolerance.
    pub refine_sweeps: usize,
    /// Deadline applied to requests that carry none (`None` = unbounded).
    pub default_deadline: Option<Duration>,
    /// Record per-request wall-clock spans (queue/factor/solve/refine)
    /// into a [`simnet::Trace`] exportable to Perfetto.
    pub trace: bool,
    /// Optional distributed backend for cold large factorizations.
    pub distributed: Option<DistributedConfig>,
    /// Degradation margin for sparse CG solves: a run that misses the
    /// requested tolerance within its iteration budget is still accepted —
    /// flagged `refined` in [`RequestStats`] — if its residual is within
    /// `sparse_relax ×` the request tolerance. `1.0` disables relaxation.
    /// The sparse analogue of the dense path's refinement degradation.
    pub sparse_relax: f64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 2,
            max_queue: 64,
            cache_budget_bytes: 64 << 20,
            max_batch: 32,
            panel: 64,
            refine_sweeps: 5,
            default_deadline: None,
            trace: false,
            distributed: None,
            sparse_relax: 1e4,
        }
    }
}

/// What [`serve`] hands back after the scope closes: final statistics and
/// (when tracing was on) the wall-clock event trace.
#[derive(Debug)]
pub struct ServiceReport {
    /// Final aggregated statistics.
    pub stats: ServiceStats,
    /// Wall-clock spans of every request phase, one timeline per worker,
    /// exportable with [`simnet::Trace::to_chrome_trace`].
    pub trace: Option<Trace>,
}

// ---------------------------------------------------------------------------
// Internal state
// ---------------------------------------------------------------------------

struct Pending {
    fp: Fingerprint,
    /// The registered operand (dense matrix + kind, or CSR matrix +
    /// preconditioner) this request solves against. Both families share
    /// the queue, the admission path, deadlines, coalescing and the cache.
    op: AnyRegistered,
    rhs: Matrix,
    tolerance: f64,
    deadline: Option<Duration>,
    enqueued: Instant,
    /// Seconds since the service epoch, for the trace's queue span.
    enqueued_s: f64,
    slot: Arc<Slot>,
}

/// A claim on a submitted request; [`Ticket::wait`] blocks for the answer.
pub struct Ticket {
    slot: Arc<Slot>,
}

impl Ticket {
    pub(crate) fn from_slot(slot: Arc<Slot>) -> Self {
        Ticket { slot }
    }

    /// Block until a worker answers this request.
    pub fn wait(self) -> Result<SolveResponse, SolveError> {
        self.slot.wait_take()
    }
}

struct State {
    queue: VecDeque<Pending>,
    registry: HashMap<u64, AnyRegistered>,
    cache: FactorCache,
    /// Fingerprints some worker is currently factoring (single-flight).
    factoring: HashSet<Fingerprint>,
    collector: Collector,
    shutdown: bool,
}

struct Shared {
    cfg: ServiceConfig,
    epoch: Instant,
    state: Mutex<State>,
    work: Condvar,
}

/// Client-side handle to a running service, valid inside the [`serve`]
/// scope. Shareable across client threads by reference.
pub struct SolverHandle {
    shared: Arc<Shared>,
}

impl SolverHandle {
    /// Register (or replace) a matrix under `matrix_id`. Returns its
    /// content fingerprint — re-registering different data under the same
    /// id changes the fingerprint, so stale cached factors can never be
    /// served.
    pub fn register_matrix(&self, matrix_id: u64, matrix: Matrix, kind: MatrixKind) -> Fingerprint {
        let fp = Fingerprint::of(&matrix); // hash outside the lock
        let mut st = self.shared.state.lock().unwrap();
        st.registry.insert(
            matrix_id,
            AnyRegistered::Dense(Registered {
                matrix: Arc::new(matrix),
                kind,
                fp,
            }),
        );
        fp
    }

    /// Register (or replace) a sparse SPD system under `matrix_id`. Its
    /// solves run preconditioned CG; the cached artifact is the
    /// *preconditioner setup* (level schedules, triangles, diagonal), keyed
    /// by content fingerprint + preconditioner so repeat solves skip the
    /// analysis phase — the sparse analogue of reusing a dense factor.
    /// Errors with [`SolveError::ShapeMismatch`] on a non-square matrix.
    pub fn register_sparse(
        &self,
        matrix_id: u64,
        matrix: CsrMatrix,
        precond: Preconditioner,
    ) -> Result<Fingerprint, SolveError> {
        if matrix.rows() != matrix.cols() {
            return Err(SolveError::ShapeMismatch {
                matrix_rows: matrix.rows(),
                rhs_rows: matrix.cols(),
            });
        }
        // hash outside the lock, tagging with the preconditioner: the same
        // matrix under Jacobi and SymGS caches two distinct setups
        let fp = Fingerprint::of_csr(&matrix).with_tag(precond as u64);
        let mut st = self.shared.state.lock().unwrap();
        st.registry.insert(
            matrix_id,
            AnyRegistered::Sparse(SparseRegistered {
                matrix: Arc::new(matrix),
                precond,
                fp,
            }),
        );
        Ok(fp)
    }

    /// Submit a request. Fails fast — never blocks on a full queue.
    pub fn submit(&self, req: SolveRequest) -> Result<Ticket, SolveError> {
        let slot = {
            let mut st = self.shared.state.lock().unwrap();
            if st.shutdown {
                return Err(SolveError::ShuttingDown);
            }
            let reg = match st.registry.get(&req.matrix_id) {
                Some(r) => r.clone(),
                None => {
                    return Err(SolveError::UnknownMatrix {
                        matrix_id: req.matrix_id,
                    })
                }
            };
            let (rows, fp) = match &reg {
                AnyRegistered::Dense(r) => (r.matrix.rows(), r.fp),
                AnyRegistered::Sparse(r) => (r.matrix.rows(), r.fp),
            };
            if rows != req.rhs.rows() {
                return Err(SolveError::ShapeMismatch {
                    matrix_rows: rows,
                    rhs_rows: req.rhs.rows(),
                });
            }
            if st.queue.len() >= self.shared.cfg.max_queue {
                st.collector.rejected_overloaded += 1;
                return Err(SolveError::Overloaded {
                    depth: st.queue.len(),
                });
            }
            st.collector.submitted += 1;
            let slot = Arc::new(Slot::default());
            st.queue.push_back(Pending {
                fp,
                op: reg,
                rhs: req.rhs,
                tolerance: req.tolerance,
                deadline: req.deadline.or(self.shared.cfg.default_deadline),
                enqueued: Instant::now(),
                enqueued_s: self.shared.epoch.elapsed().as_secs_f64(),
                slot: Arc::clone(&slot),
            });
            slot
        };
        self.shared.work.notify_one();
        Ok(Ticket::from_slot(slot))
    }

    /// Submit and block for the answer.
    pub fn solve(&self, req: SolveRequest) -> Result<SolveResponse, SolveError> {
        self.submit(req)?.wait()
    }

    /// Point-in-time statistics snapshot.
    pub fn stats(&self) -> ServiceStats {
        let st = self.shared.state.lock().unwrap();
        snapshot(&st, self.shared.epoch.elapsed().as_secs_f64())
    }

    /// Requests currently waiting in the queue.
    pub fn queue_depth(&self) -> usize {
        self.shared.state.lock().unwrap().queue.len()
    }
}

fn snapshot(st: &State, elapsed_s: f64) -> ServiceStats {
    let mut stats = st.collector.snapshot(elapsed_s);
    stats.cache_hits = st.cache.hits;
    stats.cache_misses = st.cache.misses;
    stats.cache_evictions = st.cache.evictions;
    stats.cache_bytes = st.cache.bytes();
    stats.cache_entries = st.cache.len();
    stats
}

// ---------------------------------------------------------------------------
// The serve scope
// ---------------------------------------------------------------------------

/// Run a service: spawn the worker pool, hand the client closure a
/// [`SolverHandle`], and on return drain the queue, join the workers and
/// report. The scoped-thread structure guarantees no worker outlives the
/// borrowed matrices.
pub fn serve<R>(cfg: ServiceConfig, f: impl FnOnce(&SolverHandle) -> R) -> (R, ServiceReport) {
    let workers = cfg.workers.max(1);
    let tracing = cfg.trace;
    let budget = cfg.cache_budget_bytes;
    let epoch = Instant::now();
    let shared = Arc::new(Shared {
        cfg,
        epoch,
        state: Mutex::new(State {
            queue: VecDeque::new(),
            registry: HashMap::new(),
            cache: FactorCache::new(budget),
            factoring: HashSet::new(),
            collector: Collector::default(),
            shutdown: false,
        }),
        work: Condvar::new(),
    });

    let events: Mutex<Vec<Event>> = Mutex::new(Vec::new());
    let result = std::thread::scope(|s| {
        for w in 0..workers {
            let shared = Arc::clone(&shared);
            let events = &events;
            s.spawn(move || {
                let mut tracer = if tracing {
                    RankTracer::wall(w, epoch)
                } else {
                    RankTracer::noop()
                };
                worker_loop(&shared, &mut tracer);
                let evs = tracer.into_events();
                if !evs.is_empty() {
                    events.lock().unwrap().extend(evs);
                }
            });
        }
        let handle = SolverHandle {
            shared: Arc::clone(&shared),
        };
        // flag shutdown even if `f` unwinds: a panicking caller must not
        // leave the workers parked on the condvar forever (the scope join
        // would deadlock instead of propagating the panic)
        struct ShutdownOnDrop<'a>(&'a Shared);
        impl Drop for ShutdownOnDrop<'_> {
            fn drop(&mut self) {
                self.0.state.lock().unwrap().shutdown = true;
                self.0.work.notify_all();
            }
        }
        let guard = ShutdownOnDrop(&shared);
        let r = f(&handle);
        drop(guard);
        r
    });

    let elapsed_s = epoch.elapsed().as_secs_f64();
    let st = shared.state.lock().unwrap();
    debug_assert!(st.queue.is_empty(), "shutdown drained the queue");
    let stats = snapshot(&st, elapsed_s);
    drop(st);
    let trace = tracing.then(|| Trace {
        p: workers,
        model: AlphaBeta::aries_like(),
        clock: ClockDomain::Wall,
        events: events.into_inner().unwrap(),
    });
    (result, ServiceReport { stats, trace })
}

// ---------------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------------

struct BatchMember {
    pending: Pending,
    queue_wait: Duration,
    cache_hit: bool,
}

fn worker_loop(shared: &Shared, tracer: &mut RankTracer) {
    loop {
        let mut st = shared.state.lock().unwrap();
        let idx = loop {
            // skip requests whose factor another worker is computing:
            // they will be coalesced (or unblocked) when it finishes
            let free = (0..st.queue.len()).find(|&i| !st.factoring.contains(&st.queue[i].fp));
            match free {
                Some(i) => break Some(i),
                None if st.shutdown && st.queue.is_empty() => break None,
                None => st = shared.work.wait(st).unwrap(),
            }
        };
        let Some(idx) = idx else { return };
        let lead = st.queue.remove(idx).expect("index in bounds");

        // deadline check at dequeue: a request that waited too long is
        // abandoned *before* any compute is spent on it
        let waited = lead.enqueued.elapsed();
        if let Some(deadline) = lead.deadline {
            if waited > deadline {
                st.collector.deadline_misses += 1;
                lead.slot
                    .deliver(Err(SolveError::DeadlineExceeded { waited, deadline }));
                continue;
            }
        }

        match st.cache.lookup(lead.fp) {
            Some(factor) => {
                let batch = coalesce(&mut st, lead, shared.cfg.max_batch, true, true);
                st.cache.note_extra_hits(batch.len() as u64 - 1);
                drop(st);
                solve_batch(shared, tracer, &factor, batch, Duration::ZERO, false);
                shared.work.notify_all();
            }
            None => {
                st.factoring.insert(lead.fp);
                drop(st);

                let t0 = tracer.begin();
                let start = Instant::now();
                let outcome = match &lead.op {
                    AnyRegistered::Dense(reg) => exec::factor_matrix(
                        shared.cfg.panel,
                        shared.cfg.distributed,
                        &reg.matrix,
                        reg.kind,
                    ),
                    AnyRegistered::Sparse(reg) => exec::prepare_sparse(&reg.matrix, reg.precond),
                };
                let factor_time = start.elapsed();

                let mut st = shared.state.lock().unwrap();
                st.factoring.remove(&lead.fp);
                match outcome {
                    Ok(factored) => {
                        tracer.push_compute("svc:factor", factored.factor.kernel(), t0);
                        if factored.distributed {
                            st.collector.distributed_factors += 1;
                        }
                        if factored.spd_fallback {
                            st.collector.spd_fallbacks += 1;
                        }
                        st.cache.insert(lead.fp, factored.factor.clone());
                        // the leader was a miss; riders are served from
                        // the just-inserted factor and count as hits
                        let batch = coalesce(&mut st, lead, shared.cfg.max_batch, false, true);
                        st.cache.note_extra_hits(batch.len() as u64 - 1);
                        drop(st);
                        solve_batch(
                            shared,
                            tracer,
                            &factored.factor,
                            batch,
                            factor_time,
                            factored.distributed,
                        );
                    }
                    Err(err) => {
                        tracer.push_compute("svc:factor", "failed", t0);
                        // every queued request for this fingerprint will
                        // fail identically: fail them together instead of
                        // re-factoring a singular matrix per request
                        let batch = coalesce(&mut st, lead, usize::MAX, false, false);
                        st.collector.failed += batch.len() as u64;
                        drop(st);
                        for member in batch {
                            member.pending.slot.deliver(Err(err.clone()));
                        }
                    }
                }
                // wake workers skipping this fingerprint (leftover riders
                // beyond max_batch are now plain cache hits)
                shared.work.notify_all();
            }
        }
    }
}

/// Pull every queued request with the leader's fingerprint (up to
/// `max_batch` total) out of the queue. Caller holds the state lock.
fn coalesce(
    st: &mut State,
    lead: Pending,
    max_batch: usize,
    lead_hit: bool,
    riders_hit: bool,
) -> Vec<BatchMember> {
    let fp = lead.fp;
    let lead_wait = lead.enqueued.elapsed();
    let mut batch = vec![BatchMember {
        pending: lead,
        queue_wait: lead_wait,
        cache_hit: lead_hit,
    }];
    let mut i = 0;
    while batch.len() < max_batch && i < st.queue.len() {
        if st.queue[i].fp == fp {
            let p = st.queue.remove(i).expect("index in bounds");
            batch.push(BatchMember {
                queue_wait: p.enqueued.elapsed(),
                pending: p,
                cache_hit: riders_hit,
            });
        } else {
            i += 1;
        }
    }
    batch
}

/// Solve one coalesced batch: stack the RHS columns, run one multi-RHS
/// triangular solve, check each member's residual, degrade stragglers to
/// iterative refinement, deliver every response.
fn solve_batch(
    shared: &Shared,
    tracer: &mut RankTracer,
    factor: &CachedFactor,
    batch: Vec<BatchMember>,
    factor_time: Duration,
    distributed: bool,
) {
    // queue span: from the earliest submission in the batch to now
    if tracer.enabled() {
        let t0 = batch
            .iter()
            .map(|m| m.pending.enqueued_s)
            .fold(f64::INFINITY, f64::min);
        tracer.push_compute("svc:queue", "wait", t0);
    }

    // honor deadlines of riders that aged out while queued
    let mut active: Vec<BatchMember> = Vec::with_capacity(batch.len());
    let mut missed = 0u64;
    for member in batch {
        match member.pending.deadline {
            Some(deadline) if member.queue_wait > deadline => {
                missed += 1;
                member
                    .pending
                    .slot
                    .deliver(Err(SolveError::DeadlineExceeded {
                        waited: member.queue_wait,
                        deadline,
                    }));
            }
            _ => active.push(member),
        }
    }
    if missed > 0 {
        shared.state.lock().unwrap().collector.deadline_misses += missed;
    }
    if active.is_empty() {
        return;
    }

    // one fingerprint per batch, so the first member names the operand for
    // everyone; sparse batches route through the CG path (the "factor" is a
    // preconditioner setup, not something solve_into can use)
    match &active[0].pending.op {
        AnyRegistered::Sparse(reg) => {
            let a = Arc::clone(&reg.matrix);
            let setup = Arc::clone(
                factor
                    .as_sparse()
                    .expect("sparse request coalesced with a dense factor"),
            );
            solve_sparse_batch(shared, tracer, &a, &setup, active, factor_time);
        }
        AnyRegistered::Dense(reg) => {
            let a = Arc::clone(&reg.matrix);
            solve_dense_batch(shared, tracer, factor, &a, active, factor_time, distributed);
        }
    }
}

/// The dense half of [`solve_batch`]: stack, one multi-RHS direct solve,
/// one batch residual GEMM, per-member refinement degradation.
fn solve_dense_batch(
    shared: &Shared,
    tracer: &mut RankTracer,
    factor: &CachedFactor,
    a: &Arc<Matrix>,
    active: Vec<BatchMember>,
    factor_time: Duration,
    distributed: bool,
) {
    let n = a.rows();
    let batch_size = active.len();
    let k_total: usize = active.iter().map(|m| m.pending.rhs.cols()).sum();

    // one factor pass over all stacked right-hand sides
    let t0 = tracer.begin();
    let solve_start = Instant::now();
    let mut big = Matrix::zeros(n, k_total);
    let mut off = 0;
    for member in &active {
        big.set_block(0, off, &member.pending.rhs);
        off += member.pending.rhs.cols();
    }
    let mut x = Matrix::zeros(n, k_total);
    factor.solve_into(&big, &mut x);
    // one residual GEMM for the whole batch: r = b - A·x
    let mut r = big;
    gemm_auto(&mut r, -1.0, a, &x, 1.0);
    let solve_time = solve_start.elapsed();
    tracer.push_compute("svc:solve", factor.kernel(), t0);

    // slice out each member's answer, refining where the tolerance missed
    let mut outcomes: Vec<(Arc<Slot>, Result<SolveResponse, SolveError>, Duration)> =
        Vec::with_capacity(batch_size);
    let mut refined_count = 0u64;
    let mut off = 0;
    for member in &active {
        let p = &member.pending;
        let k = p.rhs.cols();
        let bnorm = p.rhs.frobenius_norm().max(f64::MIN_POSITIVE);
        let residual = r.block(0, off, n, k).frobenius_norm() / bnorm;
        let mut stats = RequestStats {
            queue_wait: member.queue_wait,
            factor_time,
            solve_time,
            refine_time: Duration::ZERO,
            cache_hit: member.cache_hit,
            batch_size,
            refined: false,
            refine_history: Vec::new(),
            distributed_factor: distributed,
            kernel: factor.kernel(),
            cg_iterations: 0,
            shard: None,
            failovers: 0,
            fingerprint: Some(p.fp),
        };
        let result = if residual <= p.tolerance {
            Ok(SolveResponse {
                x: x.block(0, off, n, k),
                residual,
                stats,
            })
        } else {
            // graceful degradation: iterative refinement on this member
            let t0r = tracer.begin();
            let refine_start = Instant::now();
            let outcome = exec::refine_solution(
                factor,
                a,
                &p.rhs,
                p.tolerance,
                shared.cfg.refine_sweeps,
                x.block(0, off, n, k),
                residual,
            );
            stats.refine_time = refine_start.elapsed();
            tracer.push_compute("svc:refine", factor.kernel(), t0r);
            match outcome {
                Ok((x_ref, res, history)) => {
                    refined_count += 1;
                    stats.refined = true;
                    stats.refine_history = history;
                    Ok(SolveResponse {
                        x: x_ref,
                        residual: res,
                        stats,
                    })
                }
                Err(e) => Err(e),
            }
        };
        outcomes.push((Arc::clone(&p.slot), result, p.enqueued.elapsed()));
        off += k;
    }

    account_and_deliver(shared, batch_size, refined_count, outcomes);
}

/// The sparse half of [`solve_batch`]: every member solves by CG against
/// the shared matrix and cached preconditioner setup, column by column,
/// with relaxed-tolerance degradation instead of refinement sweeps.
fn solve_sparse_batch(
    shared: &Shared,
    tracer: &mut RankTracer,
    a: &Arc<CsrMatrix>,
    setup: &Arc<sparselin::PrecondSetup>,
    active: Vec<BatchMember>,
    factor_time: Duration,
) {
    let batch_size = active.len();
    let t0 = tracer.begin();
    let solve_start = Instant::now();
    let mut solved = Vec::with_capacity(batch_size);
    for member in &active {
        let p = &member.pending;
        solved.push(exec::solve_sparse_member(
            a,
            setup,
            &p.rhs,
            p.tolerance,
            shared.cfg.sparse_relax,
        ));
    }
    let solve_time = solve_start.elapsed();
    tracer.push_compute("svc:solve", "cg", t0);

    let mut outcomes: Vec<(Arc<Slot>, Result<SolveResponse, SolveError>, Duration)> =
        Vec::with_capacity(batch_size);
    let mut refined_count = 0u64;
    for (member, solved) in active.iter().zip(solved) {
        let p = &member.pending;
        let result = solved.map(|(x, residual, degraded, history, iterations)| {
            if degraded {
                refined_count += 1;
            }
            SolveResponse {
                x,
                residual,
                stats: RequestStats {
                    queue_wait: member.queue_wait,
                    factor_time,
                    solve_time,
                    refine_time: Duration::ZERO,
                    cache_hit: member.cache_hit,
                    batch_size,
                    refined: degraded,
                    refine_history: if degraded { history } else { Vec::new() },
                    distributed_factor: false,
                    kernel: "cg",
                    cg_iterations: iterations,
                    shard: None,
                    failovers: 0,
                    fingerprint: Some(p.fp),
                },
            }
        });
        outcomes.push((Arc::clone(&p.slot), result, p.enqueued.elapsed()));
    }
    account_and_deliver(shared, batch_size, refined_count, outcomes);
}

/// Shared tail of both batch paths: record batch/refinement/latency
/// counters under the lock, then deliver every response outside it.
fn account_and_deliver(
    shared: &Shared,
    batch_size: usize,
    refined_count: u64,
    outcomes: Vec<(Arc<Slot>, Result<SolveResponse, SolveError>, Duration)>,
) {
    {
        let mut st = shared.state.lock().unwrap();
        st.collector.record_batch(batch_size);
        st.collector.refined += refined_count;
        for (_, result, latency) in &outcomes {
            match result {
                Ok(_) => {
                    st.collector.completed += 1;
                    st.collector.latencies.push(latency.as_secs_f64());
                }
                Err(_) => st.collector.failed += 1,
            }
        }
    }
    for (slot, result, _) in outcomes {
        slot.deliver(result);
    }
}
