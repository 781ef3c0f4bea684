//! The fleet simulator: an event-driven loop over the shared
//! [`EventQueue`], driving arrivals through a [`Scheduler`] onto the three
//! platform models until every job completes.
//!
//! Job service times come from the §5.3 analytical model (minus its
//! single-job startup terms — the fleet charges the *actual* startup it
//! simulates: warm/cold starts on FaaS, dispatch or queueing on IaaS, boot
//! plus preemption restarts on spot), so a thousand-job fleet simulates in
//! host milliseconds.
//!
//! Admission queues obey the scheduler's [`QueueDiscipline`]: FIFO, EDF
//! (earliest deadline first), or deficit round-robin across tenants by
//! weighted service — the fair-share quota enforcement point.
//!
//! Every job moves through the explicit [`JobLifecycle`] state machine
//! (`Queued → Booting → Running{epochs_done} → … → Done/Rejected`), shared
//! by all schedulers and all three tiers. Progress is epoch-granular: a
//! [`CheckpointPolicy`] decides when spot-routed jobs upload recovery
//! checkpoints (priced through `lml-storage`'s S3 profile), a preemption
//! rolls the job back to its last durable checkpoint instead of to zero,
//! and completion events are always scheduled from the *remaining* epochs
//! — including after a pool fallback. Tenants with a budget in the trace
//! are cut off once their attributed spend exhausts it
//! ([`JobLifecycle::Rejected`]) — or, with a [`FleetConfig::budget_window`]
//! configured, held in [`JobLifecycle::Deferred`] until the next window's
//! fresh allowance.
//!
//! The loop is closed back to the prediction layer: every `Done`
//! transition feeds the job's actuals (run, startup, dollars — including
//! spot-inflated reruns) to the scheduler's [`crate::estimate::Estimator`]
//! via [`Scheduler::observe`], and the prediction snapshotted at admission
//! is scored against the actuals in the metrics (MAPE rollups). Setting
//! [`FleetConfig::epoch_scale`] ≠ 1 miscalibrates the zoo — jobs really
//! need more (or fewer) epochs than the analytic prior assumes — which is
//! exactly the regime where learning estimators earn their keep.
//!
//! # Streaming replay
//!
//! The engine is *pull-based*: [`replay_observed`] draws arrivals from a
//! [`TraceSource`] one at a time and stores in-flight jobs in a
//! generational slab, so resident memory is bounded by the working set
//! (jobs admitted but not yet terminal), never by trace length — a
//! 10M-job replay holds the same state as a 400-job one.
//! [`simulate`]/[`simulate_observed`] are the in-memory compatibility
//! wrappers: they delegate through [`InMemorySource`], and replaying any
//! trace through a streaming source is **byte-identical** to the
//! in-memory path (same metrics JSON — the tie-break key is the dense
//! arrival sequence number, which equals the trace index).
//!
//! For traces too large to even collect per-job records, [`replay_stats`]
//! folds every retired job into a constant-size [`ReplaySummary`] —
//! that's the O(1)-memory path the million-job smoke test drives.
//! Observers that request a [`FleetObserver::rollup_period`] additionally
//! receive incremental [`WindowRollup`]s as the simulation clock crosses
//! each boundary, so long replays report progress without buffering.

use crate::estimate::{CompletedJob, Estimate, PreemptionObs};
use crate::intern::TenantMap;
use crate::job::{JobClass, JobRequest, TenantId};
use crate::lifecycle::{
    preempt_outcome, restore_beats_redo, AttemptPlan, CheckpointPolicy, JobLifecycle,
};
use crate::metrics::{FleetMetrics, JobRecord, PlatformTotals, WindowRollup};
use crate::observe::{
    AttemptSpan, Decision, DecisionRecord, FleetEvent, FleetObserver, GaugeSample, NullObserver,
    PlatformEvent, ReplayStats,
};
use crate::platform::{FaasConfig, FaasRegion, IaasConfig, IaasPool, SpotConfig, SpotTier};
use crate::scheduler::{FleetView, QueueDiscipline, Route, Scheduler};
use crate::stream::{InMemorySource, TraceSource};
use crate::workload::Trace;
use lml_analytic::constants;
use lml_analytic::model::{faas_cost, faas_time, iaas_time, AnalyticCase, AnalyticParams, Scaling};
use lml_sim::{ByteSize, Cost, EventQueue, SimTime};
use lml_storage::checkpoint::{checkpoint_bytes, CheckpointCosting};
use std::collections::BTreeMap;

/// Fleet-wide configuration: the three platforms and their channel cases.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    pub faas: FaasConfig,
    pub iaas: IaasConfig,
    /// The preemptible tier (only exercised when a policy routes there).
    pub spot: SpotConfig,
    /// Recovery-checkpoint policy for spot-routed jobs. Uploads go to the
    /// S3 profile's channel (always-on, flat per-PUT pricing); `Never`
    /// reproduces the PR 2 lose-everything behaviour.
    pub checkpoint: CheckpointPolicy,
    /// Analytical channel/pricing case for FaaS jobs (default: S3, 3 GB).
    pub faas_case: AnalyticCase,
    /// Analytical case for IaaS jobs (default: t2.medium network).
    pub iaas_case: AnalyticCase,
    /// Zoo miscalibration knob: the *actual* epochs every job needs are
    /// the class's calibrated count times this factor, while schedulers'
    /// analytic priors keep assuming the unscaled count. 1.0 (the
    /// default) reproduces a perfectly calibrated zoo; 2.0 is the
    /// "epoch counts perturbed ×2" study.
    pub epoch_scale: f64,
    /// Budget accounting window. `None` (the default) keeps PR 3's hard
    /// caps: an over-budget tenant's jobs are `Rejected`. With a window,
    /// trace budgets become per-window allowances — a standing clock
    /// resets the spend ledgers at every boundary, over-budget tenants'
    /// jobs are `Deferred`, and a deferred backlog re-admits at each
    /// boundary only up to the fresh allowance (the remainder waits for
    /// later windows). Zero-budget tenants are still rejected: no window
    /// can ever afford them.
    pub budget_window: Option<SimTime>,
    /// Checkpoint storage-class threshold: recovery checkpoints at or
    /// under this size go through the DynamoDB profile (per-unit puts,
    /// 30 ms latency — right for tiny convex models), larger ones through
    /// S3. `None` sends everything to S3.
    pub checkpoint_tier_threshold: Option<ByteSize>,
    /// What a missed deadline is deemed to cost, in dollars — one side of
    /// the deferral-vs-rejection pricing when a tenant is over its
    /// windowed allowance. Deferring a job whose P95 ETA after the next
    /// window boundary still makes its deadline costs nothing; deferring
    /// one that will (at P95) miss costs this.
    pub deadline_miss_cost: f64,
    /// What rejecting a job outright is deemed to cost, in dollars — the
    /// other side of the pricing. With the defaults (equal costs, ties
    /// defer) every over-allowance job defers, reproducing the PR 4
    /// behaviour; price rejection *below* a miss and admission starts
    /// rejecting the jobs deferral can only doom.
    pub rejection_cost: f64,
}

/// Default checkpoint storage-class threshold: the cost break-even where
/// DynamoDB's per-KB write units (4 × $1.25e-6) meet S3's flat $5e-6 PUT.
/// At or under this size DynamoDB is never dearer and always faster
/// (30 ms vs 80 ms), so tiering is strictly dominant; above it S3's flat
/// request price wins on dollars.
pub const CHECKPOINT_TIER_THRESHOLD: ByteSize = ByteSize(4_000);

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            faas: FaasConfig::default(),
            iaas: IaasConfig::default(),
            spot: SpotConfig::default(),
            checkpoint: CheckpointPolicy::Never,
            faas_case: AnalyticCase::faas_s3(),
            iaas_case: AnalyticCase::iaas_t2(),
            epoch_scale: 1.0,
            budget_window: None,
            checkpoint_tier_threshold: Some(CHECKPOINT_TIER_THRESHOLD),
            deadline_miss_cost: 1.0,
            rejection_cost: 1.0,
        }
    }
}

/// Single-job service time on FaaS once its functions are up: data loading
/// plus training (the analytical FaaS(w) minus its t_F(w) startup term).
pub fn faas_run(p: &AnalyticParams, case: &AnalyticCase, w: usize) -> SimTime {
    faas_time(p, case, Scaling::Perfect, w) - SimTime::secs(constants::t_f().eval(w as f64))
}

/// Single-job service time on booted IaaS instances (IaaS(w) minus t_I(w)).
pub fn iaas_run(p: &AnalyticParams, case: &AnalyticCase, w: usize) -> SimTime {
    iaas_time(p, case, Scaling::Perfect, w) - SimTime::secs(constants::t_i().eval(w as f64))
}

/// A generational reference to a resident job in the slab. Events carry
/// handles instead of trace indices, so the engine never needs the whole
/// trace in memory; the generation counter turns any use-after-retire bug
/// into a loud debug assertion instead of silent state corruption.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Handle {
    slot: u32,
    gen: u32,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Event {
    /// The resident job finishes on FaaS.
    FaasDone(Handle),
    /// The resident job finishes on IaaS.
    IaasDone(Handle),
    /// The resident job finishes on spot.
    SpotDone(Handle),
    /// The spot market reclaims the job's instances mid-flight.
    SpotPreempted(Handle),
    /// A batch of `k` IaaS instances finished booting.
    Provisioned(usize),
    /// Check whether idle IaaS capacity above the floor should be released.
    IdleCheck,
    /// A budget accounting window opens: spend ledgers reset and deferred
    /// jobs are admitted.
    BudgetWindow,
    /// The observer's standing telemetry clock fires: sample the gauges.
    /// Only ever scheduled when an active observer requests a
    /// [`FleetObserver::gauge_period`] — the default [`NullObserver`] run
    /// carries none, keeping the event stream byte-identical to the
    /// unobserved simulator.
    GaugeTick,
}

/// Mutable per-job state built up during the run. The queue/startup/run
/// components accumulate across spot preemption restarts, so
/// `queue + startup + run` always equals finish − submit.
#[derive(Debug, Clone, Copy)]
struct JobState {
    route: Route,
    /// The explicit lifecycle machine; every mutation goes through
    /// [`JobLifecycle::transition`], so illegal paths panic.
    lifecycle: JobLifecycle,
    queue: SimTime,
    startup: SimTime,
    run: SimTime,
    warm_hits: usize,
    cost: Cost,
    preemptions: u32,
    /// Attempts that restarted from a durable checkpoint (not from zero).
    resumes: u32,
    /// Whole epochs this job needs (its class's `R`, rounded up).
    epochs_total: u32,
    /// Durable progress: epochs whose checkpoint (or completion) survives
    /// a preemption.
    epochs_done: u32,
    /// Training seconds redone because a preemption struck past the last
    /// durable checkpoint.
    lost_work: SimTime,
    /// Checkpoint uploads initiated (durable, in-flight at preemption, and
    /// on successful attempts alike — all billed).
    ckpt_writes: u32,
    /// Checkpoint dollars: uploads plus restore reads.
    ckpt_cost: Cost,
    /// The scheduler's prediction for the routed substrate, snapshotted at
    /// admission (None for constant routers and rejected jobs).
    predicted: Option<Estimate>,
    /// The job sat out at least one budget accounting window.
    deferred: bool,
    /// When the job last became ready to start (submission, or the moment
    /// a preemption threw it back).
    ready_since: SimTime,
    /// Spot attempts launched so far (indexes the preemption clock).
    attempt: u32,
    /// Launch bookkeeping of the in-flight spot attempt.
    attempt_start: SimTime,
    attempt_boot: SimTime,
    attempt_restore: SimTime,
    attempt_plan: Option<AttemptPlan>,
}

/// One resident job: the request, its mutable run state, and the dense
/// arrival sequence number that replaces the trace index everywhere the
/// old engine compared indices (queue tie-breaks, record order).
#[derive(Debug, Clone, Copy)]
struct Slot {
    job: JobRequest,
    state: JobState,
    seq: u64,
    gen: u32,
}

/// Per-class analytic cache: every value here is a pure function of
/// `(class, workers, config)`, so recomputing it per event is pure waste —
/// the job zoo has six classes and the hot path touches the same handful
/// of formulas on every dispatch. One entry per class, keyed by the
/// workers it was computed for (recomputed on a width change, which never
/// happens in homogeneous-width traces).
#[derive(Debug, Clone, Copy)]
struct ClassCache {
    workers: usize,
    epochs_total: u32,
    faas_run: SimTime,
    faas_cost: Cost,
    iaas_run_full: SimTime,
    ckpt_write_secs: f64,
    ckpt_write_dollars: Cost,
    ckpt_read_time: SimTime,
    ckpt_read_dollars: Cost,
}

const N_CLASSES: usize = JobClass::ALL.len();

/// The deferral-vs-rejection pricing of one over-allowance job, with the
/// inputs that settled it (fed to the decision audit).
#[derive(Debug, Clone, Copy)]
struct OverAllowance {
    /// Rejection priced strictly below deferral.
    reject: bool,
    /// Deadline slack remaining at the pricing instant, seconds.
    laxity_s: Option<f64>,
    /// The window boundary a deferred job would be released at, seconds.
    release_s: Option<f64>,
    /// Best-substrate quantile run after release, seconds.
    eta_q_s: Option<f64>,
}

impl OverAllowance {
    /// A refusal no price settles: a tenant no window can afford, or a
    /// job too wide for the substrate it was routed to.
    const REJECT: OverAllowance = OverAllowance {
        reject: true,
        laxity_s: None,
        release_s: None,
        eta_q_s: None,
    };
}

/// Constant-size aggregates for the bounded ([`replay_stats`]) path:
/// every retired job folds in here instead of materializing a record.
#[derive(Debug, Clone, Copy, Default)]
struct SummaryAcc {
    completed: u64,
    rejected: u64,
    deferred: u64,
    makespan: SimTime,
    /// Attributed dollars of completed FaaS-routed jobs (mirrors the
    /// `faas_cost` term of [`FleetMetrics::total_cost`]).
    faas_attributed: Cost,
    /// Checkpoint dollars across all jobs.
    ckpt_dollars: Cost,
}

/// Where retired jobs go: full records (the metrics path) or the
/// constant-size fold (the bounded path).
enum Sink {
    /// Per-job records indexed by arrival seq — memory O(trace length),
    /// exactly what [`FleetMetrics::from_records`] needs.
    Records(Vec<Option<JobRecord>>),
    /// Constant-memory aggregates for [`replay_stats`].
    Bounded(SummaryAcc),
}

/// Incremental rollup bookkeeping (armed only when the observer asks for
/// a [`FleetObserver::rollup_period`]).
struct RollupState {
    period: SimTime,
    /// The next boundary to flush at.
    next: SimTime,
    index: u64,
    submitted: u64,
    completed: u64,
    rejected: u64,
    cost: Cost,
}

/// Constant-size outcome of a bounded replay ([`replay_stats`]): the
/// headline counters without the per-job records.
///
/// `total_cost` follows the same decomposition as
/// [`FleetMetrics::total_cost`] (FaaS execution + provisioned floor +
/// pool bill + spot bill + checkpoint traffic), but the summation order
/// differs from the record-based rollup, so compare it to the metrics
/// value with a tolerance, never byte-for-byte.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplaySummary {
    /// Arrivals pulled from the source (the streamed trace length).
    pub jobs: u64,
    /// Jobs that completed (reached `Done`).
    pub completed: u64,
    /// Jobs refused admission.
    pub rejected: u64,
    /// Jobs that sat out at least one budget window.
    pub deferred: u64,
    /// Finish time of the last job that ran.
    pub makespan: SimTime,
    /// Total platform dollars (see type docs for the decomposition).
    pub total_cost: Cost,
    /// High-water mark of the resident job slab — the number the
    /// streaming engine promises stays bounded by the in-flight set.
    pub peak_resident_jobs: u64,
}

/// All simulator state, threaded through the event handlers.
struct Fleet<'a> {
    cfg: &'a FleetConfig,
    /// Per-tenant dollar caps from the source's preamble (trace v3);
    /// absent tenants are uncapped.
    budgets: TenantMap<f64>,
    faas: FaasRegion,
    iaas: IaasPool,
    spot: SpotTier,
    /// Checkpoint channel: S3 write/read time and request dollars.
    ckpt: CheckpointCosting,
    /// The resident job slab: admitted, non-terminal jobs. Slots are
    /// recycled through `free` as jobs retire, so capacity tracks the
    /// peak *working set*, not the trace length.
    slots: Vec<Slot>,
    free: Vec<u32>,
    class_cache: [Option<ClassCache>; N_CLASSES],
    events: EventQueue<Event>,
    /// FaaS admission queue. The live entries are `faas_queue[faas_head..]`:
    /// FIFO consumption advances the cursor instead of shifting the tail,
    /// and the drained prefix is compacted away only once it dominates
    /// the buffer — amortized O(1) per start instead of O(queue).
    faas_queue: Vec<Handle>,
    faas_head: usize,
    iaas_queue: Vec<Handle>,
    /// Workers queued on each platform, maintained incrementally at
    /// enqueue/start so `view()` and the autoscaler stay O(1) instead of
    /// re-summing the queues on every admission.
    faas_queued_workers: usize,
    iaas_queued_workers: usize,
    /// Weighted-service ledger behind the deficit-round-robin discipline:
    /// worker-seconds of run time started so far, per tenant. Only
    /// maintained when the scheduler's discipline is DRR (`track_service`).
    tenant_service: TenantMap<f64>,
    /// Attributed dollars per tenant — the budget-cap enforcement ledger
    /// (reset every accounting window when deferral is on). Only
    /// maintained when someone reads it (`track_spend`).
    tenant_spend: TenantMap<f64>,
    /// Jobs held back until the next budget window, in arrival order.
    deferred_queue: Vec<Handle>,
    /// The standing `BudgetWindow` event chain is armed.
    window_scheduled: bool,
    /// Admitted jobs not yet in a terminal lifecycle state (includes
    /// deferred jobs).
    live: usize,
    /// The source has at least one arrival still to deliver.
    more_arrivals: bool,
    /// Arrivals pulled from the source so far (also the next seq).
    arrivals_streamed: u64,
    /// High-water mark of slab occupancy.
    peak_resident: u64,
    /// The scheduler's ETA quantile, captured once up front (constant for
    /// every in-tree scheduler) — record building needs it per retire.
    eta_quantile: f64,
    /// `obs.active()`, cached: the vtable call was on the hot path.
    obs_on: bool,
    /// Maintain `tenant_spend` (budgets declared, or a gauge-sampling
    /// observer reads it — `sample_gauges` only runs on a gauge clock, so
    /// an observer without one never sees the ledger).
    track_spend: bool,
    /// Maintain `tenant_service` (scheduler discipline is DRR).
    track_service: bool,
    rollup: Option<RollupState>,
    sink: Sink,
    /// The observability sink: every lifecycle transition, scheduler
    /// decision, platform event, dispatch span, and gauge sample is
    /// narrated here. [`NullObserver`] (the default) makes every call a
    /// no-op and `obs_on` gates payload assembly.
    obs: &'a mut (dyn FleetObserver + 'a),
}

impl<'a> Fleet<'a> {
    fn new(
        cfg: &'a FleetConfig,
        budgets: BTreeMap<TenantId, f64>,
        seed: u64,
        obs: &'a mut (dyn FleetObserver + 'a),
        eta_quantile: f64,
        track_service: bool,
        collect: bool,
    ) -> Self {
        let obs_on = obs.active();
        let rollup = obs.rollup_period().map(|p| {
            debug_assert!(p.as_secs() > 0.0, "rollup period must be positive");
            RollupState {
                period: p,
                next: p,
                index: 0,
                submitted: 0,
                completed: 0,
                rejected: 0,
                cost: Cost::ZERO,
            }
        });
        Fleet {
            cfg,
            track_spend: !budgets.is_empty() || obs.gauge_period().is_some(),
            budgets: budgets
                .into_iter()
                .fold(TenantMap::new(), |mut caps, (t, cap)| {
                    caps.insert(t, cap);
                    caps
                }),
            faas: FaasRegion::new(cfg.faas),
            iaas: IaasPool::new(cfg.iaas),
            spot: SpotTier::new(cfg.spot, seed),
            ckpt: match cfg.checkpoint_tier_threshold {
                Some(t) => CheckpointCosting::tiered(t),
                None => CheckpointCosting::s3(),
            },
            slots: Vec::new(),
            free: Vec::new(),
            class_cache: [None; N_CLASSES],
            events: EventQueue::new(),
            faas_queue: Vec::new(),
            faas_head: 0,
            iaas_queue: Vec::new(),
            faas_queued_workers: 0,
            iaas_queued_workers: 0,
            tenant_service: TenantMap::new(),
            tenant_spend: TenantMap::new(),
            deferred_queue: Vec::new(),
            window_scheduled: false,
            live: 0,
            more_arrivals: false,
            arrivals_streamed: 0,
            peak_resident: 0,
            eta_quantile,
            obs_on,
            track_service,
            rollup,
            sink: if collect {
                Sink::Records(Vec::new())
            } else {
                Sink::Bounded(SummaryAcc::default())
            },
            obs,
        }
    }

    #[inline]
    fn slot(&self, h: Handle) -> &Slot {
        let s = &self.slots[h.slot as usize];
        debug_assert_eq!(s.gen, h.gen, "stale job handle");
        s
    }

    #[inline]
    fn state_mut(&mut self, h: Handle) -> &mut JobState {
        let s = &mut self.slots[h.slot as usize];
        debug_assert_eq!(s.gen, h.gen, "stale job handle");
        &mut s.state
    }

    /// Admit a pulled arrival into the slab: assign its dense seq, build
    /// fresh run state, and record the occupancy high-water mark.
    fn insert(&mut self, job: JobRequest) -> Handle {
        let seq = self.arrivals_streamed;
        self.arrivals_streamed += 1;
        let epochs_total = self.class_cache(job.class, job.workers).epochs_total;
        let state = JobState {
            route: Route::Faas,
            lifecycle: JobLifecycle::Queued,
            queue: SimTime::ZERO,
            startup: SimTime::ZERO,
            run: SimTime::ZERO,
            warm_hits: 0,
            cost: Cost::ZERO,
            preemptions: 0,
            resumes: 0,
            epochs_total,
            epochs_done: 0,
            lost_work: SimTime::ZERO,
            ckpt_writes: 0,
            ckpt_cost: Cost::ZERO,
            predicted: None,
            deferred: false,
            ready_since: job.submit,
            attempt: 0,
            attempt_start: SimTime::ZERO,
            attempt_boot: SimTime::ZERO,
            attempt_restore: SimTime::ZERO,
            attempt_plan: None,
        };
        let h = match self.free.pop() {
            Some(slot) => {
                let s = &mut self.slots[slot as usize];
                s.job = job;
                s.state = state;
                s.seq = seq;
                Handle { slot, gen: s.gen }
            }
            None => {
                let slot = self.slots.len() as u32;
                self.slots.push(Slot {
                    job,
                    state,
                    seq,
                    gen: 0,
                });
                Handle { slot, gen: 0 }
            }
        };
        self.live += 1;
        let resident = (self.slots.len() - self.free.len()) as u64;
        self.peak_resident = self.peak_resident.max(resident);
        if let Some(r) = &mut self.rollup {
            r.submitted += 1;
        }
        h
    }

    /// Fold a terminal job into the sink and recycle its slab slot.
    fn retire(&mut self, h: Handle) {
        self.live -= 1;
        let idx = h.slot as usize;
        debug_assert_eq!(self.slots[idx].gen, h.gen, "stale job handle");
        // Borrow, don't copy: the slot is ~300 bytes and this runs once
        // per job. Field-disjoint borrows (slots vs rollup vs sink) keep
        // the borrow checker happy; the slot is recycled only after the
        // record has been folded out.
        let Slot {
            job: ref j,
            state: ref s,
            seq,
            ..
        } = self.slots[idx];
        debug_assert!(
            s.lifecycle.is_terminal(),
            "retire needs a terminal lifecycle state"
        );
        let rejected = s.lifecycle == JobLifecycle::Rejected;
        if let Some(r) = &mut self.rollup {
            if rejected {
                r.rejected += 1;
            } else {
                r.completed += 1;
            }
        }
        let eta_quantile = self.eta_quantile;
        match &mut self.sink {
            Sink::Records(records) => {
                let rec = JobRecord {
                    id: j.id,
                    class: j.class,
                    route: s.route,
                    workers: j.workers,
                    tenant: j.tenant,
                    submit: j.submit,
                    deadline: j.deadline,
                    queue: s.queue,
                    startup: s.startup,
                    run: s.run,
                    warm_hits: s.warm_hits,
                    preemptions: s.preemptions,
                    resumes: s.resumes,
                    spot_attempts: s.attempt,
                    lost_work: s.lost_work,
                    checkpoint_writes: s.ckpt_writes,
                    checkpoint_cost: s.ckpt_cost,
                    rejected,
                    deferred: s.deferred,
                    predicted_run: s.predicted.map(|e| SimTime::secs(e.time(s.route))),
                    // The calibrated quantile ETA snapshotted at admission,
                    // at the tail the scheduler itself routed with (P95 by
                    // default) — what the coverage rollup scores against
                    // the actual run.
                    predicted_run_q: s
                        .predicted
                        .map(|e| SimTime::secs(e.eta_q(s.route, eta_quantile))),
                    // Spot attributions ride the market discount the
                    // firm-price prediction deliberately ignores; scoring
                    // them would report the discount as estimator error,
                    // so spot jobs carry no cost prediction (their
                    // runtimes still score — spot inflation IS estimator
                    // error).
                    predicted_cost: match s.route {
                        Route::Spot => None,
                        _ => s.predicted.map(|e| Cost::usd(e.cost(s.route))),
                    },
                    cost: s.cost,
                };
                let at = seq as usize;
                if records.len() <= at {
                    records.resize_with(at + 1, || None);
                }
                debug_assert!(records[at].is_none(), "job retired twice");
                records[at] = Some(rec);
            }
            Sink::Bounded(acc) => {
                if rejected {
                    acc.rejected += 1;
                } else {
                    acc.completed += 1;
                    let finish = j.submit + s.queue + s.startup + s.run;
                    acc.makespan = acc.makespan.max(finish);
                    if s.route == Route::Faas {
                        acc.faas_attributed += s.cost;
                    }
                }
                if s.deferred {
                    acc.deferred += 1;
                }
                acc.ckpt_dollars += s.ckpt_cost;
            }
        }
        let slot = &mut self.slots[idx];
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(h.slot);
    }

    /// Flush every rollup window whose boundary the (monotone) event clock
    /// has crossed. Called before processing each event, so counters land
    /// in the window the events actually happened in.
    fn flush_rollups_to(&mut self, now: SimTime) {
        let Some(r) = &mut self.rollup else { return };
        while now >= r.next {
            let w = WindowRollup {
                index: r.index,
                start: r.next - r.period,
                end: r.next,
                submitted: r.submitted,
                completed: r.completed,
                rejected: r.rejected,
                cost: r.cost,
                resident_jobs: (self.slots.len() - self.free.len()) as u64,
            };
            self.obs.rollup(&w);
            r.index += 1;
            r.next += r.period;
            r.submitted = 0;
            r.completed = 0;
            r.rejected = 0;
            r.cost = Cost::ZERO;
        }
    }

    /// Emit the trailing partial window, if anything happened since the
    /// last boundary.
    fn finish_rollups(&mut self) {
        let Some(r) = &mut self.rollup else { return };
        // An untouched rollup holds an exact-zero sum. lml-analyze: allow(float-eq)
        if r.submitted + r.completed + r.rejected == 0 && r.cost.as_usd() == 0.0 {
            return;
        }
        let w = WindowRollup {
            index: r.index,
            start: r.next - r.period,
            end: r.next,
            submitted: r.submitted,
            completed: r.completed,
            rejected: r.rejected,
            cost: r.cost,
            resident_jobs: (self.slots.len() - self.free.len()) as u64,
        };
        self.obs.rollup(&w);
    }

    /// The per-class analytic bundle, recomputed only when the class's
    /// width changes (see [`ClassCache`]).
    fn class_cache(&mut self, class: JobClass, workers: usize) -> ClassCache {
        let idx = class as usize;
        if let Some(c) = self.class_cache[idx] {
            if c.workers == workers {
                return c;
            }
        }
        let mut p = class.profile();
        p.epochs *= self.cfg.epoch_scale;
        let bytes = checkpoint_bytes(class.profile().model_bytes);
        let c = ClassCache {
            workers,
            epochs_total: Self::actual_epochs(class, self.cfg.epoch_scale),
            faas_run: faas_run(&p, &self.cfg.faas_case, workers),
            faas_cost: faas_cost(&p, &self.cfg.faas_case, Scaling::Perfect, workers),
            iaas_run_full: iaas_run(&p, &self.cfg.iaas_case, workers),
            ckpt_write_secs: self.ckpt.write_time(bytes).as_secs(),
            ckpt_write_dollars: self.ckpt.write_dollars(bytes),
            ckpt_read_time: self.ckpt.read_time(bytes),
            ckpt_read_dollars: self.ckpt.read_dollars(bytes),
        };
        self.class_cache[idx] = Some(c);
        c
    }

    /// Advance the job's lifecycle through the validated state machine and
    /// narrate the transition to the observer.
    fn step(&mut self, h: Handle, now: SimTime, next: JobLifecycle) {
        let slot = &mut self.slots[h.slot as usize];
        debug_assert_eq!(slot.gen, h.gen, "stale job handle");
        let from = slot.state.lifecycle;
        slot.state.lifecycle.transition(next);
        if self.obs_on {
            let ev = FleetEvent {
                at: now,
                job: slot.job.id,
                tenant: slot.job.tenant,
                route: slot.state.route,
                attempt: slot.state.attempt,
                from,
                to: next,
            };
            self.obs.lifecycle(&ev);
        }
    }

    /// Sample the standing telemetry gauges into the observer.
    fn sample_gauges(&mut self, now: SimTime) {
        if !self.obs_on {
            return;
        }
        let g = GaugeSample {
            at: now,
            queue_depth: (self.faas_queue.len() - self.faas_head) + self.iaas_queue.len(),
            deferred: self.deferred_queue.len(),
            faas_in_use: self.cfg.faas.concurrency_limit - self.faas.available(),
            faas_limit: self.cfg.faas.concurrency_limit,
            iaas_busy: self.iaas.capacity() - self.iaas.free(),
            iaas_capacity: self.iaas.capacity(),
            spot_in_use: self.spot.in_use(),
            tenant_spend: self
                .tenant_spend
                .iter_sorted()
                .map(|(t, &s)| (t, s))
                .collect(),
        };
        self.obs.gauges(&g);
    }

    /// Whole epochs a job of `class` actually needs, after the zoo
    /// miscalibration knob (≥ 1).
    fn actual_epochs(class: JobClass, scale: f64) -> u32 {
        assert!(
            scale.is_finite() && scale > 0.0,
            "epoch_scale must be finite and > 0"
        );
        ((class.default_epochs() * scale).ceil() as u32).max(1)
    }

    /// Attribute `c` dollars to the job, its tenant's spend ledger, and
    /// the open rollup window.
    fn charge(&mut self, h: Handle, c: Cost) {
        let slot = &mut self.slots[h.slot as usize];
        debug_assert_eq!(slot.gen, h.gen, "stale job handle");
        slot.state.cost += c;
        if self.track_spend {
            *self
                .tenant_spend
                .get_or_insert_with(slot.job.tenant, || 0.0) += c.as_usd();
        }
        if let Some(r) = &mut self.rollup {
            r.cost += c;
        }
    }

    /// Is this tenant's budget (if any) already exhausted?
    fn budget_exhausted(&self, tenant: TenantId) -> bool {
        self.budgets
            .get(tenant)
            .is_some_and(|&cap| self.tenant_spend.get(tenant).copied().unwrap_or(0.0) >= cap)
    }

    fn queued_workers(&self, q: &[Handle]) -> usize {
        q.iter().map(|&h| self.slot(h).job.workers).sum()
    }

    fn view(&self) -> FleetView {
        debug_assert_eq!(
            self.faas_queued_workers,
            self.queued_workers(&self.faas_queue[self.faas_head..])
        );
        debug_assert_eq!(
            self.iaas_queued_workers,
            self.queued_workers(&self.iaas_queue)
        );
        FleetView {
            faas_in_use: self.cfg.faas.concurrency_limit - self.faas.available(),
            faas_limit: self.cfg.faas.concurrency_limit,
            faas_queued_workers: self.faas_queued_workers,
            iaas_free: self.iaas.free(),
            iaas_capacity: self.iaas.capacity(),
            iaas_provisioning: self.iaas.provisioning(),
            iaas_queued_workers: self.iaas_queued_workers,
        }
    }

    /// Credit a started job's service to its tenant (the DRR ledger).
    /// Skipped entirely under FIFO/EDF — nothing reads the ledger there.
    fn credit_service(&mut self, h: Handle, run: SimTime) {
        if !self.track_service {
            return;
        }
        let j = self.slot(h).job;
        *self.tenant_service.get_or_insert_with(j.tenant, || 0.0) +=
            j.workers as f64 * run.as_secs();
    }

    /// Position in `q` of the job the discipline admits next, or `None` if
    /// the queue is empty. All orders are deterministic: ties break by
    /// arrival seq (the streaming stand-in for the submission index).
    fn pick_pos(&self, q: &[Handle], sched: &dyn Scheduler) -> Option<usize> {
        if q.is_empty() {
            return None;
        }
        match sched.discipline() {
            QueueDiscipline::Fifo => Some(0),
            QueueDiscipline::Edf => q
                .iter()
                .enumerate()
                .min_by(|&(_, &a), &(_, &b)| {
                    let sa = self.slot(a);
                    let sb = self.slot(b);
                    let da = sa.job.deadline.map_or(f64::INFINITY, |d| d.as_secs());
                    let db = sb.job.deadline.map_or(f64::INFINITY, |d| d.as_secs());
                    da.total_cmp(&db).then(sa.seq.cmp(&sb.seq))
                })
                .map(|(pos, _)| pos),
            QueueDiscipline::Drr => q
                .iter()
                .enumerate()
                .min_by(|&(_, &a), &(_, &b)| {
                    let norm = |h: Handle| {
                        let t = self.slot(h).job.tenant;
                        self.tenant_service.get(t).copied().unwrap_or(0.0) / sched.tenant_weight(t)
                    };
                    norm(a)
                        .total_cmp(&norm(b))
                        .then(self.slot(a).seq.cmp(&self.slot(b).seq))
                })
                .map(|(pos, _)| pos),
        }
    }

    /// Try to begin the job on FaaS at `now`; schedules its completion.
    /// FaaS jobs are never preempted, so they always run all their epochs.
    fn start_faas(&mut self, h: Handle, now: SimTime) -> bool {
        let job = self.slot(h).job;
        match self.faas.try_start(now, job.workers) {
            Some((startup, warm_hits)) => {
                let workers = job.workers;
                let cache = self.class_cache(job.class, workers);
                let run = cache.faas_run;
                let s = self.state_mut(h);
                let queued_at = s.ready_since;
                s.queue += now - s.ready_since;
                // Queue time accumulates exactly once per wait interval.
                s.ready_since = now;
                s.startup += startup;
                s.run += run;
                s.warm_hits = warm_hits;
                let attempt = s.attempt;
                self.step(h, now, JobLifecycle::Booting);
                self.step(h, now, JobLifecycle::Running { epochs_done: 0 });
                if self.obs_on {
                    self.obs.platform(
                        now,
                        &PlatformEvent::FaasStart {
                            job: job.id,
                            workers,
                            warm_hits,
                        },
                    );
                    self.obs.attempt(&AttemptSpan {
                        job: job.id,
                        tenant: job.tenant,
                        substrate: Route::Faas,
                        attempt,
                        queued_at,
                        dispatched_at: now,
                        startup_s: startup.as_secs(),
                        run_s: run.as_secs(),
                    });
                }
                // GB-second billing of the execution (Lambda does not bill
                // provisioning time; the §5.3 cost formula is the same).
                self.charge(h, cache.faas_cost);
                self.events.push(now + startup + run, Event::FaasDone(h));
                self.credit_service(h, run);
                true
            }
            None => false,
        }
    }

    /// Try to begin the job on idle IaaS instances at `now`. A job thrown
    /// back by the spot market resumes from its last durable checkpoint:
    /// only the *remaining* epochs are scheduled (plus the restore read),
    /// so the pool's completion estimate no longer re-runs finished work.
    fn start_iaas(&mut self, h: Handle, now: SimTime) -> bool {
        let job = self.slot(h).job;
        if !self.iaas.try_start(now, job.workers) {
            return false;
        }
        let workers = job.workers;
        let cache = self.class_cache(job.class, workers);
        let total = self.slot(h).state.epochs_total;
        let epoch_secs = cache.iaas_run_full.as_secs() / total as f64;
        // Restore-vs-redo priced at the reserved pool's own rate.
        let rate = workers as f64 * self.cfg.iaas_case.worker_price_per_s;
        let (from, restore, restore_dollars) = self.resume_point(h, &cache, epoch_secs, rate);
        let run = SimTime::secs((total - from) as f64 * epoch_secs);
        let startup = self.cfg.iaas.dispatch_latency + restore;
        let s = self.state_mut(h);
        let queued_at = s.ready_since;
        s.queue += now - s.ready_since;
        // Close the wait interval: queue seconds accumulate exactly once
        // per wait, however the job got here (fresh admission or the
        // Requeued→pool-fallback path).
        s.ready_since = now;
        s.startup += startup;
        s.run += run;
        if from > 0 {
            s.resumes += 1;
        }
        // Keep the durable scalar in lock-step with the attempt's start:
        // a declined restore abandons the checkpoint for good (the trade
        // can't improve — epoch length is fixed per job), and the
        // banked-but-redone epochs count as lost work like any other.
        s.lost_work += SimTime::secs((s.epochs_done - from) as f64 * epoch_secs);
        s.epochs_done = from;
        s.ckpt_cost += restore_dollars;
        let attempt = s.attempt;
        self.step(h, now, JobLifecycle::Booting);
        self.step(h, now, JobLifecycle::Running { epochs_done: from });
        if self.obs_on {
            if from > 0 {
                self.obs.platform(
                    now,
                    &PlatformEvent::CheckpointRestore {
                        job: job.id,
                        epochs: from,
                    },
                );
            }
            self.obs.attempt(&AttemptSpan {
                job: job.id,
                tenant: job.tenant,
                substrate: Route::Iaas,
                attempt,
                queued_at,
                dispatched_at: now,
                startup_s: startup.as_secs(),
                run_s: run.as_secs(),
            });
        }
        // Attributed share of the pool bill; the pool's own integral is
        // authoritative for totals.
        let cost = Cost::usd(
            workers as f64 * self.cfg.iaas_case.worker_price_per_s * (startup + run).as_secs(),
        ) + restore_dollars;
        self.charge(h, cost);
        self.events.push(now + startup + run, Event::IaasDone(h));
        self.credit_service(h, run);
        true
    }

    /// Where the job's next attempt starts: its last durable checkpoint if
    /// restoring it beats redoing the epochs on *both* time and dollars
    /// ([`restore_beats_redo`] — `rate_per_s` is the routed substrate's
    /// instance rate for the whole job), else from scratch. Returns
    /// (start epoch, restore time, restore dollars). The dollar check
    /// matters for budget-capped tenants: a restore read that costs more
    /// than redoing cheap epochs must not be billed.
    fn resume_point(
        &self,
        h: Handle,
        cache: &ClassCache,
        epoch_secs: f64,
        rate_per_s: f64,
    ) -> (u32, SimTime, Cost) {
        let from = self.slot(h).state.epochs_done;
        if from == 0 {
            return (0, SimTime::ZERO, Cost::ZERO);
        }
        let restore = cache.ckpt_read_time;
        let redo = SimTime::secs(from as f64 * epoch_secs);
        if restore_beats_redo(restore, cache.ckpt_read_dollars, redo, rate_per_s) {
            (from, restore, cache.ckpt_read_dollars)
        } else {
            (0, SimTime::ZERO, Cost::ZERO)
        }
    }

    /// Launch (or relaunch after preemption) the job on the spot tier.
    /// Spot capacity is market-deep, so launches never queue — but the
    /// sampled preemption clock may reclaim the cluster mid-run. The
    /// attempt resumes from the last durable checkpoint and schedules only
    /// the remaining epochs; checkpoint uploads are asynchronous, so the
    /// attempt's wall clock is `boot + restore + remaining × epoch`.
    fn start_spot(&mut self, h: Handle, now: SimTime) {
        let job = self.slot(h).job;
        let workers = job.workers;
        let cache = self.class_cache(job.class, workers);
        let total = self.slot(h).state.epochs_total;
        let epoch_secs = cache.iaas_run_full.as_secs() / total as f64;
        let write_secs = cache.ckpt_write_secs;
        let job_mttp = self.cfg.spot.mean_time_to_preempt.as_secs() / workers as f64;
        let interval = self
            .cfg
            .checkpoint
            .interval_epochs(epoch_secs, write_secs, job_mttp);
        // Restore-vs-redo priced at the market's discounted rate.
        let rate = self.spot_attributed(workers, SimTime::secs(1.0)).as_usd();
        let (from, restore, restore_dollars) = self.resume_point(h, &cache, epoch_secs, rate);
        let plan = AttemptPlan {
            start_epoch: from,
            total_epochs: total,
            epoch_secs,
            interval,
            write_secs,
        };
        let boot = self.spot.start(workers);
        let run = SimTime::secs(plan.run_secs());
        let attempt = self.slot(h).state.attempt;
        let preempt_after = self.spot.preemption_clock(job.id, attempt, workers);
        let s = self.state_mut(h);
        let queued_at = s.ready_since;
        s.queue += now - s.ready_since;
        s.ready_since = now;
        s.attempt += 1;
        s.attempt_start = now;
        s.attempt_boot = boot;
        s.attempt_restore = restore;
        s.attempt_plan = Some(plan);
        if from > 0 {
            s.resumes += 1;
        }
        // As in start_iaas: the attempt's start IS the durable progress,
        // and epochs a declined restore abandons are redone — lost work.
        s.lost_work += SimTime::secs((s.epochs_done - from) as f64 * epoch_secs);
        s.epochs_done = from;
        s.ckpt_cost += restore_dollars;
        self.step(h, now, JobLifecycle::Booting);
        self.step(h, now, JobLifecycle::Running { epochs_done: from });
        if self.obs_on {
            if from > 0 {
                self.obs.platform(
                    now,
                    &PlatformEvent::CheckpointRestore {
                        job: job.id,
                        epochs: from,
                    },
                );
            }
            self.obs.attempt(&AttemptSpan {
                job: job.id,
                tenant: job.tenant,
                substrate: Route::Spot,
                attempt,
                queued_at,
                dispatched_at: now,
                startup_s: (boot + restore).as_secs(),
                run_s: run.as_secs(),
            });
        }
        // Attribute the full planned attempt at launch — the same
        // charge-at-dispatch timing FaaS and IaaS use, so tenant budget
        // caps bite route-independently. A preemption settles the
        // difference between planned and actually-held seconds.
        let planned = self.spot_attributed(workers, boot + restore + run);
        self.charge(h, planned + restore_dollars);
        if preempt_after < boot + restore + run {
            self.events
                .push(now + preempt_after, Event::SpotPreempted(h));
        } else {
            self.events
                .push(now + boot + restore + run, Event::SpotDone(h));
        }
        // Restart attempts consume (and are credited) capacity too.
        self.credit_service(h, run);
    }

    /// Attributed spot cost of holding `workers` instances for `held` —
    /// the tier's own pricing, so attribution and bill can't diverge.
    fn spot_attributed(&self, workers: usize, held: SimTime) -> Cost {
        self.spot.price_of(workers, held)
    }

    /// Drain the FaaS admission queue in discipline order. The picked job
    /// blocks the queue if it doesn't fit (strict priority — no backfill
    /// past an earlier deadline or a shorter-served tenant).
    fn drain_faas(&mut self, now: SimTime, sched: &dyn Scheduler) {
        if self.faas_head == self.faas_queue.len() || self.faas.available() == 0 {
            // Nothing can start (every job needs ≥ 1 slot): skip the pass.
            // `try_start` only prunes the warm pool on the way to a
            // decision, and pruning is idempotent over advancing time, so
            // deferring it to the next attempt changes nothing.
            return;
        }
        if matches!(sched.discipline(), QueueDiscipline::Fifo) {
            // FIFO always picks the front: advance the standing head
            // cursor past the started prefix — no tail shift at all —
            // and compact the buffer only when the dead prefix dominates.
            while self.faas_head < self.faas_queue.len() {
                let h = self.faas_queue[self.faas_head];
                if !self.start_faas(h, now) {
                    break;
                }
                self.faas_queued_workers -= self.slot(h).job.workers;
                self.faas_head += 1;
            }
            if self.faas_head > 32 && self.faas_head * 2 >= self.faas_queue.len() {
                self.faas_queue.drain(..self.faas_head);
                self.faas_head = 0;
            }
            return;
        }
        while let Some(pos) = self.pick_pos(&self.faas_queue[self.faas_head..], sched) {
            let h = self.faas_queue[self.faas_head + pos];
            if self.start_faas(h, now) {
                self.faas_queued_workers -= self.slot(h).job.workers;
                self.faas_queue.remove(self.faas_head + pos);
            } else {
                break;
            }
        }
    }

    /// Discipline-ordered drain with backfill: every queued job is tried
    /// once per drain (in pick order), so a blocked wide job does not
    /// strand idle instances; leftovers re-trigger the autoscaler.
    fn drain_iaas(&mut self, now: SimTime, sched: &dyn Scheduler) {
        if self.iaas_queue.is_empty() {
            return;
        }
        if self.iaas.free() == 0 {
            // No idle instance means no job can start (`start_iaas` has no
            // effect on failure): keep the queue as-is and go straight to
            // the autoscaler, exactly what a full failed pass would do.
            self.autoscale(now);
            return;
        }
        let mut pending = std::mem::take(&mut self.iaas_queue);
        // Backfill fail-fast: a job wider than the idle capacity cannot
        // start, and after the first `start_iaas` of the pass has ticked
        // the pool's billing integrals to `now`, a failed attempt is a
        // pure no-op (its redundant tick advances by dt = 0, adding
        // exactly +0.0) — so skipping the call is byte-identical output
        // at a fraction of the cost. The first attempt always goes
        // through, to keep the integral subdivision exactly as it was.
        let mut ticked = false;
        match sched.discipline() {
            QueueDiscipline::Fifo => {
                // FIFO visits jobs in queue order: one in-order pass,
                // starters leave, blocked jobs stay — no per-pick scan
                // or element shifting. Hand-rolled compaction instead of
                // `retain` so the pass can stop the moment idle capacity
                // hits zero (nothing after that point can start) and keep
                // the entire tail with one bulk copy of handles.
                let mut out = 0;
                let mut i = 0;
                while i < pending.len() {
                    if ticked && self.iaas.free() == 0 {
                        break;
                    }
                    let h = pending[i];
                    i += 1;
                    if ticked && self.slot(h).job.workers > self.iaas.free() {
                        pending[out] = h;
                        out += 1;
                        continue;
                    }
                    ticked = true;
                    if self.start_iaas(h, now) {
                        self.iaas_queued_workers -= self.slot(h).job.workers;
                    } else {
                        pending[out] = h;
                        out += 1;
                    }
                }
                pending.copy_within(i.., out);
                out += pending.len() - i;
                pending.truncate(out);
            }
            QueueDiscipline::Edf => {
                // Deadlines are fixed within a drain, so sorting once
                // yields exactly the order repeated min-picks would.
                pending.sort_unstable_by(|&a, &b| {
                    let sa = self.slot(a);
                    let sb = self.slot(b);
                    let da = sa.job.deadline.map_or(f64::INFINITY, |d| d.as_secs());
                    let db = sb.job.deadline.map_or(f64::INFINITY, |d| d.as_secs());
                    da.total_cmp(&db).then(sa.seq.cmp(&sb.seq))
                });
                pending.retain(|&h| {
                    if ticked && self.slot(h).job.workers > self.iaas.free() {
                        return true;
                    }
                    ticked = true;
                    if self.start_iaas(h, now) {
                        self.iaas_queued_workers -= self.slot(h).job.workers;
                        false
                    } else {
                        true
                    }
                });
                // Leftovers are deadline-ordered here; put them back in
                // arrival order (seqs are submission-ordered).
                pending.sort_unstable_by_key(|&h| self.slot(h).seq);
            }
            QueueDiscipline::Drr => {
                // Deficit counters move as jobs start, so every pick
                // re-scans; the pick is value-keyed (service, seq), so
                // swap_remove is safe and avoids the shift.
                let mut blocked = Vec::new();
                while let Some(pos) = self.pick_pos(&pending, sched) {
                    let h = pending.swap_remove(pos);
                    if ticked && self.slot(h).job.workers > self.iaas.free() {
                        blocked.push(h);
                        continue;
                    }
                    ticked = true;
                    if self.start_iaas(h, now) {
                        self.iaas_queued_workers -= self.slot(h).job.workers;
                    } else {
                        blocked.push(h);
                    }
                }
                pending = blocked;
                // `swap_remove` scrambled the leftovers; put them back in
                // arrival order (seqs are submission-ordered).
                pending.sort_unstable_by_key(|&h| self.slot(h).seq);
            }
        }
        // The FIFO arm's `retain` never reorders, so the queue is already
        // back in arrival order here for every discipline.
        self.iaas_queue = pending;
        if !self.iaas_queue.is_empty() {
            self.autoscale(now);
        }
    }

    /// Boot more instances if queued demand exceeds what is idle or coming.
    fn autoscale(&mut self, now: SimTime) {
        let deficit = self
            .iaas_queued_workers
            .saturating_sub(self.iaas.free() + self.iaas.provisioning());
        if deficit > 0 {
            if let Some((k, boot)) = self.iaas.scale_up(now, deficit) {
                self.events.push(now + boot, Event::Provisioned(k));
                if self.obs_on {
                    self.obs.platform(
                        now,
                        &PlatformEvent::AutoscaleUp {
                            instances: k,
                            boot_s: boot.as_secs(),
                        },
                    );
                }
            }
        }
    }

    /// Mark the job finished: all epochs durable, lifecycle `Done`, the
    /// actuals fed back to the scheduler's estimator — the closed
    /// prediction loop — and the slab slot recycled.
    fn complete(&mut self, h: Handle, now: SimTime, sched: &mut dyn Scheduler) {
        {
            let s = self.state_mut(h);
            s.epochs_done = s.epochs_total;
        }
        self.step(h, now, JobLifecycle::Done);
        let Slot {
            job: j, state: s, ..
        } = *self.slot(h);
        sched.observe(&CompletedJob {
            id: j.id,
            class: j.class,
            tenant: j.tenant,
            route: s.route,
            workers: j.workers,
            run: s.run,
            startup: s.startup,
            cost: s.cost,
            epochs_total: s.epochs_total,
            preemptions: s.preemptions,
        });
        self.retire(h);
    }

    /// Route the job at `now` and enqueue (or launch) it on the chosen
    /// platform. Shared by fresh arrivals and budget-window releases; the
    /// scheduler's prediction is snapshotted here so prediction error is
    /// scored against what the estimator believed *at admission*.
    fn admit(&mut self, h: Handle, now: SimTime, sched: &mut dyn Scheduler) {
        let view = self.view();
        // The scheduler sees the job as of *admission*: a job released
        // from budget deferral has burned part of its slack, so its
        // submit is advanced to `now` and laxity() measures the deadline
        // slack actually remaining (fresh arrivals have submit == now and
        // are unchanged). Record-keeping keeps the original submit.
        let mut job = self.slot(h).job;
        job.submit = job.submit.max(now);
        // Snapshot first: the prediction scored later is the one routing
        // is about to act on (route() may mutate scheduler state).
        let predicted = sched.estimate(&job);
        let route = sched.route(&job, &view);
        {
            let s = self.state_mut(h);
            s.predicted = predicted;
            s.route = route;
        }
        // Width is validated against the *routed* platform only: a job
        // too wide for one substrate is fine as long as its scheduler
        // never sends it there. Spot is held to the reserved pool it may
        // fall back to after `spot.max_retries` preemptions. A job wider
        // than its substrate can ever run ends `Rejected`.
        let ceiling = match route {
            Route::Faas => self.cfg.faas.concurrency_limit,
            Route::Iaas | Route::Spot => self.cfg.iaas.max_instances,
        };
        if job.workers > ceiling {
            self.step(h, now, JobLifecycle::Rejected);
            self.record_refusal(h, now, OverAllowance::REJECT, true);
            self.retire(h);
            return;
        }
        if self.obs_on {
            // The audit record names the inputs routing acted on: the
            // snapshotted prediction at the tail the policy prices, the
            // risk-adjusted spot ETA (when the policy computes one), and
            // the deadline slack remaining at this admission.
            let q = sched.eta_quantile();
            let e = predicted;
            self.obs.decision(&DecisionRecord {
                at: now,
                job: job.id,
                tenant: job.tenant,
                decision: Decision::Admit {
                    route,
                    eta_quantile: q,
                    predicted_run_s: e.map(|e| e.time(route)),
                    eta_q_s: e.map(|e| e.eta_q(route, q)),
                    spot_eta_s: e.and_then(|e| sched.spot_eta_hint(&job, &e)),
                    laxity_s: job.laxity().map(|l| l.as_secs()),
                },
            });
        }
        match route {
            Route::Faas => {
                self.faas_queue.push(h);
                self.faas_queued_workers += job.workers;
                self.drain_faas(now, sched);
            }
            Route::Iaas => {
                self.iaas_queue.push(h);
                self.iaas_queued_workers += job.workers;
                self.drain_iaas(now, sched);
            }
            Route::Spot => self.start_spot(h, now),
        }
    }

    /// Deferral-vs-rejection pricing for an over-allowance arrival: defer
    /// costs nothing when the job's P95 completion after the next window
    /// boundary still makes its deadline, and `deadline_miss_cost` when it
    /// (at P95) cannot; rejection always costs `rejection_cost`.
    /// `reject` is set when rejecting is strictly cheaper — i.e. the job
    /// is doomed at the tail and the platform prices a clean refusal below
    /// a late finish. Deadline-less jobs (and constant routers, which
    /// predict nothing) always defer. The intermediate prices ride along
    /// so the decision audit can name what settled the call.
    fn price_over_allowance(
        &self,
        h: Handle,
        now: SimTime,
        sched: &dyn Scheduler,
    ) -> OverAllowance {
        let mut pricing = OverAllowance {
            reject: false,
            laxity_s: None,
            release_s: None,
            eta_q_s: None,
        };
        // The standing window chain ticks at multiples of `w`: the job
        // would be released at the next boundary. Known whether or not the
        // job carries a deadline, so every Defer audit names it.
        let release = self
            .cfg
            .budget_window
            .map(|w| SimTime::secs(((now.as_secs() / w.as_secs()).floor() + 1.0) * w.as_secs()));
        pricing.release_s = release.map(|r| r.as_secs());
        let job = self.slot(h).job;
        let Some(deadline) = job.deadline else {
            return pricing;
        };
        pricing.laxity_s = Some(deadline.as_secs() - now.as_secs());
        let Some(release) = release else {
            return pricing;
        };
        let mut probe = job;
        probe.submit = release;
        let Some(e) = sched.estimate(&probe) else {
            return pricing;
        };
        // Best-substrate quantile run after release, priced at the same
        // tail the scheduler routes with (queue/startup slack is the
        // deadline's own business — the pricing only needs the tail run).
        let q = sched.eta_quantile();
        let eta = e.eta_q(Route::Faas, q).min(e.eta_q(Route::Iaas, q));
        pricing.eta_q_s = Some(eta);
        let misses = release + SimTime::secs(eta) > deadline;
        let defer_cost = if misses {
            self.cfg.deadline_miss_cost
        } else {
            0.0
        };
        pricing.reject = self.cfg.rejection_cost < defer_cost;
        pricing
    }

    /// Emit the defer/reject decision record for an over-allowance job.
    fn record_refusal(&mut self, h: Handle, now: SimTime, pricing: OverAllowance, rejected: bool) {
        if !self.obs_on {
            return;
        }
        let j = self.slot(h).job;
        let decision = if rejected {
            Decision::Reject {
                laxity_s: pricing.laxity_s,
                release_s: pricing.release_s,
                eta_q_s: pricing.eta_q_s,
                deadline_miss_cost: self.cfg.deadline_miss_cost,
                rejection_cost: self.cfg.rejection_cost,
            }
        } else {
            Decision::Defer {
                laxity_s: pricing.laxity_s,
                release_s: pricing.release_s,
                eta_q_s: pricing.eta_q_s,
                deadline_miss_cost: self.cfg.deadline_miss_cost,
                rejection_cost: self.cfg.rejection_cost,
            }
        };
        self.obs.decision(&DecisionRecord {
            at: now,
            job: j.id,
            tenant: j.tenant,
            decision,
        });
    }

    /// Hold the job until the next budget window boundary. The standing
    /// window chain (set up by the replay driver whenever the source
    /// declares budgets) guarantees a boundary event is already in flight.
    fn defer(&mut self, h: Handle, now: SimTime) {
        debug_assert!(self.window_scheduled, "deferral needs the window chain");
        self.step(h, now, JobLifecycle::Deferred);
        self.state_mut(h).deferred = true;
        self.deferred_queue.push(h);
    }

    /// Handle every event type (arrivals never enter the queue — the
    /// replay driver pulls them from the [`TraceSource`] directly).
    fn handle(&mut self, now: SimTime, ev: Event, sched: &mut dyn Scheduler) {
        match ev {
            Event::FaasDone(h) => {
                self.faas.release(now, self.slot(h).job.workers);
                self.complete(h, now, sched);
                self.drain_faas(now, sched);
            }
            Event::IaasDone(h) => {
                self.iaas.finish(now, self.slot(h).job.workers);
                self.complete(h, now, sched);
                self.drain_iaas(now, sched);
                if self.iaas_queue.is_empty() {
                    self.events
                        .push(now + self.cfg.iaas.idle_after, Event::IdleCheck);
                }
            }
            Event::SpotDone(h) => {
                let Slot { job, state: s, .. } = *self.slot(h);
                let workers = job.workers;
                let plan = s.attempt_plan.expect("spot completion without a plan");
                let run = SimTime::secs(plan.run_secs());
                let held = s.attempt_boot + s.attempt_restore + run;
                self.spot.finish(workers, held);
                // Clean attempts feed the risk loop too: exposure without
                // an event is what keeps the learned rate unbiased.
                sched.observe_preemption(&PreemptionObs {
                    class: job.class,
                    tenant: job.tenant,
                    workers,
                    held,
                    preempted: false,
                });
                // The instance-seconds were attributed at launch; only the
                // uploads the successful attempt initiated remain to bill
                // — checkpointing is insurance, paid either way.
                let writes = plan.writes_on_success();
                let cache = self.class_cache(job.class, workers);
                let write_dollars = cache.ckpt_write_dollars * writes as f64;
                let cost = write_dollars;
                let st = self.state_mut(h);
                st.startup += st.attempt_boot + st.attempt_restore;
                st.run += run;
                st.ckpt_writes += writes;
                st.ckpt_cost += write_dollars;
                if writes > 0 && self.obs_on {
                    self.obs.platform(
                        now,
                        &PlatformEvent::CheckpointWrite {
                            job: job.id,
                            writes,
                        },
                    );
                }
                self.charge(h, cost);
                self.complete(h, now, sched);
            }
            Event::SpotPreempted(h) => {
                let Slot { job, state: s, .. } = *self.slot(h);
                let workers = job.workers;
                let plan = s.attempt_plan.expect("spot preemption without a plan");
                let held = now - s.attempt_start;
                let overhead = s.attempt_boot + s.attempt_restore;
                // Seconds of the run phase actually trained before the
                // market struck (zero if it struck during boot/restore).
                let run_elapsed = (held - overhead).as_secs().max(0.0);
                let outcome = preempt_outcome(&plan, run_elapsed);
                self.spot.preempted(workers, held);
                // Every reclaim reaches the scheduler's preemption
                // posterior the moment it lands, not only when (if) the
                // job finally completes.
                sched.observe_preemption(&PreemptionObs {
                    class: job.class,
                    tenant: job.tenant,
                    workers,
                    held,
                    preempted: true,
                });
                // Every initiated upload is billed — including the partial
                // write the preemption interrupted. The launch attributed
                // the full planned hold; settle down to the seconds the
                // market actually allowed.
                let cache = self.class_cache(job.class, workers);
                let write_dollars = cache.ckpt_write_dollars * outcome.writes_started as f64;
                let planned = overhead + SimTime::secs(plan.run_secs());
                let settle =
                    self.spot_attributed(workers, held) - self.spot_attributed(workers, planned);
                let cost = settle + write_dollars;
                let st = self.state_mut(h);
                st.preemptions += 1;
                st.startup += held.min(overhead);
                st.run += SimTime::secs(run_elapsed);
                st.lost_work += outcome.lost_work;
                st.ckpt_writes += outcome.writes_started;
                st.ckpt_cost += write_dollars;
                let durable = outcome.durable_epochs;
                if outcome.writes_interrupted > 0 {
                    self.step(
                        h,
                        now,
                        JobLifecycle::Checkpointing {
                            epochs_done: durable,
                        },
                    );
                }
                self.step(
                    h,
                    now,
                    JobLifecycle::Preempted {
                        epochs_done: durable,
                    },
                );
                self.step(
                    h,
                    now,
                    JobLifecycle::Requeued {
                        epochs_done: durable,
                    },
                );
                if self.obs_on {
                    self.obs.platform(
                        now,
                        &PlatformEvent::SpotReclaim {
                            job: job.id,
                            // The in-flight attempt's 0-based index (the
                            // launch already advanced the counter).
                            attempt: self.slot(h).state.attempt - 1,
                            workers,
                            held_s: held.as_secs(),
                        },
                    );
                    if outcome.writes_started > 0 {
                        self.obs.platform(
                            now,
                            &PlatformEvent::CheckpointWrite {
                                job: job.id,
                                writes: outcome.writes_started,
                            },
                        );
                    }
                }
                let st = self.state_mut(h);
                st.epochs_done = durable;
                st.ready_since = now;
                self.charge(h, cost);
                // Work past the last durable checkpoint is lost: requeue on
                // a fresh spot cluster, or — once the retry budget is spent
                // — fall back to the reserved pool, resuming from the
                // checkpoint there (the record keeps its Spot route and its
                // preemption history).
                if self.slot(h).state.preemptions <= self.cfg.spot.max_retries {
                    self.start_spot(h, now);
                } else {
                    self.iaas_queue.push(h);
                    self.iaas_queued_workers += workers;
                    self.drain_iaas(now, sched);
                }
            }
            Event::Provisioned(k) => {
                self.iaas.provisioned(now, k);
                self.drain_iaas(now, sched);
            }
            Event::IdleCheck => {
                if self.iaas_queue.is_empty() {
                    let released = self.iaas.scale_down_idle(now);
                    if released > 0 && self.obs_on {
                        self.obs.platform(
                            now,
                            &PlatformEvent::AutoscaleDown {
                                instances: released,
                            },
                        );
                    }
                }
            }
            Event::BudgetWindow => {
                // A new accounting window opens: every tenant gets a fresh
                // allowance, and the jobs that sat out the last window are
                // admitted (in arrival order). The chain re-arms itself at
                // every boundary — ledgers reset whether or not anyone was
                // deferred, so budgets really are per-window allowances —
                // and stops once all jobs are terminal (the trailing event,
                // if any, is dropped by the replay loop before it can
                // stretch the makespan).
                for spent in self.tenant_spend.values_mut() {
                    *spent = 0.0;
                }
                let held = std::mem::take(&mut self.deferred_queue);
                for h in held {
                    // The fresh allowance is a cap, not a floodgate: a
                    // backlog larger than one window's budget drains at
                    // the budgeted rate, window over window (spend is
                    // attributed at dispatch, so jobs admitted here but
                    // still queueing don't show yet — the same
                    // charge-at-dispatch approximation arrivals use).
                    if self.budget_exhausted(self.slot(h).job.tenant) {
                        // Re-price before holding the job another window:
                        // a deadline that was viable at arrival may have
                        // become doomed while the job waited — the exact
                        // case the pricing exists to refuse cleanly.
                        let pricing = self.price_over_allowance(h, now, &*sched);
                        if pricing.reject {
                            self.step(h, now, JobLifecycle::Queued);
                            self.step(h, now, JobLifecycle::Rejected);
                            self.record_refusal(h, now, pricing, true);
                            self.retire(h);
                        } else {
                            self.deferred_queue.push(h);
                        }
                        continue;
                    }
                    self.step(h, now, JobLifecycle::Queued);
                    self.admit(h, now, sched);
                }
                if self.live > 0 || self.more_arrivals {
                    let w = self.cfg.budget_window.expect("chain implies a window");
                    self.events.push(now + w, Event::BudgetWindow);
                } else {
                    self.window_scheduled = false;
                }
            }
            Event::GaugeTick => {
                // The observer's standing telemetry clock: sample and
                // re-arm while work remains (the trailing tick, like the
                // budget window's, is dropped by the replay loop so it
                // can't stretch the run).
                self.sample_gauges(now);
                if self.live > 0 || self.more_arrivals {
                    if let Some(p) = self.obs.gauge_period() {
                        self.events.push(now + p, Event::GaugeTick);
                    }
                }
            }
        }
    }
}

/// What a replay produced: full metrics (records collected) or the
/// constant-size summary (bounded path).
enum ReplayResult {
    // Boxed: the full rollup dwarfs the bounded summary, and this enum
    // crosses a return boundary per replay, not per event.
    Metrics(Box<FleetMetrics>),
    Summary(ReplaySummary),
}

/// The streaming replay driver behind every public entry point: pull
/// arrivals from `source` on demand, merge them with the event heap on
/// simulation time (arrival wins ties — it would have carried the lowest
/// heap sequence number in the batch-scheduled engine, so the pop order
/// is bit-identical), and run the fleet to quiescence.
fn run_replay<S: TraceSource>(
    mut source: S,
    cfg: &FleetConfig,
    scheduler: &mut dyn Scheduler,
    seed: u64,
    observer: &mut (dyn FleetObserver + '_),
    collect: bool,
) -> Result<ReplayResult, String> {
    // The budget preamble comes first (sources deliver it before any job).
    let budgets = source.budgets()?;
    observer.begin(scheduler.name(), seed, source.len_hint().unwrap_or(0));
    let mut pending = source.next_job()?;
    let eta_quantile = scheduler.eta_quantile();
    let track_service = matches!(scheduler.discipline(), QueueDiscipline::Drr);
    let mut fleet = Fleet::new(
        cfg,
        budgets,
        seed,
        observer,
        eta_quantile,
        track_service,
        collect,
    );
    fleet.more_arrivals = pending.is_some();
    // The heap only ever holds in-flight events (completions, preemptions,
    // provisioning, the standing clocks) — never future arrivals — so one
    // modest reservation covers any trace length. Kept under the
    // allocator's mmap threshold: a fresh 128 KiB block per run would be
    // a syscall plus a page-fault storm in a cold process.
    fleet.events.reserve(512);
    // Pre-size the slabs from the advisory length hint: one exact-fit
    // allocation beats a doubling-chain of reallocs mid-replay (a wrong
    // hint costs a realloc or some slack, never correctness). The record
    // sink genuinely reaches trace length; the job slab only holds the
    // in-flight working set, so its reservation stays bounded no matter
    // how long the trace claims to be.
    if let Some(n) = source.len_hint() {
        if let Sink::Records(records) = &mut fleet.sink {
            records.reserve_exact(n);
        }
        fleet.slots.reserve(n.min(256));
        fleet.free.reserve(n.min(256));
    }
    // Budget windows are a standing clock, not a deferral side effect:
    // ledgers must reset at *every* boundary (a tenant spending a steady
    // 70% of its allowance per window is never over budget), so arm the
    // chain up front whenever windowed budgets are in play.
    if let Some(w) = cfg.budget_window {
        if !fleet.budgets.is_empty() && pending.is_some() {
            fleet.window_scheduled = true;
            fleet.events.push(w, Event::BudgetWindow);
        }
    }
    // Arm the observer's standing gauge clock, if it wants one. With the
    // default (`None`) the queue carries no extra events at all.
    if let Some(p) = fleet.obs.gauge_period() {
        if pending.is_some() {
            fleet.events.push(p, Event::GaugeTick);
        }
    }

    let mut last_time = SimTime::ZERO;
    let mut last_submit = SimTime::ZERO;
    let mut pops: u64 = 0;
    loop {
        // Merge the pulled arrival stream with the event heap on time;
        // at a tie the arrival goes first (see the function docs).
        let take_arrival = match (&pending, fleet.events.peek_time()) {
            (Some(j), Some(t)) => j.submit <= t,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => break,
        };
        if take_arrival {
            let job = pending.take().expect("checked above");
            pending = source.next_job()?;
            fleet.more_arrivals = pending.is_some();
            let now = job.submit;
            if now < last_submit {
                return Err(format!(
                    "trace source delivered out-of-order arrivals: job {} submits at {} \
                     after {} (streaming replay needs non-decreasing submit times)",
                    job.id,
                    now.as_secs(),
                    last_submit.as_secs()
                ));
            }
            last_submit = now;
            pops += 1;
            fleet.flush_rollups_to(now);
            last_time = now;
            let h = fleet.insert(job);
            // Budget cap: a tenant whose attributed spend has exhausted its
            // declared budget gets no more admissions this window. With a
            // budget window configured the job is priced per job —
            // `Deferred` to the next window's fresh allowance when that
            // can still work (or costs less than refusing), `Rejected`
            // when a P95 deadline miss is already locked in and the
            // platform prices rejection below it. Without a window (or for
            // a tenant whose cap is zero — no window can ever afford it)
            // the job ends `Rejected` without touching a platform.
            if fleet.budget_exhausted(job.tenant) {
                let cap = fleet.budgets.get(job.tenant).copied().unwrap_or(0.0);
                let pricing = match cfg.budget_window {
                    Some(_) if cap > 0.0 => fleet.price_over_allowance(h, now, &*scheduler),
                    _ => OverAllowance::REJECT,
                };
                if pricing.reject {
                    fleet.step(h, now, JobLifecycle::Rejected);
                    fleet.record_refusal(h, now, pricing, true);
                    fleet.retire(h);
                } else {
                    fleet.defer(h, now);
                    fleet.record_refusal(h, now, pricing, false);
                }
                continue;
            }
            fleet.admit(h, now, scheduler);
        } else {
            let (now, ev) = fleet.events.pop().expect("checked above");
            pops += 1;
            if matches!(ev, Event::BudgetWindow | Event::GaugeTick)
                && fleet.live == 0
                && !fleet.more_arrivals
            {
                // A standing chain's trailing tick after the last job
                // finished: dropped before it can stretch the makespan or
                // idle billing.
                continue;
            }
            fleet.flush_rollups_to(now);
            if ev != Event::GaugeTick {
                // Gauge ticks observe; they must not move the billing
                // clock (idle-pool finalization bills through `last_time`).
                last_time = now;
            }
            fleet.handle(now, ev, scheduler);
        }
    }

    fleet.iaas.finalize(last_time);
    debug_assert!(fleet.live == 0, "all jobs must reach a terminal state");
    debug_assert_eq!(
        fleet.slots.len(),
        fleet.free.len(),
        "every slab slot must be recycled"
    );
    fleet.finish_rollups();
    fleet.obs.replay(&ReplayStats {
        arrivals_streamed: fleet.arrivals_streamed,
        peak_resident_jobs: fleet.peak_resident,
        peak_queue_depth: fleet.events.peak_len() as u64,
    });
    // Arrivals never enter the heap, but they are events all the same:
    // count them as both pushes and pops so the throughput headline stays
    // comparable with the batch-scheduled engine.
    let pushes = fleet.events.pushes() + fleet.arrivals_streamed;
    fleet.obs.end(pushes, pops);

    let Fleet {
        sink,
        faas,
        iaas,
        spot,
        arrivals_streamed,
        peak_resident,
        ..
    } = fleet;
    Ok(match sink {
        Sink::Records(records) => {
            let records: Vec<JobRecord> = records
                .into_iter()
                .map(|r| r.expect("every streamed job retires exactly once"))
                .collect();
            // The provisioned floor bills over the makespan (last job
            // finish), not over `last_time` — the trailing IaaS IdleCheck
            // event would otherwise add phantom idle_after seconds only to
            // policies that touch the pool. One definition, shared with
            // the metrics rollup.
            let makespan = JobRecord::makespan(&records);
            ReplayResult::Metrics(Box::new(FleetMetrics::from_records(
                scheduler.name(),
                seed,
                records,
                PlatformTotals {
                    iaas_cost: iaas.cost(),
                    warm_hit_rate: faas.warm_hit_rate(),
                    cold_starts: faas.cold_starts(),
                    iaas_utilization: iaas.utilization(),
                    iaas_peak_instances: iaas.peak_capacity(),
                    faas_peak_concurrency: faas.peak_concurrency(),
                    spot_cost: spot.cost(),
                    preemptions: spot.preemptions(),
                    faas_provisioned_cost: faas.provisioned_cost(makespan),
                    spot_peak_instances: spot.peak_in_use(),
                },
            )))
        }
        Sink::Bounded(acc) => {
            // Same decomposition as FleetMetrics::total_cost, minus the
            // per-record intermediates the bounded path never holds.
            let total_cost = acc.faas_attributed
                + faas.provisioned_cost(acc.makespan)
                + iaas.cost()
                + spot.cost()
                + acc.ckpt_dollars;
            ReplayResult::Summary(ReplaySummary {
                jobs: arrivals_streamed,
                completed: acc.completed,
                rejected: acc.rejected,
                deferred: acc.deferred,
                makespan: acc.makespan,
                total_cost,
                peak_resident_jobs: peak_resident,
            })
        }
    })
}

/// Stream `source` through `scheduler` on the configured platforms,
/// collecting full per-job metrics.
///
/// Memory holds the in-flight working set plus one [`JobRecord`] per
/// streamed job (the metrics need them); for traces too large even for
/// that, use [`replay_stats`]. Replaying an in-memory trace through
/// [`InMemorySource`] is byte-identical to [`simulate`].
///
/// ```
/// use lml_fleet::{
///     replay, simulate, AllFaas, ArrivalProcess, FleetConfig, InMemorySource, JobMix, Trace,
/// };
///
/// let trace = Trace::generate(
///     ArrivalProcess::Poisson { rate: 0.2 },
///     &JobMix::default_mix(),
///     50,
///     7,
/// );
/// let cfg = FleetConfig::default();
/// let streamed = replay(InMemorySource::new(&trace), &cfg, &mut AllFaas, 7).unwrap();
/// let in_memory = simulate(&trace, &cfg, &mut AllFaas, 7);
/// assert_eq!(streamed.to_json(), in_memory.to_json(), "same bytes");
/// ```
pub fn replay<S: TraceSource>(
    source: S,
    cfg: &FleetConfig,
    scheduler: &mut dyn Scheduler,
    seed: u64,
) -> Result<FleetMetrics, String> {
    replay_observed(source, cfg, scheduler, seed, &mut NullObserver)
}

/// [`replay`] with an observer: every validated lifecycle transition,
/// scheduler decision, platform event, dispatch span, windowed gauge
/// sample, and — when the observer requests a
/// [`FleetObserver::rollup_period`] — incremental [`WindowRollup`]s as the
/// clock crosses each boundary, plus the final [`ReplayStats`].
pub fn replay_observed<S: TraceSource>(
    source: S,
    cfg: &FleetConfig,
    scheduler: &mut dyn Scheduler,
    seed: u64,
    observer: &mut (dyn FleetObserver + '_),
) -> Result<FleetMetrics, String> {
    match run_replay(source, cfg, scheduler, seed, observer, true)? {
        ReplayResult::Metrics(m) => Ok(*m),
        ReplayResult::Summary(_) => unreachable!("collecting replay returns metrics"),
    }
}

/// Constant-memory replay: stream `source` to quiescence keeping only the
/// in-flight working set and a running [`ReplaySummary`] — no per-job
/// records, so a ten-million-job trace needs the same resident state as a
/// four-hundred-job one. The summary's `peak_resident_jobs` reports the
/// slab high-water mark that proves it.
pub fn replay_stats<S: TraceSource>(
    source: S,
    cfg: &FleetConfig,
    scheduler: &mut dyn Scheduler,
    seed: u64,
    observer: &mut (dyn FleetObserver + '_),
) -> Result<ReplaySummary, String> {
    match run_replay(source, cfg, scheduler, seed, observer, false)? {
        ReplayResult::Summary(s) => Ok(s),
        ReplayResult::Metrics(_) => unreachable!("bounded replay returns a summary"),
    }
}

/// Run `trace` through `scheduler` on the configured platforms.
///
/// Observability-free view of [`simulate_observed`]: the default
/// [`NullObserver`] makes every hook a no-op, so this is byte-identical to
/// the pre-observer simulator.
///
/// Output is a pure function of `(trace, config, scheduler, seed)` —
/// same inputs, byte-identical [`FleetMetrics::to_json`]:
///
/// ```
/// use lml_fleet::{simulate, AllFaas, ArrivalProcess, FleetConfig, JobMix, Trace};
///
/// let trace = Trace::generate(
///     ArrivalProcess::Poisson { rate: 0.2 },
///     &JobMix::default_mix(),
///     50,
///     7,
/// );
/// let cfg = FleetConfig::default();
/// let m = simulate(&trace, &cfg, &mut AllFaas, 7);
/// assert_eq!(m.n_jobs, 50);
/// assert!(m.to_json().starts_with(r#"{"schema":"lml-fleet/metrics/v1""#));
///
/// let again = simulate(&trace, &cfg, &mut AllFaas, 7);
/// assert_eq!(m.to_json(), again.to_json(), "same seed, same bytes");
/// ```
pub fn simulate(
    trace: &Trace,
    cfg: &FleetConfig,
    scheduler: &mut dyn Scheduler,
    seed: u64,
) -> FleetMetrics {
    simulate_observed(trace, cfg, scheduler, seed, &mut NullObserver)
}

/// Run `trace` through `scheduler`, narrating the run into `observer`:
/// every validated lifecycle transition, scheduler decision (with the
/// ETAs/prices that drove it), platform event, dispatch span, and — when
/// the observer requests a [`FleetObserver::gauge_period`] — windowed
/// telemetry gauges on a standing clock.
///
/// The observer is passive: it mutates nothing the simulation reads, so a
/// [`NullObserver`] run is byte-identical to the unobserved simulator.
/// (An armed gauge clock does insert `GaugeTick` events into the queue —
/// runs compare byte-for-byte against runs with the same observer
/// configuration.)
///
/// ```
/// use lml_fleet::{
///     simulate, simulate_observed, AllIaas, ArrivalProcess, FleetConfig, JobMix,
///     ThroughputProbe, Trace,
/// };
///
/// let trace = Trace::generate(
///     ArrivalProcess::Poisson { rate: 0.2 },
///     &JobMix::default_mix(),
///     50,
///     7,
/// );
/// let cfg = FleetConfig::default();
/// let mut probe = ThroughputProbe::new();
/// let m = simulate_observed(&trace, &cfg, &mut AllIaas, 7, &mut probe);
/// assert_eq!(probe.runs, 1);
/// assert!(probe.heap_pops > 0 && probe.busy_secs() > 0.0);
///
/// // Passive observer: metrics match the unobserved run exactly.
/// let unobserved = simulate(&trace, &cfg, &mut AllIaas, 7);
/// assert_eq!(m.to_json(), unobserved.to_json());
/// ```
pub fn simulate_observed<'a>(
    trace: &'a Trace,
    cfg: &'a FleetConfig,
    scheduler: &mut dyn Scheduler,
    seed: u64,
    observer: &'a mut (dyn FleetObserver + 'a),
) -> FleetMetrics {
    replay_observed(InMemorySource::new(trace), cfg, scheduler, seed, observer)
        .expect("an in-memory trace cannot fail to stream")
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobClass;
    use crate::scheduler::{AllFaas, AllIaas, CostAware, DeadlineAware, FairShare};
    use crate::workload::{ArrivalProcess, JobMix, TenantSpec, Trace};

    fn small_trace(n: usize, rate: f64, seed: u64) -> Trace {
        Trace::generate(
            ArrivalProcess::Poisson { rate },
            &JobMix::convex_mix(),
            n,
            seed,
        )
    }

    #[test]
    fn all_jobs_complete_on_every_policy() {
        let trace = small_trace(100, 0.5, 42);
        let cfg = FleetConfig::default();
        for (name, sched) in [
            ("all-faas", &mut AllFaas as &mut dyn Scheduler),
            ("all-iaas", &mut AllIaas),
            ("cost-aware", &mut CostAware::new()),
            ("deadline-aware", &mut DeadlineAware::new()),
            ("fair-share", &mut FairShare::new()),
        ] {
            let m = simulate(&trace, &cfg, sched, 42);
            assert_eq!(m.n_jobs, 100, "{name}");
            assert!(m.makespan >= trace.horizon(), "{name}");
            assert!(m.latency.p99 >= m.latency.p50, "{name}");
            assert!(m.total_cost().as_usd() > 0.0, "{name}");
        }
    }

    #[test]
    fn same_seed_same_metrics_json() {
        let cfg = FleetConfig::default();
        let run = || {
            let trace = small_trace(200, 1.0, 7);
            simulate(&trace, &cfg, &mut CostAware::new(), 7).to_json()
        };
        assert_eq!(run(), run(), "byte-identical JSON for identical inputs");
    }

    #[test]
    fn warm_hit_rate_rises_with_arrival_rate() {
        let cfg = FleetConfig::default();
        let rate_of = |rate: f64| {
            let trace = small_trace(300, rate, 11);
            simulate(&trace, &cfg, &mut AllFaas, 11).warm_hit_rate
        };
        let slow = rate_of(0.0003); // one job every ~55 min: pools go stale
        let fast = rate_of(1.0);
        assert!(
            fast > slow + 0.2,
            "cold-start probability must fall as traffic rises: slow {slow} fast {fast}"
        );
    }

    #[test]
    fn faas_queue_kicks_in_at_the_concurrency_limit() {
        let mut cfg = FleetConfig::default();
        cfg.faas.concurrency_limit = 20; // two 10-worker jobs at a time
        let trace = Trace::generate(
            ArrivalProcess::Poisson { rate: 5.0 },
            &JobMix::only(JobClass::LrHiggs),
            40,
            3,
        );
        let m = simulate(&trace, &cfg, &mut AllFaas, 3);
        assert!(m.queue.max > 0.0, "queueing must appear under the limit");
        assert!(m.faas_peak_concurrency <= 20);
    }

    #[test]
    fn iaas_autoscaler_grows_and_charges_idle_floor() {
        let trace = small_trace(150, 1.0, 5);
        let cfg = FleetConfig::default();
        let m = simulate(&trace, &cfg, &mut AllIaas, 5);
        assert!(
            m.iaas_peak_instances > cfg.iaas.min_instances,
            "burst must trigger scale-up, peak {}",
            m.iaas_peak_instances
        );
        assert!(m.iaas_cost.as_usd() > 0.0);
        assert!(m.iaas_utilization > 0.0 && m.iaas_utilization <= 1.0);
    }

    #[test]
    fn empty_trace_is_fine() {
        let trace = Trace::from_jobs(vec![]);
        let m = simulate(&trace, &FleetConfig::default(), &mut AllFaas, 1);
        assert_eq!(m.n_jobs, 0);
        assert_eq!(m.total_cost().as_usd() + m.latency.p99, 0.0);
        assert_eq!(m.deadline_hit_rate(), 1.0, "vacuously met");
        assert_eq!(m.fairness, 1.0, "vacuously fair");
    }

    /// All spot-routed jobs complete despite preemptions, preemptions are
    /// counted, and the spot bill is cheaper than the equivalent on-demand
    /// attribution.
    #[test]
    fn spot_jobs_survive_preemption_and_cost_less() {
        let mut cfg = FleetConfig::default();
        // Aggressive market: ~17 min mean per instance, 10-wide jobs die
        // every ~100 s — the convex zoo still finishes.
        cfg.spot.mean_time_to_preempt = SimTime::secs(1_000.0);
        let trace = small_trace(120, 0.5, 19);
        let mut sched = FairShare::new().with_spot_fraction(1.0);
        let m = simulate(&trace, &cfg, &mut sched, 19);
        assert_eq!(m.n_jobs, 120);
        assert!(m.jobs_on_spot > 0, "spot fraction 1.0 must route to spot");
        assert!(m.preemptions > 0, "aggressive market must preempt someone");
        let preempted: u32 = m.records.iter().map(|r| r.preemptions).sum();
        assert_eq!(preempted as u64, m.preemptions, "per-job counts add up");
        // The per-job attribution covers at least the tier's bill (records
        // of jobs that fell back to the pool also carry an IaaS share).
        assert!(m.spot_cost.as_usd() > 0.0);
        let attributed: f64 = m
            .records
            .iter()
            .filter(|r| r.route == Route::Spot)
            .map(|r| r.cost.as_usd())
            .sum();
        assert!(
            attributed >= m.spot_cost.as_usd() * (1.0 - 1e-9),
            "attribution {attributed} vs tier bill {}",
            m.spot_cost.as_usd()
        );
    }

    /// On a hostile market every attempt dies fast; jobs exhaust the retry
    /// budget, fall back to the reserved pool, and still all complete.
    #[test]
    fn hostile_spot_market_falls_back_to_reserved_pool() {
        let mut cfg = FleetConfig::default();
        cfg.spot.mean_time_to_preempt = SimTime::secs(50.0); // 10-wide: ~5 s
        cfg.spot.max_retries = 2;
        let trace = small_trace(60, 0.5, 31);
        let mut sched = FairShare::new().with_spot_fraction(1.0);
        let m = simulate(&trace, &cfg, &mut sched, 31);
        assert_eq!(m.n_jobs, 60, "every job completes despite the market");
        assert!(m.preemptions > 0);
        for r in &m.records {
            assert!(
                r.preemptions <= cfg.spot.max_retries + 1,
                "job {} preempted {} times, budget is {}",
                r.id,
                r.preemptions,
                cfg.spot.max_retries
            );
            // Accounting stays consistent across restarts and fallback.
            assert!(
                (r.finish() - r.submit - r.latency()).as_secs().abs() < 1e-6,
                "latency components must tile submit→finish for job {}",
                r.id
            );
        }
        assert!(
            m.iaas_cost.as_usd() > 0.0,
            "fallback work lands on the pool"
        );
    }

    /// The preemption process is part of the deterministic seed contract.
    #[test]
    fn spot_preemptions_are_deterministic() {
        let mut cfg = FleetConfig::default();
        cfg.spot.mean_time_to_preempt = SimTime::secs(2_000.0);
        let run = |seed: u64| {
            let trace = small_trace(100, 0.5, seed);
            let mut sched = FairShare::new().with_spot_fraction(0.8);
            simulate(&trace, &cfg, &mut sched, seed).to_json()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4), "different seeds give different markets");
    }

    /// Provisioned concurrency converts cold starts to warm starts at a
    /// trickle arrival rate — and bills for it.
    #[test]
    fn provisioned_concurrency_buys_warm_starts() {
        let trace = small_trace(60, 0.002, 23); // pools go stale between jobs
        let cold_cfg = FleetConfig::default();
        let cold = simulate(&trace, &cold_cfg, &mut AllFaas, 23);
        let mut warm_cfg = FleetConfig::default();
        warm_cfg.faas.provisioned_concurrency = 100;
        let warm = simulate(&trace, &warm_cfg, &mut AllFaas, 23);
        assert!(
            warm.warm_hit_rate > cold.warm_hit_rate + 0.3,
            "provisioned floor must lift warm hits: {} vs {}",
            warm.warm_hit_rate,
            cold.warm_hit_rate
        );
        assert!(warm.startup.p99 < cold.startup.p99);
        assert_eq!(cold.faas_provisioned_cost.as_usd(), 0.0);
        assert!(warm.faas_provisioned_cost.as_usd() > 0.0);
    }

    /// On a perfectly calibrated zoo, cost-aware predictions match the
    /// simulated FaaS runs exactly (identical formulas) — runtime MAPE is
    /// ~0 — and constant routers predict nothing.
    #[test]
    fn predictions_are_snapshotted_and_scored() {
        let trace = small_trace(80, 0.5, 17);
        let cfg = FleetConfig::default();
        let m = simulate(&trace, &cfg, &mut CostAware::new(), 17);
        assert_eq!(m.predicted_jobs, 80, "every admitted job carries one");
        let faas_apes: Vec<f64> = m
            .records
            .iter()
            .filter(|r| r.route == Route::Faas)
            .filter_map(|r| r.runtime_ape())
            .collect();
        for ape in &faas_apes {
            assert!(*ape < 1e-9, "calibrated FaaS prediction is exact: {ape}");
        }
        let blind = simulate(&trace, &cfg, &mut AllFaas, 17);
        assert_eq!(blind.predicted_jobs, 0);
        assert_eq!(blind.runtime_mape, 0.0);
        assert!(blind.records.iter().all(|r| r.predicted_run.is_none()));
    }

    /// The epoch-scale knob stretches actual runtimes while the analytic
    /// prior stays put: MAPE under the blind estimator ≈ the miscalibration,
    /// and the online estimator learns it away within the run.
    #[test]
    fn miscalibrated_zoo_inflates_blind_mape_and_online_learns_it() {
        let trace = small_trace(300, 0.5, 23);
        let cfg = FleetConfig {
            epoch_scale: 2.0,
            ..FleetConfig::default()
        };
        let blind = simulate(&trace, &cfg, &mut CostAware::new(), 23);
        assert!(
            (blind.runtime_mape - 0.5).abs() < 0.05,
            "actuals are 2× the prediction → MAPE ≈ 0.5, got {}",
            blind.runtime_mape
        );
        let mut learned = CostAware::new().with_estimator(Box::new(crate::estimate::Online::new(
            crate::estimate::Analytic::new(),
        )));
        let online = simulate(&trace, &cfg, &mut learned, 23);
        assert!(
            online.runtime_mape < blind.runtime_mape * 0.6,
            "online feedback must cut MAPE: {} vs blind {}",
            online.runtime_mape,
            blind.runtime_mape
        );
        let windows = online.runtime_mape_windows(3);
        assert!(
            windows[2] < windows[0],
            "late windows must beat early ones: {windows:?}"
        );
        // Sanity: the calibrated zoo keeps near-zero error for both.
        let calib = simulate(&trace, &FleetConfig::default(), &mut CostAware::new(), 23);
        assert!(calib.runtime_mape < 0.05, "{}", calib.runtime_mape);
    }

    /// Budget deferral: with an accounting window, an over-budget tenant's
    /// jobs wait for the next window instead of dying — nothing is
    /// rejected, every job eventually completes, and the deferrals are
    /// surfaced per tenant.
    #[test]
    fn budget_window_defers_instead_of_rejecting() {
        let spec = TenantSpec {
            n_tenants: 2,
            deadline_frac: 0.0,
            deadline_slack: 3.0,
        };
        let base = Trace::generate_multi(
            ArrivalProcess::Poisson { rate: 0.5 },
            &JobMix::convex_mix(),
            &spec,
            200,
            31,
        )
        .with_budget(0, 0.02);
        let reject_cfg = FleetConfig::default();
        let rejected = simulate(&base, &reject_cfg, &mut CostAware::new(), 31);
        assert!(rejected.rejected_jobs > 0, "premise: the cap bites");
        assert_eq!(rejected.deferred_jobs, 0);

        let defer_cfg = FleetConfig {
            budget_window: Some(SimTime::hours(1.0)),
            ..FleetConfig::default()
        };
        let deferred = simulate(&base, &defer_cfg, &mut CostAware::new(), 31);
        assert_eq!(deferred.rejected_jobs, 0, "deferral replaces rejection");
        assert!(deferred.deferred_jobs > 0, "the cap must still bite");
        assert_eq!(deferred.n_jobs, 200, "every job completes eventually");
        // Deferred jobs belong to the capped tenant and waited at least
        // until a window boundary.
        let rows = deferred.per_tenant();
        let t0 = rows
            .iter()
            .find(|t| t.tenant == 0)
            .expect("tenant 0 has a per-tenant row");
        let t1 = rows
            .iter()
            .find(|t| t.tenant == 1)
            .expect("tenant 1 has a per-tenant row");
        assert_eq!(t0.deferred, deferred.deferred_jobs);
        assert_eq!(t1.deferred, 0, "the uncapped tenant never waits");
        for r in deferred.records.iter().filter(|r| r.deferred) {
            assert_eq!(r.tenant, 0);
            assert!(
                r.queue.as_secs() > 0.0,
                "a deferred job's wait shows up as queue time"
            );
        }
        // A zero budget can never be afforded: still rejected, window or
        // not (otherwise the job would defer forever).
        let zero = Trace::generate_multi(
            ArrivalProcess::Poisson { rate: 0.5 },
            &JobMix::convex_mix(),
            &spec,
            50,
            31,
        )
        .with_budget(0, 0.0);
        let m = simulate(&zero, &defer_cfg, &mut CostAware::new(), 31);
        assert!(m.rejected_jobs > 0);
        assert_eq!(m.deferred_jobs, 0);
        // Deterministic like everything else.
        let again = simulate(&base, &defer_cfg, &mut CostAware::new(), 31);
        assert_eq!(again.to_json(), deferred.to_json());
    }

    /// Per-window allowance semantics: ledgers reset at *every* window
    /// boundary, not just after a deferral — a tenant spending under its
    /// cap per window is never held up, however much it accumulates
    /// across windows.
    #[test]
    fn budget_window_resets_every_boundary() {
        use crate::job::{JobClass, JobRequest};
        // One ~$0.007 IaaS job per hourly window; the $0.012 cap covers
        // any single window but not the cumulative total.
        let jobs = (0..4)
            .map(|k| {
                JobRequest::new(
                    k,
                    JobClass::LrHiggs,
                    SimTime::secs(3_600.0 * k as f64 + 1.0),
                    10,
                )
            })
            .collect();
        let trace = Trace::from_jobs(jobs).with_budget(0, 0.012);
        let hard = simulate(&trace, &FleetConfig::default(), &mut CostAware::new(), 1);
        assert!(hard.rejected_jobs > 0, "premise: the total blows the cap");
        let defer_cfg = FleetConfig {
            budget_window: Some(SimTime::hours(1.0)),
            ..FleetConfig::default()
        };
        let m = simulate(&trace, &defer_cfg, &mut CostAware::new(), 1);
        assert_eq!(m.rejected_jobs, 0);
        assert_eq!(
            m.deferred_jobs, 0,
            "steady under-cap-per-window spend must never defer"
        );
        assert_eq!(m.n_jobs, 4);
    }

    /// A backlog bigger than one window's allowance drains at the
    /// budgeted rate, window over window — the boundary release re-checks
    /// the fresh allowance instead of flushing everything at once.
    #[test]
    fn budget_window_drains_backlog_at_the_budgeted_rate() {
        use crate::job::{JobClass, JobRequest};
        // Six ~$0.007 jobs burst at t≈0; the $0.012 cap affords ~2 per
        // hourly window.
        let jobs = (0..6)
            .map(|k| JobRequest::new(k, JobClass::LrHiggs, SimTime::secs(k as f64), 10))
            .collect();
        let trace = Trace::from_jobs(jobs).with_budget(0, 0.012);
        let cfg = FleetConfig {
            budget_window: Some(SimTime::hours(1.0)),
            ..FleetConfig::default()
        };
        let m = simulate(&trace, &cfg, &mut CostAware::new(), 1);
        assert_eq!(m.rejected_jobs, 0);
        assert_eq!(m.n_jobs, 6, "the whole backlog completes eventually");
        assert_eq!(m.deferred_jobs, 4, "two run now, four wait");
        assert!(
            m.makespan > SimTime::hours(2.0),
            "the tail needs a third window, makespan {}",
            m.makespan
        );
    }

    /// A job released from deferral has burned part of its slack: the
    /// scheduler must be routed with the *remaining* laxity, not the
    /// submit-relative one.
    #[test]
    fn deferred_jobs_route_with_remaining_laxity() {
        use crate::job::{JobClass, JobRequest};

        /// Records the laxity each routed job presents.
        struct Probe {
            seen: Vec<Option<f64>>,
        }
        impl Scheduler for Probe {
            fn name(&self) -> &'static str {
                "probe"
            }
            fn route(&mut self, job: &JobRequest, _view: &FleetView) -> Route {
                self.seen.push(job.laxity().map(|l| l.as_secs()));
                Route::Faas
            }
        }

        let mut burner = JobRequest::new(0, JobClass::LrHiggs, SimTime::ZERO, 10);
        burner.tenant = 0;
        let mut late = JobRequest::new(1, JobClass::LrHiggs, SimTime::secs(5.0), 10);
        late.tenant = 0;
        late.deadline = Some(SimTime::secs(10_000.0));
        let trace = Trace::from_jobs(vec![burner, late]).with_budget(0, 0.001);
        let cfg = FleetConfig {
            budget_window: Some(SimTime::hours(1.0)),
            ..FleetConfig::default()
        };
        let mut probe = Probe { seen: Vec::new() };
        let m = simulate(&trace, &cfg, &mut probe, 1);
        assert_eq!(m.deferred_jobs, 1, "the burner exhausts the cap");
        // The deferred job is released at the t=3600 boundary: the
        // scheduler must see 10000 − 3600, not 10000 − 5.
        assert_eq!(probe.seen[0], None);
        assert_eq!(probe.seen[1], Some(10_000.0 - 3_600.0));
    }

    /// The Requeued→pool-fallback path accounts queue time exactly once
    /// per wait interval: the latency components must tile submit→finish
    /// even when a job is preempted off spot, waits for a busy reserved
    /// pool, and resumes there. (A double-counted wait would make
    /// queue + startup + run overshoot the physical finish time.)
    #[test]
    fn fallback_queue_time_accumulates_once_per_wait() {
        let mut cfg = FleetConfig::default();
        cfg.spot.mean_time_to_preempt = SimTime::secs(100.0); // ~10 s for 10-wide
        cfg.spot.max_retries = 0; // first preemption falls back to the pool
        cfg.checkpoint = CheckpointPolicy::every(1);
        cfg.iaas.min_instances = 10;
        cfg.iaas.max_instances = 10; // one 10-wide job at a time: fallback queues
        let jobs = (0..4)
            .map(|k| JobRequest::new(k, JobClass::LrHiggs, SimTime::secs(k as f64), 10))
            .collect();
        let trace = Trace::from_jobs(jobs);
        let mut sched = FairShare::new().with_spot_fraction(1.0);
        let m = simulate(&trace, &cfg, &mut sched, 5);
        assert_eq!(m.n_jobs, 4);
        assert!(m.preemptions > 0, "premise: the market strikes");
        let mut someone_waited = false;
        for r in &m.records {
            assert!(
                (r.finish() - r.submit - r.latency()).as_secs().abs() < 1e-6,
                "job {}: queue {} + startup {} + run {} must tile submit→finish",
                r.id,
                r.queue,
                r.startup,
                r.run
            );
            someone_waited |= r.queue.as_secs() > 1.0;
        }
        assert!(
            someone_waited,
            "premise: the capped pool makes a fallback job actually wait"
        );
    }

    /// Deferral-vs-rejection pricing: with rejection priced below a P95
    /// deadline miss, an over-allowance job whose deadline is already
    /// doomed at the next window boundary is rejected, while a viable one
    /// still defers. With the default (equal) prices every job defers —
    /// the PR 4 behaviour.
    #[test]
    fn admission_prices_deferral_against_rejection_per_job() {
        use crate::job::JobRequest;
        let window = SimTime::hours(1.0);
        let mk_trace = || {
            let mut burner = JobRequest::new(0, JobClass::LrHiggs, SimTime::ZERO, 10);
            burner.tenant = 0;
            // Doomed: over-allowance and its deadline lands *before* the
            // next window boundary — deferral can only deliver it late.
            let mut doomed = JobRequest::new(1, JobClass::LrHiggs, SimTime::secs(5.0), 10);
            doomed.tenant = 0;
            doomed.deadline = Some(SimTime::secs(600.0));
            // Viable: the boundary release still makes this deadline.
            let mut viable = JobRequest::new(2, JobClass::LrHiggs, SimTime::secs(6.0), 10);
            viable.tenant = 0;
            viable.deadline = Some(SimTime::secs(20_000.0));
            Trace::from_jobs(vec![burner, doomed, viable]).with_budget(0, 0.001)
        };
        let priced_cfg = FleetConfig {
            budget_window: Some(window),
            rejection_cost: 0.1,
            deadline_miss_cost: 1.0,
            ..FleetConfig::default()
        };
        let m = simulate(&mk_trace(), &priced_cfg, &mut CostAware::new(), 1);
        assert_eq!(m.rejected_jobs, 1, "the doomed job is refused cleanly");
        assert_eq!(m.deferred_jobs, 1, "the viable job waits for its window");
        assert!(m.records[1].rejected && !m.records[2].rejected);
        assert!(m.records[2].deferred);
        // Default prices tie → ties defer → PR 4 behaviour byte-for-byte.
        let default_cfg = FleetConfig {
            budget_window: Some(window),
            ..FleetConfig::default()
        };
        let m = simulate(&mk_trace(), &default_cfg, &mut CostAware::new(), 1);
        assert_eq!(m.rejected_jobs, 0);
        assert_eq!(m.deferred_jobs, 2);
        // Constant routers predict nothing: pricing degrades to deferral
        // rather than rejecting on a guess.
        let m = simulate(&mk_trace(), &priced_cfg, &mut AllFaas, 1);
        assert_eq!(m.rejected_jobs, 0);
    }

    /// Jobs that become doomed *while deferred* are re-priced at every
    /// window boundary: a deadline that was viable at arrival but slips
    /// past the P95 miss point during the wait is rejected (when rejection
    /// is priced below a miss) instead of deferring window after window
    /// toward a guaranteed late finish.
    #[test]
    fn boundary_release_reprices_jobs_doomed_while_deferred() {
        use crate::job::JobRequest;
        let mk_trace = || {
            // The burner exhausts the tiny allowance; J1 and J2 arrive
            // over-allowance, both viable for the first boundary (release
            // 3 600 + short run < 5 000). At the boundary J1 drains the
            // fresh allowance first (arrival order), so J2 is still over
            // — and its deadline now falls before the *next* boundary at
            // 7 200: doomed.
            let mut burner = JobRequest::new(0, JobClass::LrHiggs, SimTime::ZERO, 10);
            burner.tenant = 0;
            let mut j1 = JobRequest::new(1, JobClass::LrHiggs, SimTime::secs(5.0), 10);
            j1.tenant = 0;
            j1.deadline = Some(SimTime::secs(5_000.0));
            let mut j2 = JobRequest::new(2, JobClass::LrHiggs, SimTime::secs(6.0), 10);
            j2.tenant = 0;
            j2.deadline = Some(SimTime::secs(5_000.0));
            Trace::from_jobs(vec![burner, j1, j2]).with_budget(0, 0.005)
        };
        let cfg = FleetConfig {
            budget_window: Some(SimTime::hours(1.0)),
            rejection_cost: 0.1,
            deadline_miss_cost: 1.0,
            ..FleetConfig::default()
        };
        let m = simulate(&mk_trace(), &cfg, &mut CostAware::new(), 1);
        assert_eq!(m.rejected_jobs, 1, "J2 is refused at the boundary");
        assert!(m.records[2].rejected, "the doomed job is the one rejected");
        assert!(m.records[1].deferred && !m.records[1].rejected);
        // Default (tied) prices keep the old behaviour: J2 re-defers and
        // is delivered late instead.
        let defaults = FleetConfig {
            budget_window: Some(SimTime::hours(1.0)),
            ..FleetConfig::default()
        };
        let m = simulate(&mk_trace(), &defaults, &mut CostAware::new(), 1);
        assert_eq!(m.rejected_jobs, 0);
        assert_eq!(m.n_jobs, 3, "everything still completes, just late");
    }

    /// EDF admission: on a capacity-capped pool the deadline jobs overtake
    /// deadline-less ones in the queue.
    #[test]
    fn edf_discipline_reorders_the_queue() {
        let mut cfg = FleetConfig::default();
        cfg.iaas.min_instances = 10;
        cfg.iaas.max_instances = 30; // persistent backlog at rate 2/s
        let spec = TenantSpec {
            n_tenants: 1,
            deadline_frac: 0.5,
            deadline_slack: 4.0,
        };
        let trace = Trace::generate_multi(
            ArrivalProcess::Poisson { rate: 2.0 },
            &JobMix::only(JobClass::LrHiggs),
            &spec,
            30,
            13,
        );
        // EDF queues deadline jobs first: their mean queue wait is lower.
        let m = simulate(&trace, &cfg, &mut DeadlineAware::new(), 13);
        let mean = |with_deadline: bool| {
            let rs: Vec<f64> = m
                .records
                .iter()
                .filter(|r| r.deadline.is_some() == with_deadline)
                .map(|r| r.queue.as_secs())
                .collect();
            rs.iter().sum::<f64>() / rs.len().max(1) as f64
        };
        assert!(
            mean(true) < mean(false),
            "deadline jobs must wait less: {} vs {}",
            mean(true),
            mean(false)
        );
    }

    #[test]
    fn streamed_replay_is_byte_identical_to_in_memory() {
        use crate::stream::{collect, GeneratorSource, TextSource};
        // A budgeted, multi-tenant, deadline-carrying trace with windowed
        // deferral exercises every v3 feature on the wire.
        let spec = TenantSpec {
            n_tenants: 3,
            deadline_frac: 0.5,
            deadline_slack: 4.0,
        };
        let trace = Trace::generate_multi(
            ArrivalProcess::Poisson { rate: 0.6 },
            &JobMix::convex_mix(),
            &spec,
            120,
            29,
        )
        .with_budget(0, 0.05)
        .with_budget(1, 2.0);
        let cfg = FleetConfig {
            budget_window: Some(SimTime::secs(3_600.0)),
            ..Default::default()
        };
        let baseline = simulate(&trace, &cfg, &mut CostAware::new(), 29).to_json();
        let streamed = replay(InMemorySource::new(&trace), &cfg, &mut CostAware::new(), 29)
            .expect("in-memory replay cannot fail")
            .to_json();
        assert_eq!(streamed, baseline, "in-memory source");
        let text = trace.to_text();
        let from_text = replay(
            TextSource::new(text.as_bytes()),
            &cfg,
            &mut CostAware::new(),
            29,
        )
        .expect("text replay parses its own to_text output")
        .to_json();
        assert_eq!(from_text, baseline, "text source");
        // Generator-backed source vs its materialized twin (generated
        // traces carry no budgets, so the default config applies).
        let gen = || {
            GeneratorSource::new(
                ArrivalProcess::Poisson { rate: 0.6 },
                JobMix::convex_mix(),
                spec,
                120,
                31,
            )
        };
        let gen_trace = collect(gen()).expect("generator source yields valid arrivals");
        let gen_baseline = simulate(
            &gen_trace,
            &FleetConfig::default(),
            &mut DeadlineAware::new(),
            31,
        )
        .to_json();
        let gen_streamed = replay(
            gen(),
            &FleetConfig::default(),
            &mut DeadlineAware::new(),
            31,
        )
        .expect("generator replay cannot fail")
        .to_json();
        assert_eq!(gen_streamed, gen_baseline, "generator source");
    }

    #[test]
    fn replay_stats_is_bounded_and_consistent() {
        let trace = small_trace(300, 1.0, 11).with_budget(0, 0.02);
        let cfg = FleetConfig::default();
        let m = simulate(&trace, &cfg, &mut CostAware::new(), 11);
        let s = replay_stats(
            InMemorySource::new(&trace),
            &cfg,
            &mut CostAware::new(),
            11,
            &mut NullObserver,
        )
        .expect("in-memory replay_stats cannot fail");
        assert_eq!(s.jobs, 300);
        assert_eq!(s.completed + s.rejected, 300);
        assert_eq!(s.rejected as usize, m.rejected_jobs);
        assert_eq!(s.deferred as usize, m.deferred_jobs);
        assert_eq!(s.makespan, m.makespan, "same fold, same float");
        assert!(
            (s.total_cost.as_usd() - m.total_cost().as_usd()).abs() < 1e-6,
            "bounded total {} vs metrics total {}",
            s.total_cost.as_usd(),
            m.total_cost().as_usd()
        );
        assert!(s.peak_resident_jobs >= 1 && s.peak_resident_jobs <= 300);
    }

    #[test]
    fn incremental_rollups_cover_the_run() {
        use crate::observe::RollupCollector;
        let trace = small_trace(200, 1.0, 7);
        let cfg = FleetConfig::default();
        let baseline = simulate(&trace, &cfg, &mut AllFaas, 7).to_json();
        let mut coll = RollupCollector::new(SimTime::secs(600.0));
        let m = replay_observed(
            InMemorySource::new(&trace),
            &cfg,
            &mut AllFaas,
            7,
            &mut coll,
        )
        .expect("rollup-observed replay cannot fail");
        assert_eq!(m.to_json(), baseline, "rollup observer is passive");
        let stats = coll.replay_stats.expect("replay stats delivered");
        assert_eq!(stats.arrivals_streamed, 200);
        assert!(stats.peak_resident_jobs >= 1);
        // Windows are dense from index 0 and the counters partition the
        // whole run: nothing double-counted, nothing dropped.
        for (i, w) in coll.windows.iter().enumerate() {
            assert_eq!(w.index, i as u64);
            assert_eq!(w.end, w.start + SimTime::secs(600.0));
        }
        let submitted: u64 = coll.windows.iter().map(|w| w.submitted).sum();
        let completed: u64 = coll.windows.iter().map(|w| w.completed).sum();
        let rejected: u64 = coll.windows.iter().map(|w| w.rejected).sum();
        assert_eq!(submitted, 200);
        assert_eq!(completed + rejected, 200);
        let cost: f64 = coll.windows.iter().map(|w| w.cost.as_usd()).sum();
        assert!(
            (cost - m.faas_cost.as_usd()).abs() < 1e-9,
            "windowed dollars must sum to the attributed total"
        );
    }
}
