//! The fleet workload: a bursty multi-tenant trace streamed through
//! `replay_stats`, and the wrappers the traced run threads through the
//! simulator's public extension points (`TraceSource`, `Scheduler`,
//! `Estimator`, `FleetObserver`).

use crate::measure::{
    median, report_end_to_end, sample, Digest, HostSpeed, Layer, Report, Samples, SharedLayer,
};
use lml_fleet::estimate::calibrate_epochs;
use lml_fleet::{
    replay_stats, ArrivalProcess, CheckpointPolicy, CompletedJob, DeadlineAware, Estimate,
    Estimator, FleetConfig, FleetView, GeneratorSource, Hybrid, JobClass, JobMix, JobRequest,
    NullObserver, PreemptionObs, QueueDiscipline, ReplaySummary, Route, Scheduler, TenantId,
    TenantSpec, ThroughputProbe, TraceSource,
};
use lml_sim::SimTime;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// The workload's shape: bursty arrivals from four tenants, a quarter of
/// jobs with deadlines, over the convex job mix.
pub struct FleetSpec {
    pub jobs: usize,
    /// Sample fraction and epoch cap of the §5.3 calibration runs.
    pub calib_frac: f64,
    pub calib_epochs: usize,
}

impl FleetSpec {
    pub fn burst(smoke: bool) -> Self {
        FleetSpec {
            jobs: if smoke { 20_000 } else { 500_000 },
            calib_frac: if smoke { 0.05 } else { 0.2 },
            calib_epochs: 12,
        }
    }

    fn config() -> FleetConfig {
        FleetConfig {
            checkpoint: CheckpointPolicy::Adaptive,
            ..FleetConfig::default()
        }
    }

    fn mix() -> JobMix {
        JobMix::convex_mix()
    }

    fn source(&self, seed: u64) -> GeneratorSource {
        GeneratorSource::new(
            ArrivalProcess::Burst {
                base_rate: 0.05,
                burst_rate: 1.0,
                period: 3_600.0,
                duty: 0.25,
            },
            Self::mix(),
            TenantSpec {
                n_tenants: 4,
                deadline_frac: 0.25,
                deadline_slack: 4.0,
            },
            self.jobs,
            seed,
        )
    }

    /// §5.3 calibration of every class in the mix (the set-up work).
    fn calibrate(&self, seed: u64) -> Vec<(JobClass, f64)> {
        Self::mix()
            .classes()
            .map(|c| {
                (
                    c,
                    calibrate_epochs(c, self.calib_frac, self.calib_epochs, seed),
                )
            })
            .collect()
    }

    /// The deadline-aware scheduler over a calibrated `Hybrid` estimator,
    /// 30% spot with adaptive checkpoints; `wrap` lets the traced run
    /// interpose on the estimator.
    fn scheduler(
        cfg: &FleetConfig,
        epochs: &[(JobClass, f64)],
        wrap: impl FnOnce(Box<dyn Estimator>) -> Box<dyn Estimator>,
    ) -> DeadlineAware {
        let mut est: Box<dyn Estimator> = Box::new(Hybrid::for_config(cfg));
        for &(class, e) in epochs {
            est.pin_epochs(class, e);
        }
        DeadlineAware::for_config(cfg)
            .with_estimator(wrap(est))
            .with_spot_fraction(0.3)
            .with_spot_recovery(cfg.checkpoint)
    }
}

/// A `TraceSource` that times every pull.
struct TimedSource {
    inner: GeneratorSource,
    pull: Arc<SharedLayer>,
}

impl TraceSource for TimedSource {
    fn budgets(&mut self) -> Result<BTreeMap<TenantId, f64>, String> {
        self.inner.budgets()
    }
    fn next_job(&mut self) -> Result<Option<JobRequest>, String> {
        self.pull.time(|| self.inner.next_job())
    }
    fn len_hint(&self) -> Option<usize> {
        self.inner.len_hint()
    }
}

/// Counters the estimator wrapper shares with its clones.
#[derive(Debug, Default)]
struct EstLayers {
    predict: SharedLayer,
    observe: SharedLayer,
}

/// An `Estimator` that times `predict` and `observe`.
#[derive(Debug)]
struct TimedEstimator {
    inner: Box<dyn Estimator>,
    layers: Arc<EstLayers>,
}

impl Estimator for TimedEstimator {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn predict(&self, job: &JobRequest) -> Estimate {
        self.layers.predict.time(|| self.inner.predict(job))
    }
    fn observe(&mut self, done: &CompletedJob) {
        self.layers.observe.time(|| self.inner.observe(done))
    }
    fn startup_hint(&self, job: &JobRequest, route: Route) -> Option<SimTime> {
        self.inner.startup_hint(job, route)
    }
    fn pin_epochs(&mut self, class: JobClass, epochs: f64) {
        self.inner.pin_epochs(class, epochs)
    }
    fn clone_box(&self) -> Box<dyn Estimator> {
        Box::new(TimedEstimator {
            inner: self.inner.clone_box(),
            layers: Arc::clone(&self.layers),
        })
    }
}

/// A `Scheduler` that delegates every method, timing the ones that do
/// work; `other` covers the calls no per-layer metric names.
struct TimedScheduler {
    inner: DeadlineAware,
    route: SharedLayer,
    observe: SharedLayer,
    preempt: SharedLayer,
    other: SharedLayer,
}

impl Scheduler for TimedScheduler {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn route(&mut self, job: &JobRequest, view: &FleetView) -> Route {
        self.route.time(|| self.inner.route(job, view))
    }
    fn discipline(&self) -> QueueDiscipline {
        self.inner.discipline()
    }
    fn tenant_weight(&self, tenant: TenantId) -> f64 {
        self.inner.tenant_weight(tenant)
    }
    fn estimate(&self, job: &JobRequest) -> Option<Estimate> {
        self.other.time(|| self.inner.estimate(job))
    }
    fn observe(&mut self, done: &CompletedJob) {
        self.observe.time(|| self.inner.observe(done))
    }
    fn observe_preemption(&mut self, obs: &PreemptionObs) {
        self.preempt.time(|| self.inner.observe_preemption(obs))
    }
    fn eta_quantile(&self) -> f64 {
        self.inner.eta_quantile()
    }
    fn spot_eta_hint(&self, job: &JobRequest, e: &Estimate) -> Option<f64> {
        self.other.time(|| self.inner.spot_eta_hint(job, e))
    }
}

/// Per-layer totals over a run's traced replays.
#[derive(Debug, Default)]
struct FleetLayers {
    pull: Layer,
    route: Layer,
    observe: Layer,
    preempt: Layer,
    predict: Layer,
    est_observe: Layer,
    self_s: f64,
}

fn summary_bits(s: &ReplaySummary) -> [u64; 7] {
    [
        s.jobs,
        s.completed,
        s.rejected,
        s.deferred,
        s.makespan.as_secs().to_bits(),
        s.total_cost.as_usd().to_bits(),
        s.peak_resident_jobs,
    ]
}

fn check_summary(spec: &FleetSpec, s: &ReplaySummary, first: &ReplaySummary, r: &mut Report) {
    r.check(s.jobs == spec.jobs as u64, || {
        format!("replayed {} jobs, expected {}", s.jobs, spec.jobs)
    });
    r.check(s.completed + s.rejected == s.jobs, || {
        format!(
            "completed {} + rejected {} != jobs {}",
            s.completed, s.rejected, s.jobs
        )
    });
    r.check(summary_bits(s) == summary_bits(first), || {
        format!("summary differs between replays: {s:?} vs {first:?}")
    });
}

fn print_summary(s: &ReplaySummary) {
    let mut d = Digest::default();
    summary_bits(s).iter().for_each(|&b| d.add(b));
    println!(
        "replay: jobs={} completed={} rejected={} deferred={} makespan_s={} cost_usd={} peak_resident_jobs={}",
        s.jobs,
        s.completed,
        s.rejected,
        s.deferred,
        s.makespan.as_secs(),
        s.total_cost.as_usd(),
        s.peak_resident_jobs
    );
    println!("digest {}", d.hex());
}

fn untraced_replay(
    spec: &FleetSpec,
    cfg: &FleetConfig,
    proto: &DeadlineAware,
    seed: u64,
) -> ReplaySummary {
    replay_stats(
        spec.source(seed),
        cfg,
        &mut proto.clone(),
        seed,
        &mut NullObserver,
    )
    .expect("generated traces replay")
}

/// Untraced run: calibrate `SETUP_REPS` times, then replay the trace for
/// `seconds`; `wall_s` is the median replay.
pub fn run(spec: &FleetSpec, seed: u64, seconds: f64, report: &mut Report) {
    let cfg = FleetSpec::config();
    let mut host = HostSpeed::new();
    let mut setups = Samples::default();
    let mut epochs = Vec::new();
    for _ in 0..SETUP_REPS {
        epochs = host.time(&mut setups, || spec.calibrate(seed));
    }
    let proto = FleetSpec::scheduler(&cfg, &epochs, |e| e);

    let mut replays = Samples::default();
    let mut first: Option<ReplaySummary> = None;
    let t0 = Instant::now();
    while replays.len() == 0 || t0.elapsed().as_secs_f64() < seconds {
        let s = host.time(&mut replays, || untraced_replay(spec, &cfg, &proto, seed));
        let f = *first.get_or_insert(s);
        check_summary(spec, &s, &f, report);
    }
    print_summary(&first.expect("at least one replay"));
    println!("timed {} replays", replays.len());
    report_end_to_end(
        report,
        &host,
        replays.medians(),
        setups.medians(),
        ("jobs_per_s", spec.jobs as u64),
    );
}

/// Traced run: one timed calibration, then alternating untraced and traced
/// replays for `seconds`, then one replay under `ThroughputProbe` for the
/// queue counts; per-layer figures are per replay.
pub fn run_traced(spec: &FleetSpec, seed: u64, seconds: f64, report: &mut Report) {
    let cfg = FleetSpec::config();
    let (epochs, calib) = sample(|| spec.calibrate(seed));
    let proto = FleetSpec::scheduler(&cfg, &epochs, |e| e);
    let est = Arc::new(EstLayers::default());
    let traced_proto = FleetSpec::scheduler(&cfg, &epochs, |inner| {
        Box::new(TimedEstimator {
            inner,
            layers: Arc::clone(&est),
        })
    });
    let pull = Arc::new(SharedLayer::default());

    let (mut plain_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let mut sched = TimedScheduler {
        inner: traced_proto.clone(),
        route: SharedLayer::default(),
        observe: SharedLayer::default(),
        preempt: SharedLayer::default(),
        other: SharedLayer::default(),
    };
    // Per-layer totals over the traced replays.
    let mut t = FleetLayers::default();
    let mut first: Option<ReplaySummary> = None;
    let t0 = Instant::now();
    while traced_walls.is_empty() || t0.elapsed().as_secs_f64() < seconds {
        let (plain, smp) = sample(|| untraced_replay(spec, &cfg, &proto, seed));
        plain_walls.push(smp.wall);
        let f = *first.get_or_insert(plain);
        check_summary(spec, &plain, &f, report);

        sched.inner = traced_proto.clone();
        let source = TimedSource {
            inner: spec.source(seed),
            pull: Arc::clone(&pull),
        };
        let (traced, smp) = sample(|| {
            replay_stats(source, &cfg, &mut sched, seed, &mut NullObserver)
                .expect("generated traces replay")
        });
        traced_walls.push(smp.wall);
        let (route, observe, preempt, other) = (
            sched.route.take(),
            sched.observe.take(),
            sched.preempt.take(),
            sched.other.take(),
        );
        let p = pull.take();
        t.self_s += smp.wall
            - (p.nanos + route.nanos + observe.nanos + preempt.nanos + other.nanos) as f64 * 1e-9;
        t.pull.add(p);
        t.route.add(route);
        t.observe.add(observe);
        t.preempt.add(preempt);
        t.predict.add(est.predict.take());
        t.est_observe.add(est.observe.take());
        report.check(summary_bits(&traced) == summary_bits(&plain), || {
            format!("traced summary {traced:?} != untraced {plain:?}")
        });
    }
    let reference = first.expect("at least one replay");
    print_summary(&reference);
    // Queue counts come from one more replay under the simulator's own
    // probe, kept apart from the timed replays because an active observer
    // makes the simulator assemble event payloads it otherwise skips.
    let mut probe = ThroughputProbe::new();
    let probed = replay_stats(
        spec.source(seed),
        &cfg,
        &mut proto.clone(),
        seed,
        &mut probe,
    )
    .expect("generated traces replay");
    report.check(summary_bits(&probed) == summary_bits(&reference), || {
        format!("probed summary {probed:?} != untraced {reference:?}")
    });

    let n = traced_walls.len() as f64;
    let per = |x: f64| x / n;
    let pops = probe.heap_pops as f64;
    report.metric("fleet.calibrate_s", calib.wall, "s");
    report.metric("fleet.source.pull_s", per(t.pull.secs()), "s");
    report.metric("fleet.source.jobs", reference.jobs as f64, "count");
    report.metric("fleet.sched.route_s", per(t.route.secs()), "s");
    report.metric("fleet.sched.routes", per(t.route.calls as f64), "count");
    report.metric("fleet.sched.observe_s", per(t.observe.secs()), "s");
    report.metric("fleet.sched.observes", per(t.observe.calls as f64), "count");
    report.metric(
        "fleet.sched.preempt_obs",
        per(t.preempt.calls as f64),
        "count",
    );
    report.metric("fleet.est.predict_s", per(t.predict.secs()), "s");
    report.metric("fleet.est.predicts", per(t.predict.calls as f64), "count");
    report.metric("fleet.est.observe_s", per(t.est_observe.secs()), "s");
    report.metric("fleet.sim.self_s", per(t.self_s), "s");
    report.metric("fleet.sim.ns_per_event", per(t.self_s) * 1e9 / pops, "ns");
    report.metric("fleet.queue.pushes", probe.heap_pushes as f64, "count");
    report.metric("fleet.queue.pops", pops, "count");
    report.metric(
        "fleet.queue.peak_depth",
        probe.peak_queue_depth as f64,
        "count",
    );
    report.metric(
        "fleet.peak_resident_jobs",
        reference.peak_resident_jobs as f64,
        "count",
    );
    report.metric(
        "trace.overhead_frac",
        median(&traced_walls) / median(&plain_walls) - 1.0,
        "ratio",
    );
    report.metric("fleet.completed", reference.completed as f64, "count");
    report.metric("fleet.rejected", reference.rejected as f64, "count");
    report.metric("fleet.makespan_s", reference.makespan.as_secs(), "sim_s");
    report.metric("fleet.cost_usd", reference.total_cost.as_usd(), "usd");
    println!(
        "traced replay {:.3} s: sim self {:.1}%",
        median(&traced_walls),
        100.0 * t.self_s / traced_walls.iter().sum::<f64>()
    );
}
