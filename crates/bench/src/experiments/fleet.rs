//! The fleet sweeps: the paper's FaaS/IaaS trade-off under multi-tenant
//! load, written as one table of [`Scenario`]s.
//!
//! These go beyond the paper's own figures: they measure the *fleet-level*
//! consequences of its single-job findings — warm pools amortizing cold
//! starts, reserved clusters queueing, spot markets preempting, and
//! schedulers that buy tail latency with Lambda only when it pays.
//!
//! A scenario is plain data: a name (also its output directory under
//! `target/` and its experiment name), a table title and headers, a
//! function that lays out its grid of [`Cell`]s, and a function that
//! formats one row from a cell's [`FleetMetrics`]. [`run`] is the one
//! runner: it fans the cells across [`sweep::parallel_map`] and reduces
//! them in grid order, so the printed table and every per-cell JSON file
//! (schema `lml-fleet/metrics/v1`) are byte-identical for a given seed at
//! any worker count. [`emit`] writes those files; tests compare [`run`]'s
//! output in memory.

use crate::sweep;
use crate::tablefmt::{f, table};
use crate::Harness;
use lml_fleet::{
    simulate, AllFaas, AllIaas, Analytic, ArrivalProcess, CheckpointPolicy, CostAware,
    DeadlineAware, Estimator, FairShare, FleetConfig, FleetMetrics, Hybrid, JobClass, JobMix,
    Online, Route, Scheduler, TenantSpec, Trace,
};
use lml_sim::SimTime;
use std::path::Path;
use std::sync::Arc;

/// Builds a cell's scheduler from the cell's own config, so cost-aware
/// routing prices the same substrates the simulator charges. Every cell
/// gets a fresh scheduler: no routing state leaks between runs.
pub type SchedulerFactory = Box<dyn Fn(&FleetConfig) -> Box<dyn Scheduler> + Send>;

/// One simulation of a sweep grid.
pub struct Cell {
    /// The arrivals; cells of one grid row share one generated trace.
    pub trace: Arc<Trace>,
    pub cfg: FleetConfig,
    pub scheduler: SchedulerFactory,
    /// The row's leading columns, naming the cell's grid coordinates.
    pub labels: Vec<String>,
    /// File name of the cell's metrics JSON.
    pub file: String,
}

/// One fleet sweep, as data.
pub struct Scenario {
    /// Experiment name, output directory under `target/`, and the prefix
    /// of the binary that runs it.
    pub name: &'static str,
    /// Table title; `{jobs}` stands for the trace length.
    pub title: &'static str,
    pub headers: &'static [&'static str],
    /// Jobs per trace in fast and in `--full` mode.
    pub jobs: (usize, usize),
    /// The grid, in row order, for the harness and the jobs per trace.
    pub cells: fn(&Harness, usize) -> Vec<Cell>,
    /// The row's metric columns, after the cell's labels.
    pub row: fn(&FleetMetrics) -> Vec<String>,
}

/// Every fleet sweep, in the order `all_experiments` runs them.
pub static SCENARIOS: [Scenario; 5] = [SCALE, POLICIES, RECOVERY, ESTIMATOR, RISK];

/// The scenario named `name`, if it is a fleet sweep.
pub fn scenario(name: &str) -> Option<&'static Scenario> {
    SCENARIOS.iter().find(|s| s.name == name)
}

/// Run every cell of `s` across `workers` threads and reduce in grid
/// order: the printed table plus `(file name, metrics JSON)` per cell.
/// Pure — no file I/O — and identical at any worker count.
pub fn run(s: &Scenario, h: &Harness, workers: usize) -> (String, Vec<(String, String)>) {
    let jobs = if h.fast { s.jobs.0 } else { s.jobs.1 };
    let cells = (s.cells)(h, jobs);
    let results = sweep::parallel_map(cells, workers, |_, cell| {
        let mut sched = (cell.scheduler)(&cell.cfg);
        let m = simulate(&cell.trace, &cell.cfg, sched.as_mut(), h.seed);
        let mut row = cell.labels;
        row.extend((s.row)(&m));
        (row, (cell.file, m.to_json()))
    });
    let (rows, files): (Vec<_>, Vec<_>) = results.into_iter().unzip();
    let title = s.title.replace("{jobs}", &jobs.to_string());
    (table(&title, s.headers, &rows), files)
}

/// Run `s` on every core, write its JSON files into `target/<name>/`, and
/// print the table. A write failure only warns: the table is the primary
/// output and a read-only `target/` must not abort the sweep.
pub fn emit(s: &Scenario, h: &Harness) -> String {
    let (out, files) = run(s, h, sweep::workers());
    let dir = Path::new("target").join(s.name);
    let _ = std::fs::create_dir_all(&dir);
    for (file, json) in &files {
        let path = dir.join(file);
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }
    println!("{out}");
    println!("per-run JSON written to {}", dir.display());
    out
}

/// A scheduler builder given the spot fraction (ignored by spot-blind
/// schedulers).
type SchedulerRow = (
    &'static str,
    bool,
    fn(&FleetConfig, f64) -> Box<dyn Scheduler>,
);

/// The five built-in schedulers: name, whether they take a spot
/// fraction, and the builder.
const SCHEDULERS: [SchedulerRow; 5] = [
    ("all-faas", false, |_, _| Box::new(AllFaas)),
    ("all-iaas", false, |_, _| Box::new(AllIaas)),
    ("cost-aware", false, |cfg, _| {
        Box::new(CostAware::for_config(cfg))
    }),
    ("deadline-aware", true, |cfg, frac| {
        Box::new(DeadlineAware::for_config(cfg).with_spot_fraction(frac))
    }),
    ("fair-share", true, |cfg, frac| {
        Box::new(FairShare::for_config(cfg).with_spot_fraction(frac))
    }),
];

fn pct(x: f64) -> String {
    format!("{:.0}%", x * 100.0)
}

/// `fleet_scale`: arrival rate × the three spot-blind policies over
/// Poisson fleets; every policy of a rate replays the same arrivals.
const SCALE: Scenario = Scenario {
    name: "fleet_scale",
    title: "fleet_scale: {jobs}-job Poisson fleets, arrival rate x policy",
    headers: &[
        "rate/s", "policy", "p50 s", "p95 s", "p99 s", "q-p99 s", "cost", "warm", "util", "on-faas",
    ],
    jobs: (400, 2_000),
    cells: |h, jobs| {
        let seed = h.seed;
        let rates: &[f64] = if h.fast {
            &[0.05, 0.2, 0.8]
        } else {
            &[0.05, 0.2, 0.8, 2.0]
        };
        let mut cells = Vec::new();
        for &rate in rates {
            let trace = Arc::new(Trace::generate(
                ArrivalProcess::Poisson { rate },
                &JobMix::default_mix(),
                jobs,
                seed,
            ));
            for &(name, takes_spot, make) in &SCHEDULERS {
                if takes_spot {
                    continue;
                }
                cells.push(Cell {
                    trace: Arc::clone(&trace),
                    cfg: FleetConfig::default(),
                    scheduler: Box::new(move |cfg| make(cfg, 0.0)),
                    labels: vec![format!("{rate}"), name.to_string()],
                    file: format!("fleet-seed{seed}-rate{rate}-{name}.json"),
                });
            }
        }
        cells
    },
    row: |m| {
        vec![
            f(m.latency.p50),
            f(m.latency.p95),
            f(m.latency.p99),
            f(m.queue.p99),
            format!("{}", m.total_cost()),
            pct(m.warm_hit_rate),
            pct(m.iaas_utilization),
            format!("{}", m.jobs_on_faas),
        ]
    },
};

/// `fleet_policies`: the multi-tenant scheduling testbed — policy ×
/// spot fraction × provisioned concurrency over a bursty four-tenant
/// trace where half the jobs carry deadlines.
const POLICIES: Scenario = Scenario {
    name: "fleet_policies",
    title: "fleet_policies: {jobs}-job bursty 4-tenant fleet (50% deadlines), \
            policy x spot-fraction x provisioned-concurrency",
    headers: &[
        "policy",
        "spot",
        "pc",
        "p50 s",
        "p99 s",
        "dl-hit",
        "fair",
        "preempt",
        "cost",
        "faas/iaas/spot",
    ],
    jobs: (300, 1_200),
    cells: |h, jobs| {
        let seed = h.seed;
        let spec = TenantSpec {
            n_tenants: 4,
            deadline_frac: 0.5,
            deadline_slack: 2.5,
        };
        let process = ArrivalProcess::Burst {
            base_rate: 0.1,
            burst_rate: 1.5,
            period: 600.0,
            duty: 0.25,
        };
        let trace = Arc::new(Trace::generate_multi(
            process,
            &JobMix::default_mix(),
            &spec,
            jobs,
            seed,
        ));
        let provisioned = [0usize, 64];
        let spot_fracs = [0.0, 0.6];
        let mut cells = Vec::new();
        for pc in provisioned {
            for frac in spot_fracs {
                for &(name, takes_spot, make) in &SCHEDULERS {
                    if frac > 0.0 && !takes_spot {
                        // The knob is a no-op for this policy: skip the
                        // duplicate cell rather than re-emitting identical
                        // JSON under a different name.
                        continue;
                    }
                    let mut cfg = FleetConfig::default();
                    cfg.faas.provisioned_concurrency = pc;
                    cells.push(Cell {
                        trace: Arc::clone(&trace),
                        cfg,
                        scheduler: Box::new(move |cfg| make(cfg, frac)),
                        labels: vec![name.to_string(), format!("{frac}"), format!("{pc}")],
                        file: format!("fleet-policies-seed{seed}-{name}-spot{frac}-pc{pc}.json"),
                    });
                }
            }
        }
        cells
    },
    row: |m| {
        vec![
            f(m.latency.p50),
            f(m.latency.p99),
            pct(m.deadline_hit_rate()),
            format!("{:.2}", m.fairness),
            format!("{}", m.preemptions),
            format!("{}", m.total_cost()),
            format!("{}/{}/{}", m.jobs_on_faas, m.jobs_on_iaas, m.jobs_on_spot),
        ]
    },
};

/// `fleet_recovery`: checkpoint policy × spot fraction × preemption rate
/// on a spot-heavy fair-share fleet. Epoch-granular checkpoints (priced
/// through the S3 profile) collapse lost work, replace from-scratch
/// restarts with resumes, and shrink the bill with them.
const RECOVERY: Scenario = Scenario {
    name: "fleet_recovery",
    title: "fleet_recovery: {jobs}-job spot-heavy fleet, \
            checkpoint policy x spot fraction x preemption rate",
    headers: &[
        "policy", "spot", "mttp s", "p99 s", "lost s", "resumes", "preempt", "ckpts", "cost",
    ],
    jobs: (150, 600),
    cells: |h, jobs| {
        let seed = h.seed;
        let trace = Arc::new(Trace::generate(
            ArrivalProcess::Poisson { rate: 0.4 },
            &JobMix::default_mix(),
            jobs,
            seed,
        ));
        let policies = [
            CheckpointPolicy::Never,
            CheckpointPolicy::every(1),
            CheckpointPolicy::every(4),
            CheckpointPolicy::Adaptive,
        ];
        let spot_fracs = [0.6, 1.0];
        let mttps = [900.0, 3_600.0];
        let mut cells = Vec::new();
        for mttp in mttps {
            for frac in spot_fracs {
                for policy in policies {
                    let mut cfg = FleetConfig::default();
                    cfg.spot.mean_time_to_preempt = SimTime::secs(mttp);
                    cfg.checkpoint = policy;
                    cells.push(Cell {
                        trace: Arc::clone(&trace),
                        cfg,
                        scheduler: Box::new(move |cfg| {
                            Box::new(FairShare::for_config(cfg).with_spot_fraction(frac))
                        }),
                        labels: vec![policy.name(), format!("{frac}"), format!("{mttp:.0}")],
                        file: format!(
                            "fleet-recovery-seed{seed}-{}-spot{frac}-mttp{mttp}.json",
                            policy.name()
                        ),
                    });
                }
            }
        }
        cells
    },
    row: |m| {
        vec![
            f(m.latency.p99),
            format!("{:.0}", m.lost_work.as_secs()),
            format!("{}", m.resumes),
            format!("{}", m.preemptions),
            format!("{}", m.checkpoint_writes),
            format!("{}", m.total_cost()),
        ]
    },
};

/// An estimator builder for `fleet_estimator`.
type EstimatorRow = (&'static str, fn(&FleetConfig) -> Box<dyn Estimator>);

/// A scheduler built around a given estimator.
type SchedulerEstRow = (
    &'static str,
    fn(&FleetConfig, Box<dyn Estimator>) -> Box<dyn Scheduler>,
);

/// `fleet_estimator`: estimator (analytic / online / hybrid) × scheduler
/// × zoo calibration (epoch scale 1 = the §5.3 prior is right, 2 = every
/// job needs twice the epochs it assumes). On the calibrated zoo all
/// three route identically (online and hybrid are seeded from the
/// analytic prior); on the miscalibrated one the closed feedback loop
/// collapses runtime MAPE and `deadline-aware + hybrid` beats the blind
/// prior on deadline-hit rate.
const ESTIMATOR: Scenario = Scenario {
    name: "fleet_estimator",
    title: "fleet_estimator: {jobs}-job 3-tenant fleet (60% deadlines), \
            zoo calibration x scheduler x estimator",
    headers: &[
        "scale",
        "policy",
        "estimator",
        "p50 s",
        "p99 s",
        "dl-hit",
        "t-mape",
        "c-mape",
        "cost",
    ],
    jobs: (300, 1_200),
    cells: |h, jobs| {
        let seed = h.seed;
        // The regime where the prediction matters: a fixed reserved pool
        // at ~80% utilization (busy but not visibly slammed — marginal
        // pool waits are where a 2×-optimistic prior sends deadline jobs
        // onto a pool that just misses, while a learned model escapes to
        // Lambda), convex classes with deadlines at 2.7× their nominal
        // runtime.
        let spec = TenantSpec {
            n_tenants: 3,
            deadline_frac: 0.6,
            deadline_slack: 2.7,
        };
        let mix = JobMix::new(vec![(JobClass::LrHiggs, 0.75), (JobClass::KmHiggs, 0.25)]);
        let trace = Arc::new(Trace::generate_multi(
            ArrivalProcess::Poisson { rate: 0.03 },
            &mix,
            &spec,
            jobs,
            seed,
        ));
        let estimators: [EstimatorRow; 3] = [
            ("analytic", |cfg| Box::new(Analytic::for_config(cfg))),
            ("online", |cfg| Box::new(Online::for_config(cfg))),
            ("hybrid", |cfg| Box::new(Hybrid::for_config(cfg))),
        ];
        let schedulers: [SchedulerEstRow; 3] = [
            ("cost-aware", |cfg, est| {
                Box::new(CostAware::for_config(cfg).with_estimator(est))
            }),
            ("deadline-aware", |cfg, est| {
                Box::new(DeadlineAware::for_config(cfg).with_estimator(est))
            }),
            ("fair-share", |cfg, est| {
                Box::new(FairShare::for_config(cfg).with_estimator(est))
            }),
        ];
        let scales = [1.0, 2.0];
        let mut cells = Vec::new();
        for scale in scales {
            for (sched_name, make_sched) in schedulers {
                for (est_name, make_est) in estimators {
                    let mut cfg = FleetConfig {
                        epoch_scale: scale,
                        ..FleetConfig::default()
                    };
                    // A fixed pool: no autoscaling to paper over the pool
                    // waits the blind prior underestimates.
                    cfg.iaas.min_instances = 60;
                    cfg.iaas.max_instances = 60;
                    cells.push(Cell {
                        trace: Arc::clone(&trace),
                        cfg,
                        scheduler: Box::new(move |cfg| make_sched(cfg, make_est(cfg))),
                        labels: vec![
                            format!("{scale}"),
                            sched_name.to_string(),
                            est_name.to_string(),
                        ],
                        file: format!(
                            "fleet-estimator-seed{seed}-{sched_name}-{est_name}-scale{scale}.json"
                        ),
                    });
                }
            }
        }
        cells
    },
    row: |m| {
        vec![
            f(m.latency.p50),
            f(m.latency.p99),
            pct(m.deadline_hit_rate()),
            format!("{:.3}", m.runtime_mape),
            format!("{:.3}", m.cost_mape),
            format!("{}", m.total_cost()),
        ]
    },
};

/// `fleet_risk`: admission variant (learned preemption posterior vs the
/// frozen static-mean config) × configured-prior error (the mean time to
/// preempt is right / 4× too optimistic) × true market hostility.
///
/// Deadline jobs are spot-eligible under checkpoint recovery, with slack
/// exactly where the admission call matters: a 4×-optimistic config makes
/// the static variant keep shipping deadline jobs onto a market whose
/// reboots burn their laxity, while the learned posterior watches the
/// same preemption feed and prices them back onto firm capacity within a
/// few reclaims. With a correct config the two are byte-identical.
const RISK: Scenario = Scenario {
    name: "fleet_risk",
    title: "fleet_risk: {jobs}-job spot-eligible deadline fleet, \
            true preemption rate x configured-prior error x admission",
    headers: &[
        "mttp s",
        "prior",
        "admission",
        "dl-hit",
        "dl-spot",
        "preempt",
        "lost s",
        "p99 s",
        "p95-cov",
        "cost",
    ],
    jobs: (200, 600),
    cells: |h, jobs| {
        let seed = h.seed;
        // One convex class and two tenants: the preemption posterior is
        // keyed per (tenant, class), so a narrow zoo makes the learning
        // visible within one trace. Slack 6× nominal is the knife edge —
        // rich enough that a benign-believing admission takes the
        // discount, tight enough that a hostile market's reboots blow it.
        let spec = TenantSpec {
            n_tenants: 2,
            deadline_frac: 0.5,
            deadline_slack: 6.0,
        };
        let trace = Arc::new(Trace::generate_multi(
            ArrivalProcess::Poisson { rate: 0.05 },
            &JobMix::only(JobClass::LrHiggs),
            &spec,
            jobs,
            seed,
        ));
        let admissions = [("learned", false), ("static", true)];
        let prior_errs = [1.0, 4.0];
        let mttps = [600.0, 1_800.0];
        let mut cells = Vec::new();
        for mttp in mttps {
            for err in prior_errs {
                for (name, frozen) in admissions {
                    let mut cfg = FleetConfig::default();
                    cfg.spot.mean_time_to_preempt = SimTime::secs(mttp);
                    cfg.checkpoint = CheckpointPolicy::every(1);
                    cells.push(Cell {
                        trace: Arc::clone(&trace),
                        cfg,
                        scheduler: Box::new(move |cfg| {
                            let sched = DeadlineAware::for_config(cfg)
                                .with_spot_fraction(1.0)
                                .with_spot_recovery(cfg.checkpoint)
                                .with_preemption_prior(SimTime::secs(mttp * err));
                            if frozen {
                                Box::new(sched.with_static_preemption())
                            } else {
                                Box::new(sched)
                            }
                        }),
                        labels: vec![format!("{mttp:.0}"), format!("{err}"), name.to_string()],
                        file: format!("fleet-risk-seed{seed}-{name}-err{err}-mttp{mttp}.json"),
                    });
                }
            }
        }
        cells
    },
    row: |m| {
        let dl_on_spot = m
            .records
            .iter()
            .filter(|r| r.deadline.is_some() && r.route == Route::Spot)
            .count();
        vec![
            format!("{:.1}%", m.deadline_hit_rate() * 100.0),
            format!("{dl_on_spot}"),
            format!("{}", m.preemptions),
            format!("{:.0}", m.lost_work.as_secs()),
            f(m.latency.p99),
            format!("{:.2}", m.eta_coverage()),
            format!("{}", m.total_cost()),
        ]
    },
};

#[cfg(test)]
mod tests {
    use super::*;

    /// Fast-mode harness at `seed`.
    fn fast(seed: u64) -> Harness {
        Harness { seed, fast: true }
    }

    /// The JSON of the cell written to `file`.
    fn json<'a>(files: &'a [(String, String)], file: &str) -> &'a str {
        files
            .iter()
            .find(|(name, _)| name == file)
            .map(|(_, json)| json.as_str())
            .expect("a cell writes the file")
    }

    /// Pull one f64 field out of a flat JSON metrics file.
    fn json_f64(json: &str, field: &str) -> f64 {
        let key = format!("\"{field}\":");
        let at = json.find(&key).expect("field present") + key.len();
        json[at..]
            .split([',', '}'])
            .next()
            .unwrap()
            .parse()
            .unwrap()
    }

    #[test]
    fn every_scenario_is_byte_identical_at_any_worker_count() {
        let h = fast(17);
        for s in &SCENARIOS {
            let (table, files) = run(s, &h, 1);
            assert!(table.contains(s.name), "{}: titled table", s.name);
            assert!(!files.is_empty(), "{}: cells emit JSON", s.name);
            for (file, json) in &files {
                assert!(
                    json.starts_with(r#"{"schema":"lml-fleet/metrics/v1""#),
                    "{}: {file} carries the metrics schema",
                    s.name
                );
            }
            let workers = [2, 8, 1];
            for w in workers {
                let (t, fs) = run(s, &h, w);
                assert_eq!(t, table, "{}: table at {w} workers", s.name);
                assert_eq!(fs, files, "{}: JSON bytes at {w} workers", s.name);
            }
        }
    }

    #[test]
    fn scenario_names_resolve_and_are_experiments() {
        for s in &SCENARIOS {
            assert!(crate::ALL_EXPERIMENTS.contains(&s.name), "{}", s.name);
            // Names are unique: lookup finds this very entry.
            assert!(scenario(s.name).is_some_and(|t| std::ptr::eq(t, s)));
        }
        assert!(scenario("fig6_datasets").is_none());
    }

    #[test]
    fn policies_emit_per_tenant_metrics() {
        let (out, files) = run(&POLICIES, &fast(11), 1);
        assert!(out.contains("deadline-aware") && out.contains("fair-share"));
        let one = json(&files, "fleet-policies-seed11-fair-share-spot0.6-pc64.json");
        assert!(one.contains(r#""per_tenant":["#));
    }

    #[test]
    fn estimator_hybrid_beats_blind_prior_on_miscalibrated_zoo() {
        let (out, files) = run(&ESTIMATOR, &fast(21), 2);
        assert!(out.contains("hybrid") && out.contains("analytic"));
        let read = |sched: &str, est: &str, scale: &str, field: &str| {
            let file = format!("fleet-estimator-seed21-{sched}-{est}-scale{scale}.json");
            json_f64(json(&files, &file), field)
        };
        // On the miscalibrated zoo the learned posterior strictly beats
        // the blind prior on deadline-hit rate…
        let blind = read("deadline-aware", "analytic", "2", "deadline_hit_rate");
        let hybrid = read("deadline-aware", "hybrid", "2", "deadline_hit_rate");
        assert!(
            hybrid > blind,
            "hybrid {hybrid} must strictly beat analytic {blind} at scale 2"
        );
        // …and cuts the runtime prediction error.
        let blind_mape = read("deadline-aware", "analytic", "2", "runtime_mape");
        let hybrid_mape = read("deadline-aware", "hybrid", "2", "runtime_mape");
        assert!(
            hybrid_mape < blind_mape * 0.5,
            "{hybrid_mape} vs {blind_mape}"
        );
        // On the calibrated zoo the prior is right and nothing regresses.
        let a1 = read("deadline-aware", "analytic", "1", "deadline_hit_rate");
        let h1 = read("deadline-aware", "hybrid", "1", "deadline_hit_rate");
        assert!(h1 >= a1, "calibrated zoo: {h1} vs {a1}");
    }

    #[test]
    fn risk_learned_admission_beats_static_on_wrong_config() {
        let (out, files) = run(&RISK, &fast(7), 2);
        assert!(out.contains("learned") && out.contains("static"));
        let read = |adm: &str, err: &str| {
            json(
                &files,
                &format!("fleet-risk-seed7-{adm}-err{err}-mttp600.json"),
            )
        };
        // With the configured mean 4× too optimistic on the hostile
        // market, the learned posterior strictly beats the frozen config
        // on deadline-hit rate…
        let frozen = json_f64(read("static", "4"), "deadline_hit_rate");
        let learned = json_f64(read("learned", "4"), "deadline_hit_rate");
        assert!(
            learned > frozen,
            "learned {learned} must strictly beat static {frozen} on a 4×-wrong config"
        );
        // …and with a correct config the two admissions are identical —
        // risk-awareness is free when the config is honest.
        assert_eq!(
            read("learned", "1"),
            read("static", "1"),
            "correct config: byte-identical decisions"
        );
    }

    #[test]
    fn recovery_checkpoints_beat_never_on_lost_work() {
        let (out, files) = run(&RECOVERY, &fast(13), 2);
        assert!(out.contains("adaptive") && out.contains("every1"));
        let lost = |policy: &str| {
            let file = format!("fleet-recovery-seed13-{policy}-spot1-mttp900.json");
            json_f64(json(&files, &file), "lost_work_s")
        };
        let never = lost("never");
        for policy in ["every1", "every4", "adaptive"] {
            let l = lost(policy);
            assert!(
                l < never,
                "{policy} lost {l}s must be strictly below never's {never}s"
            );
        }
    }

    #[test]
    fn scale_emits_metrics_schema_for_every_rate_and_policy() {
        let (out, files) = run(&SCALE, &fast(9), 2);
        assert!(out.contains("cost-aware"));
        assert_eq!(files.len(), 9, "3 rates x 3 spot-blind policies");
        assert!(json(&files, "fleet-seed9-rate0.2-all-faas.json")
            .starts_with(r#"{"schema":"lml-fleet/metrics/v1""#));
    }
}
