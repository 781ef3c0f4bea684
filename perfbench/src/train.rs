//! The training workloads: real GA-SGD jobs run through
//! `TrainingJob::run`, and a traced driver that mirrors the synchronous
//! loop (`run_sync`) from outside, timing each crate's public calls.

use crate::measure::{
    median, report_end_to_end, sample, Digest, HostSpeed, Layer, Report, Sample, Samples,
};
use lml_comm::{Bsp, Pattern};
use lml_core::job::Workload;
use lml_core::{Backend, ChannelKind, JobConfig, JobError, Protocol, TrainingJob};
use lml_data::generators::DatasetId;
use lml_data::partition::partition_rows;
use lml_faas::LambdaSpec;
use lml_models::{AnyModel, ModelId};
use lml_optim::algorithm::sum_statistics;
use lml_optim::{Algorithm, StopSpec, WorkerState};
use lml_storage::{CacheNode, StorageChannel};
use std::time::Instant;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// One backend a training workload runs its job on.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    pub name: &'static str,
    pub backend: Backend,
    /// The channel must refuse the job (DynamoDB's 400 KB item cap).
    pub refused: bool,
}

/// A training workload: dataset, model, GA-SGD hyper-parameters, and the
/// cells it runs.
#[derive(Debug, Clone)]
pub struct TrainSpec {
    pub dataset: DatasetId,
    pub rows: usize,
    pub model: ModelId,
    pub workers: usize,
    pub paper_batch: usize,
    pub lr: f64,
    pub epochs: usize,
    pub cells: Vec<Cell>,
}

fn faas(channel: ChannelKind, pattern: Pattern) -> Backend {
    Backend::Faas {
        spec: LambdaSpec::gb3(),
        channel,
        pattern,
        protocol: Protocol::Sync,
    }
}

impl TrainSpec {
    /// Table 1's MobileNet/Cifar10 W=10 row on the fast-mode sample: the
    /// same job over S3, Memcached, DynamoDB and the VM parameter server.
    pub fn channels(smoke: bool) -> Self {
        let memcached = ChannelKind::Memcached(CacheNode::T3Medium);
        TrainSpec {
            dataset: DatasetId::Cifar10,
            rows: if smoke { 400 } else { 4_000 },
            model: ModelId::MobileNet,
            workers: 10,
            paper_batch: 128,
            lr: 0.15,
            epochs: 1,
            cells: vec![
                Cell {
                    name: "faas-s3",
                    backend: faas(ChannelKind::S3, Pattern::AllReduce),
                    refused: false,
                },
                Cell {
                    name: "faas-memcached",
                    backend: faas(memcached, Pattern::AllReduce),
                    refused: false,
                },
                Cell {
                    name: "faas-dynamodb",
                    backend: faas(ChannelKind::DynamoDb, Pattern::AllReduce),
                    refused: true,
                },
                Cell {
                    name: "vm-ps",
                    backend: Backend::hybrid_default(),
                    refused: false,
                },
            ],
        }
    }

    /// LR on the YFCC100M sample at W=100 with ScatterReduce over
    /// Memcached: about 10,100 storage gets and puts per round.
    pub fn scatter(smoke: bool) -> Self {
        TrainSpec {
            dataset: DatasetId::Yfcc100m,
            rows: 1_500,
            model: ModelId::Lr { l2: 0.0 },
            workers: 100,
            paper_batch: 800,
            lr: 0.1,
            epochs: if smoke { 1 } else { 3 },
            cells: vec![Cell {
                name: "faas-memcached-scatter",
                backend: faas(
                    ChannelKind::Memcached(CacheNode::T3Medium),
                    Pattern::ScatterReduce,
                ),
                refused: false,
            }],
        }
    }

    fn config(&self, wl: &Workload, seed: u64, backend: Backend) -> JobConfig {
        let batch = wl.spec.scaled_batch(self.paper_batch);
        JobConfig::new(
            self.workers,
            Algorithm::GaSgd { batch },
            self.lr,
            StopSpec::new(0.0, self.epochs),
        )
        .with_seed(seed)
        .with_backend(backend)
    }

    /// Sample rows one worker passes through `produce` per round.
    fn batch(&self, wl: &Workload) -> u64 {
        let part_len = partition_rows(wl.train.len(), self.workers)[0].len();
        let batch = wl.spec.scaled_batch(self.paper_batch);
        Algorithm::GaSgd { batch }.batch_size(part_len) as u64
    }
}

/// What a cell's job came back with: the simulated outputs, or the kind
/// of refusal.
#[derive(Debug, Clone)]
enum Outcome {
    Done {
        rounds: u64,
        final_loss: f64,
        time_s: f64,
        cost_usd: f64,
    },
    Refused(String),
}

impl Outcome {
    fn of(r: Result<lml_core::RunResult, JobError>) -> Outcome {
        match r {
            Ok(r) => Outcome::Done {
                rounds: r.rounds,
                final_loss: r.final_loss,
                time_s: r.runtime().as_secs(),
                cost_usd: r.dollars().as_usd(),
            },
            Err(e) => Outcome::Refused(refusal_kind(&e)),
        }
    }

    /// Exact equality: every simulated output bit for bit.
    fn same_bits(&self, other: &Outcome) -> bool {
        let bits = |o: &Outcome| match o {
            Outcome::Done {
                rounds,
                final_loss,
                time_s,
                cost_usd,
            } => Ok([
                *rounds,
                final_loss.to_bits(),
                time_s.to_bits(),
                cost_usd.to_bits(),
            ]),
            Outcome::Refused(kind) => Err(kind.clone()),
        };
        bits(self) == bits(other)
    }
}

fn refusal_kind(e: &JobError) -> String {
    match e {
        JobError::Storage(_) => "storage".to_string(),
        JobError::Faas(_) => "faas".to_string(),
        JobError::NotApplicable(_) => "not-applicable".to_string(),
    }
}

/// Per-layer timers of the traced run.
#[derive(Debug, Default)]
struct TrainLayers {
    generate: Layer,
    build: Layer,
    produce: Layer,
    examples: u64,
    consume: Layer,
    eval: Layer,
    comm: Layer,
    gets: u64,
    puts: u64,
    lists: u64,
    driver_self_s: f64,
    refused: u64,
    refused_s: f64,
    useful_s: f64,
    total_s: f64,
}

/// Generate the sample, split it 90/10 and build the initial replica.
fn setup(spec: &TrainSpec, seed: u64, layers: &mut TrainLayers) -> Workload {
    let g = layers
        .generate
        .time(|| spec.dataset.generate_rows(spec.rows, seed));
    let wl = layers.generate.time(|| Workload::from_generated(&g, seed));
    let model: AnyModel = layers.build.time(|| spec.model.build(&wl.train, seed));
    std::hint::black_box(model);
    wl
}

/// The synchronous loop of `run_sync`, driven from outside with a timer
/// around every call into lml-optim, lml-models, lml-comm/lml-storage.
///
/// This loop keeps no virtual clock: at a one-to-few-epoch cap the 48 h
/// virtual-time stop never binds, so rounds and losses depend only on the
/// epoch count — and the traced-vs-untraced check would flag it if not.
fn traced_cell(
    spec: &TrainSpec,
    wl: &Workload,
    cfg: &JobConfig,
    layers: &mut TrainLayers,
) -> Result<(u64, f64), JobError> {
    let algo = cfg.algorithm;
    // The job's own replica build is driver work, as in `TrainingJob::run`;
    // `models.build_s` times the set-up's build.
    let model = spec.model.build(&wl.train, cfg.seed);
    let parts = partition_rows(wl.train.len(), cfg.workers);
    let part_len = parts[0].len();
    let batch = algo.batch_size(part_len);
    let mut workers: Vec<WorkerState> = parts
        .iter()
        .map(|p| WorkerState::new(p.worker, model.clone(), p.indices().collect(), batch))
        .collect();
    let n = workers.len();
    let eval_every = cfg.resolved_eval_every(part_len) as u64;
    let stat_wire = model.statistic_wire_bytes();
    // FaaS cells aggregate over a storage channel; the VM-PS cell sums on
    // the parameter server.
    let mut channel = match cfg.backend {
        Backend::Faas {
            channel, pattern, ..
        } => Some((StorageChannel::new(channel.profile()), Bsp::new(pattern))),
        _ => None,
    };

    let mut epochs = 0.0f64;
    let mut rounds = 0u64;
    let mut last_eval: Option<(u64, f64)> = None;
    let mut result = Ok(());
    while !cfg.stop.exhausted(epochs, lml_sim::SimTime::ZERO) {
        let epoch_idx = epochs.floor() as usize;
        let lr = cfg.lr.lr(epoch_idx);
        let mut stats = Vec::with_capacity(n);
        let mut max_examples = 0u64;
        for w in workers.iter_mut() {
            let (s, ex) = layers.produce.time(|| w.produce(&algo, &wl.train, lr));
            layers.examples += ex;
            max_examples = max_examples.max(ex);
            stats.push(s);
        }
        let agg = match channel.as_mut() {
            Some((ch, bsp)) => {
                match layers
                    .comm
                    .time(|| bsp.run_round(ch, epoch_idx, rounds as usize, &stats, stat_wire))
                {
                    Ok(o) => o.aggregate,
                    Err(e) => {
                        result = Err(JobError::Storage(e));
                        break;
                    }
                }
            }
            None => layers.comm.time(|| sum_statistics(&stats)),
        };
        for w in workers.iter_mut() {
            layers.consume.time(|| w.consume(&algo, &agg, n, lr));
        }
        rounds += 1;
        epochs += max_examples as f64 / part_len as f64;
        if rounds.is_multiple_of(eval_every) {
            let loss = layers
                .eval
                .time(|| workers[0].eval_model(&algo).full_loss(&wl.valid));
            last_eval = Some((rounds, loss));
            if cfg.stop.converged(loss) {
                break;
            }
        }
    }
    if let Some((ch, _)) = &channel {
        let (puts, gets, lists) = ch.op_counts();
        layers.puts += puts;
        layers.gets += gets;
        layers.lists += lists;
    }
    result?;
    // run_sync's final observation: evaluate unless the last round was.
    let final_loss = match last_eval {
        Some((r, loss)) if r == rounds => loss,
        _ => layers
            .eval
            .time(|| workers[0].eval_model(&algo).full_loss(&wl.valid)),
    };
    Ok((rounds, final_loss))
}

fn untraced_pass(spec: &TrainSpec, wl: &Workload, seed: u64) -> Vec<(Outcome, f64)> {
    spec.cells
        .iter()
        .map(|cell| {
            let cfg = spec.config(wl, seed, cell.backend);
            let (r, s) = sample(|| TrainingJob::new(wl, spec.model, cfg).run());
            (Outcome::of(r), s.wall)
        })
        .collect()
}

/// A traced cell's rounds and final loss, or the kind of refusal.
type Traced = Result<(u64, f64), String>;

fn traced_pass(
    spec: &TrainSpec,
    wl: &Workload,
    seed: u64,
    layers: &mut TrainLayers,
) -> Vec<(Traced, f64)> {
    spec.cells
        .iter()
        .map(|cell| {
            let cfg = spec.config(wl, seed, cell.backend);
            let children =
                |l: &TrainLayers| l.produce.nanos + l.consume.nanos + l.eval.nanos + l.comm.nanos;
            let before = children(layers);
            let t0 = Instant::now();
            let r = traced_cell(spec, wl, &cfg, layers);
            let wall = t0.elapsed().as_secs_f64();
            layers.driver_self_s += wall - (children(layers) - before) as f64 * 1e-9;
            layers.total_s += wall;
            match r {
                Ok(_) => layers.useful_s += wall,
                Err(_) => {
                    layers.refused += 1;
                    layers.refused_s += wall;
                }
            }
            (r.map_err(|e| refusal_kind(&e)), wall)
        })
        .collect()
}

/// Check one pass of outcomes against the cells' expectations; returns
/// the sample rows the pass put through `produce`.
fn check_pass(
    spec: &TrainSpec,
    wl: &Workload,
    pass: &[Outcome],
    initial_loss: f64,
    report: &mut Report,
) -> u64 {
    let batch = spec.batch(wl);
    let w = spec.workers as u64;
    let mut rows = 0u64;
    let mut done_loss: Option<u64> = None;
    for (cell, out) in spec.cells.iter().zip(pass) {
        match out {
            Outcome::Refused(kind) => {
                report.check(cell.refused && kind == "storage", || {
                    format!("{}: unexpected refusal ({kind})", cell.name)
                });
                // The refusal comes at the first round's aggregation, after
                // every worker produced its statistic.
                rows += w * batch;
            }
            Outcome::Done {
                rounds, final_loss, ..
            } => {
                report.check(!cell.refused, || {
                    format!("{}: must be refused by the item cap", cell.name)
                });
                report.check(final_loss.is_finite() && *final_loss < initial_loss, || {
                    format!(
                        "{}: loss {final_loss} did not fall below {initial_loss}",
                        cell.name
                    )
                });
                // Every channel and the PS aggregate to the same sum, so
                // the trajectories are bit-identical across cells.
                let bits = final_loss.to_bits();
                report.check(*done_loss.get_or_insert(bits) == bits, || {
                    format!("{}: final loss differs from the other cells", cell.name)
                });
                rows += rounds * w * batch;
            }
        }
    }
    rows
}

fn digest(spec: &TrainSpec, pass: &[Outcome]) -> (Digest, [f64; 4]) {
    let mut d = Digest::default();
    let (mut rounds, mut time, mut cost, mut loss, mut done) = (0u64, 0.0, 0.0, 0.0, 0u32);
    for (cell, out) in spec.cells.iter().zip(pass) {
        match out {
            Outcome::Done {
                rounds: r,
                final_loss,
                time_s,
                cost_usd,
            } => {
                d.add(*r);
                d.add_f64(*final_loss);
                d.add_f64(*time_s);
                d.add_f64(*cost_usd);
                println!(
                    "cell {}: rounds={r} final_loss={final_loss} sim_time_s={time_s} sim_cost_usd={cost_usd}",
                    cell.name
                );
                rounds += r;
                time += time_s;
                cost += cost_usd;
                loss += final_loss;
                done += 1;
            }
            Outcome::Refused(kind) => {
                d.add(u64::MAX);
                println!("cell {}: refused ({kind})", cell.name);
            }
        }
    }
    (
        d,
        [rounds as f64, time, cost, loss / f64::from(done.max(1))],
    )
}

/// Untraced run: set up `SETUP_REPS` times, then run whole passes over the
/// cells for `seconds`. `wall_s` is one pass, summed from the per-cell
/// medians.
pub fn run(spec: &TrainSpec, seed: u64, seconds: f64, report: &mut Report) {
    let mut host = HostSpeed::new();
    let mut setups = Samples::default();
    let mut wl = None;
    for _ in 0..SETUP_REPS {
        wl = Some(host.time(&mut setups, || {
            setup(spec, seed, &mut TrainLayers::default())
        }));
    }
    let wl = wl.expect("at least one set-up");
    let initial_loss = spec.model.build(&wl.train, seed).full_loss(&wl.valid);

    let mut cells = vec![Samples::default(); spec.cells.len()];
    let mut first: Vec<Option<Outcome>> = vec![None; spec.cells.len()];
    let t0 = Instant::now();
    while cells[0].len() == 0 || t0.elapsed().as_secs_f64() < seconds {
        for (i, cell) in spec.cells.iter().enumerate() {
            let cfg = spec.config(&wl, seed, cell.backend);
            let out = Outcome::of(host.time(&mut cells[i], || {
                TrainingJob::new(&wl, spec.model, cfg).run()
            }));
            match &first[i] {
                Some(f) => report.check(out.same_bits(f), || {
                    format!("{}: outputs differ between runs", cell.name)
                }),
                None => first[i] = Some(out),
            }
        }
    }
    let first: Vec<Outcome> = first
        .into_iter()
        .map(|o| o.expect("every cell ran"))
        .collect();
    let rows = check_pass(spec, &wl, &first, initial_loss, report);
    let (d, _) = digest(spec, &first);
    println!("digest {}", d.hex());
    println!("timed {} passes over {} cells", cells[0].len(), cells.len());

    let add = |a: Sample, b: Sample| Sample {
        wall: a.wall + b.wall,
        cpu: a.cpu + b.cpu,
    };
    let zero = Sample {
        wall: 0.0,
        cpu: 0.0,
    };
    let unit = cells
        .iter()
        .map(Samples::medians)
        .fold((zero, zero), |acc, m| (add(acc.0, m.0), add(acc.1, m.1)));
    report_end_to_end(
        report,
        &host,
        unit,
        setups.medians(),
        ("samples_per_s", rows),
    );
}

/// Traced run: one layered set-up, then alternating untraced and traced
/// passes for `seconds`; per-layer figures are per traced pass.
pub fn run_traced(spec: &TrainSpec, seed: u64, seconds: f64, report: &mut Report) {
    let mut layers = TrainLayers::default();
    let wl = setup(spec, seed, &mut layers);
    let initial_loss = spec.model.build(&wl.train, seed).full_loss(&wl.valid);
    let (setup_layers, mut layers) = (layers, TrainLayers::default());

    let mut plain_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut first: Option<Vec<Outcome>> = None;
    let t0 = Instant::now();
    while traced_walls.is_empty() || t0.elapsed().as_secs_f64() < seconds {
        let (plain, walls): (Vec<Outcome>, Vec<f64>) =
            untraced_pass(spec, &wl, seed).into_iter().unzip();
        plain_walls.push(walls.iter().sum::<f64>());
        let examples_before = layers.examples;
        let traced = traced_pass(spec, &wl, seed, &mut layers);
        traced_walls.push(traced.iter().map(|c| c.1).sum::<f64>());

        let reference = first.get_or_insert_with(|| plain.clone());
        for (cell, (out, f)) in spec.cells.iter().zip(plain.iter().zip(reference.iter())) {
            report.check(out.same_bits(f), || {
                format!("{}: outputs differ between runs", cell.name)
            });
        }
        let rows = check_pass(spec, &wl, &plain, initial_loss, report);
        report.check(layers.examples - examples_before == rows, || {
            format!(
                "traced produce rows {} != untraced accounting {rows}",
                layers.examples - examples_before
            )
        });
        for (cell, (out, (tr, _))) in spec.cells.iter().zip(plain.iter().zip(&traced)) {
            let same = match (out, tr) {
                (
                    Outcome::Done {
                        rounds, final_loss, ..
                    },
                    Ok((r, l)),
                ) => rounds == r && final_loss.to_bits() == l.to_bits(),
                (Outcome::Refused(a), Err(b)) => a == b,
                _ => false,
            };
            report.check(same, || {
                format!("{}: traced {tr:?} != untraced {out:?}", cell.name)
            });
        }
    }
    let reference = first.expect("at least one pass");
    let (d, [rounds, time_s, cost_usd, final_loss]) = digest(spec, &reference);
    println!("digest {}", d.hex());

    let n = traced_walls.len() as f64;
    let per = |x: f64| x / n;
    let loop_s = per(layers.total_s);
    report.metric("data.generate_s", setup_layers.generate.secs(), "s");
    report.metric("models.build_s", setup_layers.build.secs(), "s");
    report.metric("optim.produce_s", per(layers.produce.secs()), "s");
    report.metric(
        "optim.produce_calls",
        per(layers.produce.calls as f64),
        "count",
    );
    report.metric("optim.examples", per(layers.examples as f64), "count");
    report.metric("optim.consume_s", per(layers.consume.secs()), "s");
    report.metric("models.eval_s", per(layers.eval.secs()), "s");
    report.metric("models.evals", per(layers.eval.calls as f64), "count");
    report.metric("comm.round_s", per(layers.comm.secs()), "s");
    report.metric("comm.rounds", per(layers.comm.calls as f64), "count");
    report.metric("storage.gets", per(layers.gets as f64), "count");
    report.metric("storage.puts", per(layers.puts as f64), "count");
    report.metric("storage.lists", per(layers.lists as f64), "count");
    report.metric("core.driver_self_s", per(layers.driver_self_s), "s");
    report.metric("core.refused", per(layers.refused as f64), "count");
    report.metric("core.refused_wasted_s", per(layers.refused_s), "s");
    report.metric(
        "core.useful_frac",
        layers.useful_s / layers.total_s,
        "ratio",
    );
    report.metric(
        "trace.overhead_frac",
        median(&traced_walls) / median(&plain_walls) - 1.0,
        "ratio",
    );
    report.metric("sim.rounds", rounds, "count");
    report.metric("sim.time_s", time_s, "sim_s");
    report.metric("sim.cost_usd", cost_usd, "usd");
    report.metric("sim.final_loss", final_loss, "loss");
    println!(
        "traced loop {loop_s:.3} s/pass: produce+eval {:.1}%, comm {:.1}%",
        100.0 * per(layers.produce.secs() + layers.eval.secs()) / loop_s,
        100.0 * per(layers.comm.secs()) / loop_s
    );
}
