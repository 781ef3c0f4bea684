//! Host-time benchmark of lambdaml-rs.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train-channels|train-scatter|fleet-burst|all> \
//!     --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Each workload builds its inputs from `--seed`, runs single-threaded on
//! the repository's public APIs for `--seconds`, checks its outputs and
//! prints one `metric <workload> <name> <value> <unit>` line per metric,
//! then, as the last line, a JSON object with `correct`, `attempted`,
//! `failed` and `metrics`.
//!
//! * `--trace 0` reports the end-to-end metrics ([`END_TO_END`]) of
//!   untraced runs.
//! * `--trace 1` reports the per-layer metrics ([`PER_LAYER`]) of a traced
//!   run, which times every call into each crate from the benchmark's own
//!   wrappers and checks it reproduces the untraced outputs bit for bit.
//!   A layer the workload does not exercise reads 0.
//! * `--workload all` runs every workload untraced and then traced in one
//!   process; its metric names carry a `<workload>.` prefix, and
//!   `peak_rss_mb` is the process peak so far.
//! * `--smoke` shrinks every input to toy size (for the self-test).

mod fleet;
mod measure;
mod train;

use measure::Report;

pub const WORKLOADS: [&str; 3] = ["train-channels", "train-scatter", "fleet-burst"];

/// Every end-to-end metric, with its unit. `throughput_per_s` counts sample
/// rows through `WorkerState::produce` on the training workloads and
/// replayed jobs on `fleet-burst`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
];

/// Every per-layer metric, with its unit.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("data.generate_s", "s"),
    ("models.build_s", "s"),
    ("optim.produce_s", "s"),
    ("optim.produce_calls", "count"),
    ("optim.examples", "count"),
    ("optim.consume_s", "s"),
    ("models.eval_s", "s"),
    ("models.evals", "count"),
    ("comm.round_s", "s"),
    ("comm.rounds", "count"),
    ("storage.gets", "count"),
    ("storage.puts", "count"),
    ("storage.lists", "count"),
    ("core.driver_self_s", "s"),
    ("core.refused", "count"),
    ("core.refused_wasted_s", "s"),
    ("core.useful_frac", "ratio"),
    ("fleet.calibrate_s", "s"),
    ("fleet.source.pull_s", "s"),
    ("fleet.source.jobs", "count"),
    ("fleet.sched.route_s", "s"),
    ("fleet.sched.routes", "count"),
    ("fleet.sched.observe_s", "s"),
    ("fleet.sched.observes", "count"),
    ("fleet.sched.preempt_obs", "count"),
    ("fleet.est.predict_s", "s"),
    ("fleet.est.predicts", "count"),
    ("fleet.est.observe_s", "s"),
    ("fleet.sim.self_s", "s"),
    ("fleet.sim.ns_per_event", "ns"),
    ("fleet.queue.pushes", "count"),
    ("fleet.queue.pops", "count"),
    ("fleet.queue.peak_depth", "count"),
    ("fleet.peak_resident_jobs", "count"),
    ("trace.overhead_frac", "ratio"),
    ("sim.rounds", "count"),
    ("sim.time_s", "sim_s"),
    ("sim.cost_usd", "usd"),
    ("sim.final_loss", "loss"),
    ("fleet.completed", "count"),
    ("fleet.rejected", "count"),
    ("fleet.makespan_s", "sim_s"),
    ("fleet.cost_usd", "usd"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad)?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad)?,
            "--trace" => match value.as_str() {
                "0" => args.trace = false,
                "1" => args.trace = true,
                _ => return Err(bad),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    Ok(args)
}

/// Run one workload in one mode, then complete its metrics against the
/// catalog: every catalog metric present, in catalog order, and nothing
/// outside it.
fn run_workload(workload: &str, args: &Args, trace: bool) -> Report {
    let mut r = Report::default();
    let (seed, secs, smoke) = (args.seed, args.seconds, args.smoke);
    match (workload, trace) {
        ("train-channels", false) => {
            train::run(&train::TrainSpec::channels(smoke), seed, secs, &mut r)
        }
        ("train-channels", true) => {
            train::run_traced(&train::TrainSpec::channels(smoke), seed, secs, &mut r)
        }
        ("train-scatter", false) => {
            train::run(&train::TrainSpec::scatter(smoke), seed, secs, &mut r)
        }
        ("train-scatter", true) => {
            train::run_traced(&train::TrainSpec::scatter(smoke), seed, secs, &mut r)
        }
        ("fleet-burst", false) => fleet::run(&fleet::FleetSpec::burst(smoke), seed, secs, &mut r),
        ("fleet-burst", true) => {
            fleet::run_traced(&fleet::FleetSpec::burst(smoke), seed, secs, &mut r)
        }
        _ => unreachable!("workload names are validated"),
    }
    let catalog: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    for (name, _, unit) in &r.metrics {
        assert!(
            catalog.contains(&(name.as_str(), unit)),
            "{name} [{unit}] is not in the metric catalog"
        );
    }
    let metrics = catalog
        .iter()
        .map(|&(name, unit)| {
            let value = r.metrics.iter().find(|m| m.0 == name).map_or(0.0, |m| m.1);
            (name.to_string(), value, unit)
        })
        .collect();
    r.metrics = metrics;
    for (name, value, unit) in &r.metrics {
        println!("metric {workload} {name} {value} {unit}");
    }
    r
}

fn json(r: &Report) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.failed == 0,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "host nproc={} profile={} rustc=\"{}\" workload={} seed={} seconds={} trace={} smoke={}",
        std::thread::available_parallelism().map_or(0, usize::from),
        env!("PERFBENCH_PROFILE"),
        env!("PERFBENCH_RUSTC_V"),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.smoke
    );
    let report = if args.workload == "all" {
        let mut all = Report::default();
        for w in WORKLOADS {
            for trace in [false, true] {
                let r = run_workload(w, &args, trace);
                all.attempted += r.attempted;
                all.failed += r.failed;
                for (name, value, unit) in r.metrics {
                    all.metrics.push((format!("{w}.{name}"), value, unit));
                }
            }
        }
        all
    } else {
        run_workload(&args.workload, &args, args.trace)
    };
    println!("{}", json(&report));
}
