//! Streaming replay at fleet scale, end to end: a **million-job** trace
//! replayed straight out of a generator — never materialized — in constant
//! resident memory, plus the byte-identity and Google-adapter checks that
//! pin the streaming engine to the in-memory one.
//!
//! Run with: `cargo run --release --example fleet_stream`
//!
//! Three things are asserted, all hard:
//!
//! 1. **Bounded residency.** `replay_stats` over 1,000,000 generated jobs
//!    reports a `peak_resident_jobs` high-water mark bounded by the
//!    in-flight working set (orders of magnitude below the trace length)
//!    — the whole point of pull-based arrivals plus the generational job
//!    slab.
//! 2. **Byte-identity.** A prefix of the same generator stream, fully
//!    materialized and run through the classic in-memory `simulate`,
//!    produces metrics JSON byte-identical to streaming replay of that
//!    prefix.
//! 3. **Google adapter determinism.** The bundled cluster-usage fixture
//!    streams to the same metrics bytes twice; the JSON lands in
//!    `target/fleet_stream/` so CI can diff two independent processes.

use lambdaml::fleet::{
    replay, replay_stats, simulate, stream, ArrivalProcess, CostAware, FleetConfig,
    GeneratorSource, GoogleSource, JobMix, NullObserver, TenantSpec,
};
use std::io::BufReader;
use std::path::Path;
use std::time::Instant;

const MILLION: usize = 1_000_000;
const PREFIX: usize = 20_000;

fn gen_source(n_jobs: usize) -> GeneratorSource {
    GeneratorSource::new(
        ArrivalProcess::Poisson { rate: 0.05 },
        JobMix::convex_mix(),
        TenantSpec {
            n_tenants: 4,
            deadline_frac: 0.25,
            deadline_slack: 4.0,
        },
        n_jobs,
        42,
    )
}

fn main() {
    let out = Path::new("target/fleet_stream");
    std::fs::create_dir_all(out).expect("output dir");
    let cfg = FleetConfig::default();

    // 1. One million jobs, streamed from the generator: constant memory.
    let wall = Instant::now();
    let s = replay_stats(
        gen_source(MILLION),
        &cfg,
        &mut CostAware::new(),
        42,
        &mut NullObserver,
    )
    .expect("generated stream cannot fail");
    let secs = wall.elapsed().as_secs_f64();
    assert_eq!(s.jobs, MILLION as u64);
    assert_eq!(s.completed + s.rejected, MILLION as u64);
    assert!(s.completed > 0 && s.makespan.as_secs() > 0.0);
    // The hard bound: resident jobs track the in-flight set, not the
    // trace. 10,000 is two orders of magnitude below the trace length and
    // far above any steady-state working set this arrival rate produces.
    assert!(
        s.peak_resident_jobs < 10_000,
        "resident jobs must stay bounded: peak {} on {} jobs",
        s.peak_resident_jobs,
        s.jobs
    );
    println!(
        "streamed {} jobs in {secs:.2}s: completed={} rejected={} \
         peak_resident_jobs={} makespan={:.0}s total=${:.2}",
        s.jobs,
        s.completed,
        s.rejected,
        s.peak_resident_jobs,
        s.makespan.as_secs(),
        s.total_cost.as_usd()
    );

    // 2. Byte-identity on a materialized prefix of the same stream: the
    // generator is deterministic per job, so its first PREFIX jobs equal
    // the PREFIX-job source collected into a Trace.
    let trace = stream::collect(gen_source(PREFIX)).expect("collect");
    let in_memory = simulate(&trace, &cfg, &mut CostAware::new(), 42).to_json();
    let streamed = replay(gen_source(PREFIX), &cfg, &mut CostAware::new(), 42)
        .expect("prefix stream")
        .to_json();
    assert_eq!(
        streamed, in_memory,
        "streaming a generated prefix must reproduce the in-memory bytes"
    );
    println!(
        "prefix check: {PREFIX} jobs, streamed == in-memory ({} bytes)",
        in_memory.len()
    );

    // 3. The Google cluster-usage adapter streams deterministically: same
    // fixture, same bytes, written out for CI to diff across processes.
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/fleet/data/google_sample.csv");
    let open = || {
        GoogleSource::new(BufReader::new(
            std::fs::File::open(&fixture).expect("bundled fixture"),
        ))
    };
    let google_a = replay(open(), &cfg, &mut CostAware::new(), 7)
        .expect("google fixture streams")
        .to_json();
    let google_b = replay(open(), &cfg, &mut CostAware::new(), 7)
        .expect("google fixture streams")
        .to_json();
    assert_eq!(google_a, google_b, "google adapter must be deterministic");
    std::fs::write(out.join("google_metrics.json"), &google_a).expect("write metrics");
    println!(
        "google fixture: {} -> {} bytes of metrics JSON at {}",
        fixture.display(),
        google_a.len(),
        out.join("google_metrics.json").display()
    );

    println!("fleet_stream: all assertions passed");
}
