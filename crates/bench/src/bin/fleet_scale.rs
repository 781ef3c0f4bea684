//! Regenerates the `fleet_scale` experiment: the FaaS/IaaS trade-off under
//! multi-tenant load, swept over arrival rate × scheduler policy.
//! Flags: `--seed N`, `--full` (more jobs and rates).
//! Per-run JSON metrics land in `target/fleet_scale/`; same seed →
//! byte-identical files.
fn main() {
    let h = lml_bench::Harness::from_args();
    lml_bench::run_experiment("fleet_scale", &h);
}
