//! Regenerates the `fleet_policies` experiment: the multi-tenant
//! scheduling testbed swept over policy × spot-fraction ×
//! provisioned-concurrency on a bursty four-tenant trace with deadlines.
//! Flags: `--seed N`, `--full` (more jobs).
//! Per-run JSON metrics land in `target/fleet_policies/`; same seed →
//! byte-identical files.
fn main() {
    let h = lml_bench::Harness::from_args();
    lml_bench::run_experiment("fleet_policies", &h);
}
