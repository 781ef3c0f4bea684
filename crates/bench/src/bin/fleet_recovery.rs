//! Regenerates the `fleet_recovery` experiment: checkpoint-aware spot
//! recovery swept over checkpoint policy × spot fraction × preemption
//! rate on a spot-heavy fair-share fleet.
//! Flags: `--seed N`, `--full` (more jobs).
//! Per-run JSON metrics land in `target/fleet_recovery/`; same seed →
//! byte-identical files.
fn main() {
    let h = lml_bench::Harness::from_args();
    lml_bench::run_experiment("fleet_recovery", &h);
}
