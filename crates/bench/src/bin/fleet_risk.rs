//! Regenerates the `fleet_risk` experiment: the risk-aware spot-admission
//! sweep — learned preemption posterior vs frozen static-mean config ×
//! configured-prior error × true market hostility, on a spot-eligible
//! deadline fleet under checkpoint recovery.
//! Flags: `--seed N`, `--full` (more jobs).
//! Per-run JSON metrics land in `target/fleet_risk/`; same seed →
//! byte-identical files.
fn main() {
    let h = lml_bench::Harness::from_args();
    lml_bench::run_experiment("fleet_risk", &h);
}
