//! Regenerates the `fleet_estimator` experiment: the prediction-layer
//! sweep — estimator (analytic / online / hybrid) × scheduler × zoo
//! calibration (epoch counts as the §5.3 prior assumes vs perturbed ×2).
//! Flags: `--seed N`, `--full` (more jobs).
//! Per-run JSON metrics land in `target/fleet_estimator/`; same seed →
//! byte-identical files.
fn main() {
    let h = lml_bench::Harness::from_args();
    lml_bench::run_experiment("fleet_estimator", &h);
}
