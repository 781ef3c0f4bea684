//! # lml-bench — the experiment harness
//!
//! One module per paper table/figure (see DESIGN.md §3 for the index), each
//! exposing a `run(&Harness) -> String` that regenerates the artifact's
//! rows/series and returns the printed report. The `src/bin/` binaries are
//! thin wrappers; `all_experiments` runs everything in order.
//!
//! The harness defaults to **fast mode** (reduced samples/worker counts) so
//! the whole suite finishes in minutes; pass `--full` for the paper-scale
//! worker counts.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod registry;
pub mod sweep;
pub mod tablefmt;

/// Global experiment settings, parsed from the command line.
#[derive(Debug, Clone, Copy)]
pub struct Harness {
    pub seed: u64,
    pub fast: bool,
}

impl Default for Harness {
    fn default() -> Self {
        Harness {
            seed: 42,
            fast: true,
        }
    }
}

impl Harness {
    /// Parse `--seed N` and `--full` from `std::env::args`.
    pub fn from_args() -> Self {
        let mut h = Harness::default();
        let args: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i < args.len() {
            match args[i].as_str() {
                "--full" => h.fast = false,
                "--fast" => h.fast = true,
                "--seed" => {
                    i += 1;
                    h.seed = args
                        .get(i)
                        .and_then(|s| s.parse().ok())
                        .expect("--seed needs an integer");
                }
                other => eprintln!("ignoring unknown argument {other:?}"),
            }
            i += 1;
        }
        h
    }
}

/// Run one named experiment (used by the binaries and `all_experiments`).
pub fn run_experiment(name: &str, h: &Harness) -> String {
    use experiments::*;
    match name {
        "fig6_datasets" => design::fig6_datasets(h),
        "fig7_optimizers" => design::fig7_optimizers(h),
        "table1_channels" => design::table1_channels(h),
        "table2_hybrid_rpc" => design::table2_hybrid_rpc(h),
        "table3_patterns" => design::table3_patterns(h),
        "fig8_sync_async" => design::fig8_sync_async(h),
        "fig9_end_to_end" => endtoend::fig9_end_to_end(h),
        "fig10_breakdown" => endtoend::fig10_breakdown(h),
        "fig11_workers" => endtoend::fig11_workers(h),
        "fig12_frontier" => endtoend::fig12_frontier(h),
        "table5_pipeline" => endtoend::table5_pipeline(h),
        "cost_sanity" => endtoend::cost_sanity(h),
        "table6_constants" => analytics::table6_constants(h),
        "fig13_model" => analytics::fig13_model(h),
        "fig14_fast_hybrid" => analytics::fig14_fast_hybrid(h),
        "fig15_hot_data" => analytics::fig15_hot_data(h),
        "ablations" => ablations::run_all(h),
        other => match fleet::scenario(other) {
            Some(s) => fleet::emit(s, h),
            None => panic!("unknown experiment {other:?}"),
        },
    }
}

/// All experiment names, in paper order (the fleet sweeps go beyond the
/// paper).
pub const ALL_EXPERIMENTS: [&str; 22] = [
    "fig6_datasets",
    "fig7_optimizers",
    "table1_channels",
    "table2_hybrid_rpc",
    "table3_patterns",
    "fig8_sync_async",
    "fig9_end_to_end",
    "fig10_breakdown",
    "fig11_workers",
    "fig12_frontier",
    "table5_pipeline",
    "cost_sanity",
    "table6_constants",
    "fig13_model",
    "fig14_fast_hybrid",
    "fig15_hot_data",
    "ablations",
    "fleet_scale",
    "fleet_policies",
    "fleet_recovery",
    "fleet_estimator",
    "fleet_risk",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_harness_is_fast() {
        let h = Harness::default();
        assert!(h.fast);
        assert_eq!(h.seed, 42);
    }

    #[test]
    fn all_experiment_names_resolve() {
        // Only checks the dispatcher match arms exist — the cheap ones run.
        let h = Harness::default();
        for name in ["fig6_datasets", "table2_hybrid_rpc", "table3_patterns"] {
            let out = run_experiment(name, &h);
            assert!(!out.is_empty());
        }
    }
}
