//! The metric names: a stable API that later issues cite. `BENCHMARK.json`
//! lists the same names (a unit test holds the two together).

use crate::json::{obj, Json};
use std::collections::BTreeMap;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// All end-to-end metrics are better when lower, and all are measured on the
/// host, so they differ from run to run. What the program computes on its
/// simulated device clock repeats exactly for a seed and often across seeds;
/// those numbers are outputs, checked and reported with the per-layer
/// metrics (`accel.device_s`, `server.job_latency_*`), not timings to bound.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        bound: 0.15,
    },
];

/// `(name, unit, better)`; the prefix is the crate the number belongs to.
pub const PER_LAYER: [(&str, &str, &str); 74] = [
    ("chem.shells_s", "s", "lower"),
    ("chem.nao", "count", "lower"),
    ("eri.screen_pairs_s", "s", "lower"),
    ("eri.batch_quartets_s", "s", "lower"),
    ("eri.screened_pairs", "count", "lower"),
    ("eri.pair_survival_frac", "1", "lower"),
    ("eri.quartets", "count", "lower"),
    ("eri.classes", "count", "lower"),
    ("eri.one_electron_s", "s", "lower"),
    ("compiler.tune_s", "s", "lower"),
    ("compiler.tunes", "count", "lower"),
    ("compiler.cache_hits", "count", "higher"),
    ("compiler.cache_hit_frac", "1", "higher"),
    ("compiler.cache_evictions", "count", "lower"),
    ("scf.fock_build_s", "s", "lower"),
    ("scf.fock_evaluate_s", "s", "lower"),
    ("scf.fock_scatter_s", "s", "lower"),
    ("scf.fock_launches", "count", "lower"),
    ("scf.quartets_evaluated", "count", "lower"),
    ("scf.quartets_skipped", "count", "higher"),
    ("scf.quartets_pruned", "count", "higher"),
    ("scf.skip_frac", "1", "higher"),
    ("scf.rebuilds", "count", "lower"),
    ("scf.iterations", "count", "lower"),
    ("scf.grid_build_s", "s", "lower"),
    ("scf.ao_eval_s", "s", "lower"),
    ("scf.grid_points", "count", "lower"),
    ("scf.xc_s", "s", "lower"),
    ("scf.diis_s", "s", "lower"),
    ("scf.density_s", "s", "lower"),
    ("scf.checkpoint_save_s", "s", "lower"),
    ("scf.checkpoint_load_s", "s", "lower"),
    ("scf.checkpoint_bytes", "B", "lower"),
    ("scf.energy_err_ha", "Ha", "lower"),
    ("quant.fp64_frac", "1", "lower"),
    ("quant.quantized_frac", "1", "higher"),
    ("quant.pruned_frac", "1", "higher"),
    ("linalg.eigh_s", "s", "lower"),
    ("linalg.gemm_s", "s", "lower"),
    ("linalg.orthogonalizer_s", "s", "lower"),
    ("linalg.gemm_gflops", "Gflop/s", "higher"),
    ("accel.device_s", "s", "lower"),
    ("accel.device_iter_s", "s", "lower"),
    ("accel.eri_device_s", "s", "lower"),
    ("accel.other_device_s", "s", "lower"),
    ("accel.fused_launches", "count", "lower"),
    ("accel.launches_avoided", "count", "higher"),
    ("server.admitted", "count", "higher"),
    ("server.rejected", "count", "lower"),
    ("server.quanta", "count", "lower"),
    ("server.preemptions", "count", "lower"),
    ("server.retries", "count", "lower"),
    ("server.utilisation_frac", "1", "higher"),
    ("server.job_latency_p50_device_s", "s", "lower"),
    ("server.job_latency_p75_device_s", "s", "lower"),
    ("server.queue_wait_p50_device_s", "s", "lower"),
    ("server.screen_cache_hit_frac", "1", "higher"),
    ("server.solo_sum_s", "s", "lower"),
    ("server.overhead_frac", "1", "lower"),
    ("store.journal_appends", "count", "lower"),
    ("store.journal_bytes", "B", "lower"),
    ("store.journal_append_s", "s", "lower"),
    ("store.journal_replay_s", "s", "lower"),
    ("store.artifacts_stored", "count", "lower"),
    ("store.artifacts_loaded", "count", "higher"),
    ("store.quarantined", "count", "lower"),
    ("store.ops", "count", "lower"),
    ("store.records_replayed", "count", "lower"),
    ("store.checkpoints_salvaged", "count", "higher"),
    ("store.jobs_rerun_frac", "1", "lower"),
    ("trace.events", "count", "lower"),
    ("trace.dropped", "count", "lower"),
    ("trace.overhead_frac", "1", "lower"),
    ("bench.layer_coverage_frac", "1", "higher"),
];

/// Per-layer values of one traced run. Every name of [`PER_LAYER`] is present;
/// a layer that does nothing on a workload reads 0.
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn new() -> Layers {
        Layers(PER_LAYER.iter().map(|&(name, _, _)| (name, 0.0)).collect())
    }

    /// Panics on a name that is not in [`PER_LAYER`]: a typo must not
    /// silently create a metric nobody declared.
    pub fn set(&mut self, name: &'static str, value: f64) {
        // `+ 0.0` turns the -0.0 an empty sum yields into 0.0.
        *self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("undeclared per-layer metric {name}")) = value + 0.0;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0[name]
    }
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|&(n, u, _)| (n, u)))
        .find(|&(n, _)| n == name)
        .map(|(_, u)| u)
        .unwrap_or_else(|| panic!("undeclared metric {name}"))
}

/// The `metrics` object of the result line, in declaration order.
pub fn metrics_json<'a>(values: impl IntoIterator<Item = (&'a str, f64)>) -> Json {
    obj(values.into_iter().map(|(name, value)| {
        (
            name,
            obj([
                ("value", Json::Num(value)),
                ("unit", Json::Str(unit_of(name).to_string())),
            ]),
        )
    }))
}

pub fn layers_json(layers: &Layers) -> Json {
    metrics_json(
        PER_LAYER
            .iter()
            .map(|&(name, _, _)| (name, layers.get(name))),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    /// `BENCHMARK.json` and the code must name the same workloads and metrics
    /// with the same units, directions and bounds.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc =
            crate::json::parse_json(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
                .expect("parse BENCHMARK.json");
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_array)
                .expect(key)
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(Json::as_str)
                        .expect("name")
                        .to_string()
                })
                .collect()
        };
        assert_eq!(
            names("workloads"),
            WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
        );
        assert_eq!(
            names("end_to_end"),
            END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        assert_eq!(
            names("per_layer"),
            PER_LAYER.iter().map(|m| m.0).collect::<Vec<_>>()
        );
        for (entry, m) in doc
            .get("end_to_end")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .zip(&END_TO_END)
        {
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(m.unit));
            assert_eq!(entry.get("better").and_then(Json::as_str), Some("lower"));
            assert_eq!(entry.get("bound").and_then(Json::as_num), Some(m.bound));
        }
        for (entry, m) in doc
            .get("per_layer")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .zip(&PER_LAYER)
        {
            assert_eq!(
                entry.get("unit").and_then(Json::as_str),
                Some(m.1),
                "{}",
                m.0
            );
            assert_eq!(
                entry.get("better").and_then(Json::as_str),
                Some(m.2),
                "{}",
                m.0
            );
        }
        for (entry, w) in doc
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .zip(&WORKLOADS)
        {
            assert_eq!(entry.get("why").and_then(Json::as_str), Some(w.why));
        }
    }

    #[test]
    fn metric_names_are_unique_and_within_the_contract() {
        let mut all: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        assert!(all.iter().all(|n| n.len() <= 64
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))));
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), END_TO_END.len() + PER_LAYER.len());
    }
}
