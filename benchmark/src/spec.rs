//! What the benchmark measures, by name. `BENCHMARK.json` at the repo
//! root is the single source of units, directions and bounds (it is
//! embedded at compile time); the tables here say where each per-layer
//! number comes from, and the tests hold the two in agreement.

use tc_obs::JsonValue;

use crate::json::{as_f64, as_str, get, items};

/// The contract file, embedded so `compare` and the runner need no
/// path to it at run time.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Workload names (normative: later issues cite them).
pub const WORKLOADS: [&str; 4] = [
    "closure_files_50k",
    "signoff_mcmm_200k",
    "eco_storm_200k",
    "char_cells",
];

/// End-to-end metrics every untraced run reports.
pub const END_TO_END: [&str; 5] = [
    "setup_s",
    "pass_wall_s",
    "first_report_s",
    "report_tail_s",
    "rss_at_first_report_mb",
];

/// Where a per-layer metric's value comes from in the traced run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// Fastest occurrence of the named `bench.*` span, seconds — a
    /// call made once per pass, reduced like the end-to-end metrics.
    SpanFastestS(&'static str),
    /// Median occurrence of the named span, microseconds — a call made
    /// once per edit, thousands of times.
    SpanP50Us(&'static str),
    /// 99th-percentile occurrence of the named span, microseconds.
    SpanP99Us(&'static str),
    /// Computed by the workload from spans, counts and sizes.
    Derived,
}

use Source::{Derived, SpanFastestS, SpanP50Us, SpanP99Us};

/// Per-layer metrics every traced run reports (0 = the workload does
/// not exercise that layer), in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, Source); 46] = [
    ("netlist.generate_s", SpanFastestS("bench.netlist.generate")),
    (
        "netlist.parse_verilog_s",
        SpanFastestS("bench.netlist.parse_verilog"),
    ),
    ("netlist.parse_verilog_mb_per_s", Derived),
    (
        "netlist.edit_apply_us_p50",
        SpanP50Us("bench.netlist.edit_apply"),
    ),
    ("netlist.undo_us_p50", SpanP50Us("bench.netlist.undo")),
    (
        "interconnect.parse_spef_s",
        SpanFastestS("bench.interconnect.parse_spef"),
    ),
    ("interconnect.parse_spef_mb_per_s", Derived),
    ("liberty.parse_s", SpanFastestS("bench.liberty.parse")),
    (
        "liberty.generate_x8_s",
        SpanFastestS("bench.liberty.generate_x8"),
    ),
    ("lint.run_s", SpanFastestS("bench.lint.run")),
    ("lint.ns_per_cell", Derived),
    ("sta.graph_build_s", SpanFastestS("bench.sta.graph_build")),
    ("sta.graph_build_ns_per_cell", Derived),
    ("sta.timer_new_s", SpanFastestS("bench.sta.timer_new")),
    ("sta.full_s", SpanFastestS("bench.sta.full")),
    ("sta.full_ns_per_arc", Derived),
    ("sta.full_mcells_per_s", Derived),
    ("sta.full_allocs_per_cell", Derived),
    ("sta.pba_s", SpanFastestS("bench.sta.pba")),
    ("sta.worst_paths_s", SpanFastestS("bench.sta.worst_paths")),
    (
        "sta.merge_reports_s",
        SpanFastestS("bench.sta.merge_reports"),
    ),
    ("sta.update_us_p50", SpanP50Us("bench.sta.update")),
    ("sta.update_us_p99", SpanP99Us("bench.sta.update")),
    (
        "sta.update_structural_us_p50",
        SpanP50Us("bench.sta.update_structural"),
    ),
    (
        "sta.update_param_us_p50",
        SpanP50Us("bench.sta.update_param"),
    ),
    ("sta.report_us_p50", SpanP50Us("bench.sta.report")),
    ("sta.checkpoint_us_p50", SpanP50Us("bench.sta.checkpoint")),
    ("sta.rollback_us_p50", SpanP50Us("bench.sta.rollback")),
    (
        "signoff.corner_set_s",
        SpanFastestS("bench.signoff.corner_set"),
    ),
    ("signoff.corner_s", Derived),
    (
        "par.corner_set_2w_s",
        SpanFastestS("bench.par.corner_set_2w"),
    ),
    ("par.speedup_2w", Derived),
    ("closure.run_s", SpanFastestS("bench.closure.run")),
    ("closure.iter_s_p50", Derived),
    ("closure.iterations", Derived),
    ("closure.edits", Derived),
    (
        "clock.useful_skew_s",
        SpanFastestS("bench.clock.useful_skew"),
    ),
    (
        "sim.characterize_inv_s",
        SpanFastestS("bench.sim.characterize_inv"),
    ),
    (
        "sim.characterize_nand2_s",
        SpanFastestS("bench.sim.characterize_nand2"),
    ),
    (
        "sim.characterize_ff_s",
        SpanFastestS("bench.sim.characterize_ff"),
    ),
    ("sim.mis_study_s", SpanFastestS("bench.sim.mis_study")),
    ("sim.us_per_timestep", Derived),
    ("obs.trace_overhead_pct", Derived),
    ("obs.span_coverage_pct", Derived),
    ("obs.trace_events", Derived),
    ("mem.heap_bytes_per_cell", Derived),
];

/// One metric as `BENCHMARK.json` declares it.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricDecl {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the parent's median the metric may worsen by
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parsed contract file.
#[derive(Clone, Debug)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDecl>,
    pub per_layer: Vec<MetricDecl>,
}

impl Spec {
    /// Parses the embedded `BENCHMARK.json`.
    ///
    /// # Panics
    ///
    /// On a malformed contract file — a broken build input, caught by
    /// the unit tests, not a run-time condition.
    pub fn load() -> Spec {
        let doc = JsonValue::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let decls = |key: &str| -> Vec<MetricDecl> {
            items(get(&doc, key).expect("metric list"))
                .iter()
                .map(|m| MetricDecl {
                    name: as_str(get(m, "name").expect("name")).to_string(),
                    unit: as_str(get(m, "unit").expect("unit")).to_string(),
                    lower_is_better: as_str(get(m, "better").expect("better")) == "lower",
                    bound: get(m, "bound").map(as_f64),
                })
                .collect()
        };
        Spec {
            run_seconds: as_f64(get(&doc, "run_seconds").expect("run_seconds")),
            workloads: items(get(&doc, "workloads").expect("workloads"))
                .iter()
                .map(|w| as_str(get(w, "name").expect("name")).to_string())
                .collect(),
            end_to_end: decls("end_to_end"),
            per_layer: decls("per_layer"),
        }
    }

    /// The declared unit of a metric of either kind.
    pub fn unit(&self, name: &str) -> &str {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
            .map_or("", |m| m.unit.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    #[test]
    fn every_name_is_well_formed_and_unique() {
        let mut all: Vec<&str> = WORKLOADS.to_vec();
        all.extend(END_TO_END);
        all.extend(PER_LAYER.iter().map(|(n, _)| *n));
        for n in &all {
            assert!(well_formed(n), "bad name {n:?}");
        }
        let mut dedup = all.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len(), "a name is used twice");
        assert!(!well_formed(".leading") && !well_formed("has space") && !well_formed(""));
    }

    #[test]
    fn runner_names_and_contract_names_agree_both_ways() {
        let spec = Spec::load();
        assert_eq!(spec.workloads, WORKLOADS);
        let e2e: Vec<&str> = spec.end_to_end.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(e2e, END_TO_END);
        let layer: Vec<&str> = spec.per_layer.iter().map(|m| m.name.as_str()).collect();
        let table: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(layer, table);
    }

    #[test]
    fn contract_limits_hold() {
        let spec = Spec::load();
        assert!((1.0..=60.0).contains(&spec.run_seconds) && spec.run_seconds.fract() == 0.0);
        assert!((2..=8).contains(&spec.workloads.len()));
        assert!((1..=16).contains(&spec.end_to_end.len()));
        assert!((1..=128).contains(&spec.per_layer.len()));
        for m in &spec.end_to_end {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{}: bound {b}", m.name);
        }
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = &spec.end_to_end[0];
        assert_eq!(
            (
                setup.name.as_str(),
                setup.unit.as_str(),
                setup.lower_is_better
            ),
            ("setup_s", "s", true)
        );
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit.bytes().all(|b| b.is_ascii_alphanumeric()
                        || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-')),
                "{}: unit {:?}",
                m.name,
                m.unit
            );
        }
        assert_eq!(spec.unit("sta.full_ns_per_arc"), "ns");
    }

    #[test]
    fn span_sources_are_bench_spans() {
        for (name, src) in PER_LAYER {
            if let SpanFastestS(s) | SpanP50Us(s) | SpanP99Us(s) = src {
                assert!(s.starts_with("bench."), "{name}: {s}");
            }
        }
    }
}
