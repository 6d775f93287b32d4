//! The committed exact fields (`expected.json`, recorded at the default
//! seed): WNS/TNS bit patterns, closure counts, the merged-report
//! fingerprint and the NLDM checksum. They repeat exactly on one
//! toolchain and must be identical between any two commits; to re-record
//! after a deliberate behaviour change, copy the `exact` object of a
//! default-seed `out/result.json` (see the README).

use tc_obs::JsonValue;

use crate::json::path;

const EXPECTED_JSON: &str = include_str!("../expected.json");

/// The exact fields recorded for `workload`.
pub fn for_workload(workload: &str) -> Option<JsonValue> {
    let doc = JsonValue::parse(EXPECTED_JSON).ok()?;
    path(&doc, &["exact", workload]).cloned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    #[test]
    fn every_workload_has_recorded_exact_fields() {
        for w in WORKLOADS {
            let exact = for_workload(w).unwrap_or_else(|| panic!("expected.json lacks {w}"));
            assert!(!crate::json::members(&exact).is_empty(), "{w}: empty");
        }
    }
}
