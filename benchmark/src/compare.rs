//! `compare <a.json> <b.json>`: holds two `result.json` files against
//! the bounds `BENCHMARK.json` fixes. One row per (workload, end-to-end
//! metric); a metric whose median pass sat further above its fastest
//! than the bound, on either side, came from a disturbed run and is
//! *unresolved*, not unchanged. Exact fields (counts, bit
//! patterns, fingerprints) must not differ at all.

use std::path::Path;

use tc_obs::JsonValue;

use crate::json::{as_f64, get, members, path};
use crate::spec::{MetricDecl, Spec};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    Unresolved,
}

/// One side's reading of one metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Reading {
    pub value: f64,
    /// (median − fastest) / fastest over the run's own passes.
    pub spread: f64,
}

/// `b` against `a` for a metric with the given direction and bound.
pub fn verdict(decl: &MetricDecl, a: Reading, b: Reading) -> Verdict {
    let bound = decl.bound.unwrap_or(0.0);
    // Written so that NaN (a missing metric) fails it: a missing number
    // must not pass for "same".
    let resolved = a.spread <= bound && b.spread <= bound && a.value > 0.0 && b.value.is_finite();
    if !resolved {
        return Verdict::Unresolved;
    }
    let change = (b.value - a.value) / a.value;
    let worsening = if decl.lower_is_better {
        change
    } else {
        -change
    };
    if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn reading(result: &JsonValue, workload: &str, metric: &str) -> Reading {
    let m = path(result, &["workloads", workload, "end_to_end", metric]);
    let field = |key: &str| m.and_then(|m| get(m, key)).map_or(f64::NAN, as_f64);
    let value = field("value");
    Reading {
        value,
        spread: (field("median") - value) / value,
    }
}

fn load(file: &Path) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(file).map_err(|e| format!("{}: {e}", file.display()))?;
    JsonValue::parse(&text).map_err(|e| format!("{}: {e}", file.display()))
}

pub fn run(a: &Path, b: &Path) -> u8 {
    let (a, b) = match (load(a), load(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let spec = Spec::load();
    let mut worse = 0;
    println!(
        "{:<20} {:<16} {:>14} {:>14} {:>8} {:>8} {:>7} {:>6}  verdict",
        "workload", "metric", "a", "b", "spread a", "spread b", "change", "bound"
    );
    for w in &spec.workloads {
        for decl in &spec.end_to_end {
            let (ra, rb) = (reading(&a, w, &decl.name), reading(&b, w, &decl.name));
            let v = verdict(decl, ra, rb);
            worse += usize::from(v == Verdict::Worse);
            println!(
                "{w:<20} {:<16} {:>14.6} {:>14.6} {:>7.1}% {:>7.1}% {:>+6.1}% {:>5.0}%  {}",
                decl.name,
                ra.value,
                rb.value,
                100.0 * ra.spread,
                100.0 * rb.spread,
                100.0 * (rb.value - ra.value) / ra.value,
                100.0 * decl.bound.unwrap_or(0.0),
                format!("{v:?}").to_lowercase(),
            );
        }
    }

    let mut differing = 0;
    for w in &spec.workloads {
        let side = |r: &JsonValue| path(r, &["exact", w]).cloned().unwrap_or(JsonValue::Null);
        let (ea, eb) = (side(&a), side(&b));
        for (key, va) in members(&ea) {
            let vb = get(&eb, key);
            if vb != Some(va) {
                differing += 1;
                println!(
                    "EXACT FIELD DIFFERS {w} {key}: {} vs {}",
                    va.render(),
                    vb.map_or_else(|| "missing".to_string(), JsonValue::render)
                );
            }
        }
        differing += usize::from(members(&ea).len() != members(&eb).len());
    }
    println!("{worse} worse, {differing} exact field(s) differ");
    u8::from(worse > 0 || differing > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decl(lower: bool) -> MetricDecl {
        MetricDecl {
            name: "m".into(),
            unit: "s".into(),
            lower_is_better: lower,
            bound: Some(0.1),
        }
    }

    fn r(value: f64, spread: f64) -> Reading {
        Reading { value, spread }
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let lower = decl(true);
        assert_eq!(verdict(&lower, r(1.0, 0.0), r(1.05, 0.0)), Verdict::Same);
        assert_eq!(verdict(&lower, r(1.0, 0.0), r(1.2, 0.0)), Verdict::Worse);
        assert_eq!(verdict(&lower, r(1.0, 0.0), r(0.8, 0.0)), Verdict::Better);
        let higher = decl(false);
        assert_eq!(verdict(&higher, r(1.0, 0.0), r(1.2, 0.0)), Verdict::Better);
        assert_eq!(verdict(&higher, r(1.0, 0.0), r(0.8, 0.0)), Verdict::Worse);
    }

    #[test]
    fn wide_spread_or_missing_value_is_unresolved() {
        let d = decl(true);
        assert_eq!(verdict(&d, r(1.0, 0.2), r(2.0, 0.0)), Verdict::Unresolved);
        assert_eq!(verdict(&d, r(1.0, 0.0), r(2.0, 0.2)), Verdict::Unresolved);
        assert_eq!(
            verdict(&d, r(f64::NAN, f64::NAN), r(1.0, 0.0)),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&d, r(1.0, 0.0), r(f64::NAN, f64::NAN)),
            Verdict::Unresolved
        );
    }
}
