//! Snapshot types and exporters: a human-readable flame-style text
//! report, and machine-readable JSON.

use crate::json::JsonValue;
use crate::metrics::{bucket_range, HistData, BUCKETS};

/// Aggregated timing for one span path.
#[derive(Clone, Debug)]
pub struct SpanSnapshot {
    /// `/`-joined hierarchy path, e.g. `closure.iteration/sta.gba`.
    pub path: String,
    /// Number of times the span closed.
    pub count: u64,
    /// Total wall-clock nanoseconds across occurrences.
    pub total_ns: u64,
    /// Fastest single occurrence, ns.
    pub min_ns: u64,
    /// Slowest single occurrence, ns.
    pub max_ns: u64,
    /// Summed net heap bytes across occurrences (0 unless memory
    /// counting was on — see [`crate::enable_memory`]).
    pub net_bytes: i64,
    /// Largest single-occurrence growth of the monotonic heap peak.
    pub peak_bytes: u64,
}

impl SpanSnapshot {
    /// Nesting depth (0 = root span).
    pub fn depth(&self) -> usize {
        self.path.matches('/').count()
    }

    /// The span's own name (last path segment).
    pub fn name(&self) -> &str {
        self.path.rsplit('/').next().unwrap_or(&self.path)
    }

    /// The parent path, if nested.
    pub fn parent(&self) -> Option<&str> {
        self.path.rsplit_once('/').map(|(p, _)| p)
    }

    /// Total milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.total_ns as f64 / 1e6
    }

    /// Mean microseconds per occurrence.
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e3
        }
    }
}

/// Renders a byte count as a compact human string (`1.5 MB`, `-320 B`).
pub fn fmt_bytes(bytes: i64) -> String {
    let sign = if bytes < 0 { "-" } else { "" };
    let b = bytes.unsigned_abs() as f64;
    if b >= 1e9 {
        format!("{sign}{:.2} GB", b / 1e9)
    } else if b >= 1e6 {
        format!("{sign}{:.2} MB", b / 1e6)
    } else if b >= 1e3 {
        format!("{sign}{:.1} kB", b / 1e3)
    } else {
        format!("{sign}{b:.0} B")
    }
}

/// One histogram's aggregate view.
#[derive(Clone, Debug)]
pub struct HistogramSnapshot {
    /// Histogram name.
    pub name: String,
    /// Sample count.
    pub count: u64,
    /// Sum of samples.
    pub sum: f64,
    /// Smallest sample (∞ when empty).
    pub min: f64,
    /// Largest sample (−∞ when empty).
    pub max: f64,
    /// Non-empty `(lo, hi, count)` log₂ buckets.
    pub buckets: Vec<(f64, f64, u64)>,
}

impl HistogramSnapshot {
    pub(crate) fn from_data(name: String, d: &HistData) -> Self {
        let mut buckets = Vec::new();
        for i in 0..BUCKETS {
            if d.buckets[i] > 0 {
                let (lo, hi) = bucket_range(i);
                buckets.push((lo, hi, d.buckets[i]));
            }
        }
        HistogramSnapshot {
            name,
            count: d.count,
            sum: d.sum,
            min: d.min,
            max: d.max,
            buckets,
        }
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Estimated `q`-quantile (`0.0..=1.0`) by linear interpolation
    /// inside the log₂ bucket holding the target rank, clamped to the
    /// exact observed `[min, max]`. Returns 0 when empty.
    ///
    /// Bucket resolution bounds the error: within a bucket the samples
    /// are assumed uniform, so the estimate is exact at bucket edges
    /// and at worst off by one bucket width.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = q * self.count as f64;
        let mut cum = 0.0;
        for &(lo, hi, n) in &self.buckets {
            let next = cum + n as f64;
            if next >= target {
                let frac = if n == 0 {
                    0.0
                } else {
                    ((target - cum) / n as f64).clamp(0.0, 1.0)
                };
                let est = lo + (hi - lo) * frac;
                return est.clamp(self.min, self.max);
            }
            cum = next;
        }
        self.max
    }

    /// Median estimate (see [`quantile`](Self::quantile)).
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate.
    pub fn p90(&self) -> f64 {
        self.quantile(0.90)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

/// A consistent point-in-time view of all recorded metrics.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Span stats sorted by path.
    pub spans: Vec<SpanSnapshot>,
    /// `(name, value)` counters sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Histogram aggregates sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
}

impl Snapshot {
    /// Value of the named counter (0 if never registered).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    }

    /// The span aggregated at exactly `path`.
    pub fn span(&self, path: &str) -> Option<&SpanSnapshot> {
        self.spans.iter().find(|s| s.path == path)
    }

    /// Spans whose own name (last segment) equals `name`, at any depth.
    pub fn spans_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a SpanSnapshot> {
        self.spans.iter().filter(move |s| s.name() == name)
    }

    /// Per-counter increase since `earlier` (saturating; counters absent
    /// earlier count from zero). Unchanged counters are omitted.
    pub fn counter_deltas(&self, earlier: &Snapshot) -> Vec<(String, u64)> {
        self.counters
            .iter()
            .filter_map(|(name, now)| {
                let before = earlier.counter(name);
                let d = now.saturating_sub(before);
                (d > 0).then(|| (name.clone(), d))
            })
            .collect()
    }

    /// Per-span-path increase of total wall time since `earlier`
    /// (saturating; spans absent earlier count from zero). Unchanged
    /// spans are omitted. The span analogue of [`counter_deltas`] —
    /// used by the closure loop to attribute each iteration's wall
    /// clock to the spans that consumed it.
    ///
    /// [`counter_deltas`]: Snapshot::counter_deltas
    pub fn span_ns_deltas(&self, earlier: &Snapshot) -> Vec<(String, u64)> {
        self.spans
            .iter()
            .filter_map(|s| {
                let before = earlier.span(&s.path).map_or(0, |p| p.total_ns);
                let d = s.total_ns.saturating_sub(before);
                (d > 0).then(|| (s.path.clone(), d))
            })
            .collect()
    }

    /// Renders the flame-style text report: spans indented by nesting
    /// depth with count/total/mean and percent-of-parent, then counters,
    /// then histograms. A non-zero `obs.trace.dropped` counter (ring
    /// overflow) opens the report with an explicit warning: any profile
    /// derived from that trace is truncated.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let dropped = self.counter("obs.trace.dropped");
        if dropped > 0 {
            out.push_str(&format!(
                "WARNING: {dropped} trace event(s) dropped to ring overflow — flight-recorder \
                 output is truncated; raise the enable_trace capacity\n"
            ));
        }
        if !self.spans.is_empty() {
            out.push_str("spans (wall clock)\n");
            for s in &self.spans {
                let pct = s
                    .parent()
                    .and_then(|p| self.span(p))
                    .filter(|p| p.total_ns > 0)
                    .map(|p| 100.0 * s.total_ns as f64 / p.total_ns as f64);
                let indent = "  ".repeat(s.depth());
                let bar = match pct {
                    Some(p) => format!(" {:>5.1}% of parent", p),
                    None => String::new(),
                };
                let heap = if s.net_bytes != 0 || s.peak_bytes != 0 {
                    format!(
                        "  heap net {} peak +{}",
                        fmt_bytes(s.net_bytes),
                        fmt_bytes(s.peak_bytes as i64)
                    )
                } else {
                    String::new()
                };
                out.push_str(&format!(
                    "  {indent}{:<width$} {:>7}x {:>10.3} ms  mean {:>9.1} us{bar}{heap}\n",
                    s.name(),
                    s.count,
                    s.total_ms(),
                    s.mean_us(),
                    width = 28usize.saturating_sub(indent.len()),
                ));
            }
        }
        if !self.counters.is_empty() {
            out.push_str("counters\n");
            for (name, v) in &self.counters {
                out.push_str(&format!("  {name:<34} {v}\n"));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms\n");
            for h in &self.histograms {
                out.push_str(&format!(
                    "  {:<34} n={} mean={:.2} min={:.2} p50={:.2} p90={:.2} p99={:.2} max={:.2}\n",
                    h.name,
                    h.count,
                    h.mean(),
                    h.min,
                    h.p50(),
                    h.p90(),
                    h.p99(),
                    h.max
                ));
                for &(lo, hi, n) in &h.buckets {
                    out.push_str(&format!("    [{lo:>8.0}, {hi:>8.0})  {n}\n"));
                }
            }
        }
        if out.is_empty() {
            out.push_str("(no metrics recorded — is tc_obs::enable() on?)\n");
        }
        out
    }

    /// The snapshot as one [`JsonValue`] object (embeddable in larger
    /// documents, e.g. a figure harness's JSON sidecar).
    pub fn to_json_value(&self) -> JsonValue {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                JsonValue::obj([
                    ("path", JsonValue::str(&s.path)),
                    ("count", JsonValue::from(s.count)),
                    ("total_ns", JsonValue::from(s.total_ns)),
                    ("min_ns", JsonValue::from(s.min_ns)),
                    ("max_ns", JsonValue::from(s.max_ns)),
                    ("net_bytes", JsonValue::from(s.net_bytes)),
                    ("peak_bytes", JsonValue::from(s.peak_bytes)),
                ])
            })
            .collect();
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), JsonValue::from(*v)))
            .collect::<Vec<_>>();
        let hists = self
            .histograms
            .iter()
            .map(|h| {
                let buckets = h
                    .buckets
                    .iter()
                    .map(|&(lo, hi, n)| {
                        JsonValue::Arr(vec![
                            JsonValue::from(lo),
                            JsonValue::from(hi),
                            JsonValue::from(n),
                        ])
                    })
                    .collect();
                JsonValue::obj([
                    ("name", JsonValue::str(&h.name)),
                    ("count", JsonValue::from(h.count)),
                    ("sum", JsonValue::from(h.sum)),
                    ("min", JsonValue::from(h.min)),
                    ("p50", JsonValue::from(h.p50())),
                    ("p90", JsonValue::from(h.p90())),
                    ("p99", JsonValue::from(h.p99())),
                    ("max", JsonValue::from(h.max)),
                    ("buckets", JsonValue::Arr(buckets)),
                ])
            })
            .collect();
        JsonValue::obj([
            ("spans", JsonValue::Arr(spans)),
            ("counters", JsonValue::Obj(counters)),
            ("histograms", JsonValue::Arr(hists)),
        ])
    }

    /// Single-document JSON.
    pub fn to_json(&self) -> String {
        self.to_json_value().render()
    }
}
