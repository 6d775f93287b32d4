//! `PROF_*.json` serialization: schema-versioned render, validating
//! parse (the fuzzed ingest surface), and the human-readable report.
//!
//! Error phrasing contract (shared with the other fuzzed parsers):
//! entry-scoped problems carry a position (`profile spans entry N: …`);
//! envelope problems are document-level and start with
//! `profile document`.

use crate::profile::{ChainLink, Lane, Profile, SpanProfile};
use crate::{fmt_ns, PROF_KIND, PROF_SCHEMA_VERSION};
use std::fmt::Write as _;
use tc_obs::JsonValue;

impl Profile {
    /// Builds the schema-versioned JSON document.
    pub fn to_json(&self) -> JsonValue {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                JsonValue::obj([
                    ("name", JsonValue::str(s.name.as_str())),
                    ("count", JsonValue::from(s.count)),
                    ("total_ns", JsonValue::from(s.total_ns)),
                    ("self_ns", JsonValue::from(s.self_ns)),
                    ("child_ns", JsonValue::from(s.child_ns)),
                    ("min_ns", JsonValue::from(s.min_ns)),
                    ("max_ns", JsonValue::from(s.max_ns)),
                    ("p50_ns", JsonValue::from(s.p50_ns)),
                    ("p90_ns", JsonValue::from(s.p90_ns)),
                    ("p99_ns", JsonValue::from(s.p99_ns)),
                    ("net_bytes", JsonValue::from(s.net_bytes)),
                ])
            })
            .collect();
        let lanes = self
            .lanes
            .iter()
            .map(|l| {
                JsonValue::obj([
                    ("tid", JsonValue::from(l.tid)),
                    ("name", JsonValue::str(l.name.as_str())),
                    ("busy_ns", JsonValue::from(l.busy_ns)),
                    ("idle_ns", JsonValue::from(l.idle_ns)),
                ])
            })
            .collect();
        let chain = self
            .critical_chain
            .iter()
            .map(|c| {
                JsonValue::obj([
                    ("name", JsonValue::str(c.name.as_str())),
                    ("self_ns", JsonValue::from(c.self_ns)),
                ])
            })
            .collect();
        JsonValue::obj([
            ("schema_version", JsonValue::from(PROF_SCHEMA_VERSION)),
            ("kind", JsonValue::str(PROF_KIND)),
            ("workload", JsonValue::str(self.workload.as_str())),
            ("wall_ns", JsonValue::from(self.wall_ns)),
            ("attributed_ns", JsonValue::from(self.attributed_ns)),
            ("dropped_events", JsonValue::from(self.dropped_events)),
            ("unmatched_ends", JsonValue::from(self.unmatched_ends)),
            ("open_spans", JsonValue::from(self.open_spans)),
            ("spans", JsonValue::Arr(spans)),
            ("lanes", JsonValue::Arr(lanes)),
            ("critical_chain", JsonValue::Arr(chain)),
            ("critical_chain_ns", JsonValue::from(self.critical_chain_ns)),
        ])
    }

    /// Compact JSON text of [`Profile::to_json`].
    pub fn render_json(&self) -> String {
        self.to_json().render()
    }

    /// Parses and validates a `PROF_*.json` document. The inverse of
    /// [`Profile::render_json`]: parse-then-render is a fixpoint.
    ///
    /// # Errors
    ///
    /// Document-level messages (`profile document …`) for envelope
    /// problems, positioned messages (`profile spans entry N: …`) for
    /// entry problems. Validation enforces the accounting invariants
    /// the builder guarantees: `self + child = total`, monotone
    /// percentiles inside `[min, max]`, lanes that tile the wall, and a
    /// critical chain whose links name known spans and sum to
    /// `critical_chain_ns`.
    pub fn parse(text: &str) -> Result<Profile, String> {
        let doc =
            JsonValue::parse(text).map_err(|e| format!("profile document parse error: {e}"))?;
        Profile::from_json(&doc)
    }

    /// [`Profile::parse`] over an already-parsed document.
    ///
    /// # Errors
    ///
    /// As [`Profile::parse`], minus the JSON syntax errors.
    pub fn from_json(doc: &JsonValue) -> Result<Profile, String> {
        let JsonValue::Obj(top) = doc else {
            return Err("profile document is not an object".to_string());
        };
        let version = req_u64(top, "schema_version", "profile document")?;
        if version != PROF_SCHEMA_VERSION {
            return Err(format!(
                "profile document schema_version {version} unsupported (expected {PROF_SCHEMA_VERSION})"
            ));
        }
        let kind = req_str(top, "kind", "profile document")?;
        if kind != PROF_KIND {
            return Err(format!(
                "profile document kind \"{kind}\" is not \"{PROF_KIND}\""
            ));
        }
        let workload = req_str(top, "workload", "profile document")?;
        let wall_ns = req_u64(top, "wall_ns", "profile document")?;
        let attributed_ns = req_u64(top, "attributed_ns", "profile document")?;
        if attributed_ns > wall_ns {
            return Err("profile document attributed_ns exceeds wall_ns".to_string());
        }
        let dropped_events = req_u64(top, "dropped_events", "profile document")?;
        let unmatched_ends = req_u64(top, "unmatched_ends", "profile document")?;
        let open_spans = req_u64(top, "open_spans", "profile document")?;

        let raw_spans = req_arr(top, "spans", "profile document")?;
        let mut spans = Vec::with_capacity(raw_spans.len());
        for (i, entry) in raw_spans.iter().enumerate() {
            let ctx = format!("profile spans entry {i}");
            let JsonValue::Obj(fields) = entry else {
                return Err(format!("{ctx}: not an object"));
            };
            let s = SpanProfile {
                name: req_str(fields, "name", &ctx)?,
                count: req_u64(fields, "count", &ctx)?,
                total_ns: req_u64(fields, "total_ns", &ctx)?,
                self_ns: req_u64(fields, "self_ns", &ctx)?,
                child_ns: req_u64(fields, "child_ns", &ctx)?,
                min_ns: req_u64(fields, "min_ns", &ctx)?,
                max_ns: req_u64(fields, "max_ns", &ctx)?,
                p50_ns: req_u64(fields, "p50_ns", &ctx)?,
                p90_ns: req_u64(fields, "p90_ns", &ctx)?,
                p99_ns: req_u64(fields, "p99_ns", &ctx)?,
                net_bytes: req_i64(fields, "net_bytes", &ctx)?,
            };
            if s.name.is_empty() {
                return Err(format!("{ctx}: empty name"));
            }
            if spans.iter().any(|p: &SpanProfile| p.name == s.name) {
                return Err(format!("{ctx}: duplicate name \"{}\"", s.name));
            }
            if s.count == 0 {
                return Err(format!("{ctx}: zero count"));
            }
            if s.self_ns.checked_add(s.child_ns) != Some(s.total_ns) {
                return Err(format!("{ctx}: self_ns + child_ns != total_ns"));
            }
            if s.min_ns > s.max_ns {
                return Err(format!("{ctx}: min_ns exceeds max_ns"));
            }
            if s.max_ns > s.total_ns {
                return Err(format!("{ctx}: max_ns exceeds total_ns"));
            }
            if s.p50_ns > s.p90_ns || s.p90_ns > s.p99_ns {
                return Err(format!("{ctx}: percentiles not monotone"));
            }
            if s.p50_ns < s.min_ns || s.p99_ns > s.max_ns {
                return Err(format!("{ctx}: percentiles outside [min_ns, max_ns]"));
            }
            spans.push(s);
        }

        let raw_lanes = req_arr(top, "lanes", "profile document")?;
        let mut lanes = Vec::with_capacity(raw_lanes.len());
        for (i, entry) in raw_lanes.iter().enumerate() {
            let ctx = format!("profile lanes entry {i}");
            let JsonValue::Obj(fields) = entry else {
                return Err(format!("{ctx}: not an object"));
            };
            let l = Lane {
                tid: req_u64(fields, "tid", &ctx)?,
                name: req_str(fields, "name", &ctx)?,
                busy_ns: req_u64(fields, "busy_ns", &ctx)?,
                idle_ns: req_u64(fields, "idle_ns", &ctx)?,
            };
            if lanes.iter().any(|p: &Lane| p.tid == l.tid) {
                return Err(format!("{ctx}: duplicate tid {}", l.tid));
            }
            if l.busy_ns.checked_add(l.idle_ns) != Some(wall_ns) {
                return Err(format!("{ctx}: busy_ns + idle_ns != wall_ns"));
            }
            lanes.push(l);
        }

        let raw_chain = req_arr(top, "critical_chain", "profile document")?;
        let mut critical_chain = Vec::with_capacity(raw_chain.len());
        for (i, entry) in raw_chain.iter().enumerate() {
            let ctx = format!("profile critical_chain entry {i}");
            let JsonValue::Obj(fields) = entry else {
                return Err(format!("{ctx}: not an object"));
            };
            let link = ChainLink {
                name: req_str(fields, "name", &ctx)?,
                self_ns: req_u64(fields, "self_ns", &ctx)?,
            };
            let Some(span) = spans.iter().find(|s| s.name == link.name) else {
                return Err(format!("{ctx}: names unknown span \"{}\"", link.name));
            };
            if link.self_ns > span.self_ns {
                return Err(format!(
                    "{ctx}: self_ns exceeds the span's aggregate self_ns"
                ));
            }
            critical_chain.push(link);
        }
        let critical_chain_ns = req_u64(top, "critical_chain_ns", "profile document")?;
        let chain_sum: u64 = critical_chain.iter().map(|l| l.self_ns).sum();
        if chain_sum != critical_chain_ns {
            return Err(
                "profile document critical_chain_ns does not equal the chain's self_ns sum"
                    .to_string(),
            );
        }

        Ok(Profile {
            workload,
            wall_ns,
            attributed_ns,
            dropped_events,
            unmatched_ends,
            open_spans,
            spans,
            lanes,
            critical_chain,
            critical_chain_ns,
        })
    }

    /// Human-readable report: header, top spans by self time, lanes,
    /// critical chain. `top` bounds the span table (0 = all).
    pub fn render_text(&self, top: usize) -> String {
        let mut out = String::new();
        let label = if self.workload.is_empty() {
            "(unlabeled)"
        } else {
            &self.workload
        };
        let _ = writeln!(out, "profile: {label}");
        let _ = writeln!(
            out,
            "wall {} · attributed {} ({:.1}%) · parallelism {:.2}x · {} lane(s)",
            fmt_ns(self.wall_ns),
            fmt_ns(self.attributed_ns),
            self.coverage() * 100.0,
            self.parallelism(),
            self.lanes.len(),
        );
        if self.dropped_events > 0 {
            let _ = writeln!(
                out,
                "WARNING: {} trace event(s) dropped to ring overflow — self-time below is \
                 truncated; raise the enable_trace capacity",
                self.dropped_events
            );
        }
        if self.unmatched_ends > 0 || self.open_spans > 0 {
            let _ = writeln!(
                out,
                "note: {} unmatched end(s), {} span(s) still open at trace end",
                self.unmatched_ends, self.open_spans
            );
        }
        let shown = if top == 0 {
            self.spans.len()
        } else {
            top.min(self.spans.len())
        };
        let _ = writeln!(
            out,
            "\n{:<32} {:>7} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "span", "count", "total", "self", "child", "p50", "p99", "net"
        );
        for s in &self.spans[..shown] {
            let _ = writeln!(
                out,
                "{:<32} {:>7} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
                s.name,
                s.count,
                fmt_ns(s.total_ns),
                fmt_ns(s.self_ns),
                fmt_ns(s.child_ns),
                fmt_ns(s.p50_ns),
                fmt_ns(s.p99_ns),
                tc_obs::fmt_bytes(s.net_bytes),
            );
        }
        if shown < self.spans.len() {
            let _ = writeln!(out, "… {} more span(s)", self.spans.len() - shown);
        }
        let _ = writeln!(out, "\nlanes:");
        for l in &self.lanes {
            let pct = if self.wall_ns == 0 {
                100.0
            } else {
                l.busy_ns as f64 / self.wall_ns as f64 * 100.0
            };
            let _ = writeln!(
                out,
                "  tid {:<3} {:<12} busy {:>10} ({:5.1}%)  idle {:>10}",
                l.tid,
                l.name,
                fmt_ns(l.busy_ns),
                pct,
                fmt_ns(l.idle_ns),
            );
        }
        if !self.critical_chain.is_empty() {
            let path: Vec<&str> = self
                .critical_chain
                .iter()
                .map(|c| c.name.as_str())
                .collect();
            let _ = writeln!(
                out,
                "\ncritical chain ({}): {}",
                fmt_ns(self.critical_chain_ns),
                path.join(" > ")
            );
        }
        out
    }
}

fn get<'a>(pairs: &'a [(String, JsonValue)], key: &str) -> Option<&'a JsonValue> {
    pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn req_num(pairs: &[(String, JsonValue)], key: &str, ctx: &str) -> Result<f64, String> {
    match get(pairs, key) {
        Some(JsonValue::Num(x)) if x.is_finite() => Ok(*x),
        Some(_) => Err(format!("{ctx}: field {key} is not a finite number")),
        None => Err(format!("{ctx}: missing field {key}")),
    }
}

fn req_u64(pairs: &[(String, JsonValue)], key: &str, ctx: &str) -> Result<u64, String> {
    let x = req_num(pairs, key, ctx)?;
    if x < 0.0 || x.fract() != 0.0 || x > 9.0e15 {
        return Err(format!(
            "{ctx}: field {key} is not a non-negative integer in range"
        ));
    }
    Ok(x as u64)
}

fn req_i64(pairs: &[(String, JsonValue)], key: &str, ctx: &str) -> Result<i64, String> {
    let x = req_num(pairs, key, ctx)?;
    if x.fract() != 0.0 || x.abs() > 9.0e15 {
        return Err(format!("{ctx}: field {key} is not an integer in range"));
    }
    Ok(x as i64)
}

fn req_str(pairs: &[(String, JsonValue)], key: &str, ctx: &str) -> Result<String, String> {
    match get(pairs, key) {
        Some(JsonValue::Str(s)) => Ok(s.clone()),
        Some(_) => Err(format!("{ctx}: field {key} is not a string")),
        None => Err(format!("{ctx}: missing field {key}")),
    }
}

fn req_arr<'a>(
    pairs: &'a [(String, JsonValue)],
    key: &str,
    ctx: &str,
) -> Result<&'a [JsonValue], String> {
    match get(pairs, key) {
        Some(JsonValue::Arr(items)) => Ok(items),
        Some(_) => Err(format!("{ctx}: field {key} is not an array")),
        None => Err(format!("{ctx}: missing field {key}")),
    }
}
