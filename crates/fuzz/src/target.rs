//! Fuzz targets: one `check` entry per ingest surface, plus the shared
//! environment (library, BEOL stack, base netlist, seed corpora).

use std::panic::{catch_unwind, AssertUnwindSafe};

use tc_core::error::Error;
use tc_interconnect::beol::BeolStack;
use tc_interconnect::estimate::{NdrClass, WireModel};
use tc_interconnect::spef::{parse_spef_from, write_spef, NetParasitics};
use tc_liberty::libfile::{parse_liberty, write_liberty};
use tc_liberty::{LibConfig, Library, PvtCorner};
use tc_lint::graph_rules::check_journal;
use tc_lint::{decode_waivers, lint_liberty_source, lint_verilog_source, render_waivers, Waiver};
use tc_netlist::gen::{generate, BenchProfile};
use tc_netlist::{
    decode_journal, parse_verilog_from, render_cmds, replay_journal, write_journal, write_verilog,
    Netlist,
};
use tc_obs::{JsonValue, RunArtifact};

/// The eight ingest surfaces the harness drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TargetKind {
    /// Sensitivity-SPEF parasitics (`parse_spef_from`).
    Spef,
    /// Structural Verilog (`parse_verilog_from`, and `tc-lint`'s source
    /// scan over the same bytes).
    Verilog,
    /// Liberty subset (`parse_liberty`, and `tc-lint`'s table rules over
    /// the same bytes).
    Liberty,
    /// JSON documents (`JsonValue::parse`).
    Json,
    /// ECO journal text (`decode_journal` + transactional replay, and
    /// `tc-lint`'s `TCL0501` over the same commands).
    Journal,
    /// tcdiff sidecar loading (`JsonValue::parse` + `diff`, field-wise and
    /// span-wise, + `Profile::from_chrome_trace` for traces).
    Tcdiff,
    /// Lint waiver/baseline files (`decode_waivers` + `render_waivers`).
    Waiver,
    /// `PROF_*.json` span-profile sidecars (`Profile::parse`).
    Prof,
}

impl TargetKind {
    /// Every target, in canonical order.
    pub const ALL: [TargetKind; 8] = [
        TargetKind::Spef,
        TargetKind::Verilog,
        TargetKind::Liberty,
        TargetKind::Json,
        TargetKind::Journal,
        TargetKind::Tcdiff,
        TargetKind::Waiver,
        TargetKind::Prof,
    ];

    /// CLI/corpus-directory name.
    pub fn name(self) -> &'static str {
        match self {
            TargetKind::Spef => "spef",
            TargetKind::Verilog => "verilog",
            TargetKind::Liberty => "liberty",
            TargetKind::Json => "json",
            TargetKind::Journal => "journal",
            TargetKind::Tcdiff => "tcdiff",
            TargetKind::Waiver => "waiver",
            TargetKind::Prof => "prof",
        }
    }

    /// Parses a CLI/corpus-directory name.
    pub fn from_name(s: &str) -> Option<TargetKind> {
        TargetKind::ALL.into_iter().find(|t| t.name() == s)
    }
}

/// An invariant breach found by [`Env::check`].
#[derive(Clone, Debug)]
pub enum Violation {
    /// The parser panicked; payload message attached.
    Panic(String),
    /// The parser returned an `Err` with no line/byte/entry position.
    ContextFreeError(String),
    /// An accepted input failed the emit→reparse fixpoint (or a replay
    /// left the netlist inconsistent).
    RoundtripMismatch(String),
    /// The parser and the lint pass that read the same bytes through
    /// the same reader drew contradictory conclusions.
    ConsumerDisagreement(String),
}

impl Violation {
    /// Short kind tag for dedup keys and filenames.
    pub fn kind(&self) -> &'static str {
        match self {
            Violation::Panic(_) => "panic",
            Violation::ContextFreeError(_) => "context-free-error",
            Violation::RoundtripMismatch(_) => "roundtrip-mismatch",
            Violation::ConsumerDisagreement(_) => "consumer-disagreement",
        }
    }

    /// The attached message.
    pub fn message(&self) -> &str {
        match self {
            Violation::Panic(m)
            | Violation::ContextFreeError(m)
            | Violation::RoundtripMismatch(m)
            | Violation::ConsumerDisagreement(m) => m,
        }
    }
}

/// Outcome of driving one input through one target.
#[derive(Clone, Debug)]
pub enum Verdict {
    /// Parsed successfully and every invariant held.
    Accepted,
    /// Rejected with a properly positioned error.
    Rejected,
    /// An invariant broke.
    Violation(Violation),
}

/// `true` when an error message carries a usable position: a `line`,
/// `byte`, `event`, `entry`, or `tid` keyword immediately followed by a
/// number.
pub fn has_position(msg: &str) -> bool {
    for key in ["line ", "byte ", "event ", "entry ", "tid "] {
        let mut rest = msg;
        while let Some(p) = rest.find(key) {
            let after = &rest[p + key.len()..];
            if after.bytes().next().is_some_and(|b| b.is_ascii_digit()) {
                return true;
            }
            rest = after;
        }
    }
    false
}

/// Document-level errors that legitimately have no offset: they describe
/// the whole input, not a location in it.
const DOC_LEVEL_OK: [&str; 3] = [
    // tc-prof's trace reader (not an object, no traceEvents array).
    "trace document",
    // tc-prof envelope errors all open with this prefix.
    "profile document",
    // tcdiff refusing to compare across schema revisions.
    "schema_version mismatch",
];

fn err_verdict(msg: String) -> Verdict {
    if has_position(&msg) || DOC_LEVEL_OK.iter().any(|d| msg.contains(d)) {
        Verdict::Rejected
    } else {
        Verdict::Violation(Violation::ContextFreeError(msg))
    }
}

fn panic_message(e: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = e.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = e.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Shared fuzzing environment: the library and stack every parser is
/// bound to, the base netlist journals replay onto, and the seed corpora
/// produced by the repo's own writers.
pub struct Env {
    /// Full default library (Verilog/journal targets).
    pub lib: Library,
    /// BEOL stack for SPEF.
    pub stack: BeolStack,
    /// Base design journals replay onto.
    pub base: Netlist,
    base_doc: String,
}

impl Env {
    /// Builds the environment (deterministic: fixed seeds throughout).
    pub fn new() -> Env {
        let lib = Library::generate(&LibConfig::default(), &PvtCorner::typical());
        let stack = BeolStack::n20();
        let base = generate(&lib, BenchProfile::tiny(), 7).expect("tiny bench generates");
        let base_doc = RunArtifact::new("fuzz_base")
            .knob("seed", 7)
            .knob("profile", "tiny")
            .wall_ms(12.5)
            .extra("wns_ps", JsonValue::from(-42.25))
            .render();
        Env {
            lib,
            stack,
            base,
            base_doc,
        }
    }

    /// Seed corpus for `kind`, generated from the workspace's own
    /// writers so every entry starts out *valid*.
    pub fn corpus(&self, kind: TargetKind) -> Vec<Vec<u8>> {
        match kind {
            TargetKind::Spef => {
                let nets: Vec<NetParasitics> = [
                    (20.0, NdrClass::Default),
                    (150.0, NdrClass::DoubleWidth),
                    (400.0, NdrClass::DoubleWidthSpacing),
                ]
                .iter()
                .enumerate()
                .map(|(i, &(len, ndr))| {
                    let wm = WireModel::from_length(len).with_ndr(ndr);
                    NetParasitics::extract(format!("n{i}"), &wm, &self.stack)
                })
                .collect();
                vec![
                    write_spef(&nets, &self.stack).into_bytes(),
                    b"*D_NET n R 1 C 1 LAYER 1\n*END\n".to_vec(),
                ]
            }
            TargetKind::Verilog => vec![
                write_verilog(&self.base, &self.lib).into_bytes(),
                b"module m (a, q);\n  input a;\n  output q;\n  INV_X1_SVT u1 (.A(a), .Y(q));\nendmodule\n"
                    .to_vec(),
            ],
            TargetKind::Liberty => {
                let small = Library::generate(
                    &LibConfig {
                        comb_drives: vec![1.0],
                        flop_drives: vec![1.0],
                        ..Default::default()
                    },
                    &PvtCorner::typical(),
                );
                vec![write_liberty(&small).into_bytes()]
            }
            TargetKind::Json => vec![
                self.base_doc.clone().into_bytes(),
                JsonValue::obj([
                    ("a", JsonValue::from(1.5)),
                    (
                        "b",
                        JsonValue::Arr(vec![
                            JsonValue::Bool(true),
                            JsonValue::Null,
                            JsonValue::str("x\ny"),
                        ]),
                    ),
                    ("c", JsonValue::obj([("d", JsonValue::from(-7i64))])),
                ])
                .render()
                .into_bytes(),
                b"[0,1,2,3]".to_vec(),
            ],
            TargetKind::Journal => {
                let mut nl = self.base.clone();
                let cp = nl.journal_len();
                self.apply_sample_edits(&mut nl);
                vec![
                    write_journal(&nl, &self.lib, cp).into_bytes(),
                    b"*TCJ 1\nWIRELEN net 0 um 5\nROUTE net 0 class 2\n".to_vec(),
                ]
            }
            TargetKind::Tcdiff => vec![
                self.base_doc.clone().into_bytes(),
                trace_doc().render().into_bytes(),
                prof_doc().render_json().into_bytes(),
            ],
            TargetKind::Prof => vec![
                prof_doc().render_json().into_bytes(),
                br#"{"schema_version":1,"kind":"tc.profile","workload":"","wall_ns":0,"attributed_ns":0,"dropped_events":0,"unmatched_ends":0,"open_spans":0,"spans":[],"lanes":[],"critical_chain":[],"critical_chain_ns":0}"#
                    .to_vec(),
            ],
            TargetKind::Waiver => vec![
                render_waivers(&[
                    Waiver {
                        code: "TCL0104".into(),
                        subject: "probe_q7".into(),
                        reason: "scan probe net, unloaded by design".into(),
                    },
                    Waiver {
                        code: "TCL0302".into(),
                        subject: "*".into(),
                        reason: String::new(),
                    },
                ])
                .into_bytes(),
                b"# baseline for bringup\n\n*TCW 1\nWAIVE TCL0201 small no clocks yet in bringup\n"
                    .to_vec(),
            ],
        }
    }

    /// Applies one of each ECO edit kind to `nl` (for journal corpus).
    fn apply_sample_edits(&self, nl: &mut Netlist) {
        use tc_core::ids::NetId;
        // Swap the first cell that has a same-pin-count alternative.
        'swap: for cell in 0..nl.cell_count() {
            let id = tc_core::ids::CellId::new(cell);
            let pins = nl.cell_inputs(id).len();
            let cur = nl.cell(id).master;
            for alt in self.lib.cells().iter() {
                if alt.input_pins().len() == pins && self.lib.id_of(&alt.name) != Some(cur) {
                    let alt_id = self.lib.id_of(&alt.name).expect("listed cell resolves");
                    if nl.swap_master(&self.lib, id, alt_id).is_ok() {
                        break 'swap;
                    }
                }
            }
        }
        nl.set_wire_length(NetId::new(3), 41.25);
        nl.set_route_class(NetId::new(3), 2);
        // Buffer the first loaded net, then touch the buffer and its
        // output net the way a closure pass does: later entries that
        // name the cell and net this entry appended.
        let bufs: Vec<_> = self
            .lib
            .cells()
            .iter()
            .filter(|c| c.input_pins().len() == 1 && c.is_buffer_like())
            .map(|c| self.lib.id_of(&c.name).expect("listed cell resolves"))
            .collect();
        let victim = (0..nl.net_count())
            .map(NetId::new)
            .find(|&n| !nl.net(n).sinks.is_empty());
        if let (Some(&buf), Some(victim)) = (bufs.first(), victim) {
            let sink = nl.net(victim).sinks[0];
            let inserted = nl
                .insert_buffer(&self.lib, victim, &[sink], buf)
                .expect("a sink of the net moves behind a buffer");
            nl.set_wire_length(nl.cell(inserted).output, 12.5);
            if let Some(&other) = bufs.get(1) {
                nl.swap_master(&self.lib, inserted, other)
                    .expect("buffers share a pin interface");
            }
        }
    }

    /// Drives `input` through target `kind`, checking all three
    /// invariants. Never panics itself: parser panics are caught and
    /// reported as [`Violation::Panic`].
    pub fn check(&self, kind: TargetKind, input: &[u8]) -> Verdict {
        let result = catch_unwind(AssertUnwindSafe(|| self.check_inner(kind, input)));
        match result {
            Ok(v) => v,
            Err(e) => Verdict::Violation(Violation::Panic(panic_message(e))),
        }
    }

    fn check_inner(&self, kind: TargetKind, input: &[u8]) -> Verdict {
        match kind {
            TargetKind::Spef => self.check_spef(input),
            TargetKind::Verilog => self.check_verilog(input),
            TargetKind::Liberty => self.check_liberty(input),
            TargetKind::Json => check_json(input),
            TargetKind::Journal => self.check_journal(input),
            TargetKind::Tcdiff => self.check_tcdiff(input),
            TargetKind::Waiver => check_waiver(input),
            TargetKind::Prof => check_prof(input),
        }
    }

    fn check_spef(&self, input: &[u8]) -> Verdict {
        // A deliberately tiny buffer forces refills mid-record, the same
        // streaming path a multi-gigabyte SPEF would take.
        let reader = std::io::BufReader::with_capacity(23, input);
        match parse_spef_from(reader, &self.stack) {
            Err(e) => err_verdict(e.to_string()),
            Ok(nets) => {
                let t2 = write_spef(&nets, &self.stack);
                match parse_spef_from(t2.as_bytes(), &self.stack) {
                    Err(e) => Verdict::Violation(Violation::RoundtripMismatch(format!(
                        "emitted SPEF does not reparse: {e}"
                    ))),
                    Ok(nets2) => {
                        let t3 = write_spef(&nets2, &self.stack);
                        if t3 != t2 {
                            Verdict::Violation(Violation::RoundtripMismatch(
                                "SPEF emit is not a fixpoint".to_string(),
                            ))
                        } else {
                            Verdict::Accepted
                        }
                    }
                }
            }
        }
    }

    fn check_verilog(&self, input: &[u8]) -> Verdict {
        // The source scan reads the same bytes through the parser's own
        // statement reader, so it must name the defect whenever the
        // parser rejects a duplicate or undriven net, and find nothing
        // of the kind in a file the parser accepts.
        let scan = lint_verilog_source(&String::from_utf8_lossy(input), "fuzz.v");
        let scan_has = |code: &str| scan.iter().any(|d| d.code == code);
        let reader = std::io::BufReader::with_capacity(17, input);
        let parsed = tc_netlist::parse_verilog_from(reader, &self.lib);
        let disagreement = match &parsed {
            Ok(_) => scan
                .iter()
                .find(|d| d.code == "TCL0102" || d.code == "TCL0103")
                .map(|d| format!("parser accepts, scan reports {} on {}", d.code, d.subject)),
            Err(Error::InvalidInput(m)) if m.contains(": duplicate net ") => {
                (!scan_has("TCL0102")).then(|| format!("no TCL0102 for parser error: {m}"))
            }
            Err(Error::NotFound(m)) if m.contains(": net ") || m.contains(": output net ") => {
                (!scan_has("TCL0103")).then(|| format!("no TCL0103 for parser error: {m}"))
            }
            Err(_) => None,
        };
        if let Some(msg) = disagreement {
            return Verdict::Violation(Violation::ConsumerDisagreement(msg));
        }
        match parsed {
            Err(e) => err_verdict(e.to_string()),
            Ok(nl) => {
                if let Err(e) = nl.validate(&self.lib) {
                    return Verdict::Violation(Violation::RoundtripMismatch(format!(
                        "parsed netlist fails validate: {e}"
                    )));
                }
                let t2 = write_verilog(&nl, &self.lib);
                match parse_verilog_from(t2.as_bytes(), &self.lib) {
                    Err(e) => Verdict::Violation(Violation::RoundtripMismatch(format!(
                        "emitted Verilog does not reparse: {e}"
                    ))),
                    Ok(nl2) => {
                        let t3 = write_verilog(&nl2, &self.lib);
                        if t3 != t2 {
                            Verdict::Violation(Violation::RoundtripMismatch(
                                "Verilog emit is not a fixpoint".to_string(),
                            ))
                        } else {
                            Verdict::Accepted
                        }
                    }
                }
            }
        }
    }

    fn check_liberty(&self, input: &[u8]) -> Verdict {
        // No emitter exists for ParsedLibrary, so liberty checks the
        // panic and positioned-error invariants, plus agreement with the
        // table lint over the same reader: an axis `Lut2::new` refuses
        // is an axis the lint reports.
        let text = String::from_utf8_lossy(input);
        let scan = lint_liberty_source(&text, "fuzz.lib");
        match parse_liberty(&text) {
            Err(e) => {
                let msg = e.to_string();
                if msg.contains("axis must be strictly increasing")
                    && !scan.iter().any(|d| d.code == "TCL0401")
                {
                    return Verdict::Violation(Violation::ConsumerDisagreement(format!(
                        "no TCL0401 for parser error: {msg}"
                    )));
                }
                err_verdict(msg)
            }
            Ok(_) => Verdict::Accepted,
        }
    }

    fn check_journal(&self, input: &[u8]) -> Verdict {
        let text = String::from_utf8_lossy(input);
        match decode_journal(&text) {
            Err(e) => err_verdict(e.to_string()),
            Ok(cmds) => {
                let t2 = render_cmds(&cmds);
                match decode_journal(&t2) {
                    Err(e) => {
                        return Verdict::Violation(Violation::RoundtripMismatch(format!(
                            "rendered journal does not re-decode: {e}"
                        )))
                    }
                    Ok(cmds2) => {
                        if cmds2 != cmds {
                            return Verdict::Violation(Violation::RoundtripMismatch(
                                "journal decode∘render is not the identity".to_string(),
                            ));
                        }
                    }
                }
                // TCL0501 resolves references with the resolver replay
                // uses: a replay that succeeds lints clean, and one that
                // dies on a reference lints dirty.
                let dead = check_journal(&self.base, &self.lib, &cmds);
                let mut nl = self.base.clone();
                let cp = nl.journal_len();
                let replayed = replay_journal(&mut nl, &self.lib, &cmds);
                let lint_must_be_clean = match &replayed {
                    Ok(_) => Some(true),
                    Err(Error::NotFound(_)) => Some(false),
                    Err(Error::InvalidInput(m)) if m.contains(": duplicate sink ") => Some(false),
                    Err(_) => None,
                };
                if lint_must_be_clean.is_some_and(|clean| clean != dead.is_empty()) {
                    return Verdict::Violation(Violation::ConsumerDisagreement(format!(
                        "replay says {:?}, TCL0501 says {:?}",
                        replayed.map_err(|e| e.to_string()),
                        dead.iter().map(|d| &d.message).collect::<Vec<_>>()
                    )));
                }
                match replayed {
                    Ok(_) => {
                        if let Err(e) = nl.validate(&self.lib) {
                            Verdict::Violation(Violation::RoundtripMismatch(format!(
                                "replayed netlist fails validate: {e}"
                            )))
                        } else {
                            Verdict::Accepted
                        }
                    }
                    Err(e) => {
                        if nl.journal_len() != cp {
                            return Verdict::Violation(Violation::RoundtripMismatch(format!(
                                "failed replay left {} edits applied",
                                nl.journal_len() - cp
                            )));
                        }
                        err_verdict(e.to_string())
                    }
                }
            }
        }
    }

    fn check_tcdiff(&self, input: &[u8]) -> Verdict {
        let text = String::from_utf8_lossy(input);
        let doc = match JsonValue::parse(&text) {
            Err(e) => return err_verdict(e),
            Ok(doc) => doc,
        };
        // Span profiles take the differ's name-keyed path; give them a
        // profile to be compared against so that path is what runs.
        let is_profile = text.contains(tc_prof::PROF_KIND);
        let base = if is_profile {
            prof_doc().to_json()
        } else {
            JsonValue::parse(&self.base_doc).expect("base artifact parses")
        };
        // The diff engine itself must digest any parsed document without
        // panicking; what it refuses to compare (a schema mismatch, a
        // profile that fails validation) it must refuse with context.
        match tcdiff::diff(&base, &doc) {
            Ok(report) => drop(report.render(true)),
            Err(e) => return err_verdict(e),
        }
        // A self-diff must always be clean — except for a profile that
        // records ring overflow, which gates nothing, not even itself.
        match tcdiff::diff(&doc, &doc) {
            Err(e) => return err_verdict(e),
            Ok(self_diff) => {
                let unclean = self_diff.rows.iter().any(|r| {
                    r.status == tcdiff::RowStatus::Regression && r.path != "dropped_events"
                });
                if unclean {
                    return Verdict::Violation(Violation::RoundtripMismatch(format!(
                        "self-diff not clean: {}",
                        self_diff.render(false)
                    )));
                }
            }
        }
        // Trace-shaped documents (an artifact sidecar has no
        // traceEvents and is already fully checked above) go through the
        // one Chrome-trace reader; its errors must be positioned or
        // document-level.
        let is_trace =
            matches!(&doc, JsonValue::Obj(pairs) if pairs.iter().any(|(k, _)| k == "traceEvents"));
        if is_trace {
            match tc_prof::Profile::from_chrome_trace(&text) {
                Ok(_) => Verdict::Accepted,
                Err(e) => err_verdict(e),
            }
        } else {
            Verdict::Accepted
        }
    }
}

impl Default for Env {
    fn default() -> Self {
        Env::new()
    }
}

fn check_waiver(input: &[u8]) -> Verdict {
    let text = String::from_utf8_lossy(input);
    match decode_waivers(&text) {
        Err(e) => err_verdict(e.to_string()),
        Ok(ws) => {
            let t2 = render_waivers(&ws);
            match decode_waivers(&t2) {
                Err(e) => Verdict::Violation(Violation::RoundtripMismatch(format!(
                    "rendered waivers do not re-decode: {e}"
                ))),
                Ok(ws2) => {
                    if ws2 != ws {
                        Verdict::Violation(Violation::RoundtripMismatch(
                            "waiver decode∘render is not the identity".to_string(),
                        ))
                    } else if render_waivers(&ws2) != t2 {
                        Verdict::Violation(Violation::RoundtripMismatch(
                            "waiver render is not a fixpoint".to_string(),
                        ))
                    } else {
                        Verdict::Accepted
                    }
                }
            }
        }
    }
}

fn check_json(input: &[u8]) -> Verdict {
    let text = String::from_utf8_lossy(input);
    match JsonValue::parse(&text) {
        Err(e) => err_verdict(e),
        Ok(v) => {
            let r1 = v.render();
            match JsonValue::parse(&r1) {
                Err(e) => Verdict::Violation(Violation::RoundtripMismatch(format!(
                    "rendered JSON does not reparse: {e}"
                ))),
                Ok(v2) => {
                    if v2.render() != r1 {
                        Verdict::Violation(Violation::RoundtripMismatch(
                            "JSON render is not a fixpoint".to_string(),
                        ))
                    } else {
                        Verdict::Accepted
                    }
                }
            }
        }
    }
}

fn check_prof(input: &[u8]) -> Verdict {
    let text = String::from_utf8_lossy(input);
    match tc_prof::Profile::parse(&text) {
        Err(e) => err_verdict(e),
        Ok(p) => {
            let r1 = p.render_json();
            match tc_prof::Profile::parse(&r1) {
                Err(e) => Verdict::Violation(Violation::RoundtripMismatch(format!(
                    "rendered profile does not reparse: {e}"
                ))),
                Ok(p2) => {
                    if p2.render_json() != r1 {
                        Verdict::Violation(Violation::RoundtripMismatch(
                            "profile render is not a fixpoint".to_string(),
                        ))
                    } else {
                        Verdict::Accepted
                    }
                }
            }
        }
    }
}

/// A small, valid span profile for the prof corpus, reduced from a
/// synthetic trace so the seed exercises the builder's invariants.
fn prof_doc() -> tc_prof::Profile {
    use tc_obs::trace::{TraceEvent, TraceEventKind};
    let ev = |kind: TraceEventKind, name: &str, tid: u64, ts_ns: u64, delta: u64| TraceEvent {
        kind,
        name: std::sync::Arc::from(name),
        tid,
        ts_ns,
        delta,
    };
    let snap = tc_obs::TraceSnapshot {
        events: vec![
            ev(TraceEventKind::Begin, "sta", 0, 0, 0),
            ev(TraceEventKind::Gauge, "mem.live_bytes", 0, 10, 4096),
            ev(TraceEventKind::Begin, "propagate", 0, 100, 0),
            ev(TraceEventKind::End, "propagate", 0, 900, 0),
            ev(TraceEventKind::End, "sta", 0, 1_000, 0),
            ev(TraceEventKind::Gauge, "mem.live_bytes", 0, 1_010, 8192),
            ev(TraceEventKind::Begin, "par.task", 1, 200, 0),
            ev(TraceEventKind::End, "par.task", 1, 600, 0),
        ],
        dropped: 0,
        thread_names: vec![(0, "main".to_string()), (1, "tc-par-0".to_string())],
    };
    tc_prof::Profile::from_trace(&snap).workload("fuzz seed")
}

/// A small, valid Chrome-trace document for the tcdiff corpus.
fn trace_doc() -> JsonValue {
    let ev = |ph: &str, ts: f64, tid: u64, name: &str| {
        JsonValue::obj([
            ("ph", JsonValue::str(ph)),
            ("ts", JsonValue::from(ts)),
            ("tid", JsonValue::from(tid)),
            ("name", JsonValue::str(name)),
            // Only counter events read it; the reader requires it there.
            (
                "args",
                JsonValue::obj([("value", JsonValue::from(4096u64))]),
            ),
        ])
    };
    JsonValue::obj([
        (
            "traceEvents",
            JsonValue::Arr(vec![
                ev("B", 0.0, 1, "sta"),
                ev("B", 1.0, 1, "propagate"),
                ev("E", 5.0, 1, "propagate"),
                ev("E", 6.0, 1, "sta"),
                ev("C", 7.0, 2, "heap"),
            ]),
        ),
        (
            "otherData",
            JsonValue::obj([("dropped_events", JsonValue::from(0u64))]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_corpora_are_accepted() {
        let env = Env::new();
        for kind in TargetKind::ALL {
            for (i, entry) in env.corpus(kind).iter().enumerate() {
                match env.check(kind, entry) {
                    Verdict::Accepted => {}
                    other => panic!("{} corpus[{i}]: {other:?}", kind.name()),
                }
            }
        }
    }

    #[test]
    fn position_detector_matches_error_styles() {
        assert!(has_position("line 3: bad D_NET record"));
        assert!(has_position("number `1e999` overflows f64 at byte 0"));
        assert!(has_position("event 4: missing ph"));
        assert!(has_position("journal entry 2: cell 99"));
        assert!(has_position("tid 3: 1 unbalanced B event(s)"));
        assert!(!has_position("bad record"));
        assert!(!has_position("line ends early"));
    }
}
