#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # tc-fuzz — seeded mutation fuzzing for every ingest surface
//!
//! Timing closure dies on malformed interchange data long before it dies
//! on WNS: every handoff in the flow (parasitics, netlists, libraries,
//! run artifacts, ECO journals) is a parser that hostile or merely
//! truncated input will eventually reach. This crate is a
//! zero-dependency, fully deterministic mutation-fuzz harness over all
//! eight of the workspace's parser entry points:
//!
//! | target    | parser                                           |
//! |-----------|--------------------------------------------------|
//! | `spef`    | `tc_interconnect::parse_spef_from`               |
//! | `verilog` | `tc_netlist::parse_verilog_from` + `tc_lint::lint_verilog_source` |
//! | `liberty` | `tc_liberty::parse_liberty` + `tc_lint::lint_liberty_source` |
//! | `json`    | `tc_obs::JsonValue::parse`                       |
//! | `journal` | `tc_netlist::decode_journal` + `replay_journal` + `tc_lint`'s `check_journal` |
//! | `tcdiff`  | sidecar load: `JsonValue::parse` + `diff` + `Profile::from_chrome_trace` |
//! | `waiver`  | `tc_lint::decode_waivers` + `render_waivers`     |
//! | `prof`    | `tc_prof::Profile::parse` (span-profile sidecars) |
//!
//! The harness seeds its corpus from the repo's **own writers** (the
//! Verilog/SPEF/Liberty emitters, `RunArtifact` JSON, journal export),
//! applies seeded byte- and token-level mutators, and asserts four
//! invariants on every input:
//!
//! 1. **Never panic** — every entry point is driven under
//!    `catch_unwind`; a panic is a finding.
//! 2. **Positioned errors** — every `Err` must name a line, byte,
//!    event, or entry offset; a bare message is a finding.
//! 3. **Round-trip stability** — when an input is *accepted*, emitting
//!    and reparsing it must be a fixpoint (`emit(parse(emit(parse(x))))
//!    == emit(parse(x))`), and replayed journals must leave the netlist
//!    valid (or, on failure, exactly rolled back).
//! 4. **Consumer agreement** — where a parser and a lint pass read the
//!    same bytes through one shared reader (Verilog, Liberty, journal
//!    references), neither may contradict the other.
//!
//! Randomness comes exclusively from `tc_core::rng::Rng` streams, so a
//! `(seed, target)` pair replays bit-identically on any machine. Found
//! violations are shrunk (greedy ddmin over lines, then bytes) and can
//! be written out as regression corpus entries under
//! `crates/fuzz/corpus/<target>/`, which `tests/corpus.rs` replays on
//! every `cargo test` run.

pub mod mutate;
pub mod runner;
pub mod target;

pub use runner::{run, shrink, Finding, FuzzConfig};
pub use target::{Env, TargetKind, Verdict, Violation};
