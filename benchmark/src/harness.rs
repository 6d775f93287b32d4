//! What the four workloads share: the run configuration, the check
//! ledger, set-up and pass loops, trace toggling, the reduction of the
//! flight recorder to per-layer numbers, and the result line.
//!
//! Every layer is measured from outside: a workload wraps each call
//! into a product crate in [`layer`], which opens a `bench.<layer>.<call>`
//! tc-obs span. Untraced runs never enable tc-obs, so the span is one
//! relaxed load; traced runs keep the events in the in-memory rings and
//! reduce them once, at exit, with `tc_prof`.

use std::fmt::Debug;
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Instant;

use tc_obs::{JsonValue, TraceEventKind, TraceSnapshot};
use tc_prof::Profile;

use crate::spec::{Source, Spec, END_TO_END, PER_LAYER};
use crate::stats::Summary;

/// Times the input preparation is repeated; `setup_s` takes the fastest.
const PREP_REPS: usize = 3;

/// Per-thread flight-recorder capacity, events. The flood is tc-sim: it
/// adds to its Newton counters at every timestep, 1.2M events per
/// `char_cells` pass; a traced ECO block of 1000 edits records ~30k. A
/// full ring drops events and fails the run.
const TRACE_CAPACITY: usize = 1 << 22;

/// Whole passes traced per run at most, so [`TRACE_CAPACITY`] holds
/// them whatever `--seconds` says; later passes run untraced only.
const MAX_TRACED_PASSES: usize = 2;

/// One run's arguments.
#[derive(Clone, Debug)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    /// How long to keep measuring, seconds.
    pub seconds: f64,
    /// `--trace 1`: report per-layer metrics from a traced run.
    pub traced: bool,
    /// Where inputs, traces and result files go.
    pub out: PathBuf,
}

impl Config {
    /// The seed `expected.json` was recorded with; other seeds run the
    /// cross-engine checks only.
    pub const DEFAULT_SEED: u64 = 2015;

    pub fn is_default_seed(&self) -> bool {
        self.seed == Config::DEFAULT_SEED
    }
}

/// Correctness checks run and failed. A failed check is a failed
/// operation: the run reports `correct: false` and exits non-zero.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what.to_string());
        }
    }

    pub fn check_eq<T: PartialEq + Debug>(&mut self, what: &str, got: T, want: T) {
        self.attempted += 1;
        if got != want {
            self.failures
                .push(format!("{what}: got {got:?}, want {want:?}"));
        }
    }

    /// Compares this run's exact fields with the committed ones.
    pub fn check_expected(&mut self, cfg: &Config, exact: &JsonValue) {
        if !cfg.is_default_seed() {
            return;
        }
        let want = crate::expected::for_workload(&cfg.workload);
        self.check_eq(
            "exact fields equal expected.json",
            exact.render(),
            want.map(|w| w.render()).unwrap_or_default(),
        );
    }
}

/// Calls into one layer under a `bench.<layer>.<call>` span.
#[inline]
pub fn layer<R>(span: &'static str, f: impl FnOnce() -> R) -> R {
    let _span = tc_obs::span(span);
    f()
}

fn trace_on() {
    tc_obs::enable_trace(TRACE_CAPACITY);
}

fn trace_off() {
    tc_obs::disable_trace();
    tc_obs::disable();
}

/// Process-wide preparation: one worker everywhere a product call
/// sizes its pool from the environment, and — in a traced run — heap
/// counting on from the start, so `mem.heap_bytes_per_cell` sees the
/// inputs too. (Counting costs a few relaxed atomics per allocation and
/// is on for the traced process's untraced comparison passes as well:
/// `obs.trace_overhead_pct` is the cost of spans and rings.)
pub fn init(cfg: &Config) {
    std::env::set_var("TC_PAR_THREADS", "1");
    if cfg.traced {
        tc_obs::enable_memory();
    }
}

/// Builds the workload's inputs [`PREP_REPS`] times (traced in a traced
/// run, so generator spans land in the profile) and returns each
/// repetition's wall with the last product.
pub fn prep<T>(cfg: &Config, mut build: impl FnMut() -> T) -> (Vec<f64>, T) {
    let mut walls = Vec::with_capacity(PREP_REPS);
    let mut product = None;
    for _ in 0..PREP_REPS {
        drop(product.take());
        if cfg.traced {
            trace_on();
        }
        let t0 = Instant::now();
        product = Some(build());
        walls.push(t0.elapsed().as_secs_f64());
        if cfg.traced {
            trace_off();
        }
    }
    (walls, product.expect("PREP_REPS > 0"))
}

/// Wall clocks of a pass loop.
#[derive(Debug, Default)]
pub struct PassTimes {
    /// The untimed-for-metrics first pass; counted into `setup_s`.
    pub warmup_s: f64,
    /// Untraced measured passes.
    pub wall_s: Vec<f64>,
    /// Per untraced measured pass: start of an operation → its first
    /// report (the pass's median where it holds many operations).
    pub first_s: Vec<f64>,
    /// Per untraced measured pass: the highest percentile of the same
    /// latency with ten samples beyond it. A pass that is one operation
    /// has no such percentile and repeats `first_s`.
    pub tail_s: Vec<f64>,
    /// Traced passes (traced runs only).
    pub traced_wall_s: Vec<f64>,
}

/// Runs `pass` once as warm-up, then measures it until `cfg.seconds`
/// have passed and at least `min_passes` are in. A traced run alternates
/// untraced and traced passes (each traced pass under a `bench.pass`
/// root span), so both kinds see the same process state, and counts a
/// traced pass towards `min_passes` too.
/// `pass` gets its start instant and returns the seconds from there to
/// its first report.
pub fn run_passes(
    cfg: &Config,
    min_passes: usize,
    mut pass: impl FnMut(Instant) -> f64,
) -> PassTimes {
    let mut times = PassTimes::default();
    let t0 = Instant::now();
    pass(t0);
    times.warmup_s = t0.elapsed().as_secs_f64();

    let started = Instant::now();
    while times.wall_s.len() + times.traced_wall_s.len() < min_passes
        || started.elapsed().as_secs_f64() < cfg.seconds
    {
        let t0 = Instant::now();
        let first = pass(t0);
        times.wall_s.push(t0.elapsed().as_secs_f64());
        times.first_s.push(first);
        times.tail_s.push(first);
        if cfg.traced && times.traced_wall_s.len() < MAX_TRACED_PASSES {
            times.traced_wall_s.push(traced(|| {
                let _root = tc_obs::span("bench.pass");
                let t0 = Instant::now();
                pass(t0);
                t0.elapsed().as_secs_f64()
            }));
        }
    }
    times
}

/// Runs `f` with the flight recorder on.
pub fn traced<R>(f: impl FnOnce() -> R) -> R {
    trace_on();
    let out = f();
    trace_off();
    out
}

/// The traced run's per-layer numbers, in [`PER_LAYER`] order.
pub struct Layers {
    values: Vec<f64>,
    profile: Profile,
}

impl Layers {
    /// Reduces the flight recorder with `tc_prof`, writes
    /// `trace_<workload>.json` and `PROF_<workload>.json`, fills every
    /// span-sourced metric, and derives the instrument's own rows from
    /// the pass loop's clocks.
    pub fn reduce(cfg: &Config, checks: &mut Checks, times: &PassTimes, cells: usize) -> Layers {
        let snap = tc_obs::trace_snapshot();
        let profile = Profile::from_trace(&snap).workload(cfg.workload.as_str());
        checks.check_eq(
            "flight recorder dropped no events",
            profile.dropped_events,
            0,
        );
        // The timeline file keeps spans only: counter and gauge samples
        // outnumber them a thousand to one on `char_cells`.
        let spans_only = TraceSnapshot {
            events: snap
                .events
                .iter()
                .filter(|e| matches!(e.kind, TraceEventKind::Begin | TraceEventKind::End))
                .cloned()
                .collect(),
            dropped: snap.dropped,
            thread_names: snap.thread_names.clone(),
        };
        std::fs::write(
            cfg.out.join(format!("trace_{}.json", cfg.workload)),
            spans_only.to_chrome_trace(),
        )
        .expect("write trace file");
        std::fs::write(
            cfg.out.join(format!("PROF_{}.json", cfg.workload)),
            profile.render_json(),
        )
        .expect("write profile file");

        let values = PER_LAYER
            .iter()
            .map(|(_, src)| {
                let of = |span: &str| profile.span(span);
                match *src {
                    Source::SpanFastestS(s) => of(s).map_or(0.0, |p| p.min_ns as f64 * 1e-9),
                    Source::SpanP50Us(s) => of(s).map_or(0.0, |p| p.p50_ns as f64 * 1e-3),
                    Source::SpanP99Us(s) => of(s).map_or(0.0, |p| p.p99_ns as f64 * 1e-3),
                    Source::Derived => 0.0,
                }
            })
            .collect();
        let mut layers = Layers { values, profile };

        let fastest = |walls: &[f64]| walls.iter().copied().fold(f64::INFINITY, f64::min);
        layers.set(
            "obs.trace_overhead_pct",
            100.0 * (fastest(&times.traced_wall_s) / fastest(&times.wall_s) - 1.0),
        );
        let coverage = layers
            .profile
            .span("bench.pass")
            .map_or(0.0, |p| 100.0 * p.child_ns as f64 / p.total_ns as f64);
        layers.set("obs.span_coverage_pct", coverage);
        layers.set("obs.trace_events", snap.events.len() as f64);
        if cells > 0 {
            layers.set(
                "mem.heap_bytes_per_cell",
                tc_obs::memory_stats().peak_bytes as f64 / cells as f64,
            );
        }
        layers
    }

    fn index(name: &str) -> usize {
        PER_LAYER
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("per-layer metric `{name}` is not in spec::PER_LAYER"))
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values[Layers::index(name)]
    }

    /// Sets a [`Source::Derived`] metric.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = Layers::index(name);
        assert_eq!(PER_LAYER[i].1, Source::Derived, "`{name}` is span-sourced");
        self.values[i] = value;
    }

    /// Nanoseconds of the seconds metric `name` per one of `count`.
    pub fn ns_per(&self, name: &str, count: usize) -> f64 {
        self.get(name) * 1e9 / count as f64
    }

    /// `numerator / get(name)`, or 0 when the layer did not run.
    pub fn per(&self, numerator: f64, name: &str) -> f64 {
        let d = self.get(name);
        if d > 0.0 {
            numerator / d
        } else {
            0.0
        }
    }

    /// Fastest occurrence of a `bench.*` span, seconds (0 if it never ran).
    pub fn span_fastest_s(&self, span: &str) -> f64 {
        self.profile
            .span(span)
            .map_or(0.0, |p| p.min_ns as f64 * 1e-9)
    }
}

/// `VmHWM` when the run's first report came out, MB.
static RSS_AT_FIRST_REPORT_MB: OnceLock<f64> = OnceLock::new();

/// Marks the point a workload's first report is out; the first call
/// reads the peak resident set so far (`NaN` off Linux). That is the
/// capacity number — inputs, design, graph, one propagated state — and
/// it repeats from seed to seed. What comes after does not: the closure
/// loop's garbage follows the trajectory and the timer's undo log only
/// grows, so `VmHWM` at exit follows the edit count (+95 kB per edit at
/// 200k cells). The traced run's `mem.heap_bytes_per_cell` covers the
/// whole process.
pub fn first_report_is_out() {
    RSS_AT_FIRST_REPORT_MB
        .get_or_init(|| tc_obs::vm_hwm_bytes().map_or(f64::NAN, |b| b as f64 / 1e6));
}

fn metric_json(spec: &Spec, name: &str, s: &Summary) -> JsonValue {
    JsonValue::obj([
        ("value", JsonValue::from(s.value)),
        ("unit", JsonValue::str(spec.unit(name))),
        ("n", JsonValue::from(s.n)),
        ("median", JsonValue::from(s.median)),
        ("max", JsonValue::from(s.max)),
    ])
}

/// Reduces the run to its metrics — end-to-end from `prep_s` (input
/// preparation repetitions) and `times`, each the fastest reading (see
/// [`Summary`]), or per-layer from `layers` — prints every one by name,
/// writes the detailed result file, prints the driver's result line
/// last, and returns the process exit code.
pub fn finish(
    cfg: &Config,
    mut checks: Checks,
    prep_s: Vec<f64>,
    times: PassTimes,
    layers: Option<Layers>,
    exact: JsonValue,
) -> i32 {
    let spec = Spec::load();
    let metrics: Vec<(&str, Summary)> = match &layers {
        None => {
            checks.check(
                "untraced run kept tc-obs disabled",
                !tc_obs::is_enabled() && !tc_obs::memory_enabled(),
            );
            let values = [
                Summary::fastest_of(&prep_s).shifted(times.warmup_s),
                Summary::fastest_of(&times.wall_s),
                Summary::fastest_of(&times.first_s),
                Summary::fastest_of(&times.tail_s),
                Summary::single(RSS_AT_FIRST_REPORT_MB.get().copied().unwrap_or(f64::NAN)),
            ];
            END_TO_END.into_iter().zip(values).collect()
        }
        Some(l) => PER_LAYER
            .iter()
            .zip(&l.values)
            .map(|((name, _), v)| (*name, Summary::single(*v)))
            .collect(),
    };
    for (name, s) in &metrics {
        checks.check(&format!("{name} is a finite number"), s.value.is_finite());
    }

    println!(
        "== {} seed {} trace {} ({} s) ==",
        cfg.workload,
        cfg.seed,
        u8::from(cfg.traced),
        cfg.seconds
    );
    for (name, s) in &metrics {
        let unit = spec.unit(name);
        if s.n > 1 {
            println!(
                "{name:<34} {:>14.6} {unit:<8} n={} median={:.6} max={:.6} spread={:.1}%",
                s.value,
                s.n,
                s.median,
                s.max,
                100.0 * s.spread()
            );
        } else {
            println!("{name:<34} {:>14.6} {unit:<8} n=1", s.value);
        }
    }
    for f in &checks.failures {
        println!("FAILED: {f}");
    }
    let failed = checks.failures.len() as u64;
    println!("ops_attempted {}  ops_failed {failed}", checks.attempted);

    let detail = JsonValue::obj([
        ("workload", JsonValue::str(cfg.workload.as_str())),
        ("seed", JsonValue::from(cfg.seed)),
        ("seconds", JsonValue::from(cfg.seconds)),
        ("traced", JsonValue::Bool(cfg.traced)),
        ("attempted", JsonValue::from(checks.attempted)),
        ("failed", JsonValue::from(failed)),
        (
            "failures",
            JsonValue::Arr(
                checks
                    .failures
                    .iter()
                    .map(|f| JsonValue::str(f.as_str()))
                    .collect(),
            ),
        ),
        (
            "metrics",
            JsonValue::Obj(
                metrics
                    .iter()
                    .map(|(n, s)| (n.to_string(), metric_json(&spec, n, s)))
                    .collect(),
            ),
        ),
        ("exact", exact),
    ]);
    let file = cfg.out.join(format!(
        "result_{}_t{}.json",
        cfg.workload,
        u8::from(cfg.traced)
    ));
    std::fs::write(file, detail.render()).expect("write result file");

    let line = JsonValue::obj([
        ("correct", JsonValue::Bool(failed == 0)),
        ("attempted", JsonValue::from(checks.attempted)),
        ("failed", JsonValue::from(failed)),
        (
            "metrics",
            JsonValue::Obj(
                metrics
                    .iter()
                    .map(|(n, s)| {
                        (
                            n.to_string(),
                            JsonValue::obj([
                                ("value", JsonValue::from(s.value)),
                                ("unit", JsonValue::str(spec.unit(n))),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", line.render());
    i32::from(failed > 0)
}
