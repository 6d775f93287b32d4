//! The CLI skeleton every workspace tool shares: a flag cursor and the
//! exit contract as a type.
//!
//! A tool's `main` is `cli::run("tool", USAGE, |args| …)`. The body
//! pulls its flags out of [`Args`] and returns `Ok(Outcome::Clean)`
//! (exit 0), `Ok(Outcome::Findings)` (exit 1 — the gate fails) or
//! `Err(message)` (exit 2 — usage, I/O or parse error, printed as
//! `tool: message`). `--help`/`-h` anywhere prints the usage and exits
//! 0; a bare invocation prints it and exits 2.

use std::process::ExitCode;
use std::str::FromStr;

/// What a tool found, once it ran to completion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Nothing to report: exit 0.
    Clean,
    /// The gate fails (regression, lint finding, fuzz violation): exit 1.
    Findings,
}

impl Outcome {
    /// `Clean` when `clean`, else `Findings`.
    pub fn clean_if(clean: bool) -> Outcome {
        if clean {
            Outcome::Clean
        } else {
            Outcome::Findings
        }
    }
}

/// The arguments not yet consumed. Take flags and values out first,
/// then the positionals with [`exactly`](Args::exactly) — which rejects
/// any flag nobody asked for.
pub struct Args {
    rest: Vec<String>,
    usage: &'static str,
}

impl Args {
    /// Removes and returns the leading argument — a subcommand name.
    pub fn command(&mut self) -> Option<String> {
        (!self.rest.is_empty()).then(|| self.rest.remove(0))
    }

    /// Removes every occurrence of the boolean flag `name`; `true` if
    /// there was one.
    pub fn flag(&mut self, name: &str) -> bool {
        let before = self.rest.len();
        self.rest.retain(|a| a != name);
        self.rest.len() != before
    }

    /// Removes `name VALUE` and parses the value; `None` when the flag
    /// is absent.
    ///
    /// # Errors
    ///
    /// A flag with no value after it, or a value `T` cannot parse.
    pub fn value<T: FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        let Some(i) = self.rest.iter().position(|a| a == name) else {
            return Ok(None);
        };
        if i + 1 >= self.rest.len() {
            return Err(format!("{name} needs a value\n{}", self.usage));
        }
        let raw = self.rest.remove(i + 1);
        self.rest.remove(i);
        raw.parse()
            .map(Some)
            .map_err(|_| format!("{name}: cannot parse `{raw}`"))
    }

    /// The remaining arguments: exactly `N` positionals.
    ///
    /// # Errors
    ///
    /// An unconsumed `--flag`, or a different number of positionals —
    /// both reported with the usage text.
    pub fn exactly<const N: usize>(self) -> Result<[String; N], String> {
        if let Some(flag) = self.rest.iter().find(|a| a.starts_with("--")) {
            return Err(format!("unknown flag `{flag}`\n{}", self.usage));
        }
        <[String; N]>::try_from(self.rest).map_err(|_| self.usage.to_string())
    }
}

/// Reads `path` to a string, naming the path in the error.
///
/// # Errors
///
/// The I/O error, prefixed with `cannot read <path>`.
pub fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// Runs a tool body over the process arguments under the exit contract.
pub fn run(
    tool: &str,
    usage: &'static str,
    body: impl FnOnce(Args) -> Result<Outcome, String>,
) -> ExitCode {
    ExitCode::from(dispatch(
        tool,
        usage,
        std::env::args().skip(1).collect(),
        body,
    ))
}

fn dispatch(
    tool: &str,
    usage: &'static str,
    argv: Vec<String>,
    body: impl FnOnce(Args) -> Result<Outcome, String>,
) -> u8 {
    let help = argv.iter().any(|a| a == "--help" || a == "-h");
    if help || argv.is_empty() {
        println!("{usage}");
        return if help { 0 } else { 2 };
    }
    match body(Args { rest: argv, usage }) {
        Ok(Outcome::Clean) => 0,
        Ok(Outcome::Findings) => 1,
        Err(msg) => {
            eprintln!("{tool}: {msg}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn code(argv: &[&str], body: impl FnOnce(Args) -> Result<Outcome, String>) -> u8 {
        let argv = argv.iter().map(|a| a.to_string()).collect();
        dispatch("tool", "usage: tool", argv, body)
    }

    #[test]
    fn outcomes_map_to_the_exit_contract() {
        assert_eq!(code(&["x"], |_| Ok(Outcome::Clean)), 0);
        assert_eq!(code(&["x"], |_| Ok(Outcome::Findings)), 1);
        assert_eq!(code(&["x"], |_| Err("broken".to_string())), 2);
        // --help wins over everything and never runs the body; a bare
        // invocation is misuse.
        assert_eq!(code(&["x", "--help"], |_| unreachable!()), 0);
        assert_eq!(code(&[], |_| unreachable!()), 2);

        // The cursor: flags and values come out, positionals remain, and
        // a flag nobody consumed is a usage error.
        let parsed = code(&["a", "--tol", "0.5", "--strict", "b"], |mut args| {
            assert_eq!(args.value::<f64>("--tol")?, Some(0.5));
            assert_eq!(args.value::<u32>("--top")?, None);
            assert!(args.flag("--strict") && !args.flag("--strict"));
            assert_eq!(args.exactly::<2>()?, ["a".to_string(), "b".to_string()]);
            Ok(Outcome::Clean)
        });
        assert_eq!(parsed, 0);
        assert_eq!(
            code(&["--tol"], |mut a| a
                .value::<f64>("--tol")
                .map(|_| Outcome::Clean)),
            2
        );
        assert_eq!(
            code(&["--tol", "x"], |mut a| a
                .value::<f64>("--tol")
                .map(|_| Outcome::Clean)),
            2
        );
        assert_eq!(
            code(&["--bogus"], |a| a.exactly::<0>().map(|_| Outcome::Clean)),
            2
        );
        assert_eq!(
            code(&["a"], |a| a.exactly::<2>().map(|_| Outcome::Clean)),
            2
        );
    }
}
