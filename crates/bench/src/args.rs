//! A tiny flag parser for the figure binaries — avoids a CLI-framework
//! dependency for what is three flags.

use crate::report::{BenchEntry, BenchSeries};
use crate::scale::Scale;

/// Parsed common flags: `--trials N`, `--scale F`, `--pattern P`,
/// `--out DIR`, plus free-standing positionals.
#[derive(Debug, Clone)]
pub struct CommonArgs {
    /// Experiment scale (size factor + trials).
    pub scale: Scale,
    /// Arrival pattern filter ("constant" | "spiky"), if given.
    pub pattern: Option<String>,
    /// Output directory for CSV/Markdown reports.
    pub out_dir: String,
    /// Remaining positional arguments.
    pub positionals: Vec<String>,
}

impl CommonArgs {
    /// Parses `std::env::args`, panicking with a usage message on
    /// malformed flags.
    pub fn parse() -> Self {
        Self::from_iter(std::env::args().skip(1))
    }

    /// Parses from an explicit iterator (testable).
    #[allow(clippy::should_implement_trait)] // not a collection conversion
    pub fn from_iter(args: impl IntoIterator<Item = String>) -> Self {
        let mut scale = Scale::full();
        let mut pattern = None;
        let mut out_dir = "results".to_string();
        let mut positionals = Vec::new();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--trials" => {
                    scale.trials = iter
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--trials needs a positive integer");
                }
                "--scale" => {
                    scale.size_factor = iter
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--scale needs a number in (0, 1]");
                }
                "--smoke" => scale = Scale::smoke(),
                "--pattern" => {
                    pattern =
                        Some(iter.next().expect("--pattern needs a value"));
                }
                "--out" => {
                    out_dir = iter.next().expect("--out needs a path");
                }
                "--mode" => {
                    // fig7 uses --mode immediate|batch as a positional
                    // alias; forward it.
                    positionals
                        .push(iter.next().expect("--mode needs a value"));
                }
                other => positionals.push(other.to_string()),
            }
        }
        Self {
            scale,
            pattern,
            out_dir,
            positionals,
        }
    }
}

/// Parsed flags shared by the `bench_*_baseline` series bins:
/// `--smoke`, `--out DIR`, `--commit LABEL`, `--check`. One parser so
/// the two bins' CLI contracts (and ci.yml's invocations) cannot
/// drift.
#[derive(Debug, Clone)]
pub struct BaselineArgs {
    /// Reduced measurement effort for CI.
    pub smoke: bool,
    /// Fail the process on a tripped regression/scaling gate.
    pub check: bool,
    /// Series directory given by `--out` (`results` when absent). A
    /// `--check` run without it compares against the tracked series in
    /// memory and leaves it untouched.
    pub out_dir: Option<String>,
    /// Commit stamp for the appended run (default: `git rev-parse
    /// --short HEAD`, falling back to `unknown`).
    pub commit: String,
}

impl BaselineArgs {
    /// Parses `std::env::args`.
    pub fn parse() -> Self {
        Self::from_iter(std::env::args().skip(1))
    }

    /// Parses from an explicit iterator (testable).
    #[allow(clippy::should_implement_trait)] // not a collection conversion
    pub fn from_iter(args: impl IntoIterator<Item = String>) -> Self {
        let args: Vec<String> = args.into_iter().collect();
        let value_of = |flag: &str| {
            args.iter()
                .position(|a| a == flag)
                .and_then(|i| args.get(i + 1).cloned())
        };
        Self {
            smoke: args.iter().any(|a| a == "--smoke"),
            check: args.iter().any(|a| a == "--check"),
            out_dir: value_of("--out"),
            commit: value_of("--commit").unwrap_or_else(head_commit),
        }
    }

    /// Whether a run writes its series back: always, except under
    /// `--check` without `--out`.
    pub fn writes(&self) -> bool {
        !self.check || self.out_dir.is_some()
    }

    /// Loads the `name` series from the series directory, appends this
    /// run's `entries` under the commit stamp and, when
    /// [`BaselineArgs::writes`], writes the series back. Returns the
    /// series with the new run last, for the regression gate.
    pub fn append_run(
        &self,
        name: &str,
        description: &str,
        entries: Vec<BenchEntry>,
    ) -> BenchSeries {
        let dir = self.out_dir.as_deref().unwrap_or("results");
        let mut series = BenchSeries::load_or_new(dir, name, description)
            .expect(
                "unreadable bench series — fix or remove it before appending",
            );
        series.append(self.commit.clone(), entries);
        if self.writes() {
            let path = series.write_file(dir).expect("write bench series");
            let runs = series.runs.len();
            println!("wrote {path} ({runs} runs, newest {})", self.commit);
        } else {
            println!(
                "--check without --out: compared in memory, wrote nothing"
            );
        }
        series
    }
}

/// `git rev-parse --short HEAD`, or `unknown` outside a work tree.
pub fn head_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> CommonArgs {
        CommonArgs::from_iter(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn baseline_args_parse_all_flags() {
        let a = BaselineArgs::from_iter(
            ["--smoke", "--check", "--out", "/tmp/x", "--commit", "abc"]
                .iter()
                .map(|s| s.to_string()),
        );
        assert!(a.smoke && a.check && a.writes());
        assert_eq!(a.out_dir.as_deref(), Some("/tmp/x"));
        assert_eq!(a.commit, "abc");
        let d = BaselineArgs::from_iter(std::iter::empty());
        assert!(!d.smoke && !d.check && d.out_dir.is_none() && d.writes());
        assert!(!d.commit.is_empty());
        // A check without --out compares in memory and writes nothing.
        assert!(!BaselineArgs::from_iter(["--check".to_string()]).writes());
    }

    #[test]
    fn defaults_to_paper_scale() {
        let a = parse(&[]);
        assert_eq!(a.scale, Scale::full());
        assert_eq!(a.out_dir, "results");
        assert!(a.pattern.is_none());
    }

    #[test]
    fn parses_flags() {
        let a = parse(&[
            "--trials",
            "5",
            "--scale",
            "0.2",
            "--pattern",
            "constant",
            "--out",
            "/tmp/x",
        ]);
        assert_eq!(a.scale.trials, 5);
        assert!((a.scale.size_factor - 0.2).abs() < 1e-12);
        assert_eq!(a.pattern.as_deref(), Some("constant"));
        assert_eq!(a.out_dir, "/tmp/x");
    }

    #[test]
    fn smoke_flag_sets_smoke_scale() {
        let a = parse(&["--smoke"]);
        assert_eq!(a.scale, Scale::smoke());
    }

    #[test]
    fn positionals_and_mode_alias() {
        let a = parse(&["--mode", "immediate", "extra"]);
        assert_eq!(a.positionals, vec!["immediate", "extra"]);
    }
}
