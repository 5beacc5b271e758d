//! Fixed-load benchmark of the scheduler's streaming API.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload batch_15k --seed 1 --seconds 30 --trace 0
//! ```
//!
//! One run measures one workload, single-threaded, for about
//! `--seconds`: it repeats a *pass* (a fixed set of trials drawn from
//! `--seed`) until the time is spent, each pass on freshly generated
//! inputs and freshly built schedulers. `--trace 0` prints the
//! end-to-end metrics; `--trace 1` alternates untraced and traced
//! passes and prints the per-layer metrics. The last line of standard
//! output is one JSON object; README.md defines every metric.
//!
//! The run checks the program's output: every pass must reproduce the
//! first exactly, trial 0 must serialize byte-identically to the
//! program's own unsupervised driver (`FederatedEngine`) on the same
//! input, and a traced pass must reproduce the untraced one. A failed
//! check prints `"correct": false` and exits 1.

mod clock;
mod drive;
mod pass;
mod report;
mod trace;
mod workload;

use drive::Probe;
use pass::{Pass, SetupSample};
use report::Metric;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::Spec;

/// Set-ups timed before the first pass (each pass adds one more): at
/// least this many, and at least [`SETUP_CPU_NS`] of on-CPU set-up
/// time, so `setup_s` is the median of many full set-ups even where one
/// takes only ten milliseconds.
const SETUP_REPS: usize = 5;

/// On-CPU set-up time the repetitions before the first pass add up to.
const SETUP_CPU_NS: u64 = 500_000_000;

struct Args {
    spec: Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) =
        (None, None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value =
            args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value:?}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()?),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let spec = workload::spec(&workload).ok_or_else(|| {
        let names: Vec<_> = workload::SPECS.iter().map(|s| s.name).collect();
        format!("unknown workload {workload:?}; one of {names:?}")
    })?;
    let trace = match trace.ok_or("--trace is required")? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace {other}: expected 0 or 1")),
    };
    Ok(Args {
        spec,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace,
    })
}

/// Every pass must repeat the first exactly, and a traced pass the
/// untraced one; traced passes must also repeat each other's work
/// counts. Returns the mismatches found.
fn check_repeats(untraced: &[Pass], traced: &[Pass]) -> Vec<String> {
    let mut problems: Vec<String> = untraced
        .iter()
        .enumerate()
        .map(|(i, p)| ("untraced", i, p))
        .chain(traced.iter().enumerate().map(|(i, p)| ("traced", i, p)))
        .filter(|(_, _, p)| p.trials != untraced[0].trials)
        .map(|(kind, i, _)| {
            format!("{kind} pass {i}: outcome differs from untraced pass 0")
        })
        .collect();
    let counts = |p: &Pass| {
        let layers = p.totals.layers.map(|l| (l.calls, l.items, l.proposals));
        (layers, p.totals.calls.map(|c| c.calls))
    };
    if traced.iter().any(|p| counts(p) != counts(&traced[0])) {
        problems.push("traced passes differ in their work counts".into());
    }
    problems
}

fn json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name, x.value, x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \
         \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Runs the benchmark; returns whether every check passed and the
/// result line.
fn run(args: &Args) -> Result<(bool, String), String> {
    let spec = &args.spec;
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut setups: Vec<SetupSample> = Vec::new();
    while setups.len() < SETUP_REPS
        || setups.iter().map(SetupSample::total_ns).sum::<u64>() < SETUP_CPU_NS
    {
        setups.push(pass::run(spec, args.seed, None, false)?.setup);
    }
    let mut untraced_probe = Probe::new(false);
    let mut traced_probe = Probe::new(true);
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut peak_rss_mib = 0.0;
    // Start another pass (or untraced + traced pair) only while it is
    // expected to end within the budget; the first always runs.
    let mut last = Duration::ZERO;
    while untraced.is_empty() || started.elapsed() + last <= budget {
        let t = Instant::now();
        untraced.push(pass::run(
            spec,
            args.seed,
            Some(&mut untraced_probe),
            false,
        )?);
        // The high-water mark after one pass: later passes repeat the
        // same work, and only let allocator fragmentation creep in.
        if untraced.len() == 1 {
            peak_rss_mib = clock::peak_rss_mib()?;
        }
        if args.trace {
            let keep = traced.is_empty();
            traced.push(pass::run(
                spec,
                args.seed,
                Some(&mut traced_probe),
                keep,
            )?);
        }
        last = t.elapsed();
    }
    setups.extend(untraced.iter().chain(&traced).map(|p| p.setup));

    let mut problems = check_repeats(&untraced, &traced);
    let reference = pass::reference(spec, args.seed)?;
    if untraced[0].trials[0].wire_hash != Some(reference.wire_hash) {
        problems.push(format!(
            "trial 0 stats differ from the unsupervised FederatedEngine \
             on the same input ({})",
            if spec.supervised {
                "supervised"
            } else {
                "streamed"
            }
        ));
    }
    for p in &problems {
        eprintln!("perfbench: CHECK FAILED: {p}");
    }

    let metrics = if args.trace {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}.tsv", spec.name));
        let n = trace::write_kept(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!(
            "perfbench: {n} spans of trial 0 written to {}",
            path.display()
        );
        report::per_layer(
            &traced,
            &untraced,
            &trace::take_latencies(),
            &setups,
            spec.supervised.then_some(&reference),
        )
    } else {
        report::end_to_end(
            &untraced,
            &untraced_probe.latencies,
            &setups,
            peak_rss_mib,
        )
    };
    if let Some(bad) = metrics.iter().find(|x| !x.value.is_finite()) {
        return Err(format!("metric {} is not finite", bad.name));
    }
    let all = || untraced.iter().chain(&traced);
    let attempted = all().map(|p| p.arrivals).sum();
    let failed = all().map(|p| p.failed).sum();
    let correct = problems.is_empty();
    Ok((correct, json(correct, attempted, failed, &metrics)))
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| run(&args));
    match result {
        Ok((correct, line)) => {
            println!("{line}");
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
