//! The metrics of the result line, computed from the passes of a run.
//! README.md defines each one and the layer it belongs to.
//!
//! Extensive per-layer figures (counts, busy seconds) are per pass —
//! one run of the workload's trial set — so they do not depend on how
//! many passes fitted in the run. Counts come from the first traced
//! pass; every pass repeats them exactly (the run checks it).

use crate::clock::{median, Latencies};
use crate::drive::Decided;
use crate::pass::{Pass, Reference, SetupSample, TrialOutcome};
use crate::trace::{Call, CallLatencies, CallStats, Layer, LayerStats};

/// One metric of the result line.
pub struct Metric {
    /// Name, as in BENCHMARK.json.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as in BENCHMARK.json.
    pub unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn per_pass(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    passes.iter().map(f).sum::<f64>() / passes.len() as f64
}

fn layer(pass: &Pass, l: Layer) -> LayerStats {
    pass.totals.layers[l as usize]
}

fn call(pass: &Pass, c: Call) -> CallStats {
    pass.totals.calls[c as usize]
}

fn setup_median(setups: &[SetupSample], f: fn(&SetupSample) -> u64) -> f64 {
    secs(median(&setups.iter().map(f).collect::<Vec<_>>()))
}

/// The end-to-end metrics of an untraced run, from its passes, its
/// arrival-call latencies, its set-up samples and its peak resident
/// set.
pub fn end_to_end(
    passes: &[Pass],
    latencies: &Latencies,
    setups: &[SetupSample],
    peak_rss_mib: f64,
) -> Vec<Metric> {
    let arrivals: u64 = passes.iter().map(|p| p.arrivals).sum();
    let cpu: u64 = passes.iter().map(|p| p.cpu_ns).sum();
    let first = &passes[0];
    let robustness = first.trials.iter().map(|t| t.robustness_pct).sum::<f64>()
        / first.trials.len() as f64;
    eprintln!(
        "perfbench: {} passes of {} arrivals, {} latency samples, {} set-ups",
        passes.len(),
        first.arrivals,
        latencies.len(),
        setups.len()
    );
    for (i, p) in passes.iter().enumerate() {
        eprintln!(
            "perfbench: pass {i}: {:.0} arrivals per on-CPU s, {:.0} per wall s",
            ratio(p.arrivals as f64, secs(p.cpu_ns)),
            ratio(p.arrivals as f64, secs(p.wall_ns)),
        );
    }
    vec![
        m(
            "arrivals_per_cpu_s",
            ratio(arrivals as f64, secs(cpu)),
            "1/s",
        ),
        m("arrival_p50_us", us(latencies.percentile(50.0)), "us"),
        m("arrival_p99_us", us(latencies.percentile(99.0)), "us"),
        m("robustness_pct", robustness, "%"),
        m("setup_s", setup_median(setups, SetupSample::total_ns), "s"),
        m("peak_rss_mib", peak_rss_mib, "MiB"),
    ]
}

/// The per-layer metrics of a traced run. `reference` is the
/// unsupervised run of trial 0, which prices the supervisor on the
/// supervised workload.
pub fn per_layer(
    traced: &[Pass],
    untraced: &[Pass],
    spans: &CallLatencies,
    setups: &[SetupSample],
    reference: Option<&Reference>,
) -> Vec<Metric> {
    let first = &traced[0];
    let busy = |l: Layer| per_pass(traced, |p| secs(layer(p, l).busy_ns));
    let call_busy = |cs: &[Call]| {
        per_pass(traced, |p| {
            secs(cs.iter().map(|&c| call(p, c).dur_ns).sum())
        })
    };
    let total = |f: fn(&TrialOutcome) -> u64| -> f64 {
        first.trials.iter().map(f).sum::<u64>() as f64
    };
    let decided = first
        .trials
        .iter()
        .fold(Decided::default(), |acc, t| acc.plus(t.decided));
    let select = layer(first, Layer::Select);
    let place = layer(first, Layer::Place);
    let drops = layer(first, Layer::Drops);
    let defer = layer(first, Layer::Defer);
    let route = layer(first, Layer::Route);
    let span_ns =
        |p: &Pass| p.totals.calls.iter().map(|c| c.dur_ns).sum::<u64>();
    let self_ns = |p: &Pass| {
        p.totals
            .calls
            .iter()
            .map(|c| c.dur_ns.saturating_sub(c.child_ns))
            .sum::<u64>()
    };
    let cpu_t = per_pass(traced, |p| p.cpu_ns as f64);
    let cpu_u = per_pass(untraced, |p| p.cpu_ns as f64);
    let wall_u = per_pass(untraced, |p| p.wall_ns as f64);
    // The supervised pass is a single trial, the one the reference ran.
    let (overhead_s, checkpoint_ms) = reference.map_or((0.0, 0.0), |r| {
        (
            (cpu_u - r.run_ns as f64) / 1e9,
            r.checkpoint_ns as f64 / 1e6,
        )
    });
    let absorbed = total(|t| t.absorbed);
    let pushes = call(first, Call::PushRouted).calls
        + call(first, Call::PushAbsorbed).calls;
    vec![
        m("mapper.rounds", select.calls as f64, "count"),
        m("mapper.candidates", select.items as f64, "count"),
        m("mapper.proposals", select.proposals as f64, "count"),
        m("mapper.busy_s", busy(Layer::Select), "s"),
        m(
            "mapper.assign_ratio",
            ratio(decided.assign as f64, select.proposals as f64),
            "ratio",
        ),
        m("mapper.place_calls", place.calls as f64, "count"),
        m("mapper.place_busy_s", busy(Layer::Place), "s"),
        m("pruner.drops_calls", drops.calls as f64, "count"),
        m("pruner.drops", drops.items as f64, "count"),
        m("pruner.drops_busy_s", busy(Layer::Drops), "s"),
        m("pruner.defer_calls", defer.calls as f64, "count"),
        m("pruner.defers", defer.items as f64, "count"),
        m(
            "pruner.defer_ratio",
            ratio(defer.items as f64, defer.calls as f64),
            "ratio",
        ),
        m("pruner.defer_busy_s", busy(Layer::Defer), "s"),
        m("pruner.begin_busy_s", busy(Layer::Begin), "s"),
        m("core.events", total(|t| t.mapping_events), "count"),
        m("core.self_s", per_pass(traced, |p| secs(self_ns(p))), "s"),
        m("core.pricing_calls", defer.calls as f64, "count"),
        m("core.assign", decided.assign as f64, "count"),
        m("core.defer", decided.defer as f64, "count"),
        m("core.drop_reactive", decided.drop_reactive as f64, "count"),
        m(
            "core.drop_probabilistic",
            decided.drop_probabilistic as f64,
            "count",
        ),
        m("core.reject", decided.reject as f64, "count"),
        m("gateway.push_calls", pushes as f64, "count"),
        m(
            "gateway.push_busy_s",
            call_busy(&[Call::PushRouted, Call::PushAbsorbed]),
            "s",
        ),
        m(
            "gateway.complete_calls",
            call(first, Call::Complete).calls as f64,
            "count",
        ),
        m("gateway.complete_busy_s", call_busy(&[Call::Complete]), "s"),
        m(
            "gateway.complete_p99_us",
            us(spans.complete.percentile(99.0)),
            "us",
        ),
        m(
            "gateway.wakeups",
            call(first, Call::Wakeup).calls as f64,
            "count",
        ),
        m(
            "gateway.absorbed_p50_us",
            us(spans.absorbed.percentile(50.0)),
            "us",
        ),
        m(
            "gateway.routed_p50_us",
            us(spans.routed.percentile(50.0)),
            "us",
        ),
        m("route.calls", route.calls as f64, "count"),
        m("route.busy_s", busy(Layer::Route), "s"),
        m("reuse.absorbed", absorbed, "count"),
        m(
            "reuse.absorbed_pct",
            100.0 * ratio(absorbed, first.arrivals as f64),
            "%",
        ),
        m("supervisor.checkpoints", total(|t| t.checkpoints), "count"),
        m("supervisor.overhead_s", overhead_s, "s"),
        m("snapshot.checkpoint_ms", checkpoint_ms, "ms"),
        m("workload.pet_s", setup_median(setups, |s| s.pet_ns), "s"),
        m(
            "workload.trials_s",
            setup_median(setups, |s| s.trials_ns),
            "s",
        ),
        m("build.s", setup_median(setups, |s| s.build_ns), "s"),
        m(
            "wall.arrivals_per_s",
            ratio(first.arrivals as f64, wall_u / 1e9),
            "1/s",
        ),
        m("host.steal_pct", 100.0 * (1.0 - ratio(cpu_u, wall_u)), "%"),
        m(
            "loadgen.share_pct",
            100.0
                * per_pass(traced, |p| {
                    1.0 - ratio(span_ns(p) as f64, p.wall_ns as f64)
                }),
            "%",
        ),
        m(
            "trace.overhead_pct",
            100.0 * (ratio(cpu_t, cpu_u) - 1.0),
            "%",
        ),
    ]
}
