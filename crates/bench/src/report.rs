//! CSV / Markdown emission of experiment series into `results/`, plus
//! machine-readable JSON baselines for micro-benchmarks (the perf
//! trajectory CI tracks across PRs).

use serde::{Deserialize, Serialize};
use std::io::Write;
use std::path::Path;
use taskprune::ExperimentResult;

/// One figure's data: grouped experiment results with a caption.
#[derive(Debug, Clone)]
pub struct FigureReport {
    /// Identifier used for file names ("fig9a" etc.).
    pub id: String,
    /// Human caption echoing the paper's.
    pub caption: String,
    /// Column label of the series key (e.g. "heuristic", "threshold").
    pub series_label: String,
    /// The rows: (series key, result).
    pub rows: Vec<(String, ExperimentResult)>,
}

impl FigureReport {
    /// Renders a console/Markdown table.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("### {} — {}\n\n", self.id, self.caption));
        out.push_str(&format!(
            "| {} | robustness (% on time) | 95% CI ± | wasted work % | deferrals | proactive drops |\n",
            self.series_label
        ));
        out.push_str("|---|---|---|---|---|---|\n");
        for (key, r) in &self.rows {
            out.push_str(&format!(
                "| {} | {:.2} | {:.2} | {:.1} | {:.0} | {:.0} |\n",
                key,
                r.robustness.mean,
                r.robustness.ci95_half_width,
                100.0 * r.mean_wasted_fraction,
                r.mean_deferrals,
                r.mean_proactive_drops,
            ));
        }
        out
    }

    /// Renders CSV with one row per experiment.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "series,robustness_mean,robustness_ci95,wasted_fraction,\
             deferrals,proactive_drops,n_trials\n",
        );
        for (key, r) in &self.rows {
            out.push_str(&format!(
                "{},{:.4},{:.4},{:.6},{:.1},{:.1},{}\n",
                key.replace(',', ";"),
                r.robustness.mean,
                r.robustness.ci95_half_width,
                r.mean_wasted_fraction,
                r.mean_deferrals,
                r.mean_proactive_drops,
                r.robustness.n,
            ));
        }
        out
    }

    /// Writes `<out_dir>/<id>.md` and `<out_dir>/<id>.csv`.
    pub fn write_files(&self, out_dir: &str) -> std::io::Result<()> {
        let dir = Path::new(out_dir);
        std::fs::create_dir_all(dir)?;
        let mut md =
            std::fs::File::create(dir.join(format!("{}.md", self.id)))?;
        md.write_all(self.to_markdown().as_bytes())?;
        let mut csv =
            std::fs::File::create(dir.join(format!("{}.csv", self.id)))?;
        csv.write_all(self.to_csv().as_bytes())?;
        Ok(())
    }

    /// Prints the Markdown table to stdout.
    pub fn print(&self) {
        println!("{}", self.to_markdown());
    }
}

/// One timed scenario of a micro-benchmark baseline: an operation on a
/// queue of `queue_depth` tasks whose PETs have `pet_support` bins,
/// measured under the incremental chain maintenance and under a forced
/// from-scratch rebuild.
#[derive(Debug, Clone)]
pub struct BenchEntry {
    /// Scenario label (e.g. "tail_drop", "mid_drop", "steady_cycle").
    pub scenario: String,
    /// Number of waiting tasks in the queue under test.
    pub queue_depth: usize,
    /// Support length (bins) of every PET in the queue.
    pub pet_support: usize,
    /// Nanoseconds per operation with incremental chain maintenance.
    pub incremental_ns: f64,
    /// Nanoseconds per operation with a forced from-scratch rebuild
    /// after every mutation (the pre-incremental cost profile).
    pub scratch_ns: f64,
    /// `scratch_ns / incremental_ns`.
    pub speedup: f64,
    /// Paper-trim robustness (% on time) of the measured run, where
    /// the scenario has one (the federation ingest series records it
    /// so throughput shifts can be read against *scheduling-quality*
    /// shifts — e.g. "2 shards slower because they drop less"). `None`
    /// for pure micro-benchmarks.
    pub robustness_pct: Option<f64>,
    /// Paper-trim robustness (% on time) of the same scenario run
    /// **supervised under a fixed seeded `FaultPlan` storm with a
    /// zero retry budget** — the worst-case degraded mode (lost
    /// deliveries stay lost, a crashed shard is quarantined and its
    /// backlog re-routed). Tracked next to [`BenchEntry::robustness_pct`]
    /// so the series catches fault-*tolerance* regressions commit over
    /// commit: a shrinking gap means degradation got more graceful, a
    /// widening one means quarantine/re-route quality regressed.
    /// `None` for scenarios without a fault-storm twin.
    pub robustness_under_faults_pct: Option<f64>,
    /// Gate disposition of the run that produced this entry: `None`
    /// when the measurement was gated normally, or a marker such as
    /// `"skipped(cores<4)"` when the host could not support the gate
    /// and it was waived — so a waived run is visible in the tracked
    /// series instead of reading as a silent pass.
    pub gate: Option<String>,
    /// Percentage of ingested arrivals the function-reuse gate absorbed
    /// (dedup hits over total arrivals) in the measured run.
    /// `None` for scenarios without a reuse gate (including every entry
    /// recorded before the gate existed).
    pub reuse_hit_pct: Option<f64>,
    /// Ingest throughput of the measured run in arrivals per wall-clock
    /// second — tracked beside [`BenchEntry::reuse_hit_pct`] so the
    /// series shows what absorbing duplicates at the gateway buys in
    /// raw ingest rate. `None` for pure micro-benchmarks.
    pub arrivals_per_sec: Option<f64>,
    /// Percentage of arrivals that changed shards via batch-queue
    /// stealing (`tasks_moved / arrivals`) in the measured run —
    /// tracked so throughput shifts in the stateful-routing series can
    /// be read against how much rebalancing actually happened. `None`
    /// for scenarios without a stealing federation.
    pub steals_pct: Option<f64>,
    /// The `Consistency::BoundedStale { k }` staleness bound the run
    /// routed under (`0` = per-arrival refresh ≡ Lockstep). `None` for
    /// scenarios without the relaxed-routing layer.
    pub staleness_k: Option<u64>,
    /// The **floor** of per-tenant robustness (% on time) across every
    /// tenant that submitted work in the measured run — the
    /// SLA-isolation signal of the multi-tenant admission layer: the
    /// aggregate `robustness_pct` can hide one starved tenant behind
    /// healthy neighbours, the floor cannot. `None` for scenarios
    /// without a tenancy policy (including every entry recorded before
    /// the admission layer existed).
    pub per_tenant_robustness_pct: Option<f64>,
    /// Percentage of submitted arrivals the tenant admission layer
    /// shed (quota + throttle + overload, over all tenants) in the
    /// measured run — tracked beside
    /// [`BenchEntry::per_tenant_robustness_pct`] so throughput and
    /// quality shifts in the tenant family can be read against how
    /// much load the front door actually refused. `None` for
    /// scenarios without a tenancy policy.
    pub shed_pct: Option<f64>,
}

// Hand-written (de)serialization instead of the derive: runs recorded
// before `robustness_pct` / `gate` existed must keep loading, so a
// missing field reads as `None` — the vendored serde derive has no
// `#[serde(default)]`.
impl Serialize for BenchEntry {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("scenario".to_string(), self.scenario.to_value()),
            ("queue_depth".to_string(), self.queue_depth.to_value()),
            ("pet_support".to_string(), self.pet_support.to_value()),
            ("incremental_ns".to_string(), self.incremental_ns.to_value()),
            ("scratch_ns".to_string(), self.scratch_ns.to_value()),
            ("speedup".to_string(), self.speedup.to_value()),
            ("robustness_pct".to_string(), self.robustness_pct.to_value()),
            (
                "robustness_under_faults_pct".to_string(),
                self.robustness_under_faults_pct.to_value(),
            ),
            ("gate".to_string(), self.gate.to_value()),
            ("reuse_hit_pct".to_string(), self.reuse_hit_pct.to_value()),
            (
                "arrivals_per_sec".to_string(),
                self.arrivals_per_sec.to_value(),
            ),
            ("steals_pct".to_string(), self.steals_pct.to_value()),
            ("staleness_k".to_string(), self.staleness_k.to_value()),
            (
                "per_tenant_robustness_pct".to_string(),
                self.per_tenant_robustness_pct.to_value(),
            ),
            ("shed_pct".to_string(), self.shed_pct.to_value()),
        ])
    }
}

impl Deserialize for BenchEntry {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        Ok(Self {
            scenario: Deserialize::from_value(v.get_field("scenario")?)?,
            queue_depth: Deserialize::from_value(v.get_field("queue_depth")?)?,
            pet_support: Deserialize::from_value(v.get_field("pet_support")?)?,
            incremental_ns: Deserialize::from_value(
                v.get_field("incremental_ns")?,
            )?,
            scratch_ns: Deserialize::from_value(v.get_field("scratch_ns")?)?,
            speedup: Deserialize::from_value(v.get_field("speedup")?)?,
            robustness_pct: match v.get_opt("robustness_pct") {
                Some(field) => Deserialize::from_value(field)?,
                None => None, // pre-PR5 run: field absent
            },
            robustness_under_faults_pct: match v
                .get_opt("robustness_under_faults_pct")
            {
                Some(field) => Deserialize::from_value(field)?,
                None => None, // pre-PR7 run: field absent
            },
            gate: match v.get_opt("gate") {
                Some(field) => Deserialize::from_value(field)?,
                None => None, // pre-PR6 run: field absent
            },
            reuse_hit_pct: match v.get_opt("reuse_hit_pct") {
                Some(field) => Deserialize::from_value(field)?,
                None => None, // pre-PR8 run: field absent
            },
            arrivals_per_sec: match v.get_opt("arrivals_per_sec") {
                Some(field) => Deserialize::from_value(field)?,
                None => None, // pre-PR8 run: field absent
            },
            steals_pct: match v.get_opt("steals_pct") {
                Some(field) => Deserialize::from_value(field)?,
                None => None, // pre-PR9 run: field absent
            },
            staleness_k: match v.get_opt("staleness_k") {
                Some(field) => Deserialize::from_value(field)?,
                None => None, // pre-PR9 run: field absent
            },
            per_tenant_robustness_pct: match v
                .get_opt("per_tenant_robustness_pct")
            {
                Some(field) => Deserialize::from_value(field)?,
                None => None, // pre-PR10 run: field absent
            },
            shed_pct: match v.get_opt("shed_pct") {
                Some(field) => Deserialize::from_value(field)?,
                None => None, // pre-PR10 run: field absent
            },
        })
    }
}

/// A machine-readable micro-benchmark baseline, written as
/// `BENCH_<name>.json` so CI and later PRs can diff perf trajectories.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchReport {
    /// Benchmark family name (file becomes `BENCH_<name>.json`).
    pub name: String,
    /// Free-form description of what was measured and how.
    pub description: String,
    /// Measured scenarios.
    pub entries: Vec<BenchEntry>,
}

impl BenchReport {
    /// Serialises to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("bench report serialises")
    }

    /// Writes `<out_dir>/BENCH_<name>.json` and returns its path.
    pub fn write_file(&self, out_dir: &str) -> std::io::Result<String> {
        let dir = Path::new(out_dir);
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("BENCH_{}.json", self.name));
        let mut f = std::fs::File::create(&path)?;
        f.write_all(self.to_json().as_bytes())?;
        f.write_all(b"\n")?;
        Ok(path.display().to_string())
    }
}

/// One commit-stamped measurement run inside a [`BenchSeries`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchRun {
    /// Commit (or other label) the run was measured at.
    pub commit: String,
    /// Measured scenarios.
    pub entries: Vec<BenchEntry>,
}

/// A per-PR perf trajectory: the same micro-benchmark measured at a
/// sequence of commits, appended to on every run of the baseline bin.
/// CI compares the newest run against the previous one and fails the
/// build on a regression (see [`BenchSeries::check_regression`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchSeries {
    /// Benchmark family name (file is `BENCH_<name>.json`).
    pub name: String,
    /// Free-form description of what was measured and how.
    pub description: String,
    /// Measurement runs, oldest first.
    pub runs: Vec<BenchRun>,
}

impl BenchSeries {
    /// Loads the series from `<dir>/BENCH_<name>.json`. A *missing*
    /// file starts a fresh, empty series; a file in the pre-series
    /// single-report format is migrated into a series whose sole run is
    /// labelled `pre-series`. A file that exists but parses as neither
    /// format is an **error** — callers must not append-and-overwrite a
    /// tracked history they failed to read (a truncated write or merge
    /// conflict would silently destroy the whole trajectory otherwise).
    pub fn load_or_new(
        dir: &str,
        name: &str,
        description: &str,
    ) -> std::io::Result<Self> {
        let path = Path::new(dir).join(format!("BENCH_{name}.json"));
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok(Self {
                    name: name.to_string(),
                    description: description.to_string(),
                    runs: Vec::new(),
                });
            }
            Err(e) => return Err(e),
        };
        if let Ok(series) = serde_json::from_str::<BenchSeries>(&text) {
            if !series.runs.is_empty() {
                return Ok(series);
            }
        }
        if let Ok(report) = serde_json::from_str::<BenchReport>(&text) {
            if !report.entries.is_empty() {
                return Ok(Self {
                    name: report.name,
                    description: report.description,
                    runs: vec![BenchRun {
                        commit: "pre-series".to_string(),
                        entries: report.entries,
                    }],
                });
            }
        }
        Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!(
                "{} exists but is neither a bench series nor a legacy \
                 report; refusing to overwrite the tracked history",
                path.display()
            ),
        ))
    }

    /// Appends one commit-stamped run.
    pub fn append(
        &mut self,
        commit: impl Into<String>,
        entries: Vec<BenchEntry>,
    ) {
        self.runs.push(BenchRun {
            commit: commit.into(),
            entries,
        });
    }

    /// Compares the newest run against the previous one over the
    /// matching (scenario, depth, support) triples. The gated quantity
    /// is the **speedup** (`scratch_ns / incremental_ns`): because both
    /// timings inside one run come from the same machine, the speedup
    /// is machine-relative, so a run recorded on a developer laptop and
    /// one recorded on a CI runner remain comparable — a slower host
    /// scales both numerators and denominators. A regression in the
    /// incremental path shows up as a *drop* in speedup against the
    /// stable from-scratch yardstick.
    ///
    /// Returns `Err` with a human-readable report when the
    /// geometric-mean speedup degradation exceeds `1 + threshold`
    /// (e.g. `threshold = 0.15` = incremental lost 15 % vs scratch);
    /// `Ok` carries the mean degradation factor (1.0 when fewer than
    /// two runs or no matching triples exist; values below 1.0 mean
    /// the incremental path got relatively faster). The geometric mean
    /// over all matching scenarios — rather than any single one —
    /// keeps the gate robust to per-scenario timer noise.
    pub fn check_regression(&self, threshold: f64) -> Result<f64, String> {
        let [.., prev, last] = self.runs.as_slice() else {
            return Ok(1.0);
        };
        let mut log_sum = 0.0;
        let mut n = 0usize;
        let mut detail = String::new();
        for e in &last.entries {
            let Some(base) = prev.entries.iter().find(|p| {
                p.scenario == e.scenario
                    && p.queue_depth == e.queue_depth
                    && p.pet_support == e.pet_support
            }) else {
                continue;
            };
            if base.speedup <= 0.0 || e.speedup <= 0.0 {
                continue;
            }
            // > 1.0 when the incremental path lost ground vs scratch.
            let degradation = base.speedup / e.speedup;
            log_sum += degradation.ln();
            n += 1;
            detail.push_str(&format!(
                "  {} d{} s{}: speedup {:.2}x -> {:.2}x ({:+.1} %)\n",
                e.scenario,
                e.queue_depth,
                e.pet_support,
                base.speedup,
                e.speedup,
                100.0 * (1.0 / degradation - 1.0),
            ));
        }
        if n == 0 {
            return Ok(1.0);
        }
        let mean_degradation = (log_sum / n as f64).exp();
        if mean_degradation > 1.0 + threshold {
            Err(format!(
                "perf regression: geometric-mean incremental-vs-scratch \
                 speedup degraded by {:.3}x, exceeding {:.3}x ({} vs {})\n{}",
                mean_degradation,
                1.0 + threshold,
                last.commit,
                prev.commit,
                detail,
            ))
        } else {
            Ok(mean_degradation)
        }
    }

    /// Per-scenario geometric-mean speedup degradation between two
    /// runs, over their matching (scenario, depth, support) triples.
    /// Deterministic (BTreeMap) scenario order.
    fn scenario_degradations(
        prev: &BenchRun,
        last: &BenchRun,
    ) -> Vec<(String, f64)> {
        let mut acc: std::collections::BTreeMap<String, (f64, usize)> =
            std::collections::BTreeMap::new();
        for e in &last.entries {
            let Some(base) = prev.entries.iter().find(|p| {
                p.scenario == e.scenario
                    && p.queue_depth == e.queue_depth
                    && p.pet_support == e.pet_support
            }) else {
                continue;
            };
            if base.speedup <= 0.0 || e.speedup <= 0.0 {
                continue;
            }
            let slot = acc.entry(e.scenario.clone()).or_insert((0.0, 0));
            slot.0 += (base.speedup / e.speedup).ln();
            slot.1 += 1;
        }
        acc.into_iter()
            .map(|(scenario, (log_sum, n))| {
                (scenario, (log_sum / n as f64).exp())
            })
            .collect()
    }

    /// The **per-scenario, noise-aware** regression gate: compares the
    /// newest run against the previous one *per scenario* (so a real
    /// regression in one scenario cannot hide behind improvements in
    /// the others, which the all-scenario geometric mean allowed), with
    /// each scenario's threshold widened by its own historical
    /// run-to-run noise.
    ///
    /// For every scenario the gated quantity is the geometric-mean
    /// speedup degradation over that scenario's matching (depth,
    /// support) triples — machine-relative for the same reason as
    /// [`BenchSeries::check_regression`]. The allowance is
    /// `(1 + base_threshold) · exp(2σ)`, where σ is the standard
    /// deviation of the scenario's historical log-degradations across
    /// all earlier consecutive run pairs in the series: a scenario
    /// whose measurements have historically bounced ±20 % between runs
    /// gets proportionally more headroom than one that has been stable
    /// to ±2 %, instead of both sharing one blunt threshold. With
    /// fewer than two historical pairs σ is taken as 0 and the gate
    /// degenerates to the plain per-scenario threshold.
    ///
    /// Returns the per-scenario degradations (scenario name, factor)
    /// on success, or a human-readable report naming every tripping
    /// scenario.
    pub fn check_regression_per_scenario(
        &self,
        base_threshold: f64,
    ) -> Result<Vec<(String, f64)>, String> {
        let [.., prev, last] = self.runs.as_slice() else {
            return Ok(Vec::new());
        };
        let current = Self::scenario_degradations(prev, last);

        // Historical per-scenario log-degradations: every consecutive
        // pair strictly before the (prev, last) pair under judgement.
        let mut history: std::collections::BTreeMap<String, Vec<f64>> =
            std::collections::BTreeMap::new();
        let n_runs = self.runs.len();
        for pair in self.runs.windows(2).take(n_runs.saturating_sub(2)) {
            for (scenario, degradation) in
                Self::scenario_degradations(&pair[0], &pair[1])
            {
                history.entry(scenario).or_default().push(degradation.ln());
            }
        }
        let sigma = |scenario: &str| -> f64 {
            let Some(logs) = history.get(scenario) else {
                return 0.0;
            };
            if logs.len() < 2 {
                return 0.0;
            }
            let mean = logs.iter().sum::<f64>() / logs.len() as f64;
            let var = logs.iter().map(|l| (l - mean).powi(2)).sum::<f64>()
                / (logs.len() - 1) as f64;
            var.sqrt()
        };

        let mut failures = String::new();
        for (scenario, degradation) in &current {
            let allowed =
                (1.0 + base_threshold) * (2.0 * sigma(scenario)).exp();
            if *degradation > allowed {
                failures.push_str(&format!(
                    "  {scenario}: speedup degraded {degradation:.3}x, \
                     exceeding its noise-aware allowance {allowed:.3}x\n"
                ));
            }
        }
        if failures.is_empty() {
            Ok(current)
        } else {
            Err(format!(
                "perf regression ({} vs {}):\n{failures}",
                last.commit, prev.commit,
            ))
        }
    }

    /// Writes `<out_dir>/BENCH_<name>.json` and returns its path.
    pub fn write_file(&self, out_dir: &str) -> std::io::Result<String> {
        let dir = Path::new(out_dir);
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("BENCH_{}.json", self.name));
        let mut f = std::fs::File::create(&path)?;
        f.write_all(
            serde_json::to_string(self)
                .expect("bench series serialises")
                .as_bytes(),
        )?;
        f.write_all(b"\n")?;
        Ok(path.display().to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taskprune_prob::stats::SummaryStats;

    fn fake_result(label: &str, mean: f64) -> ExperimentResult {
        ExperimentResult {
            label: label.to_string(),
            per_trial_robustness: vec![mean],
            robustness: SummaryStats::from_values(&[mean]).unwrap(),
            mean_wasted_fraction: 0.25,
            mean_deferrals: 10.0,
            mean_proactive_drops: 3.0,
            mean_type_variance: 0.0,
        }
    }

    fn report() -> FigureReport {
        FigureReport {
            id: "figX".to_string(),
            caption: "test caption".to_string(),
            series_label: "heuristic".to_string(),
            rows: vec![
                ("MM".to_string(), fake_result("MM", 50.0)),
                ("MM-P".to_string(), fake_result("MM-P", 65.0)),
            ],
        }
    }

    #[test]
    fn markdown_contains_rows_and_caption() {
        let md = report().to_markdown();
        assert!(md.contains("figX"));
        assert!(md.contains("test caption"));
        assert!(md.contains("| MM |"));
        assert!(md.contains("| MM-P | 65.00 |"));
    }

    #[test]
    fn csv_has_header_and_rows() {
        let csv = report().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("series,"));
        assert!(lines[1].starts_with("MM,50.0000"));
    }

    #[test]
    fn writes_files() {
        let dir = std::env::temp_dir().join("taskprune_report_test");
        let dir_str = dir.to_str().unwrap().to_string();
        report().write_files(&dir_str).unwrap();
        assert!(dir.join("figX.md").exists());
        assert!(dir.join("figX.csv").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An entry whose incremental path is `ns` against a fixed 1000 ns
    /// scratch yardstick — so a larger `ns` means a *worse* speedup.
    fn entry(scenario: &str, ns: f64) -> BenchEntry {
        BenchEntry {
            scenario: scenario.to_string(),
            queue_depth: 16,
            pet_support: 64,
            incremental_ns: ns,
            scratch_ns: 1_000.0,
            speedup: 1_000.0 / ns,
            robustness_pct: None,
            robustness_under_faults_pct: None,
            gate: None,
            reuse_hit_pct: None,
            arrivals_per_sec: None,
            steals_pct: None,
            staleness_k: None,
            per_tenant_robustness_pct: None,
            shed_pct: None,
        }
    }

    #[test]
    fn entries_without_robustness_still_parse() {
        // Runs recorded before `robustness_pct` existed (every pre-PR5
        // entry in the tracked series) must keep loading as `None`,
        // and the new field must round-trip when present.
        let legacy = "{\"scenario\":\"tail_drop\",\"queue_depth\":16,\
                      \"pet_support\":64,\"incremental_ns\":100.0,\
                      \"scratch_ns\":1000.0,\"speedup\":10.0}";
        let parsed: BenchEntry =
            serde_json::from_str(legacy).expect("legacy entry parses");
        assert_eq!(parsed.robustness_pct, None);
        assert_eq!(parsed.robustness_under_faults_pct, None);
        assert_eq!(parsed.reuse_hit_pct, None);
        assert_eq!(parsed.arrivals_per_sec, None);
        assert_eq!(parsed.steals_pct, None);
        assert_eq!(parsed.staleness_k, None);
        assert_eq!(parsed.per_tenant_robustness_pct, None);
        assert_eq!(parsed.shed_pct, None);
        let mut with_field = parsed.clone();
        with_field.robustness_pct = Some(84.5);
        with_field.robustness_under_faults_pct = Some(61.2);
        with_field.reuse_hit_pct = Some(23.1);
        with_field.arrivals_per_sec = Some(1.25e6);
        with_field.steals_pct = Some(0.85);
        with_field.staleness_k = Some(4);
        with_field.per_tenant_robustness_pct = Some(71.5);
        with_field.shed_pct = Some(12.5);
        let json = serde_json::to_string(&with_field).unwrap();
        let back: BenchEntry =
            serde_json::from_str(&json).expect("new entry parses");
        assert_eq!(back.robustness_pct, Some(84.5));
        assert_eq!(back.robustness_under_faults_pct, Some(61.2));
        assert_eq!(back.reuse_hit_pct, Some(23.1));
        assert_eq!(back.arrivals_per_sec, Some(1.25e6));
        assert_eq!(back.steals_pct, Some(0.85));
        assert_eq!(back.staleness_k, Some(4));
        assert_eq!(back.per_tenant_robustness_pct, Some(71.5));
        assert_eq!(back.shed_pct, Some(12.5));
        assert_eq!(back.scenario, "tail_drop");
        assert_eq!(back.speedup, 10.0);
    }

    #[test]
    fn gate_marker_roundtrips_and_defaults_to_none() {
        // Entries recorded before the gate-disposition field existed
        // must keep loading as `None`, and a recorded waiver must
        // survive a series round-trip verbatim.
        let legacy = "{\"scenario\":\"gateway_parallel_t4\",\
                      \"queue_depth\":4,\"pet_support\":10000,\
                      \"incremental_ns\":100.0,\"scratch_ns\":1000.0,\
                      \"speedup\":10.0,\"robustness_pct\":84.5}";
        let parsed: BenchEntry =
            serde_json::from_str(legacy).expect("pre-gate entry parses");
        assert_eq!(parsed.gate, None);
        let mut skipped = parsed.clone();
        skipped.gate = Some("skipped(cores<4)".to_string());
        let json = serde_json::to_string(&skipped).unwrap();
        let back: BenchEntry =
            serde_json::from_str(&json).expect("waived entry parses");
        assert_eq!(back.gate.as_deref(), Some("skipped(cores<4)"));
        assert_eq!(back.robustness_pct, Some(84.5));
    }

    #[test]
    fn legacy_report_migrates_into_a_series() {
        let dir = std::env::temp_dir().join("taskprune_series_migrate");
        let dir_str = dir.to_str().unwrap().to_string();
        let legacy = BenchReport {
            name: "probe".to_string(),
            description: "d".to_string(),
            entries: vec![entry("tail_drop", 100.0)],
        };
        legacy.write_file(&dir_str).unwrap();
        let series = BenchSeries::load_or_new(&dir_str, "probe", "d").unwrap();
        assert_eq!(series.runs.len(), 1);
        assert_eq!(series.runs[0].commit, "pre-series");
        assert_eq!(series.runs[0].entries.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn series_roundtrips_and_appends() {
        let dir = std::env::temp_dir().join("taskprune_series_roundtrip");
        let dir_str = dir.to_str().unwrap().to_string();
        let mut series =
            BenchSeries::load_or_new(&dir_str, "probe", "d").unwrap();
        assert!(series.runs.is_empty());
        series.append("aaa111", vec![entry("tail_drop", 100.0)]);
        series.write_file(&dir_str).unwrap();
        let mut back =
            BenchSeries::load_or_new(&dir_str, "probe", "d").unwrap();
        assert_eq!(back.runs.len(), 1);
        back.append("bbb222", vec![entry("tail_drop", 101.0)]);
        back.write_file(&dir_str).unwrap();
        let last = BenchSeries::load_or_new(&dir_str, "probe", "d").unwrap();
        assert_eq!(last.runs.len(), 2);
        assert_eq!(last.runs[1].commit, "bbb222");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_series_file_is_an_error_not_an_overwrite() {
        let dir = std::env::temp_dir().join("taskprune_series_corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        let dir_str = dir.to_str().unwrap().to_string();
        std::fs::write(dir.join("BENCH_probe.json"), "{\"truncated\": tru")
            .unwrap();
        let err = BenchSeries::load_or_new(&dir_str, "probe", "d")
            .expect_err("corrupt history must not be silently replaced");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        // The corrupt file is untouched.
        let left =
            std::fs::read_to_string(dir.join("BENCH_probe.json")).unwrap();
        assert!(left.starts_with("{\"truncated\""));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn regression_gate_trips_on_relative_slowdown_only() {
        let mut series = BenchSeries {
            name: "probe".to_string(),
            description: "d".to_string(),
            runs: Vec::new(),
        };
        // Single run: nothing to compare against.
        series.append("a", vec![entry("tail_drop", 100.0)]);
        assert_eq!(series.check_regression(0.15), Ok(1.0));

        // Incremental 10 % slower vs the same scratch yardstick: the
        // speedup dropped 100/1000 -> ~9.09x, degradation 1.1 — under
        // the gate.
        series.append("b", vec![entry("tail_drop", 110.0)]);
        let ratio = series.check_regression(0.15).expect("within threshold");
        assert!((ratio - 1.1).abs() < 1e-9, "ratio {ratio}");

        // 30 % relative slowdown: the gate must trip and name commits.
        series.append("c", vec![entry("tail_drop", 143.0)]);
        let err = series.check_regression(0.15).unwrap_err();
        assert!(err.contains("perf regression"), "{err}");
        assert!(err.contains('c') && err.contains('b'));

        // A uniformly slower *machine* (both timings scaled 3x) keeps
        // the speedup unchanged: no false positive across hosts.
        let cross_machine = BenchEntry {
            scenario: "tail_drop".to_string(),
            queue_depth: 16,
            pet_support: 64,
            incremental_ns: 3.0 * 143.0,
            scratch_ns: 3_000.0,
            speedup: 3_000.0 / (3.0 * 143.0),
            robustness_pct: None,
            robustness_under_faults_pct: None,
            gate: None,
            reuse_hit_pct: None,
            arrivals_per_sec: None,
            steals_pct: None,
            staleness_k: None,
            per_tenant_robustness_pct: None,
            shed_pct: None,
        };
        series.append("d", vec![cross_machine]);
        let ratio = series.check_regression(0.15).expect("machine-neutral");
        assert!((ratio - 1.0).abs() < 1e-9, "ratio {ratio}");

        // Unmatched scenarios are ignored entirely.
        series.append("e", vec![entry("other", 9_999.0)]);
        assert_eq!(series.check_regression(0.15), Ok(1.0));
    }

    #[test]
    fn per_scenario_gate_catches_what_the_mean_dilutes() {
        let mut series = BenchSeries {
            name: "probe".to_string(),
            description: "d".to_string(),
            runs: Vec::new(),
        };
        // Three scenarios, two runs: two scenarios speed *up* 20 %
        // while one regresses 40 %. The all-scenario geometric mean
        // (~0.97x) sails under a 15 % gate; the per-scenario gate must
        // name the regressing scenario.
        series.append(
            "a",
            vec![
                entry("tail_drop", 100.0),
                entry("mid_drop", 100.0),
                entry("steady_cycle", 100.0),
            ],
        );
        series.append(
            "b",
            vec![
                entry("tail_drop", 80.0),
                entry("mid_drop", 80.0),
                entry("steady_cycle", 140.0),
            ],
        );
        assert!(
            series.check_regression(0.15).is_ok(),
            "mean gate dilutes by design in this fixture"
        );
        let err = series.check_regression_per_scenario(0.15).unwrap_err();
        assert!(err.contains("steady_cycle"), "{err}");
        assert!(!err.contains("tail_drop"), "{err}");
    }

    #[test]
    fn per_scenario_gate_widens_with_historical_noise() {
        let noisy = |ns: f64| BenchEntry {
            scenario: "jittery".to_string(),
            queue_depth: 16,
            pet_support: 64,
            incremental_ns: ns,
            scratch_ns: 1_000.0,
            speedup: 1_000.0 / ns,
            robustness_pct: None,
            robustness_under_faults_pct: None,
            gate: None,
            reuse_hit_pct: None,
            arrivals_per_sec: None,
            steals_pct: None,
            staleness_k: None,
            per_tenant_robustness_pct: None,
            shed_pct: None,
        };
        let mut series = BenchSeries {
            name: "probe".to_string(),
            description: "d".to_string(),
            runs: Vec::new(),
        };
        // A scenario that historically bounces ±30 % between runs...
        for ns in [100.0, 130.0, 100.0, 130.0, 100.0] {
            series.append("h", vec![noisy(ns)]);
        }
        // ...takes another +30 % bounce. A flat 15 % gate would trip;
        // the noise-aware allowance must absorb it.
        series.append("new", vec![noisy(130.0)]);
        let per = series
            .check_regression_per_scenario(0.15)
            .expect("historically noisy scenario gets headroom");
        assert_eq!(per.len(), 1);
        assert!((per[0].1 - 1.3).abs() < 1e-9, "degradation {}", per[0].1);

        // A stable scenario with the same final 30 % hit must trip.
        let mut stable = BenchSeries {
            name: "probe".to_string(),
            description: "d".to_string(),
            runs: Vec::new(),
        };
        for _ in 0..5 {
            stable.append("h", vec![noisy(100.0)]);
        }
        stable.append("new", vec![noisy(130.0)]);
        let err = stable.check_regression_per_scenario(0.15).unwrap_err();
        assert!(err.contains("jittery"), "{err}");
    }

    #[test]
    fn per_scenario_gate_handles_thin_series() {
        let mut series = BenchSeries {
            name: "probe".to_string(),
            description: "d".to_string(),
            runs: Vec::new(),
        };
        assert_eq!(series.check_regression_per_scenario(0.15), Ok(vec![]));
        series.append("a", vec![entry("tail_drop", 100.0)]);
        assert_eq!(series.check_regression_per_scenario(0.15), Ok(vec![]));
        // Two runs, no history: plain per-scenario threshold applies.
        series.append("b", vec![entry("tail_drop", 200.0)]);
        assert!(series.check_regression_per_scenario(0.15).is_err());
    }
}
