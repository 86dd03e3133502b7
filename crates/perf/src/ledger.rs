//! The command line: one workload in this process (the driver's protocol),
//! or all seven — each in a child process, so `peak_rss_mb` is its own —
//! plus `--compare` and `--record`.

use crate::harness::{Meter, RunCfg};
use crate::host::Kernel;
use crate::report::{self, as_f64, as_str, get, obj, Emit};
use crate::spec;
use crate::stats;
use crate::workloads;
use serde::json::Value;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// Usage text.
pub const USAGE: &str = "\
usage: crates/perf/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                          [--traced] [--quick] [--out DIR] [--record]
       crates/perf/run.sh --compare DIR_A DIR_B

  --workload NAME   run one workload in this process and end with the driver's
                    one-line JSON result; without it, run all seven
  --seed N          workload seed (default 1)
  --seconds S       seconds of measurement (default 15; --quick 0.5)
  --trace 0|1       driver protocol: 0 = end-to-end metrics, 1 = traced pass only
                    and per-layer metrics
  --traced          after the measurement, also run the traced pass (per-layer
                    figures and <workload>.trace.json)
  --quick           5 repetitions of 0.1 s, acl_4k on 1000 rules
  --out DIR         where records go (default <cargo target dir>/perf)
  --record          after a full run, append one line to crates/perf/history.jsonl
  --compare A B     compare two record directories against the bounds";

/// Seconds the traced pass gets under `--traced`.
const TRACED_S: f64 = 2.0;
/// The same under `--quick`.
const TRACED_QUICK_S: f64 = 0.4;
/// Per-layer figures that are exact for a seed: compared for equality by
/// `--compare`, pinned by the smoke tests.
pub const EXACT: [&str; 3] = ["recirc_per_pkt", "sim_latency_ns", "fleet_objective"];
/// The figures issue 12 lists end to end that the driver's contract pushed
/// into the per-layer list; `history.jsonl` carries them beside the four
/// end-to-end values.
pub const HEADLINE: [&str; 7] = [
    "rtc_pps",
    "migration_downtime_ms",
    "replan_ms",
    "deploy_ms",
    "recirc_per_pkt",
    "sim_latency_ns",
    "fleet_objective",
];

/// Parsed command line.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Cli {
    /// `--workload`.
    pub workload: Option<String>,
    /// `--seed`.
    pub seed: Option<u64>,
    /// `--seconds`.
    pub seconds: Option<f64>,
    /// `--trace 0|1`.
    pub trace: Option<bool>,
    /// `--traced`.
    pub traced: bool,
    /// `--quick`.
    pub quick: bool,
    /// `--out`.
    pub out: Option<PathBuf>,
    /// `--record`.
    pub record: bool,
    /// `--compare A B`.
    pub compare: Option<(PathBuf, PathBuf)>,
}

impl Cli {
    /// Parses the arguments after the program name.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut cli = Cli::default();
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let mut value = |what: &str| args.next().ok_or(format!("{flag} needs {what}"));
            match flag.as_str() {
                "--workload" => cli.workload = Some(value("a name")?),
                "--seed" => {
                    cli.seed = Some(
                        value("a number")?
                            .parse()
                            .map_err(|e| format!("--seed: {e}"))?,
                    )
                }
                "--seconds" => {
                    let s: f64 = value("a number")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                        return Err(format!("--seconds {s}: must be in (0, 600]"));
                    }
                    cli.seconds = Some(s);
                }
                "--trace" => {
                    cli.trace = Some(match value("0 or 1")?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace {other}: must be 0 or 1")),
                    })
                }
                "--traced" => cli.traced = true,
                "--quick" => cli.quick = true,
                "--record" => cli.record = true,
                "--out" => cli.out = Some(PathBuf::from(value("a directory")?)),
                "--compare" => {
                    let a = PathBuf::from(value("two directories")?);
                    let b = PathBuf::from(value("two directories")?);
                    cli.compare = Some((a, b));
                }
                "--help" | "-h" => return Err("help".into()),
                other => return Err(format!("unknown argument {other}")),
            }
        }
        if let Some(w) = &cli.workload {
            if spec::workload(w).is_none() {
                return Err(format!("unknown workload {w}"));
            }
        }
        Ok(cli)
    }

    /// The run configuration the flags ask for.
    pub fn cfg(&self) -> RunCfg {
        let seed = self.seed.unwrap_or(1);
        let mut cfg = if self.quick {
            RunCfg::quick(seed)
        } else {
            RunCfg::full(seed)
        };
        if let Some(s) = self.seconds {
            cfg.measure_s = s;
        }
        if self.trace == Some(true) {
            // Driver protocol: the whole budget goes to the traced pass.
            cfg.trace_s = cfg.measure_s;
            cfg.measure_s = 0.0;
        } else if self.traced {
            cfg.trace_s = if self.quick { TRACED_QUICK_S } else { TRACED_S };
        }
        cfg
    }

    /// Where records go: `--out`, else `perf/` under the cargo target
    /// directory this binary was built into.
    pub fn out_dir(&self) -> PathBuf {
        self.out.clone().unwrap_or_else(|| {
            std::env::current_exe()
                .ok()
                .and_then(|exe| Some(exe.parent()?.parent()?.join("perf")))
                .unwrap_or_else(|| PathBuf::from("target/perf"))
        })
    }
}

/// Entry point; returns the process exit code.
pub fn main(cli: &Cli) -> i32 {
    if let Some((a, b)) = &cli.compare {
        return compare(a, b);
    }
    let out_dir = cli.out_dir();
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("dejavu-perf: cannot create {}: {e}", out_dir.display());
        return 2;
    }
    match &cli.workload {
        Some(name) => run_one(name, cli, &out_dir),
        None => run_all(cli, &out_dir),
    }
}

/// Runs one workload in this process. The last line of standard output is
/// the driver's JSON result.
fn run_one(name: &str, cli: &Cli, out_dir: &Path) -> i32 {
    let mut cfg = cli.cfg();
    cfg.host_sensitivity = spec::workload(name)
        .expect("workload names are checked at parse time")
        .host_sensitivity;
    let kernel = Kernel::new();
    let mut meter = Meter::new(cfg.clone(), &kernel);
    assert!(workloads::run(name, &mut meter));
    let mut out = meter.finish();
    report::print_ledger(name, &out);
    let record = report::ledger_json(name, &cfg, &out);
    let path = out_dir.join(format!("{name}.json"));
    if let Err(e) = std::fs::write(&path, report::pretty(&record)) {
        eprintln!("dejavu-perf: cannot write {}: {e}", path.display());
        return 2;
    }
    if let Some(tracer) = out.tracer.take() {
        let path = out_dir.join(format!("{name}.trace.json"));
        let written = std::fs::File::create(&path)
            .and_then(|f| tracer.write_chrome(std::io::BufWriter::new(f), 2048));
        if let Err(e) = written {
            eprintln!("dejavu-perf: cannot write {}: {e}", path.display());
            return 2;
        }
    }
    let emit = if cli.trace == Some(true) {
        Emit::PerLayer
    } else {
        Emit::EndToEnd
    };
    println!("{}", report::driver_line(&out, emit));
    0
}

/// Runs all seven workloads, each in a child process; optionally appends
/// the history line. Non-zero when any workload failed an operation.
fn run_all(cli: &Cli, out_dir: &Path) -> i32 {
    let started = Instant::now();
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("dejavu-perf: cannot find own executable: {e}");
            return 2;
        }
    };
    let mut failed_total = 0u64;
    let mut records = Vec::new();
    for w in &spec::WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.arg("--workload").arg(w.name).arg("--out").arg(out_dir);
        cmd.arg("--seed").arg(cli.seed.unwrap_or(1).to_string());
        if let Some(s) = cli.seconds {
            cmd.arg("--seconds").arg(s.to_string());
        }
        if cli.traced {
            cmd.arg("--traced");
        }
        if cli.quick {
            cmd.arg("--quick");
        }
        match cmd.status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("dejavu-perf: {} exited with {status}", w.name);
                return 1;
            }
            Err(e) => {
                eprintln!("dejavu-perf: cannot run {}: {e}", w.name);
                return 2;
            }
        }
        match read_record(out_dir, w.name) {
            Ok(r) => {
                failed_total += get(&r, "failed").and_then(as_f64).unwrap_or(1.0) as u64;
                records.push((w.name, r));
            }
            Err(e) => {
                eprintln!("dejavu-perf: {e}");
                return 2;
            }
        }
    }
    if cli.record {
        if let Err(e) = append_history(cli, &records) {
            eprintln!("dejavu-perf: history not recorded: {e}");
            return 2;
        }
    }
    println!(
        "dejavu-perf: {} workloads, {failed_total} failed operations, {:.1} s (records in {})",
        records.len(),
        started.elapsed().as_secs_f64(),
        out_dir.display()
    );
    i32::from(failed_total > 0)
}

fn read_record(dir: &Path, workload: &str) -> Result<Value, String> {
    let path = dir.join(format!("{workload}.json"));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    dejavu_asic::telemetry::parse_json(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `value` of figure `name` in section `section` of a workload record.
pub fn figure_value(record: &Value, section: &str, name: &str) -> Option<f64> {
    get(get(get(record, section)?, name)?, "value").and_then(as_f64)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// One history line: where and how the run was made, and every
/// end-to-end value (plus the headline per-layer figures) of every workload.
pub fn history_line(cli: &Cli, records: &[(&str, Value)]) -> Value {
    let cfg = cli.cfg();
    let e2e = spec::END_TO_END.iter().map(|m| ("end_to_end", m.name));
    let carried: Vec<_> = e2e.chain(HEADLINE.map(|m| ("per_layer", m))).collect();
    let workloads = records
        .iter()
        .map(|(name, r)| {
            let fields = carried
                .iter()
                .filter_map(|(section, m)| {
                    Some((m.to_string(), Value::Float(figure_value(r, section, m)?)))
                })
                .collect();
            (name.to_string(), Value::Object(fields))
        })
        .collect();
    let rtc_schedule = records
        .iter()
        .find_map(|(_, r)| get(get(r, "notes")?, "rtc_schedule").and_then(as_str))
        .unwrap_or("unknown");
    obj(vec![
        (
            "commit",
            Value::Str(command_line("git", &["rev-parse", "--short", "HEAD"])),
        ),
        ("rustc", Value::Str(command_line("rustc", &["--version"]))),
        ("host", report::host_json(&cfg)),
        ("rtc_schedule", Value::Str(rtc_schedule.to_string())),
        ("workloads", Value::Object(workloads)),
    ])
}

fn append_history(cli: &Cli, records: &[(&str, Value)]) -> Result<(), String> {
    use std::io::Write as _;
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("history.jsonl");
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    writeln!(file, "{}", report::compact(&history_line(cli, records)))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("dejavu-perf: appended to {}", path.display());
    Ok(())
}

/// One row of a comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Gap {
    /// Section of the record the metric lives in.
    pub section: &'static str,
    /// Metric.
    pub metric: &'static str,
    /// Median in A and in B.
    pub medians: (f64, f64),
    /// How far B is on the worse side of A, as a share of A.
    pub worse_by: f64,
    /// The bound `worse_by` must stay within.
    pub bound: f64,
}

impl Gap {
    /// True when B is worse than A by more than the bound.
    pub fn exceeded(&self) -> bool {
        self.worse_by > self.bound
    }
}

/// Compares two workload records metric by metric: every end-to-end
/// metric against its bound, every exact figure for equality (bound 0 in
/// both directions).
pub fn gaps(a: &Value, b: &Value) -> Vec<Gap> {
    let bounded = spec::END_TO_END
        .iter()
        .map(|m| ("end_to_end", m.name, m.lower_is_better, Some(m.bound)));
    let exact = EXACT.map(|name| ("per_layer", name, true, None));
    bounded
        .chain(exact)
        .filter_map(|(section, metric, lower_is_better, bound)| {
            let medians = (
                figure_value(a, section, metric)?,
                figure_value(b, section, metric)?,
            );
            let worse_by = stats::worsening(medians.0, medians.1, lower_is_better);
            Some(Gap {
                section,
                metric,
                medians,
                // An exact figure may move in neither direction.
                worse_by: if bound.is_some() {
                    worse_by
                } else {
                    worse_by.abs()
                },
                bound: bound.unwrap_or(0.0),
            })
        })
        .collect()
}

fn compare(a: &Path, b: &Path) -> i32 {
    println!(
        "{:<13} {:<18} {:>14} {:>14} {:>9} {:>7}  quartiles A | B (n)",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    let mut exceeded = 0;
    let mut compared = 0;
    for w in &spec::WORKLOADS {
        let (ra, rb) = match (read_record(a, w.name), read_record(b, w.name)) {
            (Ok(ra), Ok(rb)) => (ra, rb),
            (Err(e), _) | (_, Err(e)) => {
                println!("{:<13} skipped: {e}", w.name);
                continue;
            }
        };
        for g in gaps(&ra, &rb) {
            compared += 1;
            let quart = |r: &Value| {
                let f = get(get(r, g.section)?, g.metric)?;
                Some(format!(
                    "[{} {}] ({})",
                    report::sig(get(f, "q1").and_then(as_f64)?),
                    report::sig(get(f, "q3").and_then(as_f64)?),
                    get(f, "n").and_then(as_f64)? as u64
                ))
            };
            println!(
                "{:<13} {:<18} {:>14} {:>14} {:>+8.2}% {:>6.1}%  {} | {}{}",
                w.name,
                g.metric,
                report::sig(g.medians.0),
                report::sig(g.medians.1),
                100.0 * g.worse_by,
                100.0 * g.bound,
                quart(&ra).unwrap_or_default(),
                quart(&rb).unwrap_or_default(),
                match (g.exceeded(), w.gated) {
                    (false, _) => "",
                    (true, true) => "  <-- EXCEEDED",
                    (true, false) => "  (beyond, not gated)",
                },
            );
            exceeded += i32::from(g.exceeded() && w.gated);
        }
    }
    println!("dejavu-perf: {compared} pairs compared, {exceeded} beyond their bound");
    if compared == 0 {
        return 2;
    }
    i32::from(exceeded > 0)
}
