//! Over-the-wire benchmark for `ufilter serve`.
//!
//! ```text
//! ufbench --server-bin <path to ufilter> --workload <check-open|fanout-batch|churn>
//!         --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it spawns real `ufilter serve --workers 2` processes,
//! drives them over loopback TCP, checks every reply against known answers
//! and prints the end-to-end metrics. With `--trace 1` it sends the same
//! inputs through each layer's public functions in process, with spans, and
//! prints the per-layer table. The last line of standard output is always
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.

mod answers;
mod inputs;
mod load;
mod run;
mod server;
mod stats;
mod trace;
mod traced;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use stats::quantile;

/// Scratch space for one run, inside the checkout; removed on drop.
pub struct Work {
    pub dir: PathBuf,
    pub server_bin: PathBuf,
}

impl Work {
    fn new(workload: &str, seed: u64, server_bin: PathBuf) -> Result<Work, String> {
        let dir = std::env::current_dir()
            .map_err(|e| e.to_string())?
            .join(".bench_build")
            .join("ufbench-work")
            .join(format!("{workload}-{seed}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Work { dir, server_bin })
    }

    /// Write `text` to `name` in the run directory.
    pub fn write(&self, name: &str, text: &str) -> Result<PathBuf, String> {
        let path = self.dir.join(name);
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(path)
    }

    /// A `name=viewfile` manifest for `views`.
    pub fn manifest(&self, views: &[(String, String)]) -> Result<PathBuf, String> {
        let mut manifest = String::new();
        for (name, text) in views {
            let file = self.write(&format!("{name}.xq"), text)?;
            manifest.push_str(&format!("{name}={}\n", file.display()));
        }
        self.write("views.cat", &manifest)
    }

    /// A data directory for spawn `k`: a copy of `template`, or empty.
    pub fn data_dir(&self, k: usize, template: Option<&Path>) -> Result<PathBuf, String> {
        let dir = self.dir.join(format!("data-{k}"));
        let _ = std::fs::remove_dir_all(&dir);
        match template {
            Some(t) => run::copy_dir(t, &dir)?,
            None => std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?,
        }
        Ok(dir)
    }
}

impl Drop for Work {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// What a run reports: human-readable lines as it goes, then the JSON
/// result.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, String)>,
    attempted: usize,
    failed: usize,
}

impl Report {
    /// Print a human-readable line (before the JSON result).
    pub fn line(&mut self, text: String) {
        println!("{text}");
    }

    /// Record `attempted` operations of which `failed` failed.
    pub fn count(&mut self, attempted: usize, failed: usize) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// A reported metric; `alias` is the workload-specific name it stands
    /// for, printed beside it.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str, alias: &str) {
        println!("metric {name} = {value} {unit}  [{alias}]");
        self.metrics.push((name.to_string(), value, unit.to_string()));
    }

    /// Metrics every workload reports: set-up time and server memory.
    pub fn common(&mut self, setup: &[f64], rss_mib: f64) {
        let setups: Vec<String> = setup.iter().map(|s| format!("{s:.4}")).collect();
        self.line(format!("setup samples (s): {}", setups.join(" ")));
        self.metric("setup_s", quantile(setup, 0.5), "s", "setup_s");
        self.metric("rss_mib", rss_mib, "MiB", "rss_mib");
    }

    fn json(&self, correct: bool) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    server_bin: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut server_bin) =
        (None, 1, 10.0, false, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => seconds = value.parse().map_err(|_| format!("bad --seconds {value}"))?,
            "--trace" => trace = value == "1",
            "--server-bin" => server_bin = Some(PathBuf::from(value)),
            other => return Err(format!("unknown option {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["check-open", "fanout-batch", "churn"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let server_bin = server_bin.ok_or("--server-bin is required")?;
    Ok(Args { workload, seed, seconds, trace, server_bin })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    let result = Work::new(&args.workload, args.seed, args.server_bin.clone()).and_then(|work| {
        let (seed, secs) = (args.seed, args.seconds);
        match (args.workload.as_str(), args.trace) {
            ("check-open", false) => run::check_workload(&work, seed, secs, false, &mut report),
            ("churn", false) => run::check_workload(&work, seed, secs, true, &mut report),
            ("fanout-batch", false) => run::fanout_workload(&work, seed, secs, &mut report),
            (workload, true) => traced::run(&work, workload, seed, secs, &mut report),
            _ => unreachable!("workload names are checked by parse_args"),
        }
    });
    if let Err(e) = result {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "fail_frac = {} ratio ({} failed of {} attempted)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    let correct = report.failed == 0;
    println!("{}", report.json(correct));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
