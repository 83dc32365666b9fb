//! `qrs_benchmark`: the repo's wall-clock benchmark. See `README.md`.
//!
//! ```text
//! qrs_benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--spans <file>]
//! qrs_benchmark all [--seed n] [--seconds s] [--runs r] [--out file] [--smoke]
//! qrs_benchmark compare <a.json> <b.json>
//! ```

mod gen;
mod host;
mod legs;
mod oracle;
mod report;
mod run;
mod stats;
mod trace;
mod workloads;

use qrs_edge::{parse, Json};
use report::Spec;
use std::process::{Command, ExitCode};
use workloads::Workload;

/// `--name value` pairs and bare flags, after the subcommand if any.
struct Args(Vec<String>);

impl Args {
    fn value(&self, name: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == name)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn number(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.value(name) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("{name}: not a whole number: {v}")),
            None => Ok(default),
        }
    }

    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let spec = Spec::load();
    let outcome = match argv.first().map(String::as_str) {
        Some("all") => all(&spec, &Args(argv[1..].to_vec())),
        Some("compare") if argv.len() == 3 => report::compare(&spec, &argv[1], &argv[2]),
        Some("compare") => Err("usage: qrs_benchmark compare <a.json> <b.json>".into()),
        _ => one(&spec, &Args(argv)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("qrs_benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

/// One run of one workload: the result object is the last line printed.
fn one(spec: &Spec, args: &Args) -> Result<bool, String> {
    let name = args
        .value("--workload")
        .ok_or("missing --workload <name>")?;
    let workload = Workload::from_name(name).ok_or(format!("unknown workload {name}"))?;
    let config = run::Config {
        workload,
        seed: args.number("--seed", 1)?,
        seconds: args.number("--seconds", spec.run_seconds)?,
        trace: args.number("--trace", 0)? != 0,
        smoke: args.flag("--smoke"),
        spans_path: args.value("--spans").map(str::to_string),
    };
    let result = run::run(spec, &config)?;
    println!("{}", result.encode());
    Ok(true)
}

/// Every workload `--runs` times untraced — interleaved, so a slow episode
/// of the host spreads over all of them — then once traced; each run is a
/// fresh process (own pinning, own peak RSS). Writes one result file.
fn all(spec: &Spec, args: &Args) -> Result<bool, String> {
    let seed = args.number("--seed", 1)?;
    let seconds = args.number("--seconds", spec.run_seconds)?;
    let runs = args.number("--runs", 5)?;
    let out = args.value("--out").unwrap_or("qrs_benchmark_results.json");
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let plan = (0..runs)
        .map(|i| (seed + i, 0))
        .chain(std::iter::once((seed, 1)))
        .flat_map(|(seed, trace)| Workload::ALL.map(|w| (w, seed, trace)));
    let mut records = Vec::new();
    for (workload, seed, trace) in plan {
        let mut command = Command::new(&exe);
        command.args(["--workload", workload.name()]);
        command.args(["--seed", &seed.to_string()]);
        command.args(["--seconds", &seconds.to_string()]);
        command.args(["--trace", &trace.to_string()]);
        if args.flag("--smoke") {
            command.arg("--smoke");
        }
        let output = command.output().map_err(|e| e.to_string())?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let last = stdout.lines().last().unwrap_or_default();
        let result = parse(last).map_err(|e| {
            let stderr = String::from_utf8_lossy(&output.stderr);
            format!(
                "{} seed {seed} trace {trace}: no result ({e}): {stderr}",
                workload.name()
            )
        })?;
        eprintln!("{} seed {seed} trace {trace}: {last}", workload.name());
        let header = stdout.lines().filter(|l| l.starts_with('#'));
        records.push(Json::obj(vec![
            ("workload", Json::str(workload.name())),
            ("seed", Json::u64(seed)),
            ("trace", Json::u64(trace)),
            ("header", Json::Arr(header.map(Json::str).collect())),
            ("result", result),
        ]));
    }
    let doc = Json::obj(vec![
        ("seconds", Json::u64(seconds)),
        ("smoke", Json::Bool(args.flag("--smoke"))),
        ("runs", Json::Arr(records)),
    ]);
    std::fs::write(out, doc.encode() + "\n").map_err(|e| format!("{out}: {e}"))?;
    println!("wrote {out}");
    Ok(true)
}
