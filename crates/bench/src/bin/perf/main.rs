//! `perf` — the repository's one benchmark: host clock and simulated clock,
//! end to end and layer by layer. See README.md beside this file.
//!
//! ```text
//! perf --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//!      [--trace-out PATH] [--repeat N] [--smoke]
//! perf compare A.json B.json
//! ```
//!
//! One workload is measured in this process. `all` and `--repeat` run every
//! measurement in a child process of the same executable, one after the
//! other, so each has its own set-up clock and peak memory, exactly like the
//! runs the benchmark driver makes; `--trace-out` is then a prefix.
//!
//! Standard output carries two JSON lines: the full report (host context,
//! sizes, every metric with unit, sample count and quartiles, every check)
//! and, last, the benchmark contract's result object. Progress and tables
//! go to standard error. The exit code is non-zero when a correctness
//! check fails, a repeat disagrees with the first set, or a comparison
//! finds a metric worse than its bound.

mod compare;
mod host;
mod md_workloads;
mod metrics;
mod model_workload;
mod spans;
mod stats;

use metrics::{Outcome, WORKLOADS};
use serde_json::{json, Value};
use spans::SpanLog;
use std::process::ExitCode;
use std::time::Instant;

/// `--seconds` value the base counts were sized for on the 2-vCPU
/// reference host.
const BASE_SECONDS: u32 = 15;

/// How much work a run does. Counts are fixed functions of `--seconds`
/// (never deadlines), so a run repeats exactly and a faster engine
/// finishes sooner instead of silently doing more.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    pub smoke: bool,
    pub seconds: u32,
}

impl Sizes {
    /// `base` scaled by `seconds / BASE_SECONDS`, never below `floor` (the
    /// sample minimum that keeps the statistics meaningful).
    pub fn scaled(&self, base: usize, floor: usize) -> usize {
        (base * self.seconds as usize / BASE_SECONDS as usize).max(floor)
    }
}

/// What a workload needs from the command line and the process.
pub struct Run<'a> {
    pub seed: u64,
    pub sizes: Sizes,
    /// Also do the traced pass and the direct layer calls.
    pub traced: bool,
    /// Process start: the first set-up is charged from here.
    pub origin: Instant,
    pub log: &'a mut SpanLog,
}

struct Args {
    workload: String,
    seed: u64,
    sizes: Sizes,
    traced: bool,
    trace_out: Option<String>,
    repeat: usize,
}

const USAGE: &str =
    "usage: perf --workload <dhfr_nvt|water_kspace|dhfr_sharded|machine_sweep|all> \
[--seed N] [--seconds S] [--trace 0|1] [--trace-out PATH] [--repeat N] [--smoke]\n       \
perf compare A.json B.json";

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        sizes: Sizes {
            smoke: false,
            seconds: BASE_SECONDS,
        },
        traced: false,
        trace_out: None,
        repeat: 1,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        let number = |s: &String| {
            s.parse::<u64>()
                .map_err(|_| format!("{flag}: `{s}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => args.sizes.seconds = number(value()?)?.clamp(1, 600) as u32,
            "--trace" => args.traced = number(value()?)? != 0,
            "--trace-out" => args.trace_out = Some(value()?.clone()),
            "--repeat" => args.repeat = number(value()?)?.clamp(1, 16) as usize,
            "--smoke" => args.sizes.smoke = true,
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    let known = WORKLOADS.iter().any(|(name, _)| *name == args.workload);
    if !known && args.workload != "all" {
        return Err(format!("unknown workload `{}`\n{USAGE}", args.workload));
    }
    Ok(args)
}

fn run_workload(name: &'static str, ctx: &mut Run) -> Outcome {
    eprintln!("perf: {name} (seed {}, traced {})", ctx.seed, ctx.traced);
    let out = match name {
        "machine_sweep" => model_workload::run_model(ctx),
        _ => md_workloads::run_md(name, ctx),
    };
    for m in out
        .end_to_end
        .iter()
        .chain(out.per_layer.iter().flat_map(|l| l.iter()))
    {
        eprintln!(
            "  {:<44} {:>16.6} {:<7} n={:<4} iqr={:.6}{}",
            m.name,
            m.value,
            m.unit,
            m.n,
            m.q3 - m.q1,
            m.note
                .as_ref()
                .map_or(String::new(), |n| format!("  ({n})"))
        );
    }
    for c in &out.checks {
        let verdict = if c.pass { "pass" } else { "FAIL" };
        eprintln!("  check {:<32} {verdict}  {}", c.name, c.detail);
    }
    out
}

/// One workload, measured in this process.
fn run_here(name: &'static str, args: &Args, origin: Instant) -> Result<Value, String> {
    let mut log = SpanLog::new(origin);
    let out = run_workload(
        name,
        &mut Run {
            seed: args.seed,
            sizes: args.sizes,
            traced: args.traced,
            origin,
            log: &mut log,
        },
    );
    if let Some(path) = &args.trace_out {
        let doc = serde_json::to_string(&log.chrome_trace()).map_err(|e| e.to_string())?;
        std::fs::write(path, doc).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("perf: {} spans written to {path}", log.spans().len());
    }
    Ok(out.to_report())
}

/// One workload, measured in a child process of this executable, so that
/// every measurement of a multi-run invocation starts the way the driver's
/// do: a fresh process, its own set-up clock and its own peak memory. The
/// child's table passes through on standard error; its report is returned.
fn run_in_child(name: &str, set: usize, args: &Args) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.sizes.seconds.to_string()])
        .args(["--trace", if args.traced { "1" } else { "0" }]);
    if args.sizes.smoke {
        cmd.arg("--smoke");
    }
    if let Some(prefix) = &args.trace_out {
        cmd.args([
            "--trace-out",
            &format!("{prefix}.set{}.{name}.json", set + 1),
        ]);
    }
    // `output` waits for the child to end.
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {name} run: {e}"))?;
    let report = String::from_utf8_lossy(&out.stdout)
        .lines()
        .find_map(|l| serde_json::from_str::<Value>(l).ok())
        .filter(|v| !v["perf_schema"].is_null())
        .ok_or_else(|| format!("the {name} run printed no report ({})", out.status))?;
    Ok(report["sets"][0][0].clone())
}

/// What needs two workloads of one set: the sharded engine must land on
/// the single image's state, and costs `overhead_ratio` times its step.
fn combined(set: &[Value]) -> Option<Value> {
    let find = |name: &str| set.iter().find(|r| r["workload"].as_str() == Some(name));
    let (nvt, sharded) = (find("dhfr_nvt")?, find("dhfr_sharded")?);
    // Smoke sizes give the two workloads different systems.
    if ["atoms", "steps"]
        .iter()
        .any(|k| nvt["sizes"][*k] != sharded["sizes"][*k])
    {
        return None;
    }
    let op = |r: &Value| {
        r["end_to_end"]["op_ms_min"]["value"]
            .as_f64()
            .unwrap_or(0.0)
    };
    let digest = |r: &Value| r["state_digest"].as_str().unwrap_or("none").to_string();
    let (a, b) = (digest(nvt), digest(sharded));
    let pass = a != "none" && a == b;
    let ratio = op(sharded) / op(nvt);
    let detail = format!("dhfr_nvt {a}, dhfr_sharded {b}");
    eprintln!(
        "perf: dhfr_sharded against dhfr_nvt\n  check {:<32} {}  {detail}\n  \
         md.shard.overhead_ratio {ratio:.4} (op_ms_min of dhfr_sharded / dhfr_nvt)",
        "sharded_state_matches_single_image",
        if pass { "pass" } else { "FAIL" }
    );
    Some(json!({
        "check": {"name": "sharded_state_matches_single_image", "pass": pass, "detail": detail},
        "md.shard.overhead_ratio": {"value": ratio, "unit": "ratio"},
    }))
}

/// The benchmark contract's result object, from the reports of the runs
/// and the combined checks. A single workload reports its metrics by name;
/// several prefix each with the workload and report the first set.
fn contract_line(sets: &[Vec<Value>], extras: &[Value], traced: bool) -> Value {
    let results: Vec<&Value> = sets.iter().flatten().collect();
    let family = if traced { "per_layer" } else { "end_to_end" };
    let mut metrics = Vec::new();
    for r in sets.first().into_iter().flatten() {
        for (name, m) in r[family].as_object().into_iter().flatten() {
            let name = match (results.len(), r["workload"].as_str()) {
                (1, _) | (_, None) => name.clone(),
                (_, Some(workload)) => format!("{workload}.{name}"),
            };
            metrics.push((name, json!({"value": m["value"], "unit": m["unit"]})));
        }
    }
    let count = |key: &str| -> u64 { results.iter().filter_map(|r| r[key].as_u64()).sum() };
    let failed_extras = extras
        .iter()
        .filter(|e| e["check"]["pass"].as_bool() == Some(false))
        .count() as u64;
    let failed = count("failed") + failed_extras;
    json!({
        "correct": failed == 0,
        "attempted": (count("attempted") + extras.len() as u64).max(1),
        "failed": failed,
        "metrics": Value::Object(metrics),
    })
}

fn run(args: &Args, origin: Instant) -> Result<bool, String> {
    let names: Vec<&'static str> = WORKLOADS
        .iter()
        .map(|(name, _)| *name)
        .filter(|name| args.workload == "all" || args.workload == *name)
        .collect();
    let mut sets = Vec::new();
    let mut extras = Vec::new();
    if let ([name], 1) = (names.as_slice(), args.repeat) {
        sets.push(vec![run_here(name, args, origin)?]);
    } else {
        for set in 0..args.repeat {
            let results = names
                .iter()
                .map(|name| run_in_child(name, set, args))
                .collect::<Result<Vec<Value>, String>>()?;
            extras.extend(combined(&results));
            sets.push(results);
        }
    }
    // Repeatability: every later set against the first, by the same rules
    // `perf compare` applies to two files.
    let mut repeatable = true;
    for (i, later) in sets.iter().enumerate().skip(1) {
        let c = compare::compare_sets(&sets[0], later)?;
        eprintln!("perf: set {} against set 1\n{}", i + 1, c.render());
        repeatable &= c.passed();
    }
    let line = contract_line(&sets, &extras, args.traced);
    let report = json!({
        "perf_schema": 1,
        "host": host::context(),
        "seed": args.seed,
        "seconds": args.sizes.seconds,
        "smoke": args.sizes.smoke,
        "traced": args.traced,
        "sets": sets,
        "combined": extras,
    });
    for doc in [&report, &line] {
        println!("{}", serde_json::to_string(doc).map_err(|e| e.to_string())?);
    }
    Ok(repeatable && line["correct"].as_bool() == Some(true))
}

fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let c = compare::compare_reports(&compare::read_report(a)?, &compare::read_report(b)?)?;
    print!("{}", c.render());
    Ok(c.passed())
}

fn main() -> ExitCode {
    let origin = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.as_slice() {
        [cmd, a, b] if cmd == "compare" => compare_files(a, b),
        _ => parse(&argv).and_then(|args| run(&args, origin)),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("perf: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{end_to_end, per_layer};
    use std::collections::BTreeSet;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse(&argv(
            "--workload water_kspace --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.sizes.seconds),
            ("water_kspace", 7, 10)
        );
        assert!(a.traced && !a.sizes.smoke && a.repeat == 1);
        let b = parse(&argv("--workload all --repeat 2 --smoke --trace 0")).unwrap();
        assert!(!b.traced && b.sizes.smoke && b.repeat == 2 && b.seed == 1);
        for bad in [
            "",
            "--workload nope",
            "--workload",
            "--workload all --seed x",
            "--workload all --knob 1",
        ] {
            assert!(parse(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn counts_scale_with_seconds_down_to_a_floor() {
        let at = |seconds| Sizes {
            smoke: false,
            seconds,
        };
        assert_eq!(at(15).scaled(600, 30), 600);
        assert_eq!(at(30).scaled(600, 30), 1200);
        assert_eq!(at(5).scaled(600, 30), 200);
        assert_eq!(at(5).scaled(30, 30), 30);
        assert_eq!(at(1).scaled(3, 1), 1);
    }

    #[test]
    fn several_results_roll_up_with_the_combined_check() {
        let result = |workload: &str, op: f64, digest: &str| {
            json!({
                "workload": workload, "attempted": 61, "failed": 0, "state_digest": digest,
                "sizes": {"atoms": 23558, "steps": 60},
                "end_to_end": {"op_ms_min": {"value": op, "unit": "ms"}},
                "per_layer": null,
            })
        };
        let same = vec![
            result("dhfr_nvt", 200.0, "ab"),
            result("dhfr_sharded", 250.0, "ab"),
        ];
        let extra = combined(&same).expect("both DHFR workloads are present");
        assert_eq!(extra["check"]["pass"].as_bool(), Some(true));
        assert_eq!(
            extra["md.shard.overhead_ratio"]["value"].as_f64(),
            Some(1.25)
        );
        let line = contract_line(&[same], &[extra], false);
        assert_eq!(line["correct"].as_bool(), Some(true));
        assert_eq!(line["attempted"].as_u64(), Some(123));
        assert_eq!(
            line["metrics"]["dhfr_sharded.op_ms_min"]["value"].as_f64(),
            Some(250.0)
        );

        let apart = vec![
            result("dhfr_nvt", 200.0, "ab"),
            result("dhfr_sharded", 250.0, "cd"),
        ];
        let extra = combined(&apart).unwrap();
        let line = contract_line(&[apart], &[extra], false);
        assert_eq!(line["correct"].as_bool(), Some(false));
        assert_eq!(line["failed"].as_u64(), Some(1));
        assert!(combined(&[result("water_kspace", 20.0, "ef")]).is_none());
    }

    /// Paths relative to this file, so they hold in both builds of the
    /// harness (`anton2-bench --bin perf` and the stand-alone package).
    const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");
    const ROOT_MANIFEST: &str = include_str!("../../../../../Cargo.toml");
    const OWN_MANIFEST: &str = include_str!("Cargo.toml");

    /// The entries of one table of a manifest, with paths reduced to what
    /// follows `shims/` so that manifests at different depths compare.
    fn table(manifest: &str, header: &str) -> BTreeSet<String> {
        manifest
            .lines()
            .skip_while(|l| l.trim() != header)
            .skip(1)
            .take_while(|l| !l.starts_with('['))
            .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
            .map(|l| match l.split_once("shims/") {
                Some((before, after)) => {
                    let name = before.split('=').next().unwrap_or("").trim();
                    format!("{name} -> shims/{after}")
                }
                None => l.trim().to_string(),
            })
            .collect()
    }

    /// The stand-alone package copies the release profile, the stand-in
    /// table and the `serde_json` features of the workspace manifest; a
    /// change to the original must reach the copy, or the benchmark
    /// measures a differently built program than the tests run.
    #[test]
    fn own_manifest_follows_the_workspace_manifest() {
        let profile = table(OWN_MANIFEST, "[profile.release]");
        assert!(!profile.is_empty());
        assert_eq!(profile, table(ROOT_MANIFEST, "[profile.release]"));
        let stand_ins = table(OWN_MANIFEST, "[patch.crates-io]");
        assert!(!stand_ins.is_empty());
        assert!(stand_ins.is_subset(&table(ROOT_MANIFEST, "[patch.crates-io]")));
        let features = |m: &str| {
            let line = m.lines().find(|l| l.starts_with("serde_json = "));
            line.and_then(|l| l.split_once("features"))
                .map(|(_, f)| f.to_string())
        };
        assert!(features(OWN_MANIFEST).is_some());
        assert_eq!(features(OWN_MANIFEST), features(ROOT_MANIFEST));
    }

    /// The `BENCHMARK.json` this harness implements, built from the
    /// definitions in `metrics.rs`.
    fn manifest() -> Value {
        let workloads: Vec<Value> = WORKLOADS
            .iter()
            .map(|(name, why)| json!({"name": name, "why": why}))
            .collect();
        let end_to_end: Vec<Value> = end_to_end()
            .iter()
            .map(|d| {
                json!({
                    "name": d.name, "unit": d.unit,
                    "better": d.better.as_str(), "bound": d.bound
                })
            })
            .collect();
        let per_layer: Vec<Value> = per_layer()
            .iter()
            .map(|d| json!({"name": d.name, "unit": d.unit, "better": d.better.as_str()}))
            .collect();
        json!({
            "command": [
                "cargo", "run", "--release", "--offline", "--quiet",
                "--manifest-path", "crates/bench/src/bin/perf/Cargo.toml", "--"
            ],
            "paths": ["crates/bench/src/bin/perf"],
            "run_seconds": BASE_SECONDS,
            "workloads": workloads,
            "end_to_end": end_to_end,
            "per_layer": per_layer,
        })
    }

    fn names(list: &Value) -> BTreeSet<String> {
        list.as_array()
            .expect("a list")
            .iter()
            .map(|e| e["name"].as_str().expect("a name").to_string())
            .collect()
    }

    /// `BENCHMARK.json` says exactly what `metrics.rs` defines, and a smoke
    /// run of every workload emits exactly the metrics it names.
    #[test]
    fn smoke_runs_emit_exactly_what_benchmark_json_names() {
        let doc: Value = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        assert!(
            doc == manifest(),
            "BENCHMARK.json is out of step with metrics.rs; it should read:\n{}",
            serde_json::to_string_pretty(&manifest()).unwrap()
        );

        let origin = Instant::now();
        let mut log = SpanLog::new(origin);
        let sizes = Sizes {
            smoke: true,
            seconds: BASE_SECONDS,
        };
        for (workload, _) in WORKLOADS {
            for traced in [false, true] {
                let out = run_workload(
                    workload,
                    &mut Run {
                        seed: 1,
                        sizes,
                        traced,
                        origin,
                        log: &mut log,
                    },
                );
                assert!(out.correct(), "{workload}: {:?}", out.checks);
                assert!(out.attempted >= 1);
                let line = contract_line(&[vec![out.to_report()]], &[], traced);
                let emitted: BTreeSet<String> = line["metrics"]
                    .as_object()
                    .unwrap()
                    .iter()
                    .map(|(k, _)| k.clone())
                    .collect();
                let family = if traced { "per_layer" } else { "end_to_end" };
                assert_eq!(emitted, names(&doc[family]), "{workload} {family}");
                if !traced {
                    for (name, m) in line["metrics"].as_object().unwrap() {
                        assert!(m["value"].as_f64().unwrap() > 0.0, "{workload} {name} is 0");
                    }
                }
            }
        }
        // The spans of every run above nest under their workload's root.
        let roots = log.spans().iter().filter(|s| s.parent.is_none()).count();
        assert_eq!(roots, 2 * WORKLOADS.len());
        assert!(log.spans().iter().any(|s| s.name == "cycle[0]"));
        assert!(log.spans().iter().any(|s| s.name == "layer_calls"));
    }
}
