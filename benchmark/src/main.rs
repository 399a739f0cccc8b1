//! `manic-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints, in order: human-readable notes (checks, hashes, tails with their
//! sample counts), every metric of the run as `name unit value`, and — as
//! the last line of stdout — one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Exit code 0 when every output check passed, 1
//! when one failed, 2 when the run could not produce numbers at all.

use manic_benchmark::catalog::{END_TO_END, PER_LAYER};
use manic_benchmark::trace::{CountingAlloc, Tracer};
use manic_benchmark::workloads::{self, Workload};
use manic_benchmark::world::{out_dir, TOPO_SEED};
use manic_benchmark::{Options, Outcome};
use std::process::ExitCode;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage: manic-benchmark --workload <planet_packet|live_durable|serve_read|\
study_fluid> [--seed <n|0xhex>] [--seconds <s>] [--trace <0|1>] [--world <library world>]";

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut opts = Options {
        workload: Workload::PlanetPacket,
        seed: TOPO_SEED,
        seconds: 10,
        trace: false,
        world: None,
    };
    let mut workload = None;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => opts.seed = parse_u64(&value).ok_or_else(bad)?,
            "--seconds" => {
                opts.seconds = parse_u64(&value)
                    .filter(|s| (1..=600).contains(s))
                    .ok_or_else(bad)?
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--world" => opts.world = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(out: &Outcome, metrics: &[(&str, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                out.get(name)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted.max(1),
        out.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The journal still records; its stderr echo would swamp the report.
    manic_obs::journal().set_stderr_level(None);

    let name = opts.workload.name();
    let mut tracer = Tracer::new(opts.trace);
    let out = match workloads::run(&opts, &mut tracer) {
        Ok(out) => out,
        Err(abort) => {
            eprintln!(
                "error: {name} could not run: {} (attempted {}, failed {})",
                abort.reason, abort.attempted, abort.failed
            );
            return ExitCode::from(2);
        }
    };
    let metrics = if opts.trace { PER_LAYER } else { END_TO_END };
    for (metric, _) in END_TO_END {
        assert!(out.is_set(metric), "{name} did not report {metric}");
    }

    println!(
        "# {name} seed {:#x} seconds {} trace {} ({} cores)",
        opts.seed,
        opts.seconds,
        opts.trace as u8,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    for note in &out.notes {
        println!("# {note}");
    }
    if opts.trace {
        let path = out_dir().join(format!("trace-{name}.json"));
        match tracer.write_json(&path, name, opts.seed) {
            Ok(()) => println!(
                "# {} spans written to {}",
                tracer.span_count(),
                path.display()
            ),
            Err(e) => {
                eprintln!("error: writing {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
    }
    for (metric, unit) in metrics {
        println!("{metric} {unit} {}", out.get(metric));
    }
    println!("{}", result_json(&out, metrics));
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
