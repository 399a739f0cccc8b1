//! `manic` — command-line interface to the measurement system.
//!
//! The commands and their flags are listed once, in [`USAGE`], which is
//! printed on any argument error.
//!
//! `manic run` and `manic serve` accept `--data-dir <dir>` to persist every
//! sample through the tsdb write-ahead log and checkpoint full system state
//! every `--checkpoint-every` rounds (fsync cadence from `--durability
//! always|every-<n>|never`). `--resume` restores the last checkpoint from
//! the same directory and re-executes deterministically to catch up;
//! `manic recover <dir>` reports what such a resume would restore without
//! touching anything.
//!
//! Global flags: `--verbosity trace|debug|info|warn|error` controls both the
//! journal floor and the stderr echo; `--quiet` silences the stderr echo
//! entirely. Without either, the CLI echoes warnings and errors only.
//! `--threads N` sets how many threads run the VPs of a packet-mode round
//! or a longitudinal study (results are byte-identical at any count).
//!
//! Argument parsing is hand-rolled (the workspace carries no CLI
//! dependency); every command is deterministic given `--seed`.

use manic_core::{run_longitudinal, LinkDays, LongitudinalConfig, System, SystemConfig};
use manic_netsim::time::{date_to_sim, format_sim, Date, SECS_PER_DAY};
use manic_tsdb::TagSet;
use std::fmt;
use std::path::Path;
use std::process::ExitCode;

/// Every command, its flags and what it does. [`COMMANDS`] lists the same
/// names with their handlers.
const USAGE: &str = "\
usage: manic <command> [flags]
  manic world   [--world NAME] [--seed N] [--stats]        topology summary
                (NAME: toy, us, or generated sim-1k|sim-5k|planet-20k|planet-50k)
  manic links   --vp <name> [--world ..] [--seed N]         run bdrmap, list links
  manic watch   --vp <name> [--hours H] [--world ..]        dashboard after H hours
  manic study   [--days D] [--world ..] [--seed N]          longitudinal day-link report
  manic inspect [--days D] [--world ..] [--seed N]          evidence dossiers (sec. 4.2)
  manic export  --vp <name> [--hours H] [--format json|csv] raw TSLP series dump
  manic obs     <metrics|journal|explain <far-ip>|links> [--hours H]
                [--format prom|json] [--filter S]           metrics, journal, audit trail
  manic serve   [--addr HOST:PORT] [--hours H] [--snapshot-interval SECS]
                [--max-conns N] [--request-timeout SECS] [--shed-queue-depth N]
                                                            sim + HTTP API
  manic run     [--hours H] [--data-dir DIR] [--durability P] [--resume]
                                                            headless run
  manic recover <data-dir>   (exit 0 clean, 3 recoverable damage or
                a checkpoint format this binary refuses, 1 fatal)
global flags: --verbosity trace|debug|info|warn|error, --quiet,
              --threads N (VP workers, default: all cores; results identical for any N)
durability:   --data-dir DIR, --durability always|every-<n>|never,
              --checkpoint-every ROUNDS, --resume,
              --storage-faults <seed>:<eio|enospc|torn|lie|flip[+..]|all>
              (inject seeded disk faults into the storage layer; testing)";

type Handler = fn(Args) -> Result<(), CliError>;

/// The commands `manic` runs, each with its handler.
const COMMANDS: &[(&str, Handler)] = &[
    ("world", cmd_world),
    ("links", cmd_links),
    ("watch", cmd_watch),
    ("study", cmd_study),
    ("inspect", cmd_inspect),
    ("export", cmd_export),
    ("obs", cmd_obs),
    ("serve", cmd_serve),
    ("run", cmd_run),
    ("recover", cmd_recover),
];

/// Everything that can go wrong between argv and a finished command. The
/// workspace carries no error-handling dependency, so this small enum is
/// the whole story: every failure path surfaces here instead of panicking.
#[derive(Debug)]
enum CliError {
    MissingCommand,
    UnknownCommand(String),
    MissingValue(String),
    UnknownFlag(String),
    InvalidValue { flag: &'static str, reason: String },
    UnknownWorld(String),
    MissingVp,
    UnknownVp(String),
    UnknownFormat(String),
    EmptyCycle(String),
    MissingSubcommand(&'static str),
    UnknownSubcommand { cmd: &'static str, sub: String },
    UnexpectedArg(String),
    UnknownLevel(String),
    NoAuditRecords { link: String, known: Vec<String> },
    ServerStart { addr: String, reason: String },
    Durability(String),
    /// A data dir this binary will not read or touch (a checkpoint format
    /// other than its own): exit 3, the directory is left as found.
    Refused(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::MissingCommand => write!(f, "missing command"),
            CliError::UnknownCommand(c) => write!(f, "unknown command '{c}'"),
            CliError::MissingValue(flag) => write!(f, "{flag} needs a value"),
            CliError::UnknownFlag(flag) => write!(f, "unknown flag {flag}"),
            CliError::InvalidValue { flag, reason } => write!(f, "{flag}: {reason}"),
            CliError::UnknownWorld(w) => write!(
                f,
                "unknown world '{w}' (library: {})",
                manic_worldgen::library_names().join(", ")
            ),
            CliError::MissingVp => write!(f, "--vp required"),
            CliError::UnknownVp(vp) => write!(f, "unknown VP '{vp}' (try `manic world`)"),
            CliError::UnknownFormat(fmt) => write!(f, "unknown format '{fmt}' (json|csv)"),
            CliError::EmptyCycle(vp) => {
                write!(f, "bdrmap cycle for '{vp}' produced no links")
            }
            CliError::MissingSubcommand(cmd) => {
                write!(f, "'{cmd}' needs a subcommand (try `manic {cmd} metrics`)")
            }
            CliError::UnknownSubcommand { cmd, sub } => {
                write!(f, "unknown '{cmd}' subcommand '{sub}'")
            }
            CliError::UnexpectedArg(a) => write!(f, "unexpected argument '{a}'"),
            CliError::UnknownLevel(l) => {
                write!(f, "unknown level '{l}' (trace|debug|info|warn|error)")
            }
            CliError::NoAuditRecords { link, known } => {
                write!(f, "no audit records for link '{link}'")?;
                if !known.is_empty() {
                    write!(f, "; links with records: {}", known.join(", "))?;
                }
                Ok(())
            }
            CliError::ServerStart { addr, reason } => {
                write!(f, "cannot serve on {addr}: {reason}")
            }
            CliError::Durability(reason) => write!(f, "durability: {reason}"),
            CliError::Refused(reason) => write!(f, "refused: {reason}"),
        }
    }
}

impl std::error::Error for CliError {}

/// Default simulated start for CLI runs (inside the study window).
fn t0() -> i64 {
    date_to_sim(Date::new(2017, 3, 1))
}

struct Args {
    world: String,
    seed: u64,
    vp: Option<String>,
    days: i64,
    hours: i64,
    format: String,
    /// Positional arguments after the command (subcommand, link IP, ...).
    positional: Vec<String>,
    /// `--verbosity <level>`: journal floor + stderr echo level.
    verbosity: Option<manic_obs::Level>,
    /// `--quiet`: no stderr echo at all.
    quiet: bool,
    /// `--filter <substring>`: journal dump filter (event name or target).
    filter: Option<String>,
    /// `manic serve`: listen address.
    addr: String,
    /// `manic serve`: wall-clock seconds between snapshot publishes.
    snapshot_interval: u64,
    /// `--data-dir <dir>`: persist WAL + checkpoints here (run/serve).
    data_dir: Option<String>,
    /// `--durability always|every-<n>|never`: WAL fsync policy.
    durability: String,
    /// `--checkpoint-every <rounds>`: rounds between checkpoints.
    checkpoint_every: u64,
    /// `--resume`: restore the last checkpoint from `--data-dir`.
    resume: bool,
    /// `--threads N`: VP worker threads for packet-mode rounds and
    /// longitudinal studies (default: all cores).
    threads: usize,
    /// `--storage-faults <seed>:<kinds|all>`: inject disk faults into the
    /// durable layer (torture harness; kinds are `eio+enospc+torn+lie+flip`).
    storage_faults: Option<String>,
    /// `manic world --stats`: print generator statistics (tier histogram,
    /// determinism fingerprint) instead of the VP roster.
    stats: bool,
    /// `manic serve --max-conns N`: open-connection budget (0 = unlimited).
    max_conns: usize,
    /// `manic serve --request-timeout S`: header-read deadline in seconds.
    request_timeout: u64,
    /// `manic serve --shed-queue-depth N`: accept-queue depth beyond which
    /// non-priority requests are shed (0 disables depth-based shedding).
    shed_queue_depth: usize,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<(String, Args), CliError> {
        let cmd = argv.next().ok_or(CliError::MissingCommand)?;
        let mut args = Args {
            world: "toy".into(),
            seed: 42,
            vp: None,
            days: 60,
            hours: 24,
            format: "csv".into(),
            positional: Vec::new(),
            verbosity: None,
            quiet: false,
            filter: None,
            addr: "127.0.0.1:8379".into(),
            snapshot_interval: 2,
            data_dir: None,
            durability: "every-64".into(),
            checkpoint_every: 12,
            resume: false,
            threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            storage_faults: None,
            stats: false,
            max_conns: manic_serve::OverloadConfig::default().max_conns,
            request_timeout: 2,
            shed_queue_depth: manic_serve::OverloadConfig::default().shed_queue_depth,
        };
        while let Some(flag) = argv.next() {
            let mut val = || argv.next().ok_or_else(|| CliError::MissingValue(flag.clone()));
            fn num<T: std::str::FromStr>(flag: &'static str, v: String) -> Result<T, CliError>
            where
                T::Err: fmt::Display,
            {
                v.parse()
                    .map_err(|e: T::Err| CliError::InvalidValue { flag, reason: e.to_string() })
            }
            match flag.as_str() {
                "--world" => args.world = val()?,
                "--seed" => args.seed = num("--seed", val()?)?,
                "--vp" => args.vp = Some(val()?),
                "--days" => args.days = num("--days", val()?)?,
                "--hours" => args.hours = num("--hours", val()?)?,
                "--format" => args.format = val()?,
                "--filter" => args.filter = Some(val()?),
                "--addr" => args.addr = val()?,
                "--snapshot-interval" => {
                    args.snapshot_interval = num("--snapshot-interval", val()?)?
                }
                "--max-conns" => args.max_conns = num("--max-conns", val()?)?,
                "--request-timeout" => {
                    args.request_timeout = num("--request-timeout", val()?)?
                }
                "--shed-queue-depth" => {
                    args.shed_queue_depth = num("--shed-queue-depth", val()?)?
                }
                "--data-dir" => args.data_dir = Some(val()?),
                "--durability" => args.durability = val()?,
                "--checkpoint-every" => {
                    args.checkpoint_every = num("--checkpoint-every", val()?)?
                }
                "--resume" => args.resume = true,
                "--stats" => args.stats = true,
                "--storage-faults" => args.storage_faults = Some(val()?),
                "--threads" => args.threads = num("--threads", val()?)?,
                "--quiet" => args.quiet = true,
                "--verbosity" => {
                    let v = val()?;
                    args.verbosity = Some(
                        manic_obs::Level::parse(&v).ok_or(CliError::UnknownLevel(v))?,
                    );
                }
                other if other.starts_with('-') => {
                    return Err(CliError::UnknownFlag(other.to_string()))
                }
                positional => args.positional.push(positional.to_string()),
            }
        }
        // Window lengths must be positive, so downstream day-aligned asserts
        // (LongitudinalConfig) are never reachable from user input, and the
        // window end `t0() + length` must be a representable sim time.
        for (flag, len, unit) in [
            ("--days", args.days, SECS_PER_DAY),
            ("--hours", args.hours, 3600),
        ] {
            if len <= 0 {
                return Err(CliError::InvalidValue {
                    flag,
                    reason: format!("must be positive, got {len}"),
                });
            }
            if len.checked_mul(unit).and_then(|secs| t0().checked_add(secs)).is_none() {
                return Err(CliError::InvalidValue {
                    flag,
                    reason: format!("{len} overflows the simulated clock"),
                });
            }
        }
        if args.snapshot_interval == 0 {
            return Err(CliError::InvalidValue {
                flag: "--snapshot-interval",
                reason: "must be at least 1 second".into(),
            });
        }
        if manic_tsdb::FsyncPolicy::parse(&args.durability).is_none() {
            return Err(CliError::InvalidValue {
                flag: "--durability",
                reason: format!("'{}' is not always|every-<n>|never", args.durability),
            });
        }
        if args.threads == 0 {
            return Err(CliError::InvalidValue {
                flag: "--threads",
                reason: "must be at least 1".into(),
            });
        }
        if args.checkpoint_every == 0 {
            return Err(CliError::InvalidValue {
                flag: "--checkpoint-every",
                reason: "must be at least 1 round".into(),
            });
        }
        if let Some(spec) = &args.storage_faults {
            if manic_vfs::DiskFaultPlan::parse_spec(spec).is_none() {
                return Err(CliError::InvalidValue {
                    flag: "--storage-faults",
                    reason: format!(
                        "'{spec}' is not <seed>:<eio|enospc|torn|lie|flip[+..]|all>"
                    ),
                });
            }
        }
        // Durable-only flags without a data dir would otherwise run fresh
        // in memory and exit 0, as if they had been honoured.
        if args.data_dir.is_none() {
            for (flag, set) in
                [("--resume", args.resume), ("--storage-faults", args.storage_faults.is_some())]
            {
                if set {
                    return Err(CliError::InvalidValue { flag, reason: "needs --data-dir".into() });
                }
            }
        }
        if args.request_timeout == 0 {
            return Err(CliError::InvalidValue {
                flag: "--request-timeout",
                reason: "must be at least 1 second".into(),
            });
        }
        // A malformed listen address should fail argument parsing, not
        // surface later as a bind error from inside the server.
        if args.addr.parse::<std::net::SocketAddr>().is_err() {
            return Err(CliError::InvalidValue {
                flag: "--addr",
                reason: format!("'{}' is not a host:port address", args.addr),
            });
        }
        Ok((cmd, args))
    }

    /// Core config with the CLI's threading knob applied. Thread count
    /// never changes results (byte-identical stores), only wall-clock.
    fn system_config(&self) -> SystemConfig {
        SystemConfig {
            threads: self.threads,
            ..SystemConfig::default()
        }
    }

    /// Resolve `--world` through the worldgen library (classic and
    /// generated names alike), keeping provenance for labels and `--stats`.
    fn build_world_full(&self) -> Result<manic_worldgen::BuiltWorld, CliError> {
        manic_worldgen::build_world_full(&self.world, self.seed).map_err(|e| match e {
            manic_worldgen::WorldError::Unknown { name, .. } => CliError::UnknownWorld(name),
            other => CliError::InvalidValue { flag: "--world", reason: other.to_string() },
        })
    }
}

/// Wire the journal's stderr echo to the requested verbosity. The library
/// default echoes Info and above; an interactive CLI wants warnings only
/// unless asked.
fn apply_verbosity(args: &Args) {
    let j = manic_obs::journal();
    if args.quiet {
        j.set_stderr_level(None);
    } else if let Some(level) = args.verbosity {
        j.set_min_level(level);
        j.set_stderr_level(Some(level));
    } else {
        j.set_stderr_level(Some(manic_obs::Level::Warn));
    }
}

fn main() -> ExitCode {
    let mut argv = std::env::args();
    let _bin = argv.next();
    match Args::parse(argv) {
        Ok((cmd, args)) => {
            apply_verbosity(&args);
            match run(&cmd, args) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {e}"); // ALLOW_PRINT: CLI user output
                    match e {
                        CliError::Refused(_) => ExitCode::from(3),
                        _ => ExitCode::FAILURE,
                    }
                }
            }
        }
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}"); // ALLOW_PRINT: CLI usage text.
            ExitCode::FAILURE
        }
    }
}

fn run(cmd: &str, args: Args) -> Result<(), CliError> {
    let &(_, handler) = COMMANDS
        .iter()
        .find(|(name, _)| *name == cmd)
        .ok_or_else(|| CliError::UnknownCommand(cmd.to_string()))?;
    // Only `recover` (its data dir) and `obs` (a subcommand, plus the link
    // for `explain`) take positionals; anything past those is a stray.
    let takes = match (cmd, args.positional.first().map(String::as_str)) {
        ("obs", Some("explain")) => 2,
        ("obs" | "recover", _) => 1,
        _ => 0,
    };
    if let Some(extra) = args.positional.get(takes) {
        return Err(CliError::UnexpectedArg(extra.clone()));
    }
    handler(args)
}

/// Build the core durability config from the parsed flags (already
/// validated by [`Args::parse`]).
fn durability_config(args: &Args) -> manic_core::DurabilityConfig {
    let vfs: std::sync::Arc<dyn manic_vfs::Vfs> = match &args.storage_faults {
        None => manic_vfs::real(),
        Some(spec) => {
            let plan =
                manic_vfs::DiskFaultPlan::parse_spec(spec).expect("validated at parse time");
            std::sync::Arc::new(manic_vfs::FaultVfs::new(plan))
        }
    };
    manic_core::DurabilityConfig {
        fsync: manic_tsdb::FsyncPolicy::parse(&args.durability)
            .expect("validated at parse time"),
        checkpoint_every_rounds: args.checkpoint_every,
        vfs,
        ..manic_core::DurabilityConfig::default()
    }
}

fn durability_err(e: std::io::Error) -> CliError {
    match e.kind() {
        std::io::ErrorKind::Unsupported => CliError::Refused(e.to_string()),
        _ => CliError::Durability(e.to_string()),
    }
}

/// Open `dir` for a durable run: with `--resume` and a checkpoint present,
/// restore the newest one (keeping this invocation's `--threads`) and
/// return what was recovered; otherwise build a fresh system and start a
/// new durable run over `[from, to)`.
fn open_durable(
    args: &Args,
    dir: &Path,
    from: i64,
    to: i64,
) -> Result<(System, manic_core::Durable, Option<manic_core::ResumeInfo>), CliError> {
    let cfg = durability_config(args);
    if args.resume && manic_core::has_checkpoint(dir, &*cfg.vfs) {
        let (mut sys, d, info) = manic_core::resume(dir, Some(cfg)).map_err(durability_err)?;
        sys.cfg.threads = args.threads;
        return Ok((sys, d, Some(info)));
    }
    let sys = build_system(args)?;
    let d = manic_core::Durable::create(&sys, &args.world, args.seed, dir, from, to, cfg)
        .map_err(durability_err)?;
    Ok((sys, d, None))
}

/// Shared epilogue of `manic run`: arm the level-shift detector over the
/// executed window and print a machine-parseable summary. The same lines
/// come out of a fresh, a durable, and a crashed-then-resumed run, so the
/// `disk_torture` harness (and CI) can diff them directly.
fn print_run_summary(sys: &mut System, world: &str, seed: u64, from: i64, to: i64) {
    let mut congested: Vec<String> = Vec::new();
    if to > from {
        for vi in 0..sys.vps.len() {
            sys.arm_reactive_loss(vi, from, to);
            congested.extend(sys.vps[vi].loss.targets.iter().map(|t| t.far_ip.to_string()));
        }
    }
    congested.sort();
    congested.dedup();
    println!(
        "run complete: world '{world}' seed {seed} window {} .. {}",
        format_sim(from),
        format_sim(to)
    );
    println!(
        "store: series={} points={} hash={:016x}",
        sys.store.series_count(),
        sys.store.point_count(),
        sys.store.content_hash()
    );
    println!("verdicts: congested={}", if congested.is_empty() { "-".into() } else { congested.join(",") });
}

/// `manic run` — headless measurement run, optionally persisted. With
/// `--data-dir` every sample goes through the WAL and full system state is
/// checkpointed every `--checkpoint-every` rounds; SIGINT/SIGTERM drain
/// flushes the WAL and writes a final checkpoint before exit. `--resume`
/// restores the newest checkpoint from the same directory and re-executes
/// deterministically to the original end of window.
fn cmd_run(args: Args) -> Result<(), CliError> {
    manic_serve::signal::install();
    let stop = || manic_serve::signal::requested();
    let from = t0();
    let to = from + args.hours * 3600;

    let Some(dir) = args.data_dir.clone() else {
        // In-memory run: same summary lines, nothing persisted.
        let mut sys = build_system(&args)?;
        let mut t = from;
        while t < to && !stop() {
            let next = (t + manic_probing::tslp::ROUND_SECS).min(to);
            sys.run_packet_mode(t, next);
            t = next;
        }
        print_run_summary(&mut sys, &args.world, args.seed, from, t);
        return Ok(());
    };

    let (mut sys, mut d, resumed) = open_durable(&args, Path::new(&dir), from, to)?;
    match resumed {
        Some(info) => println!(
            "resumed: world '{}' seed {} rounds={} t={} recovered_in_ms={:.1} \
             tail_discarded={} snapshot_records={} hash_ok={}",
            info.world,
            info.seed,
            info.rounds,
            format_sim(info.t),
            info.recovery_ms,
            info.tail_discarded,
            info.snapshot_records,
            info.store_hash_ok
        ),
        // Crash before the first checkpoint landed (or a fresh dir): a
        // fresh durable run, so a supervisor can always restart with
        // `--resume`.
        None if args.resume => println!("no checkpoint in {dir}; starting fresh"),
        None => {}
    }

    let end = d.t_end();
    d.run_window(&mut sys, end, &stop).map_err(durability_err)?;
    let reached = d.resume_t();
    d.finalize(&sys, reached).map_err(durability_err)?;
    if reached < end {
        println!(
            "interrupted: checkpointed at round {} (t={}); rerun with --resume to continue",
            d.rounds(),
            format_sim(reached)
        );
    }
    let (world_name, seed, start) = (d.world_name().to_string(), d.seed(), d.t_start());
    print_run_summary(&mut sys, &world_name, seed, start, reached);
    Ok(())
}

/// `manic recover <data-dir>` — read-only report of what a `--resume` from
/// this directory would restore, walking the same generation-fallback /
/// snapshot-healing chain a real resume uses.
///
/// Exit codes: 0 = clean (nothing to work around); 3 = corruption found but
/// a resume would recover (fallback, heal, or quarantined WAL ranges), or the
/// directory holds another checkpoint format version and is refused as a
/// whole; 1 = unrecoverable (no generation restores).
fn cmd_recover(args: Args) -> Result<(), CliError> {
    let dir = args
        .positional
        .first()
        .cloned()
        .or_else(|| args.data_dir.clone())
        .ok_or_else(|| CliError::MissingValue("recover <data-dir>".into()))?;
    let rep = manic_core::recover_report(std::path::Path::new(&dir), &manic_vfs::RealVfs)
        .map_err(durability_err)?;
    println!("recover report for {dir}:");
    println!("  world '{}' seed {}", rep.world, rep.seed);
    println!(
        "  checkpoint: rounds={} t={} (window ends {})",
        rep.rounds,
        format_sim(rep.t),
        format_sim(rep.t_end)
    );
    println!(
        "  store: series={} points={} hash={:016x} ({})",
        rep.series,
        rep.points,
        rep.store_hash,
        if rep.store_hash_ok {
            "hash ok"
        } else if rep.storage.healed_snapshot {
            "hash rebuilt around quarantined WAL ranges"
        } else {
            "HASH MISMATCH"
        }
    );
    println!("  snapshot records: {}", rep.snapshot_records);
    println!(
        "  wal tail: records={} torn={} decode_errors={} (tail is discarded and \
         regenerated deterministically on resume)",
        rep.tail_records, rep.tail_torn, rep.tail_decode_errors
    );
    let s = &rep.storage;
    if s.clean() {
        println!("  storage: clean");
    } else {
        println!(
            "  storage: fallback_generations={} bad_metas={} healed_snapshot={} \
             quarantined_frames={} quarantined_bytes={} gap_windows={}",
            s.fallback_generations,
            s.bad_metas,
            s.healed_snapshot,
            s.quarantined_frames,
            s.quarantined_bytes,
            s.gap_windows
        );
        for note in &s.notes {
            println!("    - {note}");
        }
    }
    if !rep.store_hash_ok && !s.healed_snapshot {
        return Err(CliError::Durability(
            "restored store hash does not match the checkpoint".into(),
        ));
    }
    if !s.clean() {
        // Distinct from failure (1): the directory is damaged but a resume
        // recovers. Scripts can branch on it.
        use std::io::Write;
        let _ = std::io::stdout().flush();
        std::process::exit(3);
    }
    Ok(())
}

/// `manic serve` — run the measurement loop and the HTTP query API
/// concurrently. The sim thread owns the `System`, advances packet mode up
/// to `--hours` of simulated time, and publishes a fresh read snapshot
/// every `--snapshot-interval` wall seconds; the server threads only ever
/// see those snapshots, the audit trail, and the (shared, lock-sharded)
/// tsdb. SIGINT/SIGTERM stop accepting, drain in-flight requests, and join
/// every thread before exit.
fn cmd_serve(args: Args) -> Result<(), CliError> {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    /// Dashboard lookback window for published snapshots.
    const LOOKBACK_SECS: i64 = 6 * 3600;
    /// Sim seconds advanced per scheduling quantum (six TSLP rounds) —
    /// small enough that shutdown and publish cadence stay responsive.
    const CHUNK_SECS: i64 = 1800;

    manic_serve::signal::install();
    let from = t0();
    let to = from + args.hours * 3600;
    // With --data-dir the sim thread runs through the durable layer: every
    // sample hits the WAL and state checkpoints on cadence; the health
    // endpoint exposes the persistence frontier.
    let (mut sys, mut durable, status) = match &args.data_dir {
        None => (build_system(&args)?, None, None),
        Some(dir) => {
            let (sys, d, resumed) = open_durable(&args, Path::new(dir), from, to)?;
            let status = Arc::new(manic_serve::DurabilityStatus::new(&args.durability));
            if let Some(info) = resumed {
                status.note_recovery(info.rounds, info.tail_discarded, info.recovery_ms);
                status.note_storage_findings(&info.storage);
                println!(
                    "resumed: world '{}' seed {} rounds={} tail_discarded={} \
                     recovered_in_ms={:.1}",
                    info.world, info.seed, info.rounds, info.tail_discarded, info.recovery_ms
                );
            }
            (sys, Some(d), Some(status))
        }
    };
    let hub = Arc::new(manic_serve::SnapshotHub::new());
    let store = Arc::clone(&sys.store);
    let mut serve_cfg = manic_serve::ServeConfig::default();
    serve_cfg.overload.max_conns = args.max_conns;
    serve_cfg.overload.header_read_timeout = Duration::from_secs(args.request_timeout);
    serve_cfg.overload.shed_queue_depth = args.shed_queue_depth;
    let mut state = manic_serve::ServeState::new(Arc::clone(&hub), store, &serve_cfg);
    state.durability = status.clone();
    let state = Arc::new(state);
    let server = manic_serve::Server::start(&args.addr, state, &serve_cfg).map_err(|e| {
        CliError::ServerStart { addr: args.addr.clone(), reason: e.to_string() }
    })?;
    println!(
        "manic-serve listening on http://{} (world '{}', seed {}, {}h of sim time)",
        server.local_addr(),
        args.world,
        args.seed,
        args.hours
    );
    if let Some(d) = &durable {
        println!(
            "durability: data dir {:?}, policy {}, checkpoint every {} rounds",
            args.data_dir.as_deref().unwrap_or("?"),
            d.config().fsync,
            d.config().checkpoint_every_rounds
        );
    }

    let stop = Arc::new(AtomicBool::new(false));
    let sim_stop = Arc::clone(&stop);
    let sim_hub = Arc::clone(&hub);
    let interval = Duration::from_secs(args.snapshot_interval);
    let sim = std::thread::Builder::new()
        .name("serve-sim".into())
        .spawn(move || {
            // A resumed world continues mid-window; fresh worlds start at
            // the window's beginning either way.
            let (from, end, mut t) = match &durable {
                Some(d) => (d.t_start(), d.t_end(), d.resume_t()),
                None => (from, to, from),
            };
            let mut armed_to = t;
            let mut last_pub: Option<Instant> = None;
            let halted = || sim_stop.load(Ordering::Acquire);
            while !halted() {
                if t < end {
                    let next = (t + CHUNK_SECS).min(end);
                    match &mut durable {
                        Some(d) => {
                            if let Err(e) = d.run_window(&mut sys, next, &halted) {
                                manic_obs::event!(
                                    manic_obs::WARN, "cli", "durability_error", t,
                                    error = e.to_string(),
                                );
                            }
                            t = d.resume_t();
                            if let Some(st) = &status {
                                st.note_progress(d.rounds());
                                let (cr, ct) = d.last_checkpoint();
                                st.note_checkpoint(cr, ct);
                                st.set_storage_degraded(d.wal().degraded());
                            }
                        }
                        None => {
                            sys.run_packet_mode(t, next);
                            t = next;
                        }
                    }
                }
                let due = last_pub.map(|p| p.elapsed() >= interval).unwrap_or(true);
                if due && (t > armed_to || last_pub.is_none()) {
                    if t > armed_to {
                        // Reactive level-shift detection feeds the audit
                        // trail the /api/links verdicts come from.
                        for vi in 0..sys.vps.len() {
                            sys.arm_reactive_loss(vi, armed_to, t);
                        }
                        armed_to = t;
                    }
                    sim_hub.publish_from(&sys, t, LOOKBACK_SECS.min(t - from).max(1));
                    last_pub = Some(Instant::now());
                }
                if t >= end {
                    // Fully simulated: keep serving, stay responsive to
                    // shutdown.
                    std::thread::sleep(Duration::from_millis(50));
                }
            }
            // Drain: flush the WAL and leave a final checkpoint so the next
            // `--resume` restarts exactly here.
            if let Some(mut d) = durable {
                let reached = d.resume_t();
                if let Err(e) = d.finalize(&sys, reached) {
                    manic_obs::event!(
                        manic_obs::WARN, "cli", "finalize_error", reached,
                        error = e.to_string(),
                    );
                }
            }
        })
        .expect("spawn sim thread");

    while !manic_serve::signal::requested() {
        std::thread::sleep(Duration::from_millis(100));
    }
    println!("shutting down: draining in-flight requests and flushing state...");
    stop.store(true, Ordering::Release);
    let _ = sim.join();
    server.shutdown();
    println!("done.");
    Ok(())
}

fn cmd_world(args: Args) -> Result<(), CliError> {
    let built = args.build_world_full()?;
    let w = &built.world;
    println!("world '{}' (seed {}):", args.world, args.seed);
    if args.stats {
        let st = &built.stats;
        println!("  ASes (universe):   {}", st.total_ases);
        println!("  AS adjacencies:    {}", st.as_adjacencies);
        println!("  compiled ASes:     {}", st.focus_ases);
        println!("  interdomain links: {}", st.interconnects);
        println!("  vantage points:    {}", st.vps);
        println!("  tiers:");
        for (label, count) in &st.tiers {
            println!("    {label:<8} {count}");
        }
        if st.graph_mem_bytes > 0 {
            println!("  compact graph:     {} KiB", st.graph_mem_bytes / 1024);
        }
        println!("  fingerprint:       {:016x}", built.fingerprint);
        return Ok(());
    }
    println!("  ASes:              {}", w.graph.len());
    println!("  routers:           {}", w.net.topo.routers.len());
    println!("  links:             {}", w.net.topo.links.len());
    println!("  interdomain links: {}", w.gt_links.len());
    println!("  vantage points:    {}", w.vps.len());
    for vp in &w.vps {
        println!("    {} ({} at {})", vp.name, w.graph.info(vp.asn).name, vp.pop);
    }
    Ok(())
}

/// Build the measurement system with its world-provenance label attached.
fn build_system(args: &Args) -> Result<System, CliError> {
    let built = args.build_world_full()?;
    let mut sys = System::new(built.world, args.system_config());
    sys.set_world_label(&built.name, built.fingerprint);
    Ok(sys)
}

fn vp_index(sys: &System, args: &Args) -> Result<usize, CliError> {
    let name = args.vp.as_deref().ok_or(CliError::MissingVp)?;
    sys.vps
        .iter()
        .position(|v| v.handle.name == name)
        .ok_or_else(|| CliError::UnknownVp(name.to_string()))
}

fn cmd_links(args: Args) -> Result<(), CliError> {
    let mut sys = build_system(&args)?;
    let vi = vp_index(&sys, &args)?;
    let n = sys.run_bdrmap_cycle(vi, t0());
    let vp = &sys.vps[vi];
    println!("{}: {} interdomain links under probing", vp.handle.name, n);
    println!("{:<16} {:<16} {:<12} {:<9} {:>5} {:>6}", "near", "far", "neighbor", "rel", "ixp", "dests");
    if vp.bdrmap.is_none() {
        return Err(CliError::EmptyCycle(vp.handle.name.clone()));
    }
    for task in &vp.tslp.tasks {
        let (neigh, rel, ixp) = vp
            .bdrmap_links
            .get(&(task.near_ip, task.far_ip))
            .map(|l| {
                (
                    sys.world.graph.info(l.far_as).name.clone(),
                    format!("{:?}", l.rel),
                    l.via_ixp,
                )
            })
            .unwrap_or_else(|| ("?".into(), "?".into(), false));
        println!(
            "{:<16} {:<16} {:<12} {:<9} {:>5} {:>6}",
            task.near_ip.to_string(),
            task.far_ip.to_string(),
            neigh,
            rel,
            if ixp { "yes" } else { "" },
            task.dests.len()
        );
    }
    Ok(())
}

fn cmd_watch(args: Args) -> Result<(), CliError> {
    let mut sys = build_system(&args)?;
    let vi = vp_index(&sys, &args)?;
    let from = t0();
    let to = from + args.hours * 3600;
    sys.run_packet_mode(from, to);
    println!(
        "dashboard for {} at {} (lookback {}h):",
        sys.vps[vi].handle.name,
        format_sim(to),
        args.hours
    );
    println!(
        "{:<16} {:<12} {:>10} {:>10} {:>10}  state",
        "link (far)", "neighbor", "near ms", "far ms", "baseline"
    );
    for row in sys.snapshot(vi, to, args.hours * 3600) {
        let neigh = row
            .neighbor
            .map(|a| sys.world.graph.info(a).name.clone())
            .unwrap_or_else(|| "?".into());
        let f = |v: Option<f64>| v.map(|x| format!("{x:.2}")).unwrap_or_else(|| "-".into());
        println!(
            "{:<16} {:<12} {:>10} {:>10} {:>10}  {}",
            row.far_ip.to_string(),
            neigh,
            f(row.near_latest_ms),
            f(row.far_latest_ms),
            f(row.far_baseline_ms),
            if row.elevated { "ELEVATED" } else { "ok" }
        );
    }
    Ok(())
}

/// The longitudinal study `study` and `inspect` report on: `--days` from
/// the CLI start, its VPs spread over `--threads`.
fn study_links(args: &Args) -> Result<(System, Vec<LinkDays>, i64, i64), CliError> {
    let mut sys = build_system(args)?;
    let from = t0();
    let to = from + args.days * SECS_PER_DAY;
    let cfg = LongitudinalConfig {
        threads: args.threads,
        ..LongitudinalConfig::new(from, to)
    };
    let links = run_longitudinal(&mut sys, &cfg);
    Ok((sys, links, from, to))
}

fn cmd_study(args: Args) -> Result<(), CliError> {
    let (sys, links, from, to) = study_links(&args)?;
    println!(
        "longitudinal study {} .. {} ({} links):",
        format_sim(from),
        format_sim(to),
        links.len()
    );
    println!(
        "{:<12} {:<12} {:<16} {:>9} {:>10} {:>9}",
        "host", "neighbor", "far", "observed", "congested", "mean-day%"
    );
    for l in &links {
        let cong = l.congested_days(0.04);
        let mean = if l.day_masks.is_empty() {
            0.0
        } else {
            100.0 * l.day_masks.keys().map(|&d| l.day_pct(d)).sum::<f64>()
                / l.day_masks.len() as f64
        };
        println!(
            "{:<12} {:<12} {:<16} {:>9} {:>10} {:>8.1}%",
            sys.world.graph.info(l.host_as).name,
            sys.world.graph.info(l.neighbor_as).name,
            l.far_ip.to_string(),
            l.observed_days(),
            cong,
            mean
        );
    }
    Ok(())
}

/// §4.2's manual-inspection workflow: render an evidence dossier for every
/// link the pipeline asserts as congested.
fn cmd_inspect(args: Args) -> Result<(), CliError> {
    let (sys, links, from, _) = study_links(&args)?;
    let mut asserted = 0;
    for link in &links {
        if link.congested_days(0.04) == 0 {
            continue;
        }
        asserted += 1;
        // Excerpt: the worst day's series from the first observing VP.
        let (near, far, series_from) = (|| {
            let vi = sys.vps.iter().position(|v| v.handle.name == link.vps[0])?;
            let vp = &sys.vps[vi];
            let task = vp.tslp.tasks.iter().find(|t| t.far_ip == link.far_ip)?;
            let (&day, _) = link.day_masks.iter().max_by_key(|(_, m)| m.count_ones())?;
            let day_t = manic_netsim::time::day_start(day);
            let s = manic_probing::tslp::synthesize_task(
                &sys.world.net,
                &vp.handle,
                task,
                day_t,
                day_t + SECS_PER_DAY,
                900,
            );
            Some((s.near, s.far, day_t))
        })()
        .unwrap_or((vec![], vec![], from));
        let neighbor = sys.world.graph.info(link.neighbor_as).name.clone();
        println!(
            "{}",
            manic_analysis::evidence_report(link, &neighbor, series_from, &near, &far)
        );
    }
    println!("{asserted} asserted links inspected.");
    Ok(())
}

/// Drive a full packet-mode pipeline so the metrics registry, journal, and
/// audit trail have real content, then hand the system back for inspection.
///
/// Every `manic obs` subcommand shares this run: the CLI is one process, so
/// "after a pipeline run" means running one here.
fn obs_pipeline(args: &Args) -> Result<System, CliError> {
    let mut sys = build_system(args)?;
    let from = t0();
    let to = from + args.hours * 3600;
    sys.run_packet_mode(from, to);
    for vi in 0..sys.vps.len() {
        // Level-shift verdicts (reactive loss arming) + live elevation
        // verdicts (dashboard) populate the audit trail.
        sys.arm_reactive_loss(vi, from, to);
        sys.snapshot(vi, to, args.hours * 3600);
    }
    Ok(sys)
}

/// `manic obs <metrics|journal|explain|links>` — the observability window
/// into a pipeline run.
fn cmd_obs(args: Args) -> Result<(), CliError> {
    let sub = args
        .positional
        .first()
        .ok_or(CliError::MissingSubcommand("obs"))?
        .clone();
    match sub.as_str() {
        "metrics" => {
            obs_pipeline(&args)?;
            let r = manic_obs::registry();
            match args.format.as_str() {
                "json" => println!("{}", r.render_json()),
                _ => print!("{}", r.render_prometheus()),
            }
        }
        "journal" => {
            obs_pipeline(&args)?;
            let floor = args.verbosity.unwrap_or(manic_obs::Level::Trace);
            for ev in manic_obs::journal().snapshot() {
                if ev.level < floor {
                    continue;
                }
                if let Some(pat) = &args.filter {
                    if !ev.name.contains(pat.as_str()) && !ev.target.contains(pat.as_str()) {
                        continue;
                    }
                }
                println!("{}", ev.to_json());
            }
            let dropped = manic_obs::journal().dropped();
            if dropped > 0 {
                eprintln!("({dropped} events evicted from the ring)"); // ALLOW_PRINT: CLI user output
            }
        }
        "explain" => {
            let link = args
                .positional
                .get(1)
                .ok_or(CliError::MissingValue("explain <far-ip>".into()))?
                .clone();
            obs_pipeline(&args)?;
            let audit = manic_obs::audit();
            let records = audit.explain(&link);
            if records.is_empty() {
                return Err(CliError::NoAuditRecords { link, known: audit.links() });
            }
            for rec in records {
                print!("{}", rec.render_text());
            }
        }
        "links" => {
            obs_pipeline(&args)?;
            for link in manic_obs::audit().links() {
                println!("{link}");
            }
        }
        other => {
            return Err(CliError::UnknownSubcommand { cmd: "obs", sub: other.to_string() })
        }
    }
    Ok(())
}

fn cmd_export(args: Args) -> Result<(), CliError> {
    let mut sys = build_system(&args)?;
    let vi = vp_index(&sys, &args)?;
    let from = t0();
    let to = from + args.hours * 3600;
    sys.run_packet_mode(from, to);
    let vp_name = sys.vps[vi].handle.name.clone();
    let filter = TagSet::from_pairs([("vp", vp_name.as_str())]);
    match args.format.as_str() {
        "json" => println!("{}", sys.store.export_json("tslp", &filter, from, to)),
        "csv" => {
            println!("series,t,v");
            for key in sys.store.find_series("tslp", &filter) {
                // Series keys contain commas (`tslp,end=far,...`), so the
                // field must be RFC 4180 quoted.
                let name = key.to_string().replace('"', "\"\"");
                for p in sys.store.query(&key, from, to) {
                    println!("\"{name}\",{},{}", p.t, p.v);
                }
            }
        }
        other => return Err(CliError::UnknownFormat(other.to_string())),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::Args;

    fn parse(args: &[&str]) -> Result<(String, Args), super::CliError> {
        Args::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_and_flags() {
        let (cmd, a) = parse(&["study", "--days", "30", "--world", "us", "--seed", "7"]).unwrap();
        assert_eq!(cmd, "study");
        assert_eq!(a.days, 30);
        assert_eq!(a.world, "us");
        assert_eq!(a.seed, 7);
        let (_, d) = parse(&["world"]).unwrap();
        assert_eq!(d.world, "toy");
        assert_eq!(d.seed, 42);
    }

    #[test]
    fn errors_reported() {
        use super::CliError;
        assert!(matches!(parse(&[]), Err(CliError::MissingCommand)));
        assert!(matches!(parse(&["links", "--seed"]), Err(CliError::MissingValue(_))));
        assert!(matches!(parse(&["links", "--bogus", "1"]), Err(CliError::UnknownFlag(_))));
        assert!(matches!(
            parse(&["links", "--days", "notanumber"]),
            Err(CliError::InvalidValue { flag: "--days", .. })
        ));
        // Non-positive windows are rejected at parse time, before they can
        // reach day-alignment asserts downstream.
        assert!(matches!(
            parse(&["study", "--days", "0"]),
            Err(CliError::InvalidValue { flag: "--days", .. })
        ));
        assert!(matches!(
            parse(&["watch", "--hours", "-3"]),
            Err(CliError::InvalidValue { flag: "--hours", .. })
        ));
        // A window whose end overflows the sim clock is rejected too: the
        // length in seconds overflows, or the start plus it does.
        for (flag, len) in [
            ("--hours", i64::MAX),
            ("--hours", i64::MAX / 3600),
            ("--days", i64::MAX),
            ("--days", i64::MAX / super::SECS_PER_DAY),
        ] {
            match parse(&["run", flag, &len.to_string()]) {
                Err(CliError::InvalidValue { flag: f, .. }) => assert_eq!(f, flag),
                other => panic!("{flag} {len}: {:?}", other.err()),
            }
        }
        // The largest representable window still parses.
        let max_hours = (i64::MAX - super::t0()) / 3600;
        assert!(parse(&["run", "--hours", &max_hours.to_string()]).is_ok());
    }

    #[test]
    fn serve_flags_validated() {
        use super::CliError;
        let (cmd, a) =
            parse(&["serve", "--addr", "0.0.0.0:9000", "--snapshot-interval", "5"]).unwrap();
        assert_eq!(cmd, "serve");
        assert_eq!(a.addr, "0.0.0.0:9000");
        assert_eq!(a.snapshot_interval, 5);
        let (_, d) = parse(&["serve"]).unwrap();
        assert_eq!(d.addr, "127.0.0.1:8379");
        assert_eq!(d.snapshot_interval, 2);
        assert!(matches!(
            parse(&["serve", "--snapshot-interval", "0"]),
            Err(CliError::InvalidValue { flag: "--snapshot-interval", .. })
        ));
        assert!(matches!(
            parse(&["serve", "--addr", "not-an-address"]),
            Err(CliError::InvalidValue { flag: "--addr", .. })
        ));
        assert!(matches!(
            parse(&["serve", "--addr", "localhost"]),
            Err(CliError::InvalidValue { flag: "--addr", .. })
        ));
    }

    #[test]
    fn serve_overload_flags_validated() {
        use super::CliError;
        let (_, a) = parse(&[
            "serve", "--max-conns", "64", "--request-timeout", "3", "--shed-queue-depth", "16",
        ])
        .unwrap();
        assert_eq!(a.max_conns, 64);
        assert_eq!(a.request_timeout, 3);
        assert_eq!(a.shed_queue_depth, 16);
        let (_, d) = parse(&["serve"]).unwrap();
        assert_eq!(d.max_conns, manic_serve::OverloadConfig::default().max_conns);
        assert_eq!(d.request_timeout, 2);
        assert_eq!(d.shed_queue_depth, manic_serve::OverloadConfig::default().shed_queue_depth);
        // 0 means "unlimited" for the budget and "disabled" for depth
        // shedding — both parse; a zero deadline does not.
        assert!(parse(&["serve", "--max-conns", "0"]).is_ok());
        assert!(parse(&["serve", "--shed-queue-depth", "0"]).is_ok());
        assert!(matches!(
            parse(&["serve", "--request-timeout", "0"]),
            Err(CliError::InvalidValue { flag: "--request-timeout", .. })
        ));
        assert!(matches!(
            parse(&["serve", "--max-conns", "-1"]),
            Err(CliError::InvalidValue { flag: "--max-conns", .. })
        ));
    }

    #[test]
    fn durability_flags_validated() {
        use super::CliError;
        let (cmd, a) = parse(&[
            "run", "--data-dir", "/tmp/x", "--durability", "always", "--checkpoint-every", "6",
            "--resume",
        ])
        .unwrap();
        assert_eq!(cmd, "run");
        assert_eq!(a.data_dir.as_deref(), Some("/tmp/x"));
        assert_eq!(a.durability, "always");
        assert_eq!(a.checkpoint_every, 6);
        assert!(a.resume);
        let (_, d) = parse(&["run"]).unwrap();
        assert_eq!(d.durability, "every-64");
        assert_eq!(d.checkpoint_every, 12);
        assert!(!d.resume);
        assert!(matches!(
            parse(&["run", "--durability", "sometimes"]),
            Err(CliError::InvalidValue { flag: "--durability", .. })
        ));
        assert!(matches!(
            parse(&["run", "--checkpoint-every", "0"]),
            Err(CliError::InvalidValue { flag: "--checkpoint-every", .. })
        ));
        let (_, a) =
            parse(&["run", "--data-dir", "/tmp/x", "--storage-faults", "7:torn+flip"]).unwrap();
        assert_eq!(a.storage_faults.as_deref(), Some("7:torn+flip"));
        for spec in ["7:everything", "noseed"] {
            assert!(matches!(
                parse(&["run", "--data-dir", "/tmp/x", "--storage-faults", spec]),
                Err(CliError::InvalidValue { flag: "--storage-faults", .. })
            ));
        }
        // `recover` takes its data dir positionally.
        let (cmd, a) = parse(&["recover", "/tmp/x"]).unwrap();
        assert_eq!(cmd, "recover");
        assert_eq!(a.positional, vec!["/tmp/x".to_string()]);
    }

    #[test]
    fn durable_only_flags_need_a_data_dir() {
        use super::CliError;
        for cmd in ["run", "serve"] {
            for (flag, extra) in [("--resume", None), ("--storage-faults", Some("7:all"))] {
                let argv: Vec<&str> =
                    [cmd, "--hours", "1", flag].into_iter().chain(extra).collect();
                match parse(&argv) {
                    Err(CliError::InvalidValue { flag: f, .. }) => assert_eq!(f, flag),
                    other => panic!("{argv:?}: {:?}", other.err()),
                }
                let durable: Vec<&str> =
                    argv.iter().copied().chain(["--data-dir", "/tmp/x"]).collect();
                assert!(parse(&durable).is_ok(), "{durable:?}");
            }
        }
    }

    #[test]
    fn stray_positionals_rejected_uniformly() {
        for argv in [
            &["obs", "explain", "10.0.200.2", "junk"][..],
            &["obs", "links", "junk"],
            &["obs", "metrics", "junk"],
            &["obs", "journal", "junk"],
            &["recover", "/tmp/x", "junk"],
            &["run", "junk"],
            &["study", "junk"],
        ] {
            let argv: Vec<&str> = argv.iter().copied().chain(["--hours", "1"]).collect();
            let (cmd, a) = parse(&argv).unwrap();
            match super::run(&cmd, a) {
                Err(super::CliError::UnexpectedArg(extra)) => assert_eq!(extra, "junk"),
                other => panic!("{argv:?}: {:?}", other.err()),
            }
        }
    }

    #[test]
    fn usage_lists_every_command() {
        for (name, _) in super::COMMANDS {
            assert!(
                super::USAGE.contains(&format!("\n  manic {name} ")),
                "USAGE omits `manic {name}`"
            );
        }
    }

    #[test]
    fn stats_flag_parses() {
        let (_, a) = parse(&["world", "--world", "sim-1k", "--stats"]).unwrap();
        assert!(a.stats);
        let (_, a) = parse(&["world"]).unwrap();
        assert!(!a.stats);
    }

    #[test]
    fn unknown_world_rejected_at_build() {
        let (_, a) = parse(&["world", "--world", "mars"]).unwrap();
        assert!(matches!(a.build_world_full(), Err(super::CliError::UnknownWorld(_))));
    }

    #[test]
    fn positionals_and_verbosity() {
        let (cmd, a) =
            parse(&["obs", "explain", "10.3.0.2", "--hours", "6", "--verbosity", "debug"])
                .unwrap();
        assert_eq!(cmd, "obs");
        assert_eq!(a.positional, vec!["explain".to_string(), "10.3.0.2".to_string()]);
        assert_eq!(a.hours, 6);
        assert_eq!(a.verbosity, Some(manic_obs::Level::Debug));
        assert!(!a.quiet);

        let (_, q) = parse(&["study", "--quiet"]).unwrap();
        assert!(q.quiet);

        use super::CliError;
        assert!(matches!(
            parse(&["obs", "--verbosity", "loud"]),
            Err(CliError::UnknownLevel(_))
        ));
    }
}
