//! `perfbench`: the engine's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload review|batch|durable --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` sets up the workload [`SETUP_REPEATS`] times, runs one
//! timed window on the first engine (the other set-ups run in child
//! processes during pauses of the window) and prints the end-to-end
//! metrics.
//! `--trace 1` sets up once, then runs the same window twice on engines
//! that start identical — untraced, then with spans — and prints the
//! per-layer metrics plus the tracing overhead. Either way the last line
//! of stdout is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. See `perfbench/README.md` for every metric and workload.

mod client;
mod host;
mod script;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use scrutinizer_core::SystemConfig;
use scrutinizer_engine::protocol::Json;
use scrutinizer_engine::{Engine, EngineOptions};
use scrutinizer_sim::SimEnv;

use trace::{median, quantile, Tracer};
use workloads::{Ready, Window, Workload};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// The host speed probe's time on the 2-vCPU VM the benchmark was sized
/// on, in a quiet stretch; the `_norm` metrics read as if every run had
/// seen that speed.
const REFERENCE_PROBE_MS: f64 = 20.0;

/// Per-layer metrics of the traced run. A layer the workload leaves idle
/// reports 0.
const PER_LAYER: [(&str, &str); 40] = [
    ("server.answer_rtt_p50_us", "us"),
    ("server.answer_rtt_p99_us", "us"),
    ("server.answer_wire_p50_us", "us"),
    ("server.requests", "count"),
    ("server.errors", "count"),
    ("codec.json_rtt_p50_us", "us"),
    ("codec.binary_rtt_p50_us", "us"),
    ("codec.json_wire_p50_us", "us"),
    ("codec.binary_wire_p50_us", "us"),
    ("translate.submit_ms_per_claim", "ms"),
    ("translate.plan_latency_p50_us", "us"),
    ("planner.next_batch_p50_ms", "ms"),
    ("planner.plans", "count"),
    ("planner.nodes", "count"),
    ("planner.fallbacks", "count"),
    ("qgen.suggest_p50_ms", "ms"),
    ("qgen.suggest_p99_ms", "ms"),
    ("qgen.cache_hits", "count"),
    ("qgen.cache_misses", "count"),
    ("qgen.cache_hit_rate", "ratio"),
    ("executor.verify_batch_s", "s"),
    ("executor.busy_ratio", "ratio"),
    ("learn.retrain_s", "s"),
    ("learn.epochs", "count"),
    ("learn.examples_trained", "count"),
    ("learn.pretrain_s", "s"),
    ("wal.ack_p50_us", "us"),
    ("wal.ack_p99_us", "us"),
    ("wal.appends", "count"),
    ("wal.fsyncs", "count"),
    ("wal.fsyncs_per_append", "ratio"),
    ("wal.record_bytes", "bytes"),
    ("wal.snapshot_bytes_per_epoch", "bytes"),
    ("wal.publish_s", "s"),
    ("wal.replay_records", "count"),
    ("wal.recover_blob_bytes", "bytes"),
    ("setup.corpus_s", "s"),
    ("setup.featurize_s", "s"),
    ("trace.overhead_claims_per_s", "1/s"),
    ("trace.overhead_cpu_ms_per_claim", "ms"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Internal: set up once, print the seconds it took, exit.
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut setup_only = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => trace = value()? == "1",
            "--setup-only" => setup_only = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace,
        setup_only,
    })
}

/// Everything a run reports.
struct Report {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// Ungated numbers printed beside the metrics.
    detail: Vec<(&'static str, f64, &'static str)>,
    /// Work counts and digest that must repeat exactly for equal arguments.
    work: String,
    /// Counts that depend on timing: reported, not checked.
    timing: String,
    /// Claims per second of each window.
    rates: Vec<f64>,
    /// Host reference-kernel milliseconds after each window.
    reference: Vec<f64>,
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}");
            eprintln!(
                "usage: perfbench --workload review|batch|durable --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let out = PathBuf::from("perfbench/out");
    if let Err(error) = std::fs::create_dir_all(out.join("work")) {
        eprintln!("perfbench: cannot create {}: {error}", out.display());
        std::process::exit(1);
    }
    if args.setup_only {
        match workloads::setup(args.workload, &out, &mut Tracer::new(false)) {
            Ok((ready, seconds)) => {
                drop(ready);
                println!("{seconds}");
                return;
            }
            Err(error) => {
                eprintln!("perfbench: set-up failed: {error}");
                std::process::exit(1);
            }
        }
    }
    let noise = host::Noise::now();
    let report = if args.trace {
        traced(&args, &out)
    } else {
        untraced(&args, &out)
    };
    let mut report = match report {
        Ok(report) => report,
        Err(error) => {
            eprintln!("perfbench: {error}");
            std::process::exit(1);
        }
    };
    check_work(&args, &out, &mut report);
    let mut host = noise.since();
    if let Json::Obj(fields) = &mut host {
        fields.push((
            "reference_ms_median".into(),
            Json::Num(median(&report.reference)),
        ));
    }
    emit(&args, &out, &report, host);
}

/// One set-up in a child process (`--setup-only`), so its engine never
/// shares this process's memory; returns its seconds.
fn setup_in_child(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = std::process::Command::new(exe)
        .args(["--setup-only", "--workload", args.workload.name()])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("set-up child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    match stdout.trim().parse::<f64>() {
        Ok(seconds) if output.status.success() => Ok(seconds),
        _ => Err(format!("set-up child failed ({}): {stdout}", output.status)),
    }
}

/// Sets up [`SETUP_REPEATS`] times and runs the timed window on the
/// first engine. The other set-ups run in child processes, in pauses of
/// the window, so the window's samples span the whole run.
fn untraced(args: &Args, out: &Path) -> std::io::Result<Report> {
    let (ready, first) = workloads::setup(args.workload, out, &mut Tracer::new(false))?;
    let mut setups = vec![first];
    let mut errors = Vec::new();
    let (_, held_out) = workloads::split(ready.engine.corpus());
    let plan = workloads::plan(args.workload, args.seed, args.seconds, &held_out);
    let mut between = || match setup_in_child(args) {
        Ok(seconds) => setups.push(seconds),
        Err(error) => errors.push(error),
    };
    let mut pauses = workloads::Pauses::split(plan.len(), SETUP_REPEATS, &mut between);
    let window = run(
        args,
        ready,
        &plan,
        &mut pauses,
        &mut Tracer::new(false),
        false,
    );
    let mut report = window_report(args.workload, &window);
    report.problems.extend(errors);
    // the host's speed drifts by a quarter between stretches of runs; the
    // probe drifts with it, so scaling to the probe's reference time
    // keeps a slow stretch from reading as a regression
    let probe = median(&window.reference_ms);
    let (claims_per_s, cpu_ms) = (claims_per_s(&window), cpu_ms_per_claim(&window));
    report.metrics = vec![
        ("setup_s", median(&setups), "s"),
        ("rss_mb", host::peak_rss_mb(), "MB"),
        (
            "claims_per_s_norm",
            claims_per_s * probe / REFERENCE_PROBE_MS,
            "1/s",
        ),
        (
            "cpu_ms_per_claim_norm",
            cpu_ms * REFERENCE_PROBE_MS / probe,
            "ms",
        ),
    ];
    report.detail.extend([
        ("claims_per_s", claims_per_s, "1/s"),
        ("cpu_ms_per_claim", cpu_ms, "ms"),
        ("probe_ms", probe, "ms"),
    ]);
    report.detail.extend(detail(args.workload, &window));
    Ok(report)
}

fn run(
    args: &Args,
    ready: Ready,
    plan: &[Vec<usize>],
    pauses: &mut workloads::Pauses,
    tracer: &mut Tracer,
    log: bool,
) -> Window {
    match args.workload {
        Workload::Review => workloads::review(&ready, plan, pauses, tracer, log),
        Workload::Batch => workloads::batch(&ready, plan, args.seed, pauses, tracer),
        Workload::Durable => workloads::durable(ready, plan, pauses, tracer),
    }
}

fn claims(window: &Window) -> u64 {
    window.after.claims_verified - window.before.claims_verified
}

fn claims_per_s(window: &Window) -> f64 {
    median(&window.rec.report_rates)
}

fn cpu_ms_per_claim(window: &Window) -> f64 {
    window.cpu_s * 1e3 / claims(window).max(1) as f64
}

/// The workload-specific numbers the gated set cannot carry (every gated
/// metric must exist on every workload): printed and kept, not gated.
fn detail(workload: Workload, window: &Window) -> Vec<(&'static str, f64, &'static str)> {
    let rec = &window.rec;
    let mut out = Vec::new();
    if workload != Workload::Batch {
        let writes: Vec<f64> = [rec.samples("answer"), rec.samples("verdict")].concat();
        out.extend([
            (
                "suggest_p50_ms",
                quantile(rec.samples("suggest"), 0.5),
                "ms",
            ),
            (
                "suggest_p99_ms",
                quantile(rec.samples("suggest"), 0.99),
                "ms",
            ),
            (
                "suggest_samples",
                rec.samples("suggest").len() as f64,
                "count",
            ),
            ("submit_ms_per_claim", median(&rec.submit_per_claim), "ms"),
            ("write_p50_ms", quantile(&writes, 0.5), "ms"),
            ("write_p99_ms", quantile(&writes, 0.99), "ms"),
            ("write_samples", writes.len() as f64, "count"),
        ]);
    }
    if workload != Workload::Review {
        out.push(("epoch_s", median(&window.epoch_s), "s"));
    }
    if workload == Workload::Durable {
        out.push(("recover_s", median(&window.recover_s), "s"));
    }
    out.extend([
        (
            "error_rate",
            rec.failed as f64 / rec.attempted.max(1) as f64,
            "ratio",
        ),
        ("windows", rec.report_rates.len() as f64, "count"),
        ("window_s", window.wall_s, "s"),
    ]);
    out
}

/// Attempts, failures, consistency checks and the work identity of one
/// window.
fn window_report(workload: Workload, window: &Window) -> Report {
    let rec = &window.rec;
    let (before, after) = (&window.before, &window.after);
    let mut problems = rec.problems.clone();
    let mut expect = |what: &str, engine: u64, client: u64| {
        if engine != client {
            problems.push(format!(
                "{what}: the engine counted {engine}, the client {client}"
            ));
        }
    };
    expect("claims verified", claims(window), rec.claims);
    if workload != Workload::Batch {
        expect(
            "answers",
            after.answers_posted - before.answers_posted,
            rec.answers,
        );
        expect(
            "suggestions",
            after.suggestions_served - before.suggestions_served,
            rec.suggestions,
        );
    }
    if workload == Workload::Review {
        expect(
            "requests",
            after.requests_total - before.requests_total,
            rec.attempted,
        );
    }
    let epochs = after.model_epoch - before.model_epoch;
    if workload == Workload::Durable {
        // every acknowledged write is one record, plus one per epoch
        let writes: usize = ["open", "submit", "answer", "verdict", "close"]
            .iter()
            .map(|op| rec.samples(op).len())
            .sum();
        expect(
            "WAL appends",
            after.wal_appends - before.wal_appends,
            writes as u64 + epochs,
        );
    }
    let answers = ("answers", after.answers_posted - before.answers_posted);
    let mut checked = vec![
        ("claims", claims(window)),
        (
            "suggestions",
            after.suggestions_served - before.suggestions_served,
        ),
        ("requests", rec.attempted),
        ("epochs", epochs),
        ("examples", after.examples_trained - before.examples_trained),
        ("wal_appends", after.wal_appends - before.wal_appends),
        ("digest", rec.digest),
    ];
    // counts that depend on timing: reported, never compared
    let mut unchecked = vec![
        ("cache_hits", after.cache_hits - before.cache_hits),
        ("planner_nodes", after.planner_nodes - before.planner_nodes),
        ("wal_fsyncs", after.wal_fsyncs - before.wal_fsyncs),
    ];
    // `batch` trains each epoch on verdicts in pool completion order, so
    // the screens planned after the first epoch vary with scheduling
    if workload == Workload::Batch {
        unchecked.push(answers);
    } else {
        checked.push(answers);
    }
    let render = |counts: &[(&str, u64)]| {
        counts
            .iter()
            .map(|&(k, v)| match k {
                "digest" => format!("{k}={v:016x}"),
                _ => format!("{k}={v}"),
            })
            .collect::<Vec<_>>()
            .join(" ")
    };
    let (work, timing) = (render(&checked), render(&unchecked));
    Report {
        attempted: rec.attempted,
        failed: rec.failed,
        problems,
        metrics: Vec::new(),
        detail: Vec::new(),
        work,
        timing,
        rates: window.rec.report_rates.clone(),
        reference: window.reference_ms.clone(),
    }
}

/// Fails the run when its work differs from an earlier run of the same
/// workload, seed and length in this checkout: the same arguments must
/// do exactly the same work, so a difference is a bug, not noise.
fn check_work(args: &Args, out: &Path, report: &mut Report) {
    let path = out.join("work").join(format!(
        "{}-seed{}-s{}.txt",
        args.workload.name(),
        args.seed,
        args.seconds
    ));
    match std::fs::read_to_string(&path) {
        Ok(earlier) if earlier.trim() != report.work => report.problems.push(format!(
            "work differs from an earlier run with the same arguments:\n  earlier {}\n  now     {}",
            earlier.trim(),
            report.work
        )),
        Ok(_) => {}
        Err(_) => {
            if report.problems.is_empty() && report.failed == 0 {
                let _ = std::fs::write(&path, &report.work);
            }
        }
    }
}

fn traced(args: &Args, out: &Path) -> std::io::Result<Report> {
    let mut tracer = Tracer::new(true);
    let (mut ready, _) = workloads::setup(args.workload, out, &mut tracer)?;
    let world = ready
        .world
        .take()
        .unwrap_or_else(|| workloads::World::of(&ready.engine));
    drop(ready);
    let (_, held_out) = workloads::split(&world.corpus);
    let plan = workloads::plan(args.workload, args.seed, args.seconds, &held_out);

    let mut nothing = || {};
    let plain = run(
        args,
        workloads::ready_from(args.workload, &world, out)?,
        &plan,
        &mut workloads::Pauses::none(&mut nothing),
        &mut Tracer::new(false),
        false,
    );
    let window = run(
        args,
        workloads::ready_from(args.workload, &world, out)?,
        &plan,
        &mut workloads::Pauses::none(&mut nothing),
        &mut tracer,
        true,
    );
    let twin = (args.workload == Workload::Review).then(|| {
        let engine = Engine::from_parts(
            Arc::clone(&world.corpus),
            Arc::clone(&world.features),
            world.models.clone(),
            SystemConfig::default(),
            EngineOptions {
                retrain_interval: None,
                ..EngineOptions::default()
            },
            SimEnv::production(),
        );
        workloads::replay_twin(engine, &window.rec, &mut tracer)
    });

    let mut report = window_report(args.workload, &window);
    let untraced = window_report(args.workload, &plain);
    if untraced.work != report.work {
        report.problems.push(format!(
            "the traced window did different work:\n  untraced {}\n  traced   {}",
            untraced.work, report.work
        ));
    }
    report.problems.extend(untraced.problems);
    report.attempted += untraced.attempted;
    report.failed += untraced.failed;
    if let Some((_, failures)) = &twin {
        if *failures > 0 {
            report
                .problems
                .push(format!("{failures} ops failed on the in-process twin"));
        }
    }
    let mut layer = layers(&window, &tracer, twin.as_ref().map(|t| t.0.as_slice()));
    layer.insert(
        "trace.overhead_claims_per_s",
        claims_per_s(&window) - claims_per_s(&plain),
    );
    layer.insert(
        "trace.overhead_cpu_ms_per_claim",
        cpu_ms_per_claim(&window) - cpu_ms_per_claim(&plain),
    );
    report.metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, layer.get(name).copied().unwrap_or(0.0), unit))
        .collect();
    report.detail = detail(args.workload, &window);
    report
        .detail
        .push(("spans", tracer.spans().len() as f64, "count"));
    let spans = out.join(format!(
        "spans-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    tracer.write(&spans)?;
    Ok(report)
}

/// Per-layer numbers from the traced window's spans, the engine counter
/// deltas at its boundaries, and (on `review`) the twin's in-process
/// times for the same ops.
fn layers(
    window: &Window,
    tracer: &Tracer,
    twin: Option<&[std::time::Duration]>,
) -> BTreeMap<&'static str, f64> {
    let (b, a) = (&window.before, &window.after);
    let mut m = BTreeMap::new();
    let us = |secs: &[f64]| secs.iter().map(|s| s * 1e6).collect::<Vec<_>>();
    let ms = |secs: &[f64]| secs.iter().map(|s| s * 1e3).collect::<Vec<_>>();
    let spans = |name: &str| tracer.seconds_of(name);

    // setup and learning
    m.insert(
        "setup.corpus_s",
        spans("Corpus::generate").first().copied().unwrap_or(0.0),
    );
    m.insert(
        "setup.featurize_s",
        spans("Engine::with_options")
            .first()
            .copied()
            .unwrap_or(0.0),
    );
    m.insert(
        "learn.pretrain_s",
        spans("pretrain").first().copied().unwrap_or(0.0),
    );
    m.insert("learn.retrain_s", median(&window.retrain_s));
    m.insert("learn.epochs", (a.model_epoch - b.model_epoch) as f64);
    m.insert(
        "learn.examples_trained",
        (a.examples_trained - b.examples_trained) as f64,
    );

    // planner, translate, query generation: engine counters
    m.insert("planner.plans", (a.planner_plans - b.planner_plans) as f64);
    m.insert("planner.nodes", (a.planner_nodes - b.planner_nodes) as f64);
    m.insert(
        "planner.fallbacks",
        (a.planner_fallbacks - b.planner_fallbacks) as f64,
    );
    m.insert(
        "translate.plan_latency_p50_us",
        workloads::delta(&a.plan_latency, &b.plan_latency).p50(),
    );
    let (hits, misses) = (a.cache_hits - b.cache_hits, a.cache_misses - b.cache_misses);
    m.insert("qgen.cache_hits", hits as f64);
    m.insert("qgen.cache_misses", misses as f64);
    m.insert(
        "qgen.cache_hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
    );

    // in-process session calls: spans on `durable`, the twin on `review`
    let mut per_op: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut submit_per_claim = Vec::new();
    match twin {
        Some(twin) => {
            let log = window.rec.log.as_deref().unwrap_or(&[]);
            let mut rtt: BTreeMap<(&str, bool), Vec<f64>> = BTreeMap::new();
            let mut wire: BTreeMap<(&str, bool), Vec<f64>> = BTreeMap::new();
            for (logged, inproc) in log.iter().zip(twin) {
                let (tcp_s, inproc_s) = (logged.took.as_secs_f64(), inproc.as_secs_f64());
                per_op.entry(logged.op).or_default().push(inproc_s);
                rtt.entry((logged.op, logged.binary))
                    .or_default()
                    .push(tcp_s * 1e6);
                wire.entry((logged.op, logged.binary))
                    .or_default()
                    .push((tcp_s - inproc_s) * 1e6);
                if let scrutinizer_engine::Request::Submit { claims, .. } = &logged.request {
                    submit_per_claim.push(inproc_s * 1e3 / claims.len().max(1) as f64);
                }
            }
            let pooled = |map: &BTreeMap<(&str, bool), Vec<f64>>,
                          pick: &dyn Fn(&str, bool) -> bool| {
                map.iter()
                    .filter(|((op, binary), _)| pick(op, *binary))
                    .flat_map(|(_, v)| v.iter().copied())
                    .collect::<Vec<f64>>()
            };
            let answer_rtt = pooled(&rtt, &|op, _| op == "answer");
            m.insert("server.answer_rtt_p50_us", quantile(&answer_rtt, 0.5));
            m.insert("server.answer_rtt_p99_us", quantile(&answer_rtt, 0.99));
            m.insert(
                "server.answer_wire_p50_us",
                median(&pooled(&wire, &|op, _| op == "answer")),
            );
            m.insert(
                "codec.json_rtt_p50_us",
                median(&pooled(&rtt, &|_, binary| !binary)),
            );
            m.insert(
                "codec.binary_rtt_p50_us",
                median(&pooled(&rtt, &|_, binary| binary)),
            );
            m.insert(
                "codec.json_wire_p50_us",
                median(&pooled(&wire, &|_, binary| !binary)),
            );
            m.insert(
                "codec.binary_wire_p50_us",
                median(&pooled(&wire, &|_, binary| binary)),
            );
            m.insert(
                "server.requests",
                (a.requests_total - b.requests_total) as f64,
            );
            m.insert(
                "server.errors",
                (a.wire_errors_total() - b.wire_errors_total()) as f64,
            );
        }
        None => {
            for (op, name) in [
                ("submit", "submit_report"),
                ("answer", "post_answer"),
                ("suggest", "suggest"),
                ("verdict", "post_verdict"),
                ("next_batch", "next_batch"),
            ] {
                per_op.insert(op, spans(name));
            }
            submit_per_claim = window.rec.submit_per_claim.clone();
        }
    }
    let op = |name: &str| per_op.get(name).cloned().unwrap_or_default();
    m.insert("translate.submit_ms_per_claim", median(&submit_per_claim));
    m.insert("planner.next_batch_p50_ms", median(&ms(&op("next_batch"))));
    m.insert("qgen.suggest_p50_ms", quantile(&ms(&op("suggest")), 0.5));
    m.insert("qgen.suggest_p99_ms", quantile(&ms(&op("suggest")), 0.99));

    // executor
    let verify_wall: f64 = window.verify_batch_s.iter().sum();
    m.insert("executor.verify_batch_s", median(&window.verify_batch_s));
    if verify_wall > 0.0 {
        let busy =
            workloads::delta(&a.verify_latency, &b.verify_latency).total_micros as f64 * 1e-6;
        let threads = EngineOptions::default().threads as f64;
        m.insert("executor.busy_ratio", busy / (threads * verify_wall));
    }

    // write-ahead log
    if a.wal_appends > b.wal_appends {
        let acks = us(&[op("answer"), op("verdict")].concat());
        m.insert("wal.ack_p50_us", quantile(&acks, 0.5));
        m.insert("wal.ack_p99_us", quantile(&acks, 0.99));
        let appends = (a.wal_appends - b.wal_appends) as f64;
        let fsyncs = (a.wal_fsyncs - b.wal_fsyncs) as f64;
        m.insert("wal.appends", appends);
        m.insert("wal.fsyncs", fsyncs);
        m.insert("wal.fsyncs_per_append", fsyncs / appends);
        m.insert(
            "wal.record_bytes",
            (a.wal_bytes_written - b.wal_bytes_written) as f64,
        );
        m.insert(
            "wal.snapshot_bytes_per_epoch",
            median(&window.snapshot_bytes),
        );
        let publish: Vec<f64> = window
            .epoch_s
            .iter()
            .zip(&window.retrain_s)
            .map(|(epoch, retrain)| epoch - retrain)
            .collect();
        m.insert("wal.publish_s", median(&publish));
        m.insert("wal.replay_records", window.replay_records);
        m.insert("wal.recover_blob_bytes", window.recover_blob_bytes);
    }
    m
}

fn metrics_json(metrics: &[(&str, f64, &str)]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|&(name, value, unit)| {
                (
                    name.to_string(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(value)),
                        ("unit".into(), Json::Str(unit.into())),
                    ]),
                )
            })
            .collect(),
    )
}

fn emit(args: &Args, out: &Path, report: &Report, noise: Json) {
    let correct = report.problems.is_empty() && report.failed == 0;
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    for (name, value, unit) in report.metrics.iter().chain(&report.detail) {
        println!("  {name:<34} {value:>16.6} {unit}");
    }
    println!("work {}", report.work);
    println!("timing-dependent {}", report.timing);
    println!("host {}", noise.render());
    for problem in &report.problems {
        eprintln!("perfbench: check failed: {problem}");
    }
    let full = Json::Obj(vec![
        ("workload".into(), Json::Str(args.workload.name().into())),
        ("seed".into(), Json::Num(args.seed as f64)),
        ("seconds".into(), Json::Num(args.seconds as f64)),
        ("trace".into(), Json::Bool(args.trace)),
        ("correct".into(), Json::Bool(correct)),
        ("metrics".into(), metrics_json(&report.metrics)),
        ("detail".into(), metrics_json(&report.detail)),
        ("work".into(), Json::Str(report.work.clone())),
        ("timing_dependent".into(), Json::Str(report.timing.clone())),
        (
            "window_claims_per_s".into(),
            Json::Arr(report.rates.iter().map(|&r| Json::Num(r)).collect()),
        ),
        (
            "reference_ms".into(),
            Json::Arr(report.reference.iter().map(|&r| Json::Num(r)).collect()),
        ),
        ("host".into(), noise),
        (
            "problems".into(),
            Json::Arr(
                report
                    .problems
                    .iter()
                    .map(|p| Json::Str(p.clone()))
                    .collect(),
            ),
        ),
    ]);
    let path = out.join(format!(
        "report-{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        args.trace as u8
    ));
    let _ = std::fs::write(path, full.render());
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Num(report.attempted as f64)),
        ("failed".into(), Json::Num(report.failed as f64)),
        ("metrics".into(), metrics_json(&report.metrics)),
    ]);
    println!("{}", result.render());
}
