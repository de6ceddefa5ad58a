//! Set-up and the three workloads. Every workload runs a fixed quota of
//! work derived from `--seed` and `--seconds`, so two runs with the same
//! arguments do exactly the same work; only their timings may differ.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use scrutinizer_core::report::Verdict;
use scrutinizer_core::{FeatureStore, SystemConfig, SystemModels};
use scrutinizer_corpus::{Corpus, CorpusConfig};
use scrutinizer_crowd::WorkerConfig;
use scrutinizer_engine::durability::snapshot_blob_name;
use scrutinizer_engine::{
    recover_parts, DurableEnv, Engine, EngineOptions, HistogramSnapshot, Server, ServerHandle,
    ServerOptions, StatsSnapshot,
};
use scrutinizer_sim::{FsStorage, SimEnv, Storage};
use scrutinizer_wal::WalOptions;

use crate::client::{Client, InProc, Tcp};
use crate::host;
use crate::script::{fnv, run_report, Recorder, FNV_OFFSET};
use crate::trace::Tracer;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    Review,
    Batch,
    Durable,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "review" => Some(Workload::Review),
            "batch" => Some(Workload::Batch),
            "durable" => Some(Workload::Durable),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Review => "review",
            Workload::Batch => "batch",
            Workload::Durable => "durable",
        }
    }
}

/// Claims per submitted report.
pub const REPORT_CLAIMS: usize = 50;
/// Claims per `verify_batch` call (the paper's §6.2 batch size).
pub const BATCH_CLAIMS: usize = 100;
/// `durable` publishes an epoch after this many verdicts (two reports).
pub const EPOCH_REPORTS: usize = 2;
/// Timed recoveries at the end of `durable`; the first also checks parity.
pub const RECOVERIES: usize = 3;

/// Work quota per second of `--seconds`, sized on a 2-vCPU VM so a run
/// measures for about that long. Fixed constants, never measured rates:
/// the quota must not depend on how fast this run happens to be.
const REVIEW_PASSES_PER_SECOND: f64 = 0.25;
const BATCHES_PER_SECOND: f64 = 0.375;
const EPOCHS_PER_SECOND: f64 = 0.25;

fn engine_options(workload: Workload) -> EngineOptions {
    EngineOptions {
        // review serves frozen models; the learning workloads set the
        // interval above their epoch size, so no retrain starts until the
        // benchmark flushes one between windows
        retrain_interval: match workload {
            Workload::Review => None,
            Workload::Batch => Some(BATCH_CLAIMS + 1),
            Workload::Durable => Some(EPOCH_REPORTS * REPORT_CLAIMS + 1),
        },
        ..EngineOptions::default()
    }
}

/// The pretrained world every engine of a run is built from.
pub struct World {
    pub corpus: Arc<Corpus>,
    pub features: Arc<FeatureStore>,
    pub models: SystemModels,
}

impl World {
    pub fn of(engine: &Engine) -> World {
        World {
            corpus: engine.corpus_handle(),
            features: engine.features_handle(),
            models: engine.models_snapshot().models.clone(),
        }
    }
}

/// Models are pretrained on the first half of the claims; the held-out
/// second half is the traffic.
pub fn split(corpus: &Corpus) -> (Vec<usize>, Vec<usize>) {
    let half = corpus.claims.len() / 2;
    ((0..half).collect(), (half..corpus.claims.len()).collect())
}

/// A running TCP server over loopback; dropping it shuts the server down
/// and waits for its loop to return.
pub struct Serving {
    pub addr: std::net::SocketAddr,
    handle: ServerHandle,
    thread: Option<JoinHandle<std::io::Result<()>>>,
}

impl Serving {
    fn start(engine: Arc<Engine>) -> std::io::Result<Serving> {
        let server = Server::bind(engine, "127.0.0.1:0", ServerOptions::default())?;
        let addr = server.local_addr()?;
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run());
        Ok(Serving {
            addr,
            handle,
            thread: Some(thread),
        })
    }
}

impl Drop for Serving {
    fn drop(&mut self) {
        self.handle.shutdown();
        // a failed server loop already failed the ops that needed it;
        // say why, but never panic in drop
        match self.thread.take().map(JoinHandle::join) {
            Some(Ok(Err(error))) => eprintln!("perfbench: server loop failed: {error}"),
            Some(Err(_)) => eprintln!("perfbench: server loop panicked"),
            _ => {}
        }
    }
}

/// A fresh data directory, removed when dropped.
pub struct DataDir(pub PathBuf);

impl DataDir {
    fn fresh(out: &Path) -> DataDir {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = out.join(format!("data-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        DataDir(path)
    }

    fn text(&self) -> String {
        self.0.to_string_lossy().into_owned()
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// An engine ready to serve its workload's first request.
pub struct Ready {
    pub engine: Arc<Engine>,
    pub serving: Option<Serving>,
    pub dir: Option<DataDir>,
    /// What `durable` recovers from at the end.
    pub world: Option<World>,
}

fn recover_into(
    world: &World,
    dir: &DataDir,
) -> std::io::Result<(Arc<Engine>, scrutinizer_engine::RecoveryReport)> {
    recover_parts(
        Arc::clone(&world.corpus),
        Arc::clone(&world.features),
        world.models.clone(),
        SystemConfig::default(),
        engine_options(Workload::Durable),
        SimEnv::production(),
        DurableEnv {
            storage: Arc::new(FsStorage::new()) as Arc<dyn Storage>,
            dir: dir.text(),
            wal: WalOptions::default(),
        },
    )
}

/// The last step of set-up: bind the server (`review`), recover over an
/// empty directory (`durable`), or nothing (`batch`).
fn make_ready(
    workload: Workload,
    engine: Arc<Engine>,
    world: Option<World>,
    out: &Path,
    tracer: &mut Tracer,
) -> std::io::Result<Ready> {
    match workload {
        Workload::Review => {
            let serving = tracer.wrap("Server::bind", || Serving::start(Arc::clone(&engine)))?;
            Ok(Ready {
                engine,
                serving: Some(serving),
                dir: None,
                world,
            })
        }
        Workload::Batch => Ok(Ready {
            engine,
            serving: None,
            dir: None,
            world,
        }),
        Workload::Durable => {
            let world = world.unwrap_or_else(|| World::of(&engine));
            drop(engine);
            let dir = DataDir::fresh(out);
            let (engine, report) = tracer.wrap("recover_parts", || recover_into(&world, &dir))?;
            if report.records_replayed != 0 || report.resumed_epoch != 0 {
                return Err(std::io::Error::other(
                    "a fresh data directory recovered state",
                ));
            }
            Ok(Ready {
                engine,
                serving: None,
                dir: Some(dir),
                world: Some(world),
            })
        }
    }
}

/// Builds a serving engine from nothing — corpus generation,
/// featurization, pretraining, then [`make_ready`] — and returns it with
/// the seconds that took.
pub fn setup(workload: Workload, out: &Path, tracer: &mut Tracer) -> std::io::Result<(Ready, f64)> {
    let start = Instant::now();
    tracer.enter("setup");
    let corpus = tracer.wrap("Corpus::generate", || {
        Corpus::generate(CorpusConfig::paper_scale())
    });
    let (train, _) = split(&corpus);
    let engine = tracer.wrap("Engine::with_options", || {
        Engine::with_options(corpus, SystemConfig::default(), engine_options(workload))
    });
    tracer.wrap("pretrain", || engine.pretrain(Some(&train)));
    let ready = make_ready(workload, engine, None, out, tracer);
    tracer.exit();
    Ok((ready?, start.elapsed().as_secs_f64()))
}

/// A fresh engine over an already pretrained world, in the state
/// [`setup`] leaves: used by the traced run so its untraced and traced
/// windows start identical.
pub fn ready_from(workload: Workload, world: &World, out: &Path) -> std::io::Result<Ready> {
    let engine = Engine::from_parts(
        Arc::clone(&world.corpus),
        Arc::clone(&world.features),
        world.models.clone(),
        SystemConfig::default(),
        engine_options(workload),
        SimEnv::production(),
    );
    let world = (workload == Workload::Durable).then(|| World {
        corpus: Arc::clone(&world.corpus),
        features: Arc::clone(&world.features),
        models: world.models.clone(),
    });
    make_ready(workload, engine, world, out, &mut Tracer::new(false))
}

/// A deterministic permutation of `ids` (splitmix64-driven Fisher–Yates).
fn permute(ids: &[usize], seed: u64) -> Vec<usize> {
    let mut state = seed ^ 0x5DEE_CE66_D1CE_4E5B;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut out = ids.to_vec();
    for i in (1..out.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        out.swap(i, j);
    }
    out
}

/// The run's units of work, cut from a working set of held-out claims
/// that is the same for every seed; the seed fixes only their order, and
/// so how they group into reports and batches. `review` makes whole
/// passes over all held-out claims, each pass re-submitting the same
/// reports (a re-submitted draft); the learning workloads take the first
/// claims in id order and never repeat one, so every epoch learns from
/// new examples.
pub fn plan(workload: Workload, seed: u64, seconds: u64, held_out: &[usize]) -> Vec<Vec<usize>> {
    let units = |per_second: f64| (seconds as f64 * per_second).round().max(1.0) as usize;
    let cut = |claims: &[usize], size: usize| -> Vec<Vec<usize>> {
        permute(claims, seed)
            .chunks(size)
            .map(<[usize]>::to_vec)
            .collect()
    };
    match workload {
        Workload::Review => {
            let pass = cut(held_out, REPORT_CLAIMS);
            let passes = units(REVIEW_PASSES_PER_SECOND);
            pass.iter()
                .cycle()
                .take(passes * pass.len())
                .cloned()
                .collect()
        }
        Workload::Batch => {
            let batches = units(BATCHES_PER_SECOND).min(held_out.len() / BATCH_CLAIMS);
            cut(&held_out[..batches * BATCH_CLAIMS], BATCH_CLAIMS)
        }
        Workload::Durable => {
            // whole epochs, then one more report whose records stay in
            // the log's tail, so recovery replays records on top of the
            // last checkpoint
            let epoch = EPOCH_REPORTS * REPORT_CLAIMS;
            let epochs = units(EPOCHS_PER_SECOND).min((held_out.len() - REPORT_CLAIMS) / epoch);
            cut(&held_out[..epochs * epoch + REPORT_CLAIMS], REPORT_CLAIMS)
        }
    }
}

/// What one timed window did and how long it took.
pub struct Window {
    pub rec: Recorder,
    /// Wall and CPU seconds of the window, pauses excluded.
    pub wall_s: f64,
    pub cpu_s: f64,
    pub before: StatsSnapshot,
    pub after: StatsSnapshot,
    /// `flush_retrains` time per published epoch.
    pub epoch_s: Vec<f64>,
    /// Training time (`retrain_latency`) inside each flush.
    pub retrain_s: Vec<f64>,
    /// Model blob bytes per published epoch (`durable`).
    pub snapshot_bytes: Vec<f64>,
    /// Wall time of each `verify_batch` (`batch`).
    pub verify_batch_s: Vec<f64>,
    /// Timed `recover_parts` calls (`durable`).
    pub recover_s: Vec<f64>,
    pub replay_records: f64,
    pub recover_blob_bytes: f64,
    /// [`host::reference_ms`] after each unit of work.
    pub reference_ms: Vec<f64>,
    started: Instant,
    cpu_at_start: f64,
}

/// Where a window pauses: after these units, `between` runs with the
/// window's clocks stopped. Spreading one window across the run this way
/// samples the host over the whole run rather than one stretch of it.
pub struct Pauses<'a> {
    after: Vec<usize>,
    between: &'a mut dyn FnMut(),
    /// Host speed probes taken after each unit.
    probes: usize,
}

/// Host speed probes per window, spread over its units.
const PROBES: usize = 24;

impl<'a> Pauses<'a> {
    /// Splits `units` into `parts` near-equal runs of units.
    pub fn split(units: usize, parts: usize, between: &'a mut dyn FnMut()) -> Pauses<'a> {
        Pauses {
            after: (1..parts)
                .map(|k| (k * units + parts / 2) / parts)
                .collect(),
            between,
            probes: PROBES.div_ceil(units.max(1)),
        }
    }

    /// No pauses.
    pub fn none(between: &'a mut dyn FnMut()) -> Pauses<'a> {
        Pauses {
            after: Vec::new(),
            between,
            probes: 1,
        }
    }

    /// Called once `done` units have finished.
    fn reached(&mut self, done: usize, window: &mut Window) {
        let (wall, cpu) = (Instant::now(), host::cpu_seconds());
        for _ in 0..self.probes {
            window.reference_ms.push(host::reference_ms());
        }
        window.started += wall.elapsed();
        window.cpu_at_start += host::cpu_seconds() - cpu;
        for _ in self.after.iter().filter(|&&at| at == done) {
            let (wall, cpu) = (Instant::now(), host::cpu_seconds());
            (self.between)();
            window.started += wall.elapsed();
            window.cpu_at_start += host::cpu_seconds() - cpu;
        }
    }
}

impl Window {
    fn start(engine: &Engine) -> Window {
        Window {
            rec: Recorder::default(),
            wall_s: 0.0,
            cpu_s: 0.0,
            before: engine.stats(),
            after: engine.stats(),
            epoch_s: Vec::new(),
            retrain_s: Vec::new(),
            snapshot_bytes: Vec::new(),
            verify_batch_s: Vec::new(),
            recover_s: Vec::new(),
            replay_records: 0.0,
            recover_blob_bytes: 0.0,
            reference_ms: Vec::new(),
            started: Instant::now(),
            cpu_at_start: host::cpu_seconds(),
        }
    }

    fn finish(&mut self, engine: &Engine) {
        self.wall_s = self.started.elapsed().as_secs_f64();
        self.cpu_s = host::cpu_seconds() - self.cpu_at_start;
        self.after = engine.stats();
    }

    /// Publishes the pending examples as one epoch and times it.
    fn flush_epoch(&mut self, engine: &Engine, tracer: &mut Tracer, dir: Option<&DataDir>) -> f64 {
        let epoch = engine.model_epoch();
        let trained = engine.stats().retrain_latency;
        let start = Instant::now();
        self.rec.attempted += 1;
        tracer.wrap("flush_retrains", || engine.flush_retrains());
        let took = start.elapsed().as_secs_f64();
        self.epoch_s.push(took);
        let retrain = delta(&engine.stats().retrain_latency, &trained);
        self.retrain_s.push(retrain.total_micros as f64 * 1e-6);
        if engine.model_epoch() != epoch + 1 {
            self.rec.failed += 1;
            self.rec.problem(format!(
                "flush moved the model epoch from {epoch} to {}",
                engine.model_epoch()
            ));
        }
        if let Some(dir) = dir {
            let blob = dir.0.join(snapshot_blob_name(engine.model_epoch()));
            self.snapshot_bytes
                .push(std::fs::metadata(blob).map_or(0.0, |m| m.len() as f64));
        }
        took
    }
}

/// `after − before` of a latency histogram.
pub fn delta(after: &HistogramSnapshot, before: &HistogramSnapshot) -> HistogramSnapshot {
    HistogramSnapshot {
        buckets: after
            .buckets
            .iter()
            .enumerate()
            .map(|(i, &n)| n - before.buckets.get(i).copied().unwrap_or(0))
            .collect(),
        count: after.count - before.count,
        total_micros: after.total_micros - before.total_micros,
    }
}

/// `review`: one checker over loopback TCP, reports alternating between
/// the JSON and binary codecs. With `log`, every op is kept for the twin
/// replay.
pub fn review(
    ready: &Ready,
    plan: &[Vec<usize>],
    pauses: &mut Pauses,
    tracer: &mut Tracer,
    log: bool,
) -> Window {
    let engine = &ready.engine;
    let addr = ready.serving.as_ref().expect("review serves over TCP").addr;
    let mut tcp = Tcp::connect(addr);
    let mut window = Window::start(engine);
    window.rec.log = log.then(Vec::new);
    for (i, claims) in plan.iter().enumerate() {
        tcp.binary = i % 2 == 1;
        window.rec.binary = tcp.binary;
        run_report(&mut tcp, engine.corpus(), claims, &mut window.rec, tracer);
        pauses.reached(i + 1, &mut window);
    }
    window.finish(engine);
    window
}

/// Replays `review`'s logged ops in process on a twin engine that starts
/// in the same state; returns each op's in-process time and the number
/// of ops that failed on the twin.
pub fn replay_twin(
    twin: Arc<Engine>,
    rec: &Recorder,
    tracer: &mut Tracer,
) -> (Vec<Duration>, usize) {
    let mut client = InProc { engine: twin };
    let mut failures = 0;
    tracer.enter("twin");
    let times = rec
        .log
        .iter()
        .flatten()
        .map(|logged| {
            tracer.enter(crate::script::span_name(logged.op, true));
            let (reply, took) = client.call(&logged.request);
            tracer.exit();
            failures += reply.is_err() as usize;
            took
        })
        .collect();
    tracer.exit();
    (times, failures)
}

fn batch_worker(seed: u64) -> WorkerConfig {
    WorkerConfig {
        skip_probability: 0.0,
        seed,
        ..WorkerConfig::default()
    }
}

/// `batch`: Algorithm 1 in process — `verify_batch` on the engine pool,
/// then the batch's epoch published before the next batch starts.
pub fn batch(
    ready: &Ready,
    plan: &[Vec<usize>],
    seed: u64,
    pauses: &mut Pauses,
    tracer: &mut Tracer,
) -> Window {
    let engine = &ready.engine;
    let mut window = Window::start(engine);
    for (index, claims) in plan.iter().enumerate() {
        let rec = &mut window.rec;
        rec.attempted += claims.len() as u64;
        let begun = Instant::now();
        tracer.enter("verify_batch");
        let outcomes = catch_unwind(AssertUnwindSafe(|| {
            engine.verify_batch(claims, batch_worker(seed))
        }));
        tracer.exit();
        let took = begun.elapsed().as_secs_f64();
        let outcomes = match outcomes {
            Ok(Ok(outcomes)) => outcomes,
            Ok(Err(error)) => {
                rec.failed += claims.len() as u64;
                rec.problem(format!("verify_batch: {error}"));
                continue;
            }
            Err(_) => {
                rec.failed += claims.len() as u64;
                rec.problem("verify_batch: a worker panicked".into());
                continue;
            }
        };
        window.verify_batch_s.push(took);
        if outcomes.len() != claims.len() {
            rec.problem(format!(
                "{} outcomes for {} claims",
                outcomes.len(),
                claims.len()
            ));
        }
        for (outcome, &claim) in outcomes.iter().zip(claims) {
            if outcome.claim_id != claim {
                rec.problem(format!(
                    "outcome for claim {} in the slot of {claim}",
                    outcome.claim_id
                ));
            }
            let mut hash = fnv(FNV_OFFSET, &(claim as u64).to_le_bytes());
            match &outcome.verdict {
                Verdict::Correct { query } => hash = fnv(fnv(hash, b"correct"), query.as_bytes()),
                Verdict::Incorrect {
                    closest_query,
                    suggested_value,
                } => {
                    hash = fnv(hash, b"incorrect");
                    hash = fnv(hash, closest_query.as_deref().unwrap_or("").as_bytes());
                    hash = fnv(
                        hash,
                        &suggested_value.unwrap_or(f64::NAN).to_bits().to_le_bytes(),
                    );
                }
                Verdict::Skipped => rec.problem(format!(
                    "claim {claim} skipped by a checker that never skips"
                )),
            }
            rec.claims += 1;
            // later batches run on models trained from verdicts in pool
            // completion order, so only the first batch's outcomes are a
            // function of the inputs alone
            if index == 0 {
                rec.digest = rec
                    .digest
                    .wrapping_add(fnv(hash, &[outcome.verdict_matches_truth as u8]));
            }
        }
        // one Algorithm 1 iteration: the batch's verdicts, then its epoch
        let epoch = window.flush_epoch(engine, tracer, None);
        window
            .rec
            .report_rates
            .push(claims.len() as f64 / (took + epoch));
        pauses.reached(index + 1, &mut window);
    }
    window.finish(engine);
    window
}

/// The durable counters recovery promises to restore exactly.
fn durable_subset(engine: &Engine) -> [u64; 9] {
    let s = engine.stats();
    [
        s.sessions_opened,
        s.sessions_closed,
        s.claims_verified,
        s.answers_posted,
        s.retrains,
        s.background_retrains,
        s.examples_trained,
        s.model_epoch,
        s.pending_examples,
    ]
}

/// `durable`: the review script in process on a WAL-backed engine, an
/// epoch published every [`EPOCH_REPORTS`] reports, the last report left
/// unpublished; then the engine is dropped and recovery is checked for
/// parity and timed.
pub fn durable(
    ready: Ready,
    plan: &[Vec<usize>],
    pauses: &mut Pauses,
    tracer: &mut Tracer,
) -> Window {
    let Ready {
        engine, dir, world, ..
    } = ready;
    let dir = dir.expect("durable runs over a data directory");
    let world = world.expect("durable keeps its world for recovery");
    let mut window = Window::start(&engine);
    let mut client = InProc {
        engine: Arc::clone(&engine),
    };
    for (i, claims) in plan.iter().enumerate() {
        run_report(
            &mut client,
            engine.corpus(),
            claims,
            &mut window.rec,
            tracer,
        );
        if (i + 1) % EPOCH_REPORTS == 0 {
            window.flush_epoch(&engine, tracer, Some(&dir));
        }
        pauses.reached(i + 1, &mut window);
    }
    window.finish(&engine);

    let expected = durable_subset(&engine);
    let epoch = engine.model_epoch();
    drop(client);
    // the trainer job may still hold its handle for a moment after the
    // flush returns; the directory must have one owner before recovery
    let settle = Instant::now();
    while Arc::strong_count(&engine) > 1 && settle.elapsed() < Duration::from_secs(10) {
        std::thread::sleep(Duration::from_millis(1));
    }
    if Arc::strong_count(&engine) > 1 {
        window
            .rec
            .problem("the durable engine is still referenced after its last flush".into());
    }
    drop(engine);
    for round in 0..RECOVERIES {
        window.rec.attempted += 1;
        let begun = Instant::now();
        let recovered = tracer.wrap("recover_parts", || recover_into(&world, &dir));
        let took = begun.elapsed().as_secs_f64();
        match recovered {
            Ok((engine, report)) => {
                window.recover_s.push(took);
                window.replay_records = report.records_replayed as f64;
                if durable_subset(&engine) != expected {
                    window.rec.problem(format!(
                        "recovery {round}: durable stats {:?}, expected {expected:?}",
                        durable_subset(&engine)
                    ));
                }
                if report.resumed_epoch != epoch {
                    window.rec.problem(format!(
                        "recovery {round}: resumed epoch {}, expected {epoch}",
                        report.resumed_epoch
                    ));
                }
            }
            Err(error) => {
                window.rec.failed += 1;
                window.rec.problem(format!("recovery {round}: {error}"));
            }
        }
    }
    window.recover_blob_bytes =
        std::fs::metadata(dir.0.join(snapshot_blob_name(epoch))).map_or(0.0, |m| m.len() as f64);
    window
}
