//! The review op script: one closed-loop checker working through a
//! report, identical whether it talks to the engine over TCP (`review`)
//! or in process (`durable`, and the `review` twin).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use scrutinizer_core::PropertyKind;
use scrutinizer_corpus::{ClaimRecord, Corpus};
use scrutinizer_engine::Request;

use crate::client::{Client, Reply};
use crate::trace::Tracer;

/// One op as issued, kept for the twin replay.
pub struct Logged {
    pub request: Request,
    pub op: &'static str,
    pub took: Duration,
    pub binary: bool,
}

/// What the script observed: per-op response times, work counts, the
/// output digest, and every failure.
#[derive(Default)]
pub struct Recorder {
    /// Response times in ms of acknowledged ops, by op.
    pub latency: BTreeMap<&'static str, Vec<f64>>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub claims: u64,
    pub answers: u64,
    pub suggestions: u64,
    /// Order-independent digest of the suggestions and verdicts served.
    pub digest: u64,
    /// Claims per second of each report window.
    pub report_rates: Vec<f64>,
    /// `submit` response time divided by the report's claims, ms.
    pub submit_per_claim: Vec<f64>,
    /// Every op issued, when the twin replay needs them.
    pub log: Option<Vec<Logged>>,
    /// Whether ops currently travel on the binary codec (for the log).
    pub binary: bool,
}

impl Recorder {
    pub fn problem(&mut self, message: String) {
        if self.problems.len() < 20 {
            self.problems.push(message);
        }
    }

    pub fn samples(&self, op: &str) -> &[f64] {
        self.latency.get(op).map_or(&[], Vec::as_slice)
    }

    fn call(
        &mut self,
        client: &mut dyn Client,
        tracer: &mut Tracer,
        op: &'static str,
        request: Request,
    ) -> Option<Reply> {
        self.attempted += 1;
        tracer.enter(span_name(op, client.in_process()));
        let (reply, took) = client.call(&request);
        tracer.exit();
        if let Some(log) = &mut self.log {
            log.push(Logged {
                request,
                op,
                took,
                binary: self.binary,
            });
        }
        match reply {
            Ok(reply) => {
                self.latency
                    .entry(op)
                    .or_default()
                    .push(took.as_secs_f64() * 1e3);
                Some(reply)
            }
            Err(error) => {
                self.failed += 1;
                self.problem(format!("{op}: {error}"));
                None
            }
        }
    }
}

/// Span names: the engine call an op reaches in process, or the TCP
/// round trip that carries it.
pub fn span_name(op: &str, in_process: bool) -> &'static str {
    match (op, in_process) {
        ("open", true) => "open_session",
        ("submit", true) => "submit_report",
        ("answer", true) => "post_answer",
        ("suggest", true) => "suggest",
        ("verdict", true) => "post_verdict",
        ("next_batch", true) => "next_batch",
        ("close", true) => "close_session",
        ("open", false) => "tcp.open",
        ("submit", false) => "tcp.submit",
        ("answer", false) => "tcp.answer",
        ("suggest", false) => "tcp.suggest",
        ("verdict", false) => "tcp.verdict",
        ("next_batch", false) => "tcp.next_batch",
        ("close", false) => "tcp.close",
        _ => "other",
    }
}

fn truth(claim: &ClaimRecord, kind: PropertyKind) -> String {
    match kind {
        PropertyKind::Relation => claim.relation.clone(),
        PropertyKind::Key => claim.key.clone(),
        PropertyKind::Attribute => claim.attributes[0].clone(),
        PropertyKind::Formula => claim.formula_text.clone(),
    }
}

/// FNV-1a, folded one byte slice at a time.
pub fn fnv(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Runs one report: `open`, `submit`, then for each planned claim every
/// screen answered with ground truth, `suggest` and `verdict`;
/// `next_batch` until it comes back empty; `close`.
pub fn run_report(
    client: &mut dyn Client,
    corpus: &Corpus,
    claims: &[usize],
    rec: &mut Recorder,
    tracer: &mut Tracer,
) {
    let start = Instant::now();
    tracer.enter("report");
    let verified = report_ops(client, corpus, claims, rec, tracer);
    tracer.exit();
    rec.report_rates
        .push(verified as f64 / start.elapsed().as_secs_f64());
}

fn report_ops(
    client: &mut dyn Client,
    corpus: &Corpus,
    claims: &[usize],
    rec: &mut Recorder,
    tracer: &mut Tracer,
) -> usize {
    let open = Request::Open {
        checker: Some("perfbench".into()),
    };
    let Some(Reply::Session(session)) = rec.call(client, tracer, "open", open) else {
        return 0;
    };
    let submit = Request::Submit {
        session,
        claims: claims.to_vec(),
    };
    let mut batch = match rec.call(client, tracer, "submit", submit) {
        Some(Reply::Batch(batch)) => {
            let ms = rec.samples("submit").last().copied().unwrap_or(0.0);
            rec.submit_per_claim.push(ms / claims.len() as f64);
            batch
        }
        _ => Vec::new(),
    };
    let mut verified = 0usize;
    let mut rounds = 0usize;
    while !batch.is_empty() {
        rounds += 1;
        if rounds > claims.len() + 1 {
            rec.problem(format!("session {session}: next_batch never drained"));
            break;
        }
        for questions in &batch {
            verified += claim_ops(client, corpus, session, questions, rec, tracer);
        }
        batch = match rec.call(client, tracer, "next_batch", Request::NextBatch { session }) {
            Some(Reply::Batch(next)) => next,
            _ => Vec::new(),
        };
    }
    if let Some(Reply::Closed(mut ids)) =
        rec.call(client, tracer, "close", Request::Close { session })
    {
        let mut expected = claims.to_vec();
        expected.sort_unstable();
        expected.dedup();
        ids.sort_unstable();
        if ids != expected {
            rec.problem(format!(
                "session {session}: closed with {} of {} claims verified",
                ids.len(),
                expected.len()
            ));
        }
    }
    verified
}

/// Answers one claim's screens, asks for suggestions, posts the verdict.
/// Returns 1 when the verdict was acknowledged.
fn claim_ops(
    client: &mut dyn Client,
    corpus: &Corpus,
    session: u64,
    questions: &crate::client::Questions,
    rec: &mut Recorder,
    tracer: &mut Tracer,
) -> usize {
    let claim_id = questions.claim;
    let claim = &corpus.claims[claim_id];
    for &kind in &questions.screens {
        let answer = Request::Answer {
            session,
            claim: claim_id,
            kind,
            answer: truth(claim, kind),
        };
        if rec.call(client, tracer, "answer", answer).is_some() {
            rec.answers += 1;
        }
    }
    let suggest = Request::Suggest {
        session,
        claim: claim_id,
    };
    let mut hash = fnv(FNV_OFFSET, &(claim_id as u64).to_le_bytes());
    let mut chosen = None;
    if let Some(Reply::Suggestions(suggestions)) = rec.call(client, tracer, "suggest", suggest) {
        rec.suggestions += 1;
        for s in &suggestions {
            let value = if s.value.is_finite() {
                s.value
            } else {
                f64::NAN
            };
            hash = fnv(hash, s.sql.as_bytes());
            hash = fnv(hash, &value.to_bits().to_le_bytes());
        }
        chosen = suggestions
            .iter()
            .position(|s| s.formula == claim.formula_text);
    }
    let verdict = Request::Verdict {
        session,
        claim: claim_id,
        correct: claim.is_correct,
        chosen: if claim.is_correct { chosen } else { None },
    };
    match rec.call(client, tracer, "verdict", verdict) {
        Some(Reply::Verdict { matches_truth }) => {
            if !matches_truth {
                rec.problem(format!("claim {claim_id}: verdict does not match truth"));
            }
            rec.claims += 1;
            rec.digest = rec.digest.wrapping_add(fnv(hash, &[matches_truth as u8]));
            1
        }
        _ => 0,
    }
}
