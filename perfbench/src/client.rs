//! Two ways to issue the same typed request: in process through the
//! engine's public API, and over loopback TCP on either wire codec. Both
//! return a [`Reply`] and the time the call took as the caller sees it.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use scrutinizer_core::PropertyKind;
use scrutinizer_engine::protocol::Json;
use scrutinizer_engine::{
    codec, dispatch, wire, ClaimQuestions, Engine, Request, Response, BINARY_MAGIC,
};

/// The parts of a response the review script acts on.
pub enum Reply {
    Session(u64),
    Batch(Vec<Questions>),
    Remaining,
    Suggestions(Vec<Suggestion>),
    Verdict { matches_truth: bool },
    Closed(Vec<usize>),
}

/// One claim of a planned batch: its id and outstanding screens.
pub struct Questions {
    pub claim: usize,
    pub screens: Vec<PropertyKind>,
}

pub struct Suggestion {
    pub sql: String,
    pub formula: String,
    pub value: f64,
}

pub trait Client {
    /// Issues `request`; the duration covers the call only.
    fn call(&mut self, request: &Request) -> (Result<Reply, String>, Duration);
    /// Whether calls stay in process (no wire).
    fn in_process(&self) -> bool;
}

/// Calls [`dispatch`] on an engine in this process.
pub struct InProc {
    pub engine: Arc<Engine>,
}

impl Client for InProc {
    fn call(&mut self, request: &Request) -> (Result<Reply, String>, Duration) {
        let start = Instant::now();
        let response = dispatch(&self.engine, request);
        let took = start.elapsed();
        let reply = response
            .map_err(|e| format!("{}: {}", e.code.name(), e.message))
            .and_then(reply_of_response);
        (reply, took)
    }

    fn in_process(&self) -> bool {
        true
    }
}

fn questions(batch: &[ClaimQuestions]) -> Vec<Questions> {
    batch
        .iter()
        .map(|q| Questions {
            claim: q.claim_id,
            screens: q.screens.iter().map(|s| s.kind).collect(),
        })
        .collect()
}

fn reply_of_response(response: Response) -> Result<Reply, String> {
    Ok(match response {
        Response::Session { session } => Reply::Session(session),
        Response::Batch { batch } => Reply::Batch(questions(&batch)),
        Response::Remaining { .. } => Reply::Remaining,
        Response::Suggestions { suggestions } => Reply::Suggestions(
            suggestions
                .iter()
                .map(|s| Suggestion {
                    sql: s.sql.clone(),
                    formula: s.formula.clone(),
                    value: s.value,
                })
                .collect(),
        ),
        Response::Verdict { record } => Reply::Verdict {
            matches_truth: record.outcome.verdict_matches_truth,
        },
        Response::Closed { verified } => Reply::Closed(verified),
        other => return Err(format!("unexpected response {other:?}")),
    })
}

struct Conn {
    stream: TcpStream,
    /// Received bytes not yet consumed.
    pending: Vec<u8>,
}

impl Conn {
    fn open(addr: SocketAddr, binary: bool) -> std::io::Result<Conn> {
        let mut stream = TcpStream::connect(addr)?;
        // without NODELAY, Nagle plus delayed ACK would add ~40 ms to
        // every closed-loop round trip
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        if binary {
            stream.write_all(&[BINARY_MAGIC])?;
        }
        Ok(Conn {
            stream,
            pending: Vec::new(),
        })
    }

    fn fill(&mut self) -> Result<(), String> {
        let mut chunk = [0u8; 64 * 1024];
        match self.stream.read(&mut chunk) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(n) => {
                self.pending.extend_from_slice(&chunk[..n]);
                Ok(())
            }
            Err(e) => Err(format!("read: {e}")),
        }
    }

    fn read_line(&mut self) -> Result<Json, String> {
        loop {
            if let Some(end) = self.pending.iter().position(|&b| b == b'\n') {
                let parsed = std::str::from_utf8(&self.pending[..end])
                    .map_err(|e| e.to_string())
                    .and_then(|text| Json::parse(text).map_err(|e| e.to_string()));
                self.pending.drain(..=end);
                return parsed;
            }
            self.fill()?;
        }
    }

    fn read_frame(&mut self) -> Result<Json, String> {
        loop {
            if let Some((payload, used)) = wire::split_frame(&self.pending) {
                let decoded = codec::decode_response(payload).map_err(|e| e.message);
                self.pending.drain(..used);
                return decoded;
            }
            self.fill()?;
        }
    }
}

/// A closed-loop client holding one connection per codec; `binary`
/// picks which one the next call uses.
pub struct Tcp {
    conns: [Option<Conn>; 2],
    pub binary: bool,
    send: Vec<u8>,
}

impl Tcp {
    /// Connects both codecs. A refused connection leaves its slot empty,
    /// so every call on that codec fails and is counted.
    pub fn connect(addr: SocketAddr) -> Tcp {
        Tcp {
            conns: [Conn::open(addr, false).ok(), Conn::open(addr, true).ok()],
            binary: false,
            send: Vec::new(),
        }
    }
}

impl Client for Tcp {
    fn call(&mut self, request: &Request) -> (Result<Reply, String>, Duration) {
        let binary = self.binary;
        let start = Instant::now();
        let Some(conn) = self.conns[binary as usize].as_mut() else {
            return (Err("connection refused".into()), start.elapsed());
        };
        self.send.clear();
        if binary {
            wire::request_frame(&mut self.send, request, None, None);
        } else {
            self.send
                .extend_from_slice(request.to_json().render().as_bytes());
            self.send.push(b'\n');
        }
        let response = conn
            .stream
            .write_all(&self.send)
            .map_err(|e| format!("write: {e}"))
            .and_then(|()| {
                if binary {
                    conn.read_frame()
                } else {
                    conn.read_line()
                }
            });
        let took = start.elapsed();
        if response.is_err() {
            // the stream's framing is unknown after an I/O error
            self.conns[binary as usize] = None;
        }
        (
            response.and_then(|json| reply_of_json(request, &json)),
            took,
        )
    }

    fn in_process(&self) -> bool {
        false
    }
}

fn field<'a>(json: &'a Json, name: &str) -> Result<&'a Json, String> {
    json.get(name)
        .ok_or_else(|| format!("response lacks `{name}`"))
}

fn kind_of(label: &str) -> Result<PropertyKind, String> {
    Ok(match label {
        "relation" => PropertyKind::Relation,
        "key" => PropertyKind::Key,
        "attribute" => PropertyKind::Attribute,
        "formula" => PropertyKind::Formula,
        other => return Err(format!("unknown property kind `{other}`")),
    })
}

fn array<'a>(json: &'a Json, name: &str) -> Result<&'a [Json], String> {
    field(json, name)?
        .as_arr()
        .ok_or_else(|| format!("`{name}` is not an array"))
}

fn reply_of_json(request: &Request, json: &Json) -> Result<Reply, String> {
    if json.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!(
            "{}: {}",
            json.get("code").and_then(Json::as_str).unwrap_or("error"),
            json.get("error").and_then(Json::as_str).unwrap_or("")
        ));
    }
    let number = |j: &Json| j.as_usize().ok_or_else(|| "not a number".to_string());
    Ok(match request {
        Request::Open { .. } => Reply::Session(number(field(json, "session")?)? as u64),
        Request::Submit { .. } | Request::NextBatch { .. } => {
            let mut batch = Vec::new();
            for q in array(json, "batch")? {
                let mut screens = Vec::new();
                for screen in array(q, "screens")? {
                    let label = field(screen, "kind")?.as_str().unwrap_or("");
                    screens.push(kind_of(label)?);
                }
                batch.push(Questions {
                    claim: number(field(q, "claim")?)?,
                    screens,
                });
            }
            Reply::Batch(batch)
        }
        Request::Answer { .. } => Reply::Remaining,
        Request::Suggest { .. } => {
            let mut suggestions = Vec::new();
            for s in array(json, "suggestions")? {
                suggestions.push(Suggestion {
                    sql: field(s, "sql")?.as_str().unwrap_or("").to_string(),
                    formula: field(s, "formula")?.as_str().unwrap_or("").to_string(),
                    value: field(s, "value")?.as_f64().unwrap_or(f64::NAN),
                });
            }
            Reply::Suggestions(suggestions)
        }
        Request::Verdict { .. } => Reply::Verdict {
            matches_truth: field(json, "matches_truth")?.as_bool() == Some(true),
        },
        Request::Close { .. } => Reply::Closed(
            array(json, "verified")?
                .iter()
                .map(number)
                .collect::<Result<_, _>>()?,
        ),
        other => return Err(format!("the review script never sends {other:?}")),
    })
}
