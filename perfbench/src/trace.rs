//! The benchmark's own spans, recorded around calls into the engine's
//! public API, plus the order statistics every metric is built from.

use std::io::Write;
use std::time::Instant;

/// One recorded interval. `id` is unique within the run; `parent` is the
/// span that was open when this one began.
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Keeps spans in memory until the run ends. A disabled tracer records
/// nothing and costs one branch per call.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let index = self.spans.len();
        self.spans.push(Span {
            id: index + 1,
            parent: self.open.last().map(|&i| i + 1),
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(index);
    }

    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let index = self.open.pop().expect("exit matches an enter");
        self.spans[index].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn wrap<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let value = f();
        self.exit();
        value
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations, in seconds, of every span named `name`.
    pub fn seconds_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    /// Writes the spans as JSON lines.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in &self.spans {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                span.id, parent, span.name, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics; 0 when there are none.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}
