//! In-memory span recorder for the traced replays. Spans are named after
//! the layer whose public function they wrap (`vault.decode`,
//! `registry.load`, ...), nest through a parent index, and are written out
//! only when the replay ends, so recording costs two clock reads and a
//! `Vec` push per call.

use crate::util::{array, Json};
use emmark_core::telemetry::Snapshot;
use std::time::Instant;

struct Rec {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    bytes: u64,
}

pub struct Trace {
    origin: Instant,
    spans: Vec<Rec>,
    open: Vec<usize>,
}

impl Trace {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`, child of the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Rec {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
            bytes: 0,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Attributes `n` bytes to the innermost open span.
    pub fn bytes(&mut self, n: usize) {
        if let Some(&idx) = self.open.last() {
            self.spans[idx].bytes += n as u64;
        }
    }

    /// Reads a file inside an `io.read` span.
    pub fn read(&mut self, path: &std::path::Path) -> std::io::Result<Vec<u8>> {
        self.span("io.read", |t| {
            let bytes = std::fs::read(path)?;
            t.bytes(bytes.len());
            Ok(bytes)
        })
    }

    /// Writes a file inside an `io.write` span.
    pub fn write(&mut self, path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
        self.span("io.write", |t| {
            t.bytes(bytes.len());
            std::fs::write(path, bytes)
        })
    }

    /// The spans as a JSON array of
    /// `{"name","parent","start_ns","end_ns","bytes"}` objects.
    pub fn to_json(&self) -> String {
        array(self.spans.iter().map(|s| {
            let j = Json::default().str("name", s.name);
            let j = match s.parent {
                Some(p) => j.int("parent", p as u64),
                None => j.raw("parent", "null"),
            };
            j.int("start_ns", s.start_ns)
                .int("end_ns", s.end_ns)
                .int("bytes", s.bytes)
                .finish()
        }))
    }
}

/// The program's own counters and histogram sums that the per-layer
/// report reads next to the spans, as deltas between two captures.
pub struct Counts {
    before: Snapshot,
}

/// Counters and histogram sums (nanoseconds) read by the report.
const COUNTERS: &[&str] = &[
    "emmark_scoring_cells_scanned_total",
    "emmark_identify_candidates_total",
    "emmark_identify_fleet_devices_total",
    "emmark_sparse_bytes_read_total",
];
const HISTOGRAMS: &[&str] = &["emmark_scoring_layer_pool_ns"];

impl Counts {
    pub fn start() -> Self {
        Self {
            before: Snapshot::capture(),
        }
    }

    fn counter(s: &Snapshot, name: &str) -> u64 {
        s.counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    }

    fn hist_sum(s: &Snapshot, name: &str) -> u64 {
        s.histograms
            .iter()
            .find(|h| h.name == name)
            .map_or(0, |h| h.sum)
    }

    /// `{"<metric name>": delta, ...}` since [`Counts::start`].
    pub fn to_json(&self) -> String {
        let now = Snapshot::capture();
        let mut j = Json::default();
        for name in COUNTERS {
            j = j.int(
                name,
                Self::counter(&now, name) - Self::counter(&self.before, name),
            );
        }
        for name in HISTOGRAMS {
            j = j.int(
                name,
                Self::hist_sum(&now, name) - Self::hist_sum(&self.before, name),
            );
        }
        j.finish()
    }
}
