//! End-to-end behavior of `emmark_core::telemetry` against the real
//! pipelines:
//!
//! * **JSONL round-trip** — with a sink installed, the streaming stamp
//!   emits span events from both the consumer and the scoped prefetch
//!   worker; every emitted line parses as JSON, span/counter/histogram
//!   lines carry their required keys, and the trailing snapshot lines
//!   agree exactly with the in-process [`Snapshot`] they were rendered
//!   from.
//! * **Spans across scoped threads** — load spans are recorded on the
//!   prefetch worker while stall/compute spans land on the caller, and
//!   nested spans (the per-layer scoring span inside the locate-sweep
//!   span) both record.
//! * **Disabled mode** — the same pipeline with telemetry off records
//!   nothing: every counter zero, every histogram empty.
//! * **Sparse-open accounting** — a full decode is not a sparse open:
//!   `decode_model` leaves the sparse counters at zero.
//!
//! Bucketing edge cases live with the module's unit tests; this file
//! covers the global state, which is why every test serializes on one
//! lock and resets the registry before and after.

use emmark::core::deploy::{decode_model, encode_model, SparseArtifact};
use emmark::core::store::ArtifactSink;
use emmark::core::telemetry::{Snapshot, Telemetry};
use emmark::core::watermark::{stream_watermark, OwnerSecrets, WatermarkConfig};
use emmark::nanolm::{ModelConfig, TransformerModel};
use emmark::quant::rtn::quantize_linear_rtn;
use emmark::quant::{ActQuant, Granularity, QuantizedModel};
use std::io::Write;
use std::sync::{Arc, Mutex, MutexGuard};

/// The telemetry registry is process-global; tests that enable, record,
/// and reset must not interleave.
static TEST_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    TEST_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// An in-memory JSONL sink the test can read back after the run.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn contents(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).expect("sink output is UTF-8")
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A small RTN-int8 owner family of width `d_model`.
fn rtn_secrets(d_model: usize) -> OwnerSecrets {
    let mut cfg = ModelConfig::tiny_test();
    cfg.init_seed = 7;
    cfg.d_model = d_model;
    cfg.d_ff = 2 * d_model;
    let mut model = TransformerModel::new(cfg);
    let calib: Vec<Vec<u32>> = (0..4u32)
        .map(|s| (0..16u32).map(|i| (i * 7 + s * 3) % 31).collect())
        .collect();
    let stats = model.collect_activation_stats(&calib);
    let qm = QuantizedModel::quantize_with(&model, "rtn-int8", |_, lin| {
        quantize_linear_rtn(lin, 8, Granularity::PerOutChannel, ActQuant::None)
    });
    OwnerSecrets::new(
        qm,
        stats,
        WatermarkConfig {
            bits_per_layer: 4,
            pool_ratio: 10,
            ..Default::default()
        },
        2024,
    )
}

/// Runs the streaming stamp from an encoded artifact (records decoded
/// per load, so the prefetch worker participates) and returns the layer
/// count.
fn run_streaming_stamp() -> usize {
    let secrets = rtn_secrets(16);
    let n_layers = secrets.original.layers.len();
    let artifact = encode_model(&secrets.original);
    let store = SparseArtifact::open(&artifact).expect("open artifact");
    let mut out = Vec::new();
    stream_watermark(
        &store,
        &secrets.stats,
        &secrets.signature,
        &secrets.config,
        &mut ArtifactSink::new(&mut out),
    )
    .expect("streaming stamp");
    n_layers
}

// ---------------------------------------------------------------------
// A minimal JSON parser — enough to validate the hand-rolled exporter
// without a JSON dependency.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn str(&self, key: &str) -> &str {
        match self.get(key) {
            Some(Json::Str(s)) => s,
            other => panic!("expected string at key {key}, got {other:?}"),
        }
    }

    fn num(&self, key: &str) -> f64 {
        match self.get(key) {
            Some(Json::Num(n)) => *n,
            other => panic!("expected number at key {key}, got {other:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn parse(line: &'a str) -> Json {
        let mut p = Parser {
            s: line.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing bytes in JSON line: {line}");
        v
    }

    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(|b| b.is_ascii_whitespace()) {
            self.i += 1;
        }
    }

    fn eat(&mut self, b: u8) {
        self.ws();
        assert_eq!(
            self.s.get(self.i),
            Some(&b),
            "expected {:?} at byte {}",
            b as char,
            self.i
        );
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Json::Str(self.string()),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            _ => self.number(),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Json {
        assert!(
            self.s[self.i..].starts_with(word.as_bytes()),
            "bad literal at byte {}",
            self.i
        );
        self.i += word.len();
        v
    }

    fn object(&mut self) -> Json {
        self.eat(b'{');
        let mut fields = Vec::new();
        self.ws();
        if self.s.get(self.i) == Some(&b'}') {
            self.i += 1;
            return Json::Obj(fields);
        }
        loop {
            self.ws();
            let key = self.string();
            self.eat(b':');
            fields.push((key, self.value()));
            self.ws();
            match self.s.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Json::Obj(fields);
                }
                other => panic!("expected , or }} in object, got {other:?}"),
            }
        }
    }

    fn array(&mut self) -> Json {
        self.eat(b'[');
        let mut items = Vec::new();
        self.ws();
        if self.s.get(self.i) == Some(&b']') {
            self.i += 1;
            return Json::Arr(items);
        }
        loop {
            items.push(self.value());
            self.ws();
            match self.s.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Json::Arr(items);
                }
                other => panic!("expected , or ] in array, got {other:?}"),
            }
        }
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut out = String::new();
        loop {
            match self.s[self.i] {
                b'"' => {
                    self.i += 1;
                    return out;
                }
                b'\\' => {
                    self.i += 1;
                    let c = self.s[self.i];
                    self.i += 1;
                    match c {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = std::str::from_utf8(&self.s[self.i..self.i + 4]).unwrap();
                            self.i += 4;
                            out.push(
                                char::from_u32(u32::from_str_radix(hex, 16).unwrap()).unwrap(),
                            );
                        }
                        other => panic!("unsupported escape \\{}", other as char),
                    }
                }
                _ => {
                    // Multi-byte UTF-8 passes through unescaped.
                    let rest = std::str::from_utf8(&self.s[self.i..]).unwrap();
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.i += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Json {
        let start = self.i;
        while self
            .s
            .get(self.i)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.i += 1;
        }
        let text = std::str::from_utf8(&self.s[start..self.i]).unwrap();
        Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number {text}")))
    }
}

#[test]
fn jsonl_round_trip_matches_in_process_snapshot() {
    let _guard = lock();
    Telemetry::reset();
    let sink = SharedBuf::default();
    Telemetry::install_jsonl_sink(Box::new(sink.clone()));
    let n_layers = run_streaming_stamp();

    // Stop event streaming, capture once, and append that same capture
    // — file and in-process snapshot cannot disagree by construction,
    // so any mismatch below is an exporter bug.
    let mut taken = Telemetry::take_jsonl_sink().expect("sink was installed");
    let snap = Snapshot::capture();
    snap.write_jsonl(&mut taken).expect("snapshot write");
    taken.flush().expect("snapshot flush");
    drop(taken);
    Telemetry::set_enabled(false);

    let text = sink.contents();
    let lines: Vec<Json> = text.lines().map(Parser::parse).collect();
    assert!(
        lines.len() > n_layers,
        "expected span events plus snapshot, got {} lines",
        lines.len()
    );

    let mut load_threads = Vec::new();
    let mut compute_threads = Vec::new();
    let mut counters_seen = 0usize;
    let mut gauges_seen = 0usize;
    let mut histograms_seen = 0usize;
    for line in &lines {
        match line.str("type") {
            "span" => {
                assert!(line.num("ns") >= 0.0);
                let thread = line.str("thread").to_string();
                match line.str("name") {
                    "emmark_stream_load_ns" => load_threads.push(thread),
                    "emmark_stream_compute_ns" => compute_threads.push(thread),
                    _ => {}
                }
            }
            "counter" => {
                counters_seen += 1;
                let sample = snap
                    .counters
                    .iter()
                    .find(|c| c.name == line.str("name"))
                    .expect("counter line names a registered metric");
                assert_eq!(sample.value as f64, line.num("value"));
            }
            "gauge" => {
                gauges_seen += 1;
                let sample = snap
                    .gauges
                    .iter()
                    .find(|g| g.name == line.str("name"))
                    .expect("gauge line names a registered metric");
                assert_eq!(sample.value as f64, line.num("value"));
            }
            "histogram" => {
                histograms_seen += 1;
                let sample = snap
                    .histograms
                    .iter()
                    .find(|h| h.name == line.str("name"))
                    .expect("histogram line names a registered metric");
                assert_eq!(sample.count as f64, line.num("count"));
                assert_eq!(sample.sum as f64, line.num("sum"));
                let Some(Json::Arr(buckets)) = line.get("buckets") else {
                    panic!("histogram line without a buckets array");
                };
                let total: f64 = buckets.iter().map(|b| b.num("count")).sum();
                assert_eq!(total, sample.count as f64, "buckets must partition count");
            }
            "snapshot" => {}
            other => panic!("unknown line type {other}"),
        }
    }
    assert_eq!(counters_seen, snap.counters.len());
    assert_eq!(gauges_seen, snap.gauges.len());
    assert_eq!(histograms_seen, snap.histograms.len());

    // Cross-thread spans: loads happen on the scoped prefetch worker,
    // compute on the caller — different thread ids in the event stream.
    assert!(!load_threads.is_empty() && !compute_threads.is_empty());
    assert!(
        load_threads.iter().all(|t| !compute_threads.contains(t)),
        "load spans must come from the prefetch worker, not the consumer thread"
    );

    // Nested spans both record: each locate sweep wraps one scoring
    // span per layer inside the sweep-level span.
    let pool = Telemetry::histogram("emmark_scoring_layer_pool_ns").unwrap();
    let locate = Telemetry::histogram("emmark_stamp_locate_sweep_ns").unwrap();
    assert_eq!(pool.count(), n_layers as u64);
    assert_eq!(locate.count(), 1);
    assert_eq!(
        Telemetry::counter("emmark_stream_layers_total")
            .unwrap()
            .get(),
        2 * n_layers as u64,
        "both sweeps stream every layer"
    );
    Telemetry::reset();
}

#[test]
fn a_full_decode_is_not_counted_as_a_sparse_open() {
    let _guard = lock();
    Telemetry::reset();
    Telemetry::set_enabled(true);
    let artifact = encode_model(&rtn_secrets(16).original);
    let count = |name: &str| Telemetry::counter(name).expect("registered").get();
    decode_model(&artifact).expect("decode");
    assert_eq!(count("emmark_sparse_artifacts_opened_total"), 0);
    assert_eq!(count("emmark_sparse_bytes_read_total"), 0);
    SparseArtifact::open(&artifact).expect("open");
    assert_eq!(count("emmark_sparse_artifacts_opened_total"), 1);
    assert!(count("emmark_sparse_bytes_read_total") > 0);
    Telemetry::set_enabled(false);
    Telemetry::reset();
}

#[test]
fn disabled_mode_records_nothing() {
    let _guard = lock();
    Telemetry::reset();
    assert!(!Telemetry::enabled());
    run_streaming_stamp();
    let snap = Snapshot::capture();
    for c in &snap.counters {
        assert_eq!(c.value, 0, "{} recorded while disabled", c.name);
    }
    for h in &snap.histograms {
        assert_eq!(h.count, 0, "{} recorded while disabled", h.name);
        assert_eq!(h.sum, 0, "{} recorded while disabled", h.name);
    }
}

#[test]
fn concurrent_cold_requests_locate_and_pool_one_family_once() {
    use emmark::core::service::{
        decode_response, encode_request, Blob, Request, Response, Service, ServiceConfig,
    };
    use emmark::core::telemetry::{FLEET_CACHE_MISSES, SERVICE_CACHE_MISSES};

    let _guard = lock();
    Telemetry::reset();
    Telemetry::set_enabled(true);
    // Wide enough that locating and pooling it outlasts a worker wakeup.
    let vault = emmark::core::vault::encode_secrets(&rtn_secrets(128)).to_vec();
    let fingerprint_config = WatermarkConfig {
        bits_per_layer: 2,
        pool_ratio: 10,
        selection_seed: 0xDE11CE,
        ..Default::default()
    };
    // Cold provisions for one vault and one fingerprint config on two
    // workers: whatever the interleaving, a request that finds a build in
    // progress waits for it instead of running its own. (The wide model
    // makes the builds overlap, so a service that builds per request
    // fails here.)
    let service = Service::start(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    });
    let (tx, rx) = std::sync::mpsc::channel();
    for id in 0..4u64 {
        let tx = tx.clone();
        let req = Request::Provision {
            secrets: Blob::Inline(vault.clone()),
            fingerprint_config,
            device_id: format!("edge-{id}"),
        };
        service.submit(
            encode_request(id, &req),
            Box::new(move |payload| {
                let _ = tx.send(payload);
            }),
        );
    }
    for _ in 0..4 {
        let (id, resp) = decode_response(&rx.recv().expect("reply")).expect("decode");
        assert!(matches!(resp, Response::Provision { .. }), "{id}: {resp:?}");
    }
    assert_eq!(FLEET_CACHE_MISSES.get(), 1, "one family cache build");
    assert_eq!(
        SERVICE_CACHE_MISSES.get(),
        2,
        "one family entry and one provisioner"
    );
    Telemetry::set_enabled(false);
    Telemetry::reset();
}
