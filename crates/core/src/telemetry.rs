//! Zero-dependency process telemetry: atomic [`Counter`]s, settable
//! [`Gauge`]s, fixed-bucket log-scale [`Histogram`]s, and RAII [`Span`]
//! timers behind a runtime on/off switch, with JSONL and
//! Prometheus-text exporters (DESIGN.md §13).
//!
//! Every metric is a `static` registered at compile time in the
//! process-wide [`Telemetry`] registry, so instrumentation sites deep in
//! the library — the scoring kernel, the scoped-thread prefetch
//! pipeline, the fleet engines — record through plain `&'static`
//! references with no handle plumbing and no locks on the hot path.
//! Recording is gated on one `Relaxed` atomic load
//! ([`Telemetry::enabled`]); when telemetry is off (the default), a
//! [`Span`] never reads the clock and a guarded counter flush never
//! touches its atomics, so the disabled-mode cost of an instrumented
//! call site is a single predictable branch. The `scoring_kernels`
//! bench gates this at ≤ 2% on the hottest loop.
//!
//! Two exporters share one [`Snapshot`]:
//!
//! * [`Snapshot::write_jsonl`] — one self-describing JSON object per
//!   line (`{"type":"counter",...}`, `{"type":"histogram",...}`),
//!   appended after whatever per-span `{"type":"span",...}` events the
//!   run streamed into the sink installed by
//!   [`Telemetry::install_jsonl_sink`];
//! * [`Snapshot::render_prometheus`] — a `# HELP`/`# TYPE` text dump in
//!   the Prometheus exposition format (histograms as cumulative
//!   `_bucket{le="..."}` series plus `_sum`/`_count`).
//!
//! Metric names follow Prometheus conventions: `emmark_<subsystem>_...`
//! with `_total` on counters and the unit (`_ns`) on histograms;
//! gauges carry neither suffix (they are levels, not accumulations).
//! Histograms bucket by power of two — bucket `i` holds values in
//! `[2^i, 2^(i+1))` (bucket 0 also holds zero) — trading resolution
//! nobody needs for a fixed 64-slot layout that records with two
//! atomic adds and never allocates.

use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Number of log-scale buckets in every [`Histogram`] (one per power of
/// two of the `u64` range).
pub const HISTOGRAM_BUCKETS: usize = 64;

// ---------------------------------------------------------------------
// Primitives.
// ---------------------------------------------------------------------

/// A monotonically increasing atomic counter.
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    help: &'static str,
    value: AtomicU64,
}

impl Counter {
    /// A zeroed counter. `name` should follow the
    /// `emmark_<subsystem>_<what>_total` convention.
    pub const fn new(name: &'static str, help: &'static str) -> Self {
        Self {
            name,
            help,
            value: AtomicU64::new(0),
        }
    }

    /// Adds `n` (one `Relaxed` atomic add).
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Metric name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// One-line description (the Prometheus `# HELP` text).
    pub fn help(&self) -> &'static str {
        self.help
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A settable signed level — queue depths, resident-byte accounting —
/// read and written with `Relaxed` atomics. Unlike a [`Counter`] a
/// gauge goes down as well as up, so its name carries no `_total`
/// suffix.
#[derive(Debug)]
pub struct Gauge {
    name: &'static str,
    help: &'static str,
    value: AtomicI64,
}

impl Gauge {
    /// A zeroed gauge. `name` should follow the
    /// `emmark_<subsystem>_<what>` convention (no unit/accumulation
    /// suffix).
    pub const fn new(name: &'static str, help: &'static str) -> Self {
        Self {
            name,
            help,
            value: AtomicI64::new(0),
        }
    }

    /// Sets the level.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (one `Relaxed` atomic add; `n` may be negative).
    #[inline]
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`.
    #[inline]
    pub fn sub(&self, n: i64) {
        self.add(-n);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Metric name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// One-line description (the Prometheus `# HELP` text).
    pub fn help(&self) -> &'static str {
        self.help
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A fixed-layout log₂-bucket histogram: bucket `i` counts values in
/// `[2^i, 2^(i+1))` (bucket 0 also takes zero), covering the full `u64`
/// range in [`HISTOGRAM_BUCKETS`] slots. Recording is two `Relaxed`
/// atomic adds plus a bucket increment — no locks, no allocation.
#[derive(Debug)]
pub struct Histogram {
    name: &'static str,
    help: &'static str,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    /// An empty histogram. `name` should carry the unit suffix (`_ns`
    /// for durations).
    pub const fn new(name: &'static str, help: &'static str) -> Self {
        Self {
            name,
            help,
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// The bucket a value lands in: `floor(log2(max(v, 1)))`.
    #[inline]
    pub fn bucket_index(v: u64) -> usize {
        (v | 1).ilog2() as usize
    }

    /// Inclusive upper bound of bucket `i` (`2^(i+1) − 1`; the last
    /// bucket tops out at `u64::MAX`).
    pub fn bucket_upper_bound(i: usize) -> u64 {
        if i + 1 >= HISTOGRAM_BUCKETS {
            u64::MAX
        } else {
            (1u64 << (i + 1)) - 1
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a duration in nanoseconds (saturating at `u64::MAX`).
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Observation count of bucket `i`.
    pub fn bucket_count(&self, i: usize) -> u64 {
        self.buckets[i].load(Ordering::Relaxed)
    }

    /// Metric name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// One-line description (the Prometheus `# HELP` text).
    pub fn help(&self) -> &'static str {
        self.help
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
        self.count.store(0, Ordering::Relaxed);
    }
}

/// An RAII timer over a [`Histogram`]: reads the clock on
/// [`Span::enter`] and records the elapsed nanoseconds on drop. With
/// telemetry disabled the clock is never read and nothing records — the
/// entire cost is one atomic load. Spans nest freely and may be created
/// on any thread (the prefetch pipeline opens them on its scoped worker
/// thread); each records into its own histogram independently.
///
/// While a JSONL sink is installed, every completed span additionally
/// streams a `{"type":"span","name":...,"ns":...,"thread":...}` event
/// line, giving runs a per-observation timeline next to the aggregate
/// snapshot.
#[must_use = "a span records on drop; binding it to `_` drops it immediately"]
#[derive(Debug)]
pub struct Span {
    start: Option<Instant>,
    hist: &'static Histogram,
}

impl Span {
    /// Starts a span over `hist` (no-op when telemetry is disabled).
    #[inline]
    pub fn enter(hist: &'static Histogram) -> Self {
        let start = Telemetry::enabled().then(Instant::now);
        Self { start, hist }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.hist.record(ns);
            emit_span_event(self.hist.name, ns);
        }
    }
}

// ---------------------------------------------------------------------
// The metric registry.
// ---------------------------------------------------------------------

macro_rules! registry {
    (
        counters {
            $($(#[$cmeta:meta])* $cid:ident : $cname:literal => $chelp:literal;)*
        }
        gauges {
            $($(#[$gmeta:meta])* $gid:ident : $gname:literal => $ghelp:literal;)*
        }
        histograms {
            $($(#[$hmeta:meta])* $hid:ident : $hname:literal => $hhelp:literal;)*
        }
    ) => {
        $($(#[$cmeta])* pub static $cid: Counter = Counter::new($cname, $chelp);)*
        $($(#[$gmeta])* pub static $gid: Gauge = Gauge::new($gname, $ghelp);)*
        $($(#[$hmeta])* pub static $hid: Histogram = Histogram::new($hname, $hhelp);)*
        static COUNTERS: &[&Counter] = &[$(&$cid),*];
        static GAUGES: &[&Gauge] = &[$(&$gid),*];
        static HISTOGRAMS: &[&Histogram] = &[$(&$hid),*];
    };
}

registry! {
    counters {
        /// Grid cells scanned by the Eq. 2–4 pool kernel.
        SCORING_CELLS: "emmark_scoring_cells_scanned_total" =>
            "Grid cells scanned by scoring::layer_pool";
        /// CHUNK-sized blocks the pool kernel processed.
        SCORING_CHUNKS: "emmark_scoring_chunks_total" =>
            "Chunks processed by scoring::layer_pool";
        /// Chunks whose minimum cleared the heap threshold (top-k work
        /// skipped entirely).
        SCORING_CHUNKS_SKIPPED: "emmark_scoring_chunks_skipped_total" =>
            "Chunks skipped by the layer_pool threshold test";
        /// Per-cell candidate pushes into the bounded top-k heap.
        SCORING_HEAP_CONSULTS: "emmark_scoring_heap_consults_total" =>
            "Candidate cells pushed into the layer_pool top-k heap";
        /// Layers delivered by the prefetch pipeline.
        STREAM_LAYERS: "emmark_stream_layers_total" =>
            "Layers delivered by for_each_layer_prefetched";
        /// Sparse v2 artifacts opened for cell-level reads.
        SPARSE_ARTIFACTS: "emmark_sparse_artifacts_opened_total" =>
            "SparseArtifact opens";
        /// Individual weight cells served by sparse artifact reads.
        SPARSE_CELLS: "emmark_sparse_cells_read_total" =>
            "Weight cells read through SparseArtifact/LayerGridView";
        /// Bytes actually read from sparse artifacts (header + index at
        /// open, one byte per cell probe).
        SPARSE_BYTES: "emmark_sparse_bytes_read_total" =>
            "Bytes read through the sparse artifact path";
        /// Bytes file-backed sparse artifacts actually read from disk:
        /// the header window, the structural walk's windows, and one
        /// byte per probed cell.
        SPARSE_FILE_BYTES: "emmark_sparse_file_bytes_read_total" =>
            "Bytes read from files by file-backed sparse artifacts";
        /// Family caches reused instead of rebuilt.
        FLEET_CACHE_HITS: "emmark_fleet_family_cache_hits_total" =>
            "FamilyCache reuses (verifier built from an existing cache)";
        /// Family caches built from scratch (full Eq. 2–4 scoring pass).
        FLEET_CACHE_MISSES: "emmark_fleet_family_cache_misses_total" =>
            "FamilyCache builds (full scoring pass over the base model)";
        /// Device/ownership verification reports produced.
        FLEET_REPORTS: "emmark_fleet_verify_reports_total" =>
            "Verification reports produced by the fleet engine";
        /// Devices whose exact match count survived index pruning (the
        /// Eq. 8 candidates).
        IDENTIFY_CANDIDATES: "emmark_identify_candidates_total" =>
            "Devices surviving leak-index pruning";
        /// Fleet size at each leak identification (pruning-ratio
        /// denominator).
        IDENTIFY_DEVICES: "emmark_identify_fleet_devices_total" =>
            "Registered devices considered by identify_leak";
        /// Device artifacts provisioned (buffered, streamed, or
        /// sharded).
        PROVISION_DEVICES: "emmark_provision_devices_total" =>
            "Device artifacts provisioned";
        /// Registry shards written by the sharded provisioner.
        PROVISION_SHARDS: "emmark_provision_shards_total" =>
            "Registry shards written by provision_sharded_into";
        /// Attack sweep points measured by the harness.
        ATTACK_POINTS: "emmark_attack_points_total" =>
            "Attack sweep points measured by attacks::harness";
        /// Requests accepted into the emmarkd bounded queue.
        SERVICE_REQUESTS: "emmark_service_requests_total" =>
            "Requests accepted by the emmarkd service queue";
        /// Requests bounced with retry-after because the queue was
        /// full.
        SERVICE_REJECTED: "emmark_service_rejected_total" =>
            "Requests rejected with retry-after by the full service queue";
        /// Malformed frames the service refused to enqueue.
        SERVICE_MALFORMED: "emmark_service_malformed_total" =>
            "Malformed request frames rejected by the emmarkd decoder";
        /// Warm family entries served from the service LRU.
        SERVICE_CACHE_HITS: "emmark_service_family_cache_hits_total" =>
            "Warm family-cache hits in the emmarkd LRU";
        /// Family entries built from scratch for a service request.
        SERVICE_CACHE_MISSES: "emmark_service_family_cache_misses_total" =>
            "Family-cache builds triggered by emmarkd requests";
        /// Families dropped from the LRU to make room.
        SERVICE_EVICTIONS: "emmark_service_family_cache_evictions_total" =>
            "Families evicted from the emmarkd LRU";
        /// Request handlers that panicked; each was answered with an
        /// error response instead of taking its worker down.
        SERVICE_PANICS: "emmark_service_panics_total" =>
            "Request handler panics caught by emmarkd workers";
    }
    gauges {
        /// Requests waiting in the emmarkd bounded queue right now.
        SERVICE_QUEUE_DEPTH: "emmark_service_queue_depth" =>
            "Requests waiting in the emmarkd bounded queue";
        /// Transient request bytes currently charged against the
        /// service resident budget.
        SERVICE_RESIDENT_BYTES: "emmark_service_resident_bytes" =>
            "Bytes charged against the emmarkd resident budget";
    }
    histograms {
        /// Wall time of one `layer_pool` call.
        SCORING_POOL_NS: "emmark_scoring_layer_pool_ns" =>
            "Wall time of one scoring::layer_pool call";
        /// Producer-side load time of one layer in the prefetch
        /// pipeline.
        STREAM_LOAD_NS: "emmark_stream_load_ns" =>
            "Per-layer load_layer time on the prefetch worker";
        /// Consumer-side rendezvous wait per layer (time blocked in
        /// `recv` before the worker handed the layer over).
        STREAM_STALL_NS: "emmark_stream_stall_ns" =>
            "Per-layer rendezvous stall in for_each_layer_prefetched";
        /// Consumer-side compute time per layer (the caller's closure).
        STREAM_COMPUTE_NS: "emmark_stream_compute_ns" =>
            "Per-layer consumer compute in for_each_layer_prefetched";
        /// One locate sweep of the streaming stamp (pool + size pass).
        STAMP_LOCATE_NS: "emmark_stamp_locate_sweep_ns" =>
            "Streaming stamp sweep 1: locate + size";
        /// One insert/encode sweep of the streaming stamp.
        STAMP_INSERT_NS: "emmark_stamp_insert_sweep_ns" =>
            "Streaming stamp sweep 2: insert + encode";
        /// One verification report (device or ownership).
        FLEET_VERIFY_NS: "emmark_fleet_verify_report_ns" =>
            "Wall time of one fleet verification report";
        /// One leak identification over the full fleet.
        IDENTIFY_NS: "emmark_identify_ns" =>
            "Wall time of one leak identification";
        /// Per-shard stamp time (fingerprint material + device
        /// entries).
        SHARD_STAMP_NS: "emmark_provision_shard_stamp_ns" =>
            "Per-shard fingerprint stamping in provision_sharded_into";
        /// Per-shard index/encode time (leak-index fold + registry
        /// encode + sink write).
        SHARD_INDEX_NS: "emmark_provision_shard_index_ns" =>
            "Per-shard index fold + encode in provision_sharded_into";
        /// One attack sweep point end to end (attack + quality eval +
        /// extraction).
        ATTACK_POINT_NS: "emmark_attack_point_ns" =>
            "Wall time of one attack sweep point";
        /// The owner-extraction step of one attack sweep point.
        ATTACK_EXTRACT_NS: "emmark_attack_extract_ns" =>
            "Watermark extraction time within one attack sweep point";
        /// One service verify request, queue-pop to response bytes.
        SERVICE_VERIFY_NS: "emmark_service_verify_ns" =>
            "Wall time of one emmarkd verify request";
        /// One service provision request, queue-pop to response bytes.
        SERVICE_PROVISION_NS: "emmark_service_provision_ns" =>
            "Wall time of one emmarkd provision request";
        /// One service identify-leak request, queue-pop to response
        /// bytes.
        SERVICE_IDENTIFY_NS: "emmark_service_identify_ns" =>
            "Wall time of one emmarkd identify-leak request";
        /// One service inspect request, queue-pop to response bytes.
        SERVICE_INSPECT_NS: "emmark_service_inspect_ns" =>
            "Wall time of one emmarkd inspect request";
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static EVENTS_ACTIVE: AtomicBool = AtomicBool::new(false);
static SINK: Mutex<Option<Box<dyn Write + Send>>> = Mutex::new(None);

/// The process-wide telemetry registry: every [`Counter`] and
/// [`Histogram`] in the crate, the global on/off switch, and the JSONL
/// event sink. All operations are thread-safe; recording sites are
/// lock-free.
#[derive(Debug)]
pub struct Telemetry;

impl Telemetry {
    /// Whether recording is on — one `Relaxed` atomic load; this is the
    /// whole disabled-mode cost of an instrumented site.
    #[inline]
    pub fn enabled() -> bool {
        ENABLED.load(Ordering::Relaxed)
    }

    /// Turns recording on or off process-wide.
    pub fn set_enabled(on: bool) {
        ENABLED.store(on, Ordering::Relaxed);
    }

    /// Every registered counter, in registration order.
    pub fn counters() -> &'static [&'static Counter] {
        COUNTERS
    }

    /// Every registered gauge, in registration order.
    pub fn gauges() -> &'static [&'static Gauge] {
        GAUGES
    }

    /// Every registered histogram, in registration order.
    pub fn histograms() -> &'static [&'static Histogram] {
        HISTOGRAMS
    }

    /// Looks up a counter by metric name.
    pub fn counter(name: &str) -> Option<&'static Counter> {
        COUNTERS.iter().find(|c| c.name == name).copied()
    }

    /// Looks up a gauge by metric name.
    pub fn gauge(name: &str) -> Option<&'static Gauge> {
        GAUGES.iter().find(|g| g.name == name).copied()
    }

    /// Looks up a histogram by metric name.
    pub fn histogram(name: &str) -> Option<&'static Histogram> {
        HISTOGRAMS.iter().find(|h| h.name == name).copied()
    }

    /// Zeroes every registered metric (tests and between-run hygiene;
    /// concurrent recorders simply start over).
    pub fn reset() {
        for c in COUNTERS {
            c.reset();
        }
        for g in GAUGES {
            g.reset();
        }
        for h in HISTOGRAMS {
            h.reset();
        }
    }

    /// Installs a JSONL event sink and enables recording. Completed
    /// [`Span`]s stream event lines into it; [`Snapshot::write_jsonl`]
    /// appends the aggregate snapshot at end of run.
    pub fn install_jsonl_sink(sink: Box<dyn Write + Send>) {
        *SINK.lock().expect("telemetry sink poisoned") = Some(sink);
        EVENTS_ACTIVE.store(true, Ordering::Relaxed);
        Self::set_enabled(true);
    }

    /// Removes the JSONL sink (flushing it) and returns it. Recording
    /// stays in whatever enabled state it was.
    pub fn take_jsonl_sink() -> Option<Box<dyn Write + Send>> {
        EVENTS_ACTIVE.store(false, Ordering::Relaxed);
        let mut sink = SINK.lock().expect("telemetry sink poisoned").take();
        if let Some(w) = sink.as_mut() {
            let _ = w.flush();
        }
        sink
    }

    /// Runs `f` with a mutable borrow of the installed sink, if any.
    pub fn with_jsonl_sink<R>(f: impl FnOnce(&mut dyn Write) -> R) -> Option<R> {
        let mut guard = SINK.lock().expect("telemetry sink poisoned");
        guard.as_mut().map(|w| f(w.as_mut()))
    }

    /// Captures a point-in-time [`Snapshot`] of every registered
    /// metric plus the process peak RSS.
    pub fn snapshot() -> Snapshot {
        Snapshot::capture()
    }
}

fn emit_span_event(name: &'static str, ns: u64) {
    if !EVENTS_ACTIVE.load(Ordering::Relaxed) {
        return;
    }
    let thread = format!("{:?}", std::thread::current().id());
    Telemetry::with_jsonl_sink(|w| {
        let _ = writeln!(
            w,
            "{{\"type\":\"span\",\"name\":\"{name}\",\"ns\":{ns},\"thread\":\"{thread}\"}}"
        );
    });
}

// ---------------------------------------------------------------------
// Snapshot + exporters.
// ---------------------------------------------------------------------

/// Point-in-time value of one [`Counter`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSample {
    /// Metric name.
    pub name: &'static str,
    /// `# HELP` text.
    pub help: &'static str,
    /// Counter value at capture time.
    pub value: u64,
}

/// Point-in-time level of one [`Gauge`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GaugeSample {
    /// Metric name.
    pub name: &'static str,
    /// `# HELP` text.
    pub help: &'static str,
    /// Gauge level at capture time.
    pub value: i64,
}

/// Point-in-time state of one [`Histogram`]. `buckets` holds
/// `(inclusive_upper_bound, count)` for the non-empty buckets only.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSample {
    /// Metric name.
    pub name: &'static str,
    /// `# HELP` text.
    pub help: &'static str,
    /// Observation count.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Non-empty buckets as `(inclusive upper bound, count)`.
    pub buckets: Vec<(u64, u64)>,
}

/// A consistent-enough point-in-time capture of the whole registry
/// (each metric is read atomically; the set is not fenced against
/// concurrent recorders). Both exporters render from the same capture,
/// so a JSONL snapshot and a Prometheus dump of the same `Snapshot`
/// always agree.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Every registered counter.
    pub counters: Vec<CounterSample>,
    /// Every registered gauge.
    pub gauges: Vec<GaugeSample>,
    /// Every registered histogram.
    pub histograms: Vec<HistogramSample>,
    /// Peak resident set size of this process, if the platform exposes
    /// it (see [`peak_resident_mib`]).
    pub peak_resident_mib: Option<f64>,
}

impl Snapshot {
    /// Reads every registered metric now.
    pub fn capture() -> Self {
        let counters = COUNTERS
            .iter()
            .map(|c| CounterSample {
                name: c.name,
                help: c.help,
                value: c.get(),
            })
            .collect();
        let gauges = GAUGES
            .iter()
            .map(|g| GaugeSample {
                name: g.name,
                help: g.help,
                value: g.get(),
            })
            .collect();
        let histograms = HISTOGRAMS
            .iter()
            .map(|h| HistogramSample {
                name: h.name,
                help: h.help,
                count: h.count(),
                sum: h.sum(),
                buckets: (0..HISTOGRAM_BUCKETS)
                    .filter_map(|i| {
                        let n = h.bucket_count(i);
                        (n > 0).then(|| (Histogram::bucket_upper_bound(i), n))
                    })
                    .collect(),
            })
            .collect();
        Self {
            counters,
            gauges,
            histograms,
            peak_resident_mib: peak_resident_mib(),
        }
    }

    /// Writes the snapshot as JSONL: one `{"type":"snapshot",...}`
    /// header line, then one line per metric. Values are plain JSON
    /// numbers; the top histogram bucket's unbounded `le` is the string
    /// `"+Inf"`, as in Prometheus.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn write_jsonl<W: Write>(&self, w: &mut W) -> io::Result<()> {
        match self.peak_resident_mib {
            Some(mib) => writeln!(
                w,
                "{{\"type\":\"snapshot\",\"peak_resident_mib\":{mib:.3}}}"
            )?,
            None => writeln!(w, "{{\"type\":\"snapshot\",\"peak_resident_mib\":null}}")?,
        }
        for c in &self.counters {
            writeln!(
                w,
                "{{\"type\":\"counter\",\"name\":\"{}\",\"value\":{}}}",
                c.name, c.value
            )?;
        }
        for g in &self.gauges {
            writeln!(
                w,
                "{{\"type\":\"gauge\",\"name\":\"{}\",\"value\":{}}}",
                g.name, g.value
            )?;
        }
        for h in &self.histograms {
            write!(
                w,
                "{{\"type\":\"histogram\",\"name\":\"{}\",\"count\":{},\"sum\":{},\"buckets\":[",
                h.name, h.count, h.sum
            )?;
            for (i, (le, n)) in h.buckets.iter().enumerate() {
                let sep = if i == 0 { "" } else { "," };
                if *le == u64::MAX {
                    write!(w, "{sep}{{\"le\":\"+Inf\",\"count\":{n}}}")?;
                } else {
                    write!(w, "{sep}{{\"le\":{le},\"count\":{n}}}")?;
                }
            }
            writeln!(w, "]}}")?;
        }
        Ok(())
    }

    /// Renders the snapshot in the Prometheus text exposition format.
    /// Counters appear unconditionally; empty histograms are omitted to
    /// keep the dump readable, and histogram buckets are emitted
    /// cumulatively up to the last non-empty bound plus `+Inf`.
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for c in &self.counters {
            let _ = writeln!(out, "# HELP {} {}", c.name, c.help);
            let _ = writeln!(out, "# TYPE {} counter", c.name);
            let _ = writeln!(out, "{} {}", c.name, c.value);
        }
        for g in &self.gauges {
            let _ = writeln!(out, "# HELP {} {}", g.name, g.help);
            let _ = writeln!(out, "# TYPE {} gauge", g.name);
            let _ = writeln!(out, "{} {}", g.name, g.value);
        }
        for h in &self.histograms {
            if h.count == 0 {
                continue;
            }
            let _ = writeln!(out, "# HELP {} {}", h.name, h.help);
            let _ = writeln!(out, "# TYPE {} histogram", h.name);
            let mut cum = 0u64;
            for &(le, n) in &h.buckets {
                cum += n;
                if le == u64::MAX {
                    continue; // folded into +Inf below
                }
                let _ = writeln!(out, "{}_bucket{{le=\"{le}\"}} {cum}", h.name);
            }
            let _ = writeln!(out, "{}_bucket{{le=\"+Inf\"}} {}", h.name, h.count);
            let _ = writeln!(out, "{}_sum {}", h.name, h.sum);
            let _ = writeln!(out, "{}_count {}", h.name, h.count);
        }
        if let Some(mib) = self.peak_resident_mib {
            let _ = writeln!(
                out,
                "# HELP emmark_process_peak_resident_mib Peak resident set size (VmHWM)"
            );
            let _ = writeln!(out, "# TYPE emmark_process_peak_resident_mib gauge");
            let _ = writeln!(out, "emmark_process_peak_resident_mib {mib:.3}");
        }
        out
    }
}

/// Peak resident set size of this process in MiB, read from
/// `/proc/self/status` (`VmHWM`). `None` where procfs is unavailable.
/// The one shared implementation behind the CLI's exit line, bench
/// reports, and [`Snapshot::peak_resident_mib`].
pub fn peak_resident_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_covers_the_powers_of_two_edges() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 0);
        assert_eq!(Histogram::bucket_index(2), 1);
        assert_eq!(Histogram::bucket_index(3), 1);
        assert_eq!(Histogram::bucket_index(4), 2);
        for i in 1..64u32 {
            let v = 1u64 << i;
            assert_eq!(Histogram::bucket_index(v - 1), (i - 1) as usize);
            assert_eq!(Histogram::bucket_index(v), i as usize);
        }
        assert_eq!(Histogram::bucket_index(u64::MAX), 63);
    }

    #[test]
    fn bucket_upper_bounds_partition_the_range() {
        assert_eq!(Histogram::bucket_upper_bound(0), 1);
        assert_eq!(Histogram::bucket_upper_bound(1), 3);
        assert_eq!(Histogram::bucket_upper_bound(62), u64::MAX / 2);
        assert_eq!(Histogram::bucket_upper_bound(63), u64::MAX);
        // Every value's bucket bound is the smallest bound ≥ the value.
        for v in [0u64, 1, 2, 3, 4, 1023, 1024, u64::MAX - 1, u64::MAX] {
            let i = Histogram::bucket_index(v);
            assert!(Histogram::bucket_upper_bound(i) >= v);
            if i > 0 {
                assert!(Histogram::bucket_upper_bound(i - 1) < v);
            }
        }
    }

    #[test]
    fn histogram_records_land_in_their_buckets() {
        static H: Histogram = Histogram::new("test_edges", "test");
        for v in [0u64, 1, 2, 3, 1024, 1025] {
            H.record(v);
        }
        assert_eq!(H.count(), 6);
        assert_eq!(H.bucket_count(0), 2); // 0, 1
        assert_eq!(H.bucket_count(1), 2); // 2, 3
        assert_eq!(H.bucket_count(10), 2); // 1024, 1025
        assert_eq!(H.sum(), 2055);
        H.record(u64::MAX);
        assert_eq!(H.count(), 7);
        assert_eq!(H.bucket_count(63), 1);
    }

    #[test]
    fn gauges_move_in_both_directions() {
        static G: Gauge = Gauge::new("test_gauge", "test");
        assert_eq!(G.get(), 0);
        G.set(5);
        G.add(3);
        G.sub(10);
        assert_eq!(G.get(), -2);
        G.reset();
        assert_eq!(G.get(), 0);
    }

    #[test]
    fn prometheus_rendering_is_cumulative_and_typed() {
        let snap = Snapshot {
            counters: vec![CounterSample {
                name: "emmark_test_total",
                help: "a test counter",
                value: 7,
            }],
            gauges: vec![GaugeSample {
                name: "emmark_test_depth",
                help: "a test gauge",
                value: -2,
            }],
            histograms: vec![HistogramSample {
                name: "emmark_test_ns",
                help: "a test histogram",
                count: 3,
                sum: 1030,
                buckets: vec![(3, 2), (2047, 1)],
            }],
            peak_resident_mib: Some(12.5),
        };
        let text = snap.render_prometheus();
        assert!(text.contains("# TYPE emmark_test_total counter"));
        assert!(text.contains("emmark_test_total 7"));
        assert!(text.contains("# TYPE emmark_test_depth gauge"));
        assert!(text.contains("emmark_test_depth -2"));
        assert!(text.contains("# TYPE emmark_test_ns histogram"));
        assert!(text.contains("emmark_test_ns_bucket{le=\"3\"} 2"));
        assert!(text.contains("emmark_test_ns_bucket{le=\"2047\"} 3"));
        assert!(text.contains("emmark_test_ns_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("emmark_test_ns_sum 1030"));
        assert!(text.contains("emmark_test_ns_count 3"));
        assert!(text.contains("emmark_process_peak_resident_mib 12.500"));
    }

    #[test]
    fn registry_names_are_unique_and_conventional() {
        let mut names: Vec<&str> = Telemetry::counters()
            .iter()
            .map(|c| c.name())
            .chain(Telemetry::gauges().iter().map(|g| g.name()))
            .chain(Telemetry::histograms().iter().map(|h| h.name()))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric names");
        for c in Telemetry::counters() {
            assert!(c.name().starts_with("emmark_"), "{}", c.name());
            assert!(c.name().ends_with("_total"), "{}", c.name());
            assert!(!c.help().is_empty());
        }
        for g in Telemetry::gauges() {
            assert!(g.name().starts_with("emmark_"), "{}", g.name());
            assert!(!g.name().ends_with("_total"), "{}", g.name());
            assert!(!g.name().ends_with("_ns"), "{}", g.name());
            assert!(!g.help().is_empty());
        }
        for h in Telemetry::histograms() {
            assert!(h.name().starts_with("emmark_"), "{}", h.name());
            assert!(h.name().ends_with("_ns"), "{}", h.name());
            assert!(!h.help().is_empty());
        }
        assert!(Telemetry::counter("emmark_scoring_cells_scanned_total").is_some());
        assert!(Telemetry::gauge("emmark_service_queue_depth").is_some());
        assert!(Telemetry::histogram("emmark_stream_stall_ns").is_some());
        assert!(Telemetry::counter("no_such_metric").is_none());
    }

    #[test]
    fn peak_resident_is_plausible_on_linux() {
        if let Some(mib) = peak_resident_mib() {
            assert!(mib > 0.0 && mib < 1_000_000.0, "peak {mib} MiB");
        }
    }
}
