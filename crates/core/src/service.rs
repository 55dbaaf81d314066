//! `emmarkd`: a cache-warm batched verification/provisioning service.
//!
//! The one-shot CLI pays the family cold-start tax on every invocation:
//! opening the owner vault and scoring the fingerprint pools. When
//! requests arrive as traffic rather than one-offs, that tax dominates
//! wall-clock. This module keeps one warm family entry per owner vault
//! behind a small LRU and schedules framed requests across a bounded
//! worker pool with explicit backpressure. A family is opened from the
//! vault bytes the request read, with the parse the CLI runs on a vault
//! file ([`Family::open`]): a keyed vault is neither decoded nor
//! re-located, and the daemon accepts and refuses the vaults the CLI
//! does.
//!
//! # Framing protocol
//!
//! Every request and response travels as one frame: a little-endian `u32`
//! payload length followed by the payload. Payloads start with a magic
//! (`EMSQ` for requests, `EMSR` for responses), a `u32` protocol version, and
//! a `u64` caller-chosen request id echoed verbatim in the response so
//! responses may complete out of order. Inputs are passed as [`Blob`]s —
//! either inline bytes or a filesystem path resolved server-side — so large
//! artifacts need not cross the socket at all.
//!
//! Responses are bit-identical to the one-shot CLI for the same inputs: a
//! warm family is one located `Family` (the vault's bytes and ownership
//! locations) shared by every engine built over it, and each request
//! replays deterministic extraction against it.
//!
//! # What a request reads
//!
//! A path-blob suspect is opened file-backed
//! ([`SparseArtifact::open_file`]): the header, the structural walk's
//! length words and the probed cells are read, never the grids, and a
//! read that fails after open turns the request into an error reply.
//! Inline blobs are borrowed from the request. An inspect target and an
//! identify-leak registry are opened by [`crate::container`], the open
//! `emmark inspect`, `fleet-verify` and `identify-leak` run: the
//! container's magic chooses the reader there, a bundle is walked to
//! its last entry, and a vault is opened, not decoded. A provision reply is
//! built in one buffer: the reply header, then the base artifact
//! spliced with the device's patches — the same bytes
//! [`encode_response`] would produce, without a second artifact copy.
//! Every lock is taken through one poison-recovering helper, so a
//! panicking request cannot wedge the requests after it.

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::io::{Read as IoRead, Write as IoWrite};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

use bytes::{BufMut, BytesMut};

use crate::container::{open_container, open_registry, Container, ContainerError, Input};
use crate::deploy::{
    put_string, put_watermark_config, CodecError, Reader, Section, SparseArtifact,
};
use crate::fingerprint::{fxhash, DeviceFingerprint, Family};
use crate::fleet::{FleetVerifier, WORKER_STACK_BYTES};
use crate::provision::FleetProvisioner;
use crate::store::StoreError;
use crate::telemetry::{
    Span, Telemetry, SERVICE_CACHE_HITS, SERVICE_CACHE_MISSES, SERVICE_EVICTIONS,
    SERVICE_IDENTIFY_NS, SERVICE_INSPECT_NS, SERVICE_MALFORMED, SERVICE_PANICS,
    SERVICE_PROVISION_NS, SERVICE_QUEUE_DEPTH, SERVICE_REJECTED, SERVICE_REQUESTS,
    SERVICE_RESIDENT_BYTES, SERVICE_VERIFY_NS,
};
use crate::vault::open_family_bytes;
use crate::watermark::{ExtractionReport, GridSource, WatermarkConfig, WatermarkError};

/// Protocol version carried in every frame payload.
pub const PROTOCOL_VERSION: u32 = 1;
/// Upper bound on a single frame payload (64 MiB).
pub const MAX_FRAME_BYTES: usize = 1 << 26;

/// Request payload magic.
pub const REQUEST_MAGIC: &[u8; 4] = b"EMSQ";
/// Response payload magic.
pub const RESPONSE_MAGIC: &[u8; 4] = b"EMSR";

const OP_PING: u8 = 0;
const OP_VERIFY: u8 = 1;
const OP_PROVISION: u8 = 2;
const OP_IDENTIFY: u8 = 3;
const OP_INSPECT: u8 = 4;
const OP_SHUTDOWN: u8 = 5;

const RESP_PONG: u8 = 0;
const RESP_VERIFY: u8 = 1;
const RESP_PROVISION: u8 = 2;
const RESP_IDENTIFY: u8 = 3;
const RESP_INSPECT: u8 = 4;
const RESP_SHUTDOWN: u8 = 5;
const RESP_BUSY: u8 = 0xFE;
const RESP_ERROR: u8 = 0xFF;

const BLOB_INLINE: u8 = 0;
const BLOB_PATH: u8 = 1;

/// An input handed to the service: inline bytes or a server-side path.
#[derive(Debug, Clone, PartialEq)]
pub enum Blob {
    /// The bytes travel inside the frame.
    Inline(Vec<u8>),
    /// The service reads the bytes from this path on its own filesystem.
    Path(String),
}

/// A decoded service request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness check; answered without touching any cache.
    Ping,
    /// Verify a suspect model against an owner vault.
    Verify {
        /// The owner vault (`EMWS`).
        secrets: Blob,
        /// The suspect artifact (`EMQM` v2; v1 is refused with a
        /// bad-version error).
        suspect: Blob,
        /// log10 chance-match threshold for the proof decision.
        log10_threshold: f64,
    },
    /// Provision one device fingerprint and return its spliced artifact.
    Provision {
        /// The owner vault (`EMWS`).
        secrets: Blob,
        /// Fingerprint selection parameters for the fleet.
        fingerprint_config: WatermarkConfig,
        /// Device identifier stamped into the fingerprint.
        device_id: String,
    },
    /// Identify which provisioned device a leaked artifact came from.
    IdentifyLeak {
        /// The owner vault (`EMWS`).
        secrets: Blob,
        /// A fleet registry (`EMFR`), bundle (`EMFB`), or shard manifest
        /// (`EMFM`; must be a path blob so shards resolve beside it).
        registry: Blob,
        /// The leaked suspect artifact.
        suspect: Blob,
        /// log10 chance-match threshold for attribution.
        log10_threshold: f64,
        /// Force the linear scan even when an index is available.
        linear: bool,
    },
    /// Summarise any EmMark container.
    Inspect {
        /// The container to inspect.
        target: Blob,
    },
    /// Drain in-flight requests and stop the service.
    Shutdown,
}

/// Extraction statistics mirrored from [`ExtractionReport`] for the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportSummary {
    /// Total signature bits compared.
    pub total_bits: u64,
    /// Bits that matched the expected signature.
    pub matched_bits: u64,
    /// Watermark extraction rate, in percent.
    pub wer: f64,
    /// log10 probability of matching this well by chance.
    pub log10_p_chance: f64,
}

impl From<&ExtractionReport> for ReportSummary {
    fn from(r: &ExtractionReport) -> Self {
        ReportSummary {
            total_bits: r.total_bits as u64,
            matched_bits: r.matched_bits as u64,
            wer: r.wer(),
            log10_p_chance: r.log10_p_chance(),
        }
    }
}

/// What a [`Request::Inspect`] found.
#[derive(Debug, Clone, PartialEq)]
pub enum InspectSummary {
    /// A quantized artifact (`EMQM`).
    Artifact {
        /// Container format version: always 2 (sparse-indexed), because
        /// every reader refuses the retired v1.
        format_version: u32,
        /// Quantization scheme string.
        scheme: String,
        /// Number of layers.
        layers: u32,
        /// Total weight cells across layers.
        cells: u64,
    },
    /// A fleet bundle (`EMFB`).
    Bundle {
        /// Devices in the bundle.
        device_count: u32,
        /// Fingerprint configuration shared by the fleet.
        fingerprint_config: WatermarkConfig,
    },
    /// A shard manifest (`EMFM`).
    Manifest {
        /// Shards listed in the manifest.
        shard_count: u32,
        /// Total devices across shards.
        device_count: u64,
    },
    /// A fleet registry (`EMFR`).
    Registry {
        /// Devices in the registry.
        device_count: u32,
        /// Fingerprint configuration shared by the fleet.
        fingerprint_config: WatermarkConfig,
    },
    /// An owner vault (`EMWS`).
    Secrets {
        /// Layers in the reference model.
        layers: u32,
        /// Signature length in bits.
        signature_bits: u32,
    },
}

/// A decoded service response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Liveness reply.
    Pong,
    /// Verification outcome.
    Verify {
        /// Extraction statistics.
        report: ReportSummary,
        /// Whether the proof threshold was met.
        proved: bool,
    },
    /// A freshly provisioned device.
    Provision {
        /// The fingerprint registered for the device.
        fingerprint: DeviceFingerprint,
        /// The spliced per-device artifact bytes.
        artifact: Vec<u8>,
    },
    /// Leak attribution outcome.
    Identify {
        /// The matched device and its extraction stats, if any device
        /// cleared the threshold.
        matched: Option<(DeviceFingerprint, ReportSummary)>,
    },
    /// Container summary.
    Inspect(InspectSummary),
    /// The service has drained and stopped.
    ShutdownComplete,
    /// The queue is full; retry after the given delay.
    Busy {
        /// Suggested client backoff in milliseconds.
        retry_after_ms: u32,
    },
    /// The request failed.
    Error {
        /// Human-readable failure description.
        message: String,
    },
}

// ---------------------------------------------------------------------------
// Frame I/O
// ---------------------------------------------------------------------------

/// Writes one length-prefixed frame.
///
/// # Errors
///
/// Rejects payloads over [`MAX_FRAME_BYTES`] and propagates write failures.
pub fn write_frame<W: IoWrite>(mut w: W, payload: &[u8]) -> std::io::Result<()> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!(
                "frame payload of {} bytes exceeds the {MAX_FRAME_BYTES} byte limit",
                payload.len()
            ),
        ));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one length-prefixed frame. Returns `Ok(None)` on clean EOF before
/// the first length byte; EOF mid-frame is an error.
///
/// # Errors
///
/// Rejects oversized length prefixes and propagates read failures.
pub fn read_frame<R: IoRead>(mut r: R) -> std::io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    let mut filled = 0;
    while filled < len.len() {
        let n = r.read(&mut len[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed mid-frame (length prefix truncated)",
            ));
        }
        filled += n;
    }
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame payload of {len} bytes exceeds the {MAX_FRAME_BYTES} byte limit"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

// ---------------------------------------------------------------------------
// Payload codec
// ---------------------------------------------------------------------------

fn put_blob(buf: &mut BytesMut, blob: &Blob) {
    match blob {
        Blob::Inline(bytes) => {
            buf.put_u8(BLOB_INLINE);
            buf.put_u64_le(bytes.len() as u64);
            buf.put_slice(bytes);
        }
        Blob::Path(path) => {
            buf.put_u8(BLOB_PATH);
            put_string(buf, path);
        }
    }
}

fn read_blob(r: &mut Reader<'_>) -> Result<Blob, CodecError> {
    match r.u8("blob tag")? {
        BLOB_INLINE => {
            let len = r.u64("blob length")? as usize;
            Ok(Blob::Inline(r.take(len, "blob bytes")?.to_vec()))
        }
        BLOB_PATH => Ok(Blob::Path(r.string("blob path")?)),
        _ => Err(r.corrupt("unknown blob tag")),
    }
}

/// A payload's magic, protocol version and id, in a buffer with room
/// for `body` more bytes beyond a small reply.
fn payload_header(magic: &[u8; 4], id: u64, body: usize) -> BytesMut {
    let mut buf = BytesMut::with_capacity(64 + body);
    buf.put_slice(magic);
    buf.put_u32_le(PROTOCOL_VERSION);
    buf.put_u64_le(id);
    buf
}

fn open_payload<'a>(
    magic: &'static [u8; 4],
    bytes: &'a [u8],
) -> Result<(u64, Reader<'a>), CodecError> {
    let mut r = Reader::new(bytes, Section::Service);
    r.magic(magic)?;
    let version = r.u32("protocol version")?;
    if version != PROTOCOL_VERSION {
        return Err(CodecError::BadVersion(version));
    }
    let id = r.u64("request id")?;
    Ok((id, r))
}

/// Encodes a request payload (framing is applied separately by
/// [`write_frame`]).
pub fn encode_request(id: u64, req: &Request) -> Vec<u8> {
    let mut buf = payload_header(REQUEST_MAGIC, id, 0);
    match req {
        Request::Ping => buf.put_u8(OP_PING),
        Request::Verify {
            secrets,
            suspect,
            log10_threshold,
        } => {
            buf.put_u8(OP_VERIFY);
            put_blob(&mut buf, secrets);
            put_blob(&mut buf, suspect);
            buf.put_f64_le(*log10_threshold);
        }
        Request::Provision {
            secrets,
            fingerprint_config,
            device_id,
        } => {
            buf.put_u8(OP_PROVISION);
            put_blob(&mut buf, secrets);
            put_watermark_config(&mut buf, fingerprint_config);
            put_string(&mut buf, device_id);
        }
        Request::IdentifyLeak {
            secrets,
            registry,
            suspect,
            log10_threshold,
            linear,
        } => {
            buf.put_u8(OP_IDENTIFY);
            put_blob(&mut buf, secrets);
            put_blob(&mut buf, registry);
            put_blob(&mut buf, suspect);
            buf.put_f64_le(*log10_threshold);
            buf.put_u8(u8::from(*linear));
        }
        Request::Inspect { target } => {
            buf.put_u8(OP_INSPECT);
            put_blob(&mut buf, target);
        }
        Request::Shutdown => buf.put_u8(OP_SHUTDOWN),
    }
    buf.into()
}

/// Decodes a request payload into its id and [`Request`].
///
/// # Errors
///
/// Any [`CodecError`] for a malformed payload, including trailing bytes.
pub fn decode_request(bytes: &[u8]) -> Result<(u64, Request), CodecError> {
    let (id, mut r) = open_payload(REQUEST_MAGIC, bytes)?;
    let req = match r.u8("request op")? {
        OP_PING => Request::Ping,
        OP_VERIFY => Request::Verify {
            secrets: read_blob(&mut r)?,
            suspect: read_blob(&mut r)?,
            log10_threshold: r.f64("log10 threshold")?,
        },
        OP_PROVISION => Request::Provision {
            secrets: read_blob(&mut r)?,
            fingerprint_config: r.watermark_config()?,
            device_id: r.string("device id")?,
        },
        OP_IDENTIFY => Request::IdentifyLeak {
            secrets: read_blob(&mut r)?,
            registry: read_blob(&mut r)?,
            suspect: read_blob(&mut r)?,
            log10_threshold: r.f64("log10 threshold")?,
            linear: r.u8("linear flag")? != 0,
        },
        OP_INSPECT => Request::Inspect {
            target: read_blob(&mut r)?,
        },
        OP_SHUTDOWN => Request::Shutdown,
        _ => return Err(r.corrupt("unknown request op")),
    };
    if r.offset() != bytes.len() {
        return Err(r.corrupt("trailing bytes after request body"));
    }
    Ok((id, req))
}

fn put_report(buf: &mut BytesMut, report: &ReportSummary) {
    buf.put_u64_le(report.total_bits);
    buf.put_u64_le(report.matched_bits);
    buf.put_f64_le(report.wer);
    buf.put_f64_le(report.log10_p_chance);
}

fn read_report(r: &mut Reader<'_>) -> Result<ReportSummary, CodecError> {
    Ok(ReportSummary {
        total_bits: r.u64("total bits")?,
        matched_bits: r.u64("matched bits")?,
        wer: r.f64("wer")?,
        log10_p_chance: r.f64("log10 p chance")?,
    })
}

fn put_fingerprint(buf: &mut BytesMut, fp: &DeviceFingerprint) {
    put_string(buf, &fp.device_id);
    buf.put_u64_le(fp.selection_seed);
    buf.put_u64_le(fp.signature_seed);
}

fn read_fingerprint(r: &mut Reader<'_>) -> Result<DeviceFingerprint, CodecError> {
    Ok(DeviceFingerprint {
        device_id: r.string("device id")?,
        selection_seed: r.u64("selection seed")?,
        signature_seed: r.u64("signature seed")?,
    })
}

/// Everything of a [`Response::Provision`] body before the artifact
/// bytes; the worker splices the artifact straight in behind it.
fn put_provision_head(buf: &mut BytesMut, fingerprint: &DeviceFingerprint, artifact_len: usize) {
    buf.put_u8(RESP_PROVISION);
    put_fingerprint(buf, fingerprint);
    buf.put_u64_le(artifact_len as u64);
}

/// Encodes a response payload (framing is applied separately by
/// [`write_frame`]).
pub fn encode_response(id: u64, resp: &Response) -> Vec<u8> {
    let mut buf = payload_header(RESPONSE_MAGIC, id, 0);
    match resp {
        Response::Pong => buf.put_u8(RESP_PONG),
        Response::Verify { report, proved } => {
            buf.put_u8(RESP_VERIFY);
            put_report(&mut buf, report);
            buf.put_u8(u8::from(*proved));
        }
        Response::Provision {
            fingerprint,
            artifact,
        } => {
            put_provision_head(&mut buf, fingerprint, artifact.len());
            buf.put_slice(artifact);
        }
        Response::Identify { matched } => {
            buf.put_u8(RESP_IDENTIFY);
            match matched {
                Some((fp, report)) => {
                    buf.put_u8(1);
                    put_fingerprint(&mut buf, fp);
                    put_report(&mut buf, report);
                }
                None => buf.put_u8(0),
            }
        }
        Response::Inspect(summary) => {
            buf.put_u8(RESP_INSPECT);
            match summary {
                InspectSummary::Artifact {
                    format_version,
                    scheme,
                    layers,
                    cells,
                } => {
                    buf.put_u8(0);
                    buf.put_u32_le(*format_version);
                    put_string(&mut buf, scheme);
                    buf.put_u32_le(*layers);
                    buf.put_u64_le(*cells);
                }
                InspectSummary::Bundle {
                    device_count,
                    fingerprint_config,
                } => {
                    buf.put_u8(1);
                    buf.put_u32_le(*device_count);
                    put_watermark_config(&mut buf, fingerprint_config);
                }
                InspectSummary::Manifest {
                    shard_count,
                    device_count,
                } => {
                    buf.put_u8(2);
                    buf.put_u32_le(*shard_count);
                    buf.put_u64_le(*device_count);
                }
                InspectSummary::Registry {
                    device_count,
                    fingerprint_config,
                } => {
                    buf.put_u8(3);
                    buf.put_u32_le(*device_count);
                    put_watermark_config(&mut buf, fingerprint_config);
                }
                InspectSummary::Secrets {
                    layers,
                    signature_bits,
                } => {
                    buf.put_u8(4);
                    buf.put_u32_le(*layers);
                    buf.put_u32_le(*signature_bits);
                }
            }
        }
        Response::ShutdownComplete => buf.put_u8(RESP_SHUTDOWN),
        Response::Busy { retry_after_ms } => {
            buf.put_u8(RESP_BUSY);
            buf.put_u32_le(*retry_after_ms);
        }
        Response::Error { message } => {
            buf.put_u8(RESP_ERROR);
            put_string(&mut buf, message);
        }
    }
    buf.into()
}

/// Decodes a response payload into its id and [`Response`].
///
/// # Errors
///
/// Any [`CodecError`] for a malformed payload, including trailing bytes.
pub fn decode_response(bytes: &[u8]) -> Result<(u64, Response), CodecError> {
    let (id, mut r) = open_payload(RESPONSE_MAGIC, bytes)?;
    let resp = match r.u8("response tag")? {
        RESP_PONG => Response::Pong,
        RESP_VERIFY => Response::Verify {
            report: read_report(&mut r)?,
            proved: r.u8("proved flag")? != 0,
        },
        RESP_PROVISION => {
            let fingerprint = read_fingerprint(&mut r)?;
            let len = r.u64("artifact length")? as usize;
            Response::Provision {
                fingerprint,
                artifact: r.take(len, "artifact bytes")?.to_vec(),
            }
        }
        RESP_IDENTIFY => {
            let matched = if r.u8("match flag")? != 0 {
                let fp = read_fingerprint(&mut r)?;
                let report = read_report(&mut r)?;
                Some((fp, report))
            } else {
                None
            };
            Response::Identify { matched }
        }
        RESP_INSPECT => {
            let summary = match r.u8("inspect kind")? {
                0 => InspectSummary::Artifact {
                    format_version: r.u32("format version")?,
                    scheme: r.string("scheme")?,
                    layers: r.u32("layer count")?,
                    cells: r.u64("cell count")?,
                },
                1 => InspectSummary::Bundle {
                    device_count: r.u32("device count")?,
                    fingerprint_config: r.watermark_config()?,
                },
                2 => InspectSummary::Manifest {
                    shard_count: r.u32("shard count")?,
                    device_count: r.u64("device count")?,
                },
                3 => InspectSummary::Registry {
                    device_count: r.u32("device count")?,
                    fingerprint_config: r.watermark_config()?,
                },
                4 => InspectSummary::Secrets {
                    layers: r.u32("layer count")?,
                    signature_bits: r.u32("signature bits")?,
                },
                _ => return Err(r.corrupt("unknown inspect kind")),
            };
            Response::Inspect(summary)
        }
        RESP_SHUTDOWN => Response::ShutdownComplete,
        RESP_BUSY => Response::Busy {
            retry_after_ms: r.u32("retry after ms")?,
        },
        RESP_ERROR => Response::Error {
            message: r.string("error message")?,
        },
        _ => return Err(r.corrupt("unknown response tag")),
    };
    if r.offset() != bytes.len() {
        return Err(r.corrupt("trailing bytes after response body"));
    }
    Ok((id, resp))
}

/// Recovers the request id from a payload whose body may be malformed, so an
/// error response can still be correlated. Zero when even the header is
/// unreadable.
fn peek_request_id(bytes: &[u8]) -> u64 {
    if bytes.len() >= 16 && &bytes[..4] == REQUEST_MAGIC {
        u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"))
    } else {
        0
    }
}

fn peek_op(bytes: &[u8]) -> Option<u8> {
    if bytes.len() >= 17 && &bytes[..4] == REQUEST_MAGIC {
        Some(bytes[16])
    } else {
        None
    }
}

// ---------------------------------------------------------------------------
// Locks
// ---------------------------------------------------------------------------

/// Locks `m`, recovering the guard when a panicking holder poisoned it.
/// Every service lock guards plain bookkeeping (queue, counters, cache
/// maps) whose critical sections leave it consistent at every step, so
/// one request's panic must not wedge every later request.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`Condvar::wait`] with [`lock`]'s poison recovery.
fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// Resident-memory budget
// ---------------------------------------------------------------------------

/// A shared byte budget over loaded artifacts. A request blocks until its
/// first allocation fits; follow-up allocations by a holder overdraft rather
/// than deadlock (at least one holder can always make progress).
struct ResidentBudget {
    cap: Option<u64>,
    used: Mutex<u64>,
    freed: Condvar,
}

impl ResidentBudget {
    fn new(cap: Option<u64>) -> Self {
        ResidentBudget {
            cap,
            used: Mutex::new(0),
            freed: Condvar::new(),
        }
    }
}

/// Per-request guard over [`ResidentBudget`]; releases everything on drop.
struct BudgetLease<'a> {
    budget: &'a ResidentBudget,
    held: u64,
}

impl<'a> BudgetLease<'a> {
    fn new(budget: &'a ResidentBudget) -> Self {
        BudgetLease { budget, held: 0 }
    }

    fn charge(&mut self, n: u64) {
        let Some(cap) = self.budget.cap else {
            return;
        };
        let mut used = lock(&self.budget.used);
        if self.held == 0 {
            // Clamp so one oversized request overdrafts instead of waiting
            // forever on room that can never exist.
            let need = n.min(cap);
            while *used + need > cap {
                used = wait(&self.budget.freed, used);
            }
        }
        *used += n;
        self.held += n;
        if Telemetry::enabled() {
            SERVICE_RESIDENT_BYTES.set(*used as i64);
        }
    }
}

impl Drop for BudgetLease<'_> {
    fn drop(&mut self) {
        if self.held > 0 {
            let mut used = lock(&self.budget.used);
            *used = used.saturating_sub(self.held);
            if Telemetry::enabled() {
                SERVICE_RESIDENT_BYTES.set(*used as i64);
            }
            self.budget.freed.notify_all();
        }
    }
}

// ---------------------------------------------------------------------------
// Warm family cache
// ---------------------------------------------------------------------------

/// Hashable key for a fingerprint configuration ([`WatermarkConfig`] holds
/// `f64`s so cannot implement `Hash` itself).
type FpKey = (u64, u64, usize, usize, u64);

fn fp_key(cfg: &WatermarkConfig) -> FpKey {
    (
        cfg.alpha.to_bits(),
        cfg.beta.to_bits(),
        cfg.bits_per_layer,
        cfg.pool_ratio,
        cfg.selection_seed,
    )
}

/// A cached value that concurrent requests build at most once: the first
/// request to need it builds it, outside every lock, and the others wait
/// on the same cell. A failed build goes to every request waiting on it,
/// then [`forget`] drops the slot so a later request retries; a panicking
/// build leaves the cell empty for the next request.
type Slot<T> = Arc<OnceLock<Result<Arc<T>, String>>>;

/// The slot's value when a build has succeeded, counted as a cache hit.
fn built<T>(slot: &Slot<T>) -> Option<Arc<T>> {
    let value = slot.get()?.as_ref().ok().cloned()?;
    if Telemetry::enabled() {
        SERVICE_CACHE_HITS.incr();
    }
    Some(value)
}

/// The slot's value, built by `build` unless another request has built
/// it or is building it; counts the service-cache hit or miss.
fn resolve<T>(
    slot: &Slot<T>,
    build: impl FnOnce() -> Result<T, ServiceError>,
) -> Result<Arc<T>, ServiceError> {
    let mut missed = false;
    let value = slot.get_or_init(|| {
        missed = true;
        build().map(Arc::new).map_err(|e| e.to_string())
    });
    if Telemetry::enabled() {
        if missed {
            SERVICE_CACHE_MISSES.incr();
        } else {
            SERVICE_CACHE_HITS.incr();
        }
    }
    value.clone().map_err(ServiceError::Other)
}

/// `map`'s slot for `key`, inserted empty when absent.
fn slot<K: Eq + Hash, T>(map: &Mutex<HashMap<K, Slot<T>>>, key: K) -> Slot<T> {
    let mut map = lock(map);
    Arc::clone(map.entry(key).or_default())
}

/// Drops `map`'s slot for `key` if it is still `slot`: a failed build is
/// not cached.
fn forget<K: Eq + Hash, T>(map: &Mutex<HashMap<K, Slot<T>>>, key: &K, slot: &Slot<T>) {
    let mut map = lock(map);
    if map.get(key).is_some_and(|s| Arc::ptr_eq(s, slot)) {
        map.remove(key);
    }
}

/// Everything kept warm for one owner vault: the located [`Family`], and
/// per fingerprint config one provisioner, whose family cache every
/// verifier of that config shares — so a (vault, fingerprint config)
/// pair is scored once, whichever operation asks for it first.
/// `verifiers` is keyed by registry content; a registry path rewritten
/// under a new stamp evicts the verifier of its previous content.
struct FamilyEntry {
    family: Arc<Family>,
    provisioners: Mutex<HashMap<FpKey, Slot<FleetProvisioner>>>,
    verifiers: Mutex<HashMap<CacheKey, Slot<FleetVerifier>>>,
}

impl FamilyEntry {
    /// Opens the vault as the CLI does ([`Family::open`]), over the
    /// bytes already read and hashed.
    fn load(bytes: Vec<u8>) -> Result<Self, ServiceError> {
        Ok(FamilyEntry {
            family: Arc::new(open_family_bytes(bytes)?),
            provisioners: Mutex::new(HashMap::new()),
            verifiers: Mutex::new(HashMap::new()),
        })
    }

    fn provisioner(&self, fp_cfg: &WatermarkConfig) -> Result<Arc<FleetProvisioner>, ServiceError> {
        let key = fp_key(fp_cfg);
        let slot = slot(&self.provisioners, key);
        resolve(&slot, || {
            Ok(FleetProvisioner::for_family(
                Arc::clone(&self.family),
                *fp_cfg,
            )?)
        })
        .inspect_err(|_| forget(&self.provisioners, &key, &slot))
    }
}

/// Cache identity for raw input bytes (vaults, registries): two
/// independently seeded FNV-style passes plus the input length. A
/// single 64-bit non-cryptographic hash is too narrow to key cached
/// secrets on — a collision would silently serve one family's entry
/// for another — and widening the key to 128 bits plus the length
/// makes accidental aliasing implausible without a byte compare.
type CacheKey = (u64, u64);

fn cache_key(bytes: &[u8]) -> CacheKey {
    let mut h2 = 0x6c62_272e_07bb_0142_u64 ^ (bytes.len() as u64);
    for &b in bytes {
        h2 = (h2 ^ b as u64)
            .wrapping_mul(0x0100_0000_01b3)
            .rotate_left(5);
    }
    (fxhash(bytes), h2)
}

/// Identity stamp for a vault or registry file: modification time plus
/// length. While the stamp is unchanged, a path blob resolves to its
/// previously hashed cache key without re-reading the file, so the
/// warm-path cost of a request does not scale with vault or manifest
/// size.
type PathStamp = (u128, u64);

/// A path blob's path and stamp as of the start of a request (`None` for
/// inline blobs and paths that cannot be stat'ed).
type Stamped = Option<(String, PathStamp)>;

fn stat_stamp(path: &str) -> Option<PathStamp> {
    let meta = std::fs::metadata(path).ok()?;
    let mtime = meta
        .modified()
        .ok()?
        .duration_since(std::time::UNIX_EPOCH)
        .ok()?
        .as_nanos();
    Some((mtime, meta.len()))
}

/// Most entries the path→key side table holds before it is reset; a
/// backstop against clients cycling through endless one-shot paths.
const PATH_KEY_CAP: usize = 1024;

/// A small LRU of warm [`FamilyEntry`]s keyed by the vault byte hash,
/// with a path→key side table that lets unchanged vault and registry
/// files skip the read-and-hash on every warm request.
struct FamilyLru {
    capacity: usize,
    tick: u64,
    entries: HashMap<CacheKey, (u64, Slot<FamilyEntry>)>,
    path_keys: HashMap<String, (PathStamp, CacheKey)>,
}

impl FamilyLru {
    fn new(capacity: usize) -> Self {
        FamilyLru {
            capacity: capacity.max(1),
            tick: 0,
            entries: HashMap::new(),
            path_keys: HashMap::new(),
        }
    }
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Any failure while serving one request; rendered into a
/// [`Response::Error`].
#[derive(Debug)]
enum ServiceError {
    Codec(CodecError),
    Watermark(WatermarkError),
    Store(StoreError),
    Io {
        what: String,
        source: std::io::Error,
    },
    Other(String),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Codec(e) => write!(f, "{e}"),
            ServiceError::Watermark(e) => write!(f, "{e}"),
            ServiceError::Store(e) => write!(f, "{e}"),
            ServiceError::Io { what, source } => write!(f, "while {what}: {source}"),
            ServiceError::Other(msg) => f.write_str(msg),
        }
    }
}

impl From<CodecError> for ServiceError {
    fn from(e: CodecError) -> Self {
        ServiceError::Codec(e)
    }
}

impl From<WatermarkError> for ServiceError {
    fn from(e: WatermarkError) -> Self {
        ServiceError::Watermark(e)
    }
}

impl From<StoreError> for ServiceError {
    fn from(e: StoreError) -> Self {
        ServiceError::Store(e)
    }
}

impl From<ContainerError> for ServiceError {
    fn from(e: ContainerError) -> Self {
        ServiceError::Other(e.to_string())
    }
}

// ---------------------------------------------------------------------------
// The service
// ---------------------------------------------------------------------------

/// Tunables for [`Service`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads. `0` runs no threads: requests queue until
    /// [`Service::drain_pending`] processes them inline (deterministic
    /// tests).
    pub workers: usize,
    /// Bounded queue capacity; submissions beyond it get [`Response::Busy`].
    pub queue_capacity: usize,
    /// Warm family (vault) entries kept behind the LRU. This — not
    /// `max_resident_bytes` — is what bounds steady-state cache memory:
    /// resident memory is roughly this many vaults' bytes plus their
    /// location tables and sub-caches.
    pub cache_capacity: usize,
    /// Shared cap on *transient per-request* bytes, if any: inline blobs
    /// and vault/registry reads at their size, a path-blob suspect at
    /// what its file-backed open holds (index and read window — the
    /// file itself is never resident), and a provision reply at its
    /// artifact length. Leases release when the request finishes; warm
    /// `FamilyLru` entries are not charged against this budget — size
    /// those via `cache_capacity`.
    pub max_resident_bytes: Option<u64>,
    /// Backoff hint carried in [`Response::Busy`].
    pub retry_after_ms: u32,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(2),
            queue_capacity: 64,
            cache_capacity: 4,
            max_resident_bytes: None,
            retry_after_ms: 50,
        }
    }
}

struct Job {
    payload: Vec<u8>,
    reply: Box<dyn FnOnce(Vec<u8>) + Send>,
}

struct QueueState {
    queue: VecDeque<Job>,
    in_flight: usize,
    draining: bool,
    stopped: bool,
}

struct Inner {
    cfg: ServiceConfig,
    state: Mutex<QueueState>,
    work_cv: Condvar,
    idle_cv: Condvar,
    cache: Mutex<FamilyLru>,
    budget: ResidentBudget,
}

/// The `emmarkd` request scheduler: a bounded queue drained by a worker
/// pool, holding the warm family cache and the resident-byte budget.
pub struct Service {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
    stopped_flag: Arc<AtomicBool>,
}

impl Service {
    /// Starts the service with `cfg.workers` threads (zero for manual
    /// drain).
    pub fn start(cfg: ServiceConfig) -> Self {
        let worker_count = cfg.workers;
        let inner = Arc::new(Inner {
            budget: ResidentBudget::new(cfg.max_resident_bytes),
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                in_flight: 0,
                draining: false,
                stopped: false,
            }),
            work_cv: Condvar::new(),
            idle_cv: Condvar::new(),
            cache: Mutex::new(FamilyLru::new(cfg.cache_capacity)),
            cfg,
        });
        let stopped_flag = Arc::new(AtomicBool::new(false));
        let mut workers = Vec::with_capacity(worker_count);
        for i in 0..worker_count {
            let inner = Arc::clone(&inner);
            let flag = Arc::clone(&stopped_flag);
            let handle = std::thread::Builder::new()
                .name(format!("emmarkd-worker-{i}"))
                .stack_size(WORKER_STACK_BYTES)
                .spawn(move || worker_loop(&inner, &flag))
                .expect("spawning an emmarkd worker thread");
            workers.push(handle);
        }
        Service {
            inner,
            workers,
            stopped_flag,
        }
    }

    /// Submits one raw request payload. The reply callback receives the
    /// encoded response payload exactly once — immediately for rejections,
    /// from a worker otherwise.
    pub fn submit(&self, payload: Vec<u8>, reply: Box<dyn FnOnce(Vec<u8>) + Send>) {
        let id = peek_request_id(&payload);
        let is_shutdown = peek_op(&payload) == Some(OP_SHUTDOWN);
        if Telemetry::enabled() {
            SERVICE_REQUESTS.incr();
        }
        {
            let mut state = lock(&self.inner.state);
            if state.stopped || state.draining {
                // This also covers a second Shutdown racing the first:
                // enqueuing it would wedge the drain wait (the queued
                // marker keeps the queue non-empty forever), so every
                // post-drain submission is answered immediately.
                drop(state);
                reply(encode_response(
                    id,
                    &Response::Error {
                        message: "service is shutting down".to_string(),
                    },
                ));
                return;
            }
            if !is_shutdown && state.queue.len() >= self.inner.cfg.queue_capacity {
                drop(state);
                if Telemetry::enabled() {
                    SERVICE_REJECTED.incr();
                }
                reply(encode_response(
                    id,
                    &Response::Busy {
                        retry_after_ms: self.inner.cfg.retry_after_ms,
                    },
                ));
                return;
            }
            if is_shutdown {
                // Same critical section as the enqueue: nothing can slot in
                // behind the shutdown marker.
                state.draining = true;
            }
            state.queue.push_back(Job { payload, reply });
            if Telemetry::enabled() {
                SERVICE_QUEUE_DEPTH.set(state.queue.len() as i64);
            }
        }
        self.inner.work_cv.notify_one();
    }

    /// Submits a typed request and blocks for its typed response. With zero
    /// workers the queue is drained inline first.
    pub fn request(&self, id: u64, req: &Request) -> Response {
        let (tx, rx) = std::sync::mpsc::channel();
        self.submit(
            encode_request(id, req),
            Box::new(move |payload| {
                let _ = tx.send(payload);
            }),
        );
        if self.workers.is_empty() {
            self.drain_pending();
        }
        let payload = rx.recv().expect("the service always replies");
        let (echo, resp) = decode_response(&payload).expect("the service encodes valid responses");
        debug_assert_eq!(echo, id);
        resp
    }

    /// Processes every queued job on the calling thread (zero-worker mode).
    pub fn drain_pending(&self) {
        loop {
            let job = {
                let mut state = lock(&self.inner.state);
                let Some(job) = state.queue.pop_front() else {
                    break;
                };
                state.in_flight += 1;
                if Telemetry::enabled() {
                    SERVICE_QUEUE_DEPTH.set(state.queue.len() as i64);
                }
                job
            };
            let response = process_job(&self.inner, &job.payload, &self.stopped_flag);
            (job.reply)(response);
            let mut state = lock(&self.inner.state);
            state.in_flight -= 1;
            if self.stopped_flag.load(Ordering::SeqCst) {
                state.stopped = true;
            }
            drop(state);
            self.inner.idle_cv.notify_all();
        }
    }

    /// Blocks until a [`Request::Shutdown`] has fully drained the service.
    /// Workers exit on their own once stopped; dropping the service joins
    /// them.
    pub fn wait_stopped(&self) {
        let mut state = lock(&self.inner.state);
        while !state.stopped {
            state = wait(&self.inner.idle_cv, state);
        }
    }

    /// Number of requests currently queued (excluding in-flight ones).
    pub fn queue_depth(&self) -> usize {
        lock(&self.inner.state).queue.len()
    }

    /// Whether a [`Request::Shutdown`] has completed.
    pub fn is_stopped(&self) -> bool {
        lock(&self.inner.state).stopped
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        // Abort mode: pending jobs are dropped unanswered. The graceful path
        // is a Shutdown request followed by wait_stopped.
        {
            let mut state = lock(&self.inner.state);
            state.stopped = true;
        }
        self.inner.work_cv.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(inner: &Arc<Inner>, stopped_flag: &Arc<AtomicBool>) {
    loop {
        let job = {
            let mut state = lock(&inner.state);
            loop {
                if state.stopped {
                    return;
                }
                if let Some(job) = state.queue.pop_front() {
                    state.in_flight += 1;
                    if Telemetry::enabled() {
                        SERVICE_QUEUE_DEPTH.set(state.queue.len() as i64);
                    }
                    break job;
                }
                state = wait(&inner.work_cv, state);
            }
        };
        let response = process_job(inner, &job.payload, stopped_flag);
        (job.reply)(response);
        let mut state = lock(&inner.state);
        state.in_flight -= 1;
        if stopped_flag.load(Ordering::SeqCst) {
            state.stopped = true;
            drop(state);
            inner.work_cv.notify_all();
            inner.idle_cv.notify_all();
            return;
        }
        drop(state);
        inner.idle_cv.notify_all();
    }
}

fn process_job(inner: &Arc<Inner>, payload: &[u8], stopped_flag: &Arc<AtomicBool>) -> Vec<u8> {
    let (id, request) = match decode_request(payload) {
        Ok(decoded) => decoded,
        Err(e) => {
            if Telemetry::enabled() {
                SERVICE_MALFORMED.incr();
            }
            return encode_response(
                peek_request_id(payload),
                &Response::Error {
                    message: format!("malformed request: {e}"),
                },
            );
        }
    };
    let response = match request {
        Request::Ping => Response::Pong,
        Request::Shutdown => {
            // Wait for every other in-flight request (we are one of them).
            let mut state = lock(&inner.state);
            while !(state.queue.is_empty() && state.in_flight <= 1) {
                state = wait(&inner.idle_cv, state);
            }
            stopped_flag.store(true, Ordering::SeqCst);
            drop(state);
            Response::ShutdownComplete
        }
        other => return answer(id, || handle_request(inner, id, other)),
    };
    encode_response(id, &response)
}

/// Runs one request handler and returns its encoded reply payload. A
/// handler error becomes [`Response::Error`]; so does a handler panic,
/// counted in `emmark_service_panics_total`, so the worker survives, the
/// client still gets its reply, and the job's `in_flight` slot is
/// released as usual.
fn answer(id: u64, handler: impl FnOnce() -> Result<Vec<u8>, ServiceError>) -> Vec<u8> {
    let error = match catch_unwind(AssertUnwindSafe(handler)) {
        Ok(Ok(payload)) => return payload,
        Ok(Err(e)) => Response::Error {
            message: e.to_string(),
        },
        Err(payload) => {
            if Telemetry::enabled() {
                SERVICE_PANICS.incr();
            }
            let what = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("non-string panic payload");
            Response::Error {
                message: format!("internal error: request handler panicked: {what}"),
            }
        }
    };
    encode_response(id, &error)
}

/// Serves one request and returns its encoded reply payload.
fn handle_request(inner: &Arc<Inner>, id: u64, request: Request) -> Result<Vec<u8>, ServiceError> {
    let mut lease = BudgetLease::new(&inner.budget);
    match request {
        Request::Verify {
            secrets,
            suspect,
            log10_threshold,
        } => {
            let _span = Span::enter(&SERVICE_VERIFY_NS);
            let family = load_family(inner, secrets, &mut lease)?;
            let report = with_suspect(suspect, &mut lease, |sparse| {
                Ok(family.family.ownership_report(sparse)?)
            })?;
            let proved = report.proves_ownership(log10_threshold);
            Ok(encode_response(
                id,
                &Response::Verify {
                    report: ReportSummary::from(&report),
                    proved,
                },
            ))
        }
        Request::Provision {
            secrets,
            fingerprint_config,
            device_id,
        } => {
            let _span = Span::enter(&SERVICE_PROVISION_NS);
            let family = load_family(inner, secrets, &mut lease)?;
            let provisioner = family.provisioner(&fingerprint_config)?;
            let artifact_len = provisioner.base_artifact().len();
            lease.charge(artifact_len as u64);
            // The device artifact is spliced straight into the reply
            // payload behind its header: one buffer, never a separate
            // artifact copy. Bytes equal encode_response(Provision).
            let (_, payload) = provisioner.provision_artifact_after(&device_id, |fp, len| {
                let mut head = payload_header(RESPONSE_MAGIC, id, len);
                put_provision_head(&mut head, fp, len);
                Vec::from(head)
            })?;
            Ok(payload)
        }
        Request::IdentifyLeak {
            secrets,
            registry,
            suspect,
            log10_threshold,
            linear,
        } => {
            let _span = Span::enter(&SERVICE_IDENTIFY_NS);
            let family = load_family(inner, secrets, &mut lease)?;
            let verifier = load_verifier(inner, &family, registry, &mut lease)?;
            let matched = with_suspect(suspect, &mut lease, |sparse| {
                let matched = if linear {
                    verifier.identify_leak_linear(sparse, log10_threshold)?
                } else {
                    verifier.identify_leak(sparse, log10_threshold)?
                };
                Ok(matched.map(|(fp, r)| (fp.clone(), ReportSummary::from(&r))))
            })?;
            Ok(encode_response(id, &Response::Identify { matched }))
        }
        Request::Inspect { target } => {
            let _span = Span::enter(&SERVICE_INSPECT_NS);
            #[cfg(test)]
            if matches!(&target, Blob::Path(p) if p == tests::PANIC_PATH) {
                panic!("injected handler panic");
            }
            let summary = inspect(target, &mut lease)?;
            Ok(encode_response(id, &Response::Inspect(summary)))
        }
        Request::Ping | Request::Shutdown => unreachable!("handled by process_job"),
    }
}

// ---------------------------------------------------------------------------
// Request helpers
// ---------------------------------------------------------------------------

fn read_path(path: &str, what: &str) -> Result<Vec<u8>, ServiceError> {
    std::fs::read(path).map_err(|source| ServiceError::Io {
        what: format!("reading the {what} at {path}"),
        source,
    })
}

/// The blob's bytes, charged to the lease: an inline blob's are moved
/// out of the request, a path blob's are read.
fn load_blob(blob: Blob, what: &str, lease: &mut BudgetLease<'_>) -> Result<Vec<u8>, ServiceError> {
    let bytes = match blob {
        Blob::Inline(bytes) => bytes,
        Blob::Path(path) => read_path(&path, what)?,
    };
    lease.charge(bytes.len() as u64);
    Ok(bytes)
}

/// Runs `use_suspect` over a suspect artifact. A path blob opens
/// file-backed ([`SparseArtifact::open_file`]): the header, the
/// structural walk and the probed cells are all that is read, and the
/// lease is charged what the open holds, not the file size. An inline
/// blob is borrowed from the request. A file read that failed during
/// `use_suspect` voids its result: the request gets the I/O error.
fn with_suspect<T>(
    blob: Blob,
    lease: &mut BudgetLease<'_>,
    use_suspect: impl FnOnce(&SparseArtifact<'_>) -> Result<T, ServiceError>,
) -> Result<T, ServiceError> {
    match blob {
        Blob::Inline(bytes) => {
            lease.charge(bytes.len() as u64);
            use_suspect(&SparseArtifact::open(&bytes)?)
        }
        Blob::Path(path) => {
            let file = std::fs::File::open(&path).map_err(|source| ServiceError::Io {
                what: format!("reading the suspect artifact at {path}"),
                source,
            })?;
            let sparse = SparseArtifact::open_file(file)?;
            lease.charge(sparse.held_bytes() as u64);
            let result = use_suspect(&sparse);
            sparse.check_reads()?;
            result
        }
    }
}

/// Stats a path blob and returns its stamp together with the cache key
/// its bytes hashed to the last time the file carried that same stamp —
/// so an unchanged file resolves after one `stat`, without a
/// read-and-hash.
fn stamp_lookup(inner: &Inner, blob: &Blob) -> (Stamped, Option<CacheKey>) {
    let Blob::Path(path) = blob else {
        return (None, None);
    };
    let Some(stamp) = stat_stamp(path) else {
        return (None, None);
    };
    let known = lock(&inner.cache)
        .path_keys
        .get(path.as_str())
        .and_then(|(s, key)| (*s == stamp).then_some(*key));
    (Some((path.clone(), stamp)), known)
}

/// Records that the stamped path's bytes hash to `key`. Returns the key
/// the path was recorded under before when that differs: the file was
/// rewritten, and whatever is cached under the old key is superseded.
fn remember_path_key(inner: &Inner, stamped: Stamped, key: CacheKey) -> Option<CacheKey> {
    let (path, stamp) = stamped?;
    let mut lru = lock(&inner.cache);
    if lru.path_keys.len() >= PATH_KEY_CAP && !lru.path_keys.contains_key(&path) {
        lru.path_keys.clear();
    }
    let (_, previous) = lru.path_keys.insert(path, (stamp, key))?;
    (previous != key).then_some(previous)
}

/// The LRU's slot for `key`, its tick refreshed; with `insert`, an empty
/// slot is added when there is none.
fn family_slot(inner: &Inner, key: CacheKey, insert: bool) -> Option<Slot<FamilyEntry>> {
    let mut lru = lock(&inner.cache);
    lru.tick += 1;
    let tick = lru.tick;
    let (at, slot) = if insert {
        lru.entries.entry(key).or_default()
    } else {
        lru.entries.get_mut(&key)?
    };
    *at = tick;
    Some(Arc::clone(slot))
}

fn load_family(
    inner: &Arc<Inner>,
    secrets: Blob,
    lease: &mut BudgetLease<'_>,
) -> Result<Arc<FamilyEntry>, ServiceError> {
    // An unchanged vault path costs a stat, not a half-megabyte
    // read-and-hash.
    let (stamped, known) = stamp_lookup(inner, &secrets);
    if let Some(entry) = known.and_then(|key| built(&family_slot(inner, key, false)?)) {
        return Ok(entry);
    }
    let bytes = load_blob(secrets, "owner vault", lease)?;
    let key = cache_key(&bytes);
    remember_path_key(inner, stamped, key);
    let slot = family_slot(inner, key, true).expect("inserted");
    // Locating the family is the expensive cold-start step: it runs in the
    // slot, outside the LRU lock, so it never serializes unrelated
    // families and runs once however many requests race for this one.
    resolve(&slot, || {
        let entry = FamilyEntry::load(bytes)?;
        let mut lru = lock(&inner.cache);
        while lru.entries.len() > lru.capacity {
            let Some((&oldest, _)) = lru.entries.iter().min_by_key(|(_, (at, _))| *at) else {
                break;
            };
            lru.entries.remove(&oldest);
            if Telemetry::enabled() {
                SERVICE_EVICTIONS.incr();
            }
        }
        Ok(entry)
    })
    .inspect_err(|_| {
        let mut lru = lock(&inner.cache);
        if lru
            .entries
            .get(&key)
            .is_some_and(|(_, s)| Arc::ptr_eq(s, &slot))
        {
            lru.entries.remove(&key);
        }
    })
}

fn load_verifier(
    inner: &Inner,
    family: &FamilyEntry,
    registry: Blob,
    lease: &mut BudgetLease<'_>,
) -> Result<Arc<FleetVerifier>, ServiceError> {
    // An unchanged registry path (a multi-megabyte manifest, typically)
    // costs a stat, not a read-and-hash.
    let (stamped, known) = stamp_lookup(inner, &registry);
    let verifiers = &family.verifiers;
    let hit = |key| built(lock(verifiers).get(&key)?);
    if let Some(verifier) = known.and_then(hit) {
        return Ok(verifier);
    }
    // Shard files resolve beside a manifest path; an inline registry has
    // no directory to resolve them in.
    let shard_dir = match &registry {
        Blob::Path(path) => Path::new(path).parent().map(Path::to_path_buf),
        Blob::Inline(_) => None,
    };
    let bytes = load_blob(registry, "fleet registry", lease)?;
    let key = cache_key(&bytes);
    if let Some(superseded) = remember_path_key(inner, stamped, key) {
        // The path was rewritten: drop its previous content's verifier
        // rather than keep it resident for the life of the family. A
        // client still sending the old bytes simply rebuilds it.
        lock(verifiers).remove(&superseded);
    }
    let slot = slot(verifiers, key);
    resolve(&slot, || {
        build_verifier(family, shard_dir.as_deref(), &bytes)
    })
    .inspect_err(|_| forget(verifiers, &key, &slot))
}

/// A verifier over a registry opened as `fleet-verify` and
/// `identify-leak` open it ([`open_registry`]).
fn build_verifier(
    family: &FamilyEntry,
    shard_dir: Option<&Path>,
    bytes: &[u8],
) -> Result<FleetVerifier, ServiceError> {
    // Copied, not moved out: the originals freed here leave heap space
    // that the per-request suspect buffers then reuse. In the serve-warm
    // mix, moving them saved 3.5 MiB of peak RSS but raised p90 latency
    // from 4.9 to 7.7 ms and cut sustained throughput by a tenth (glibc
    // malloc, 2-vCPU host).
    let (fp_cfg, devices, index) = {
        let registry = open_registry(Input::Bytes(bytes), shard_dir)?;
        let fp_cfg = registry.fingerprint_config;
        (fp_cfg, registry.devices.clone(), registry.index.clone())
    };
    // Every verifier of a fingerprint config shares its provisioner's
    // family cache, so the config is scored once whether a provision or
    // an identify asks for it first. The manifest's pools are not
    // needed: the provisioner scores them.
    let verifier = family.provisioner(&fp_cfg)?.verifier(devices);
    Ok(match index {
        Some(index) => verifier.with_index(index)?,
        None => verifier,
    })
}

/// Summarises a container opened as `emmark inspect` opens it
/// ([`open_container`]). An inline blob is charged at its size; a path
/// blob at what the open holds: an artifact's index and read window,
/// nothing for a bundle (its entries are streamed), and any other
/// container's bytes.
fn inspect(target: Blob, lease: &mut BudgetLease<'_>) -> Result<InspectSummary, ServiceError> {
    let inline;
    let container = match &target {
        Blob::Inline(_) => {
            inline = load_blob(target, "inspection target", lease)?;
            open_container(Input::Bytes(&inline))?
        }
        Blob::Path(path) => {
            let container = open_container(Input::Path(Path::new(path)))?;
            lease.charge(match &container {
                Container::Artifact(artifact) => artifact.held_bytes() as u64,
                Container::Bundle(..) => 0,
                _ => std::fs::metadata(path).map_or(0, |m| m.len()),
            });
            container
        }
    };
    Ok(match container {
        Container::Artifact(artifact) => InspectSummary::Artifact {
            format_version: artifact.format_version(),
            scheme: artifact.scheme().to_string(),
            layers: artifact.layer_count() as u32,
            cells: artifact
                .layer_index()
                .iter()
                .map(|e| e.cells() as u64)
                .sum(),
        },
        // Opened with every check of its key, but L is not recomputed
        // as `emmark inspect` does: that is one more Eqs. 2–4 pass,
        // which the daemon's scoring-cell count would show.
        Container::Vault(family) => InspectSummary::Secrets {
            layers: family.source_layer_count() as u32,
            signature_bits: family.signature_bits() as u32,
        },
        Container::Manifest(manifest) => InspectSummary::Manifest {
            shard_count: manifest.shards.len() as u32,
            device_count: manifest.total_devices,
        },
        Container::Registry(fingerprint_config, devices) => InspectSummary::Registry {
            device_count: devices.len() as u32,
            fingerprint_config,
        },
        Container::Bundle(fingerprint_config, devices) => InspectSummary::Bundle {
            device_count: devices.len() as u32,
            fingerprint_config,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: Request) {
        let payload = encode_request(42, &req);
        let (id, decoded) = decode_request(&payload).expect("round trip");
        assert_eq!(id, 42);
        assert_eq!(decoded, req);
    }

    fn round_trip_response(resp: Response) {
        let payload = encode_response(7, &resp);
        let (id, decoded) = decode_response(&payload).expect("round trip");
        assert_eq!(id, 7);
        assert_eq!(decoded, resp);
    }

    fn sample_report() -> ReportSummary {
        ReportSummary {
            total_bits: 48,
            matched_bits: 47,
            wer: 97.9,
            log10_p_chance: -12.5,
        }
    }

    fn sample_fp() -> DeviceFingerprint {
        DeviceFingerprint {
            device_id: "edge-007".to_string(),
            selection_seed: 0xA5A5,
            signature_seed: 0x5A5A,
        }
    }

    /// One request of every op, with both blob kinds.
    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Ping,
            Request::Shutdown,
            Request::Verify {
                secrets: Blob::Path("/tmp/s.emws".to_string()),
                suspect: Blob::Inline(vec![1, 2, 3]),
                log10_threshold: -9.0,
            },
            Request::Provision {
                secrets: Blob::Inline(vec![9; 16]),
                fingerprint_config: WatermarkConfig {
                    bits_per_layer: 3,
                    pool_ratio: 10,
                    ..WatermarkConfig::default()
                },
                device_id: "device-123".to_string(),
            },
            Request::IdentifyLeak {
                secrets: Blob::Path("/tmp/s.emws".to_string()),
                registry: Blob::Path("/tmp/fleet.emfr".to_string()),
                suspect: Blob::Inline(vec![0xEE; 8]),
                log10_threshold: -6.0,
                linear: true,
            },
            Request::Inspect {
                target: Blob::Inline(vec![0x42]),
            },
        ]
    }

    /// One response of every kind, with every inspect kind.
    fn sample_responses() -> Vec<Response> {
        let fp_cfg = WatermarkConfig {
            bits_per_layer: 2,
            pool_ratio: 10,
            selection_seed: 0xDE11CE,
            ..WatermarkConfig::default()
        };
        vec![
            Response::Pong,
            Response::ShutdownComplete,
            Response::Busy { retry_after_ms: 50 },
            Response::Error {
                message: "boom".to_string(),
            },
            Response::Verify {
                report: sample_report(),
                proved: true,
            },
            Response::Provision {
                fingerprint: sample_fp(),
                artifact: vec![0xAB; 32],
            },
            Response::Identify { matched: None },
            Response::Identify {
                matched: Some((sample_fp(), sample_report())),
            },
            Response::Inspect(InspectSummary::Artifact {
                format_version: 2,
                scheme: "awq-int4".to_string(),
                layers: 2,
                cells: 512,
            }),
            Response::Inspect(InspectSummary::Bundle {
                device_count: 2,
                fingerprint_config: fp_cfg,
            }),
            Response::Inspect(InspectSummary::Manifest {
                shard_count: 3,
                device_count: 3000,
            }),
            Response::Inspect(InspectSummary::Registry {
                device_count: 8,
                fingerprint_config: fp_cfg,
            }),
            Response::Inspect(InspectSummary::Secrets {
                layers: 2,
                signature_bits: 6,
            }),
        ]
    }

    #[test]
    fn request_payloads_round_trip() {
        for req in sample_requests() {
            round_trip_request(req);
        }
    }

    #[test]
    fn response_payloads_round_trip() {
        for resp in sample_responses() {
            round_trip_response(resp);
        }
    }

    /// Every payload cut at every length, and with every byte flipped,
    /// decodes to an error or to a value that re-encodes to a payload
    /// decoding back to it; no mutation panics. The codec is not
    /// canonical (any nonzero flag byte decodes as true), so the check
    /// is on the re-encoding, not on the mutated bytes.
    #[test]
    fn mutated_payloads_decode_to_an_error_or_a_stable_value() {
        type Decode<T> = fn(&[u8]) -> Result<(u64, T), CodecError>;
        fn check<T>(payload: &[u8], decode: Decode<T>, encode: fn(u64, &T) -> Vec<u8>) {
            let mut mutants: Vec<Vec<u8>> =
                (0..payload.len()).map(|n| payload[..n].to_vec()).collect();
            for i in 0..payload.len() {
                for mask in [0x01, 0x80, 0xFF] {
                    let mut flipped = payload.to_vec();
                    flipped[i] ^= mask;
                    mutants.push(flipped);
                }
            }
            for mutant in mutants {
                let Ok((id, value)) = decode(&mutant) else {
                    continue;
                };
                let encoded = encode(id, &value);
                let (again_id, again) = decode(&encoded).expect("a decoded value re-encodes");
                assert_eq!(again_id, id);
                assert_eq!(encode(again_id, &again), encoded, "{mutant:?}");
            }
        }
        for req in sample_requests() {
            check(&encode_request(3, &req), decode_request, encode_request);
        }
        for resp in sample_responses() {
            check(&encode_response(3, &resp), decode_response, encode_response);
        }
    }

    #[test]
    fn malformed_payloads_are_rejected() {
        assert!(decode_request(b"nope").is_err());
        // Wrong magic.
        let mut payload = encode_request(1, &Request::Ping);
        payload[0] = b'X';
        assert!(decode_request(&payload).is_err());
        // Wrong protocol version.
        let mut payload = encode_request(1, &Request::Ping);
        payload[4..8].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            decode_request(&payload),
            Err(CodecError::BadVersion(99))
        ));
        // Unknown op.
        let mut payload = encode_request(1, &Request::Ping);
        payload[16] = 0xCC;
        assert!(decode_request(&payload).is_err());
        // Trailing garbage.
        let mut payload = encode_request(1, &Request::Ping);
        payload.push(0);
        assert!(decode_request(&payload).is_err());
        // Truncated blob.
        let payload = encode_request(
            1,
            &Request::Inspect {
                target: Blob::Inline(vec![1, 2, 3, 4]),
            },
        );
        assert!(decode_request(&payload[..payload.len() - 2]).is_err());
    }

    #[test]
    fn frames_round_trip_and_reject_oversize() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        let mut cursor = std::io::Cursor::new(wire);
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"");
        assert!(read_frame(&mut cursor).unwrap().is_none());

        // Oversized length prefix.
        let bad = ((MAX_FRAME_BYTES + 1) as u32).to_le_bytes();
        assert!(read_frame(std::io::Cursor::new(bad.to_vec())).is_err());

        // EOF mid-frame.
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        wire.truncate(6);
        let mut cursor = std::io::Cursor::new(wire);
        assert!(read_frame(&mut cursor).is_err());
    }

    #[test]
    fn ping_and_shutdown_flow_through_the_pool() {
        let service = Service::start(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
        assert_eq!(service.request(1, &Request::Ping), Response::Pong);
        assert_eq!(
            service.request(2, &Request::Shutdown),
            Response::ShutdownComplete
        );
        service.wait_stopped();
    }

    #[test]
    fn duplicate_shutdowns_do_not_deadlock() {
        // A second Shutdown submitted while the first is draining must be
        // answered immediately — enqueueing it would keep the drain wait
        // stuck on a non-empty queue forever. Exercise both pool widths
        // that used to wedge: one worker (queued second shutdown) and two
        // workers (both shutdowns in flight).
        for workers in [1, 2] {
            let service = Service::start(ServiceConfig {
                workers,
                ..ServiceConfig::default()
            });
            let (tx, rx) = std::sync::mpsc::channel();
            for id in 0..2u64 {
                let tx = tx.clone();
                service.submit(
                    encode_request(id, &Request::Shutdown),
                    Box::new(move |payload| {
                        let _ = tx.send(payload);
                    }),
                );
            }
            let mut responses: Vec<Response> = (0..2)
                .map(|_| {
                    let payload = rx
                        .recv_timeout(std::time::Duration::from_secs(10))
                        .expect("both shutdowns must be answered");
                    decode_response(&payload).unwrap().1
                })
                .collect();
            responses.sort_by_key(|r| matches!(r, Response::ShutdownComplete));
            assert!(matches!(&responses[0], Response::Error { message }
                if message.contains("shutting down")));
            assert_eq!(responses[1], Response::ShutdownComplete);
            service.wait_stopped();
        }
    }

    #[test]
    fn duplicate_shutdowns_drain_inline_without_workers() {
        let service = Service::start(ServiceConfig {
            workers: 0,
            ..ServiceConfig::default()
        });
        let (tx, rx) = std::sync::mpsc::channel();
        for id in 0..2u64 {
            let tx = tx.clone();
            service.submit(
                encode_request(id, &Request::Shutdown),
                Box::new(move |payload| {
                    let _ = tx.send(payload);
                }),
            );
        }
        service.drain_pending();
        let responses: Vec<(u64, Response)> = (0..2)
            .map(|_| decode_response(&rx.recv().unwrap()).unwrap())
            .collect();
        // The second submit is rejected synchronously, so it lands first.
        assert!(matches!(&responses[0], (1, Response::Error { message })
            if message.contains("shutting down")));
        assert_eq!(responses[1], (0, Response::ShutdownComplete));
        assert!(service.is_stopped());
    }

    #[test]
    fn requests_after_shutdown_are_refused() {
        let service = Service::start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        assert_eq!(
            service.request(1, &Request::Shutdown),
            Response::ShutdownComplete
        );
        match service.request(2, &Request::Ping) {
            Response::Error { message } => assert!(message.contains("shutting down")),
            other => panic!("expected an error, got {other:?}"),
        }
    }

    #[test]
    fn full_queue_returns_busy_with_retry_hint() {
        let service = Service::start(ServiceConfig {
            workers: 0,
            queue_capacity: 2,
            retry_after_ms: 123,
            ..ServiceConfig::default()
        });
        let park = |id| {
            service.submit(encode_request(id, &Request::Ping), Box::new(|_| {}));
        };
        park(1);
        park(2);
        let (tx, rx) = std::sync::mpsc::channel();
        service.submit(
            encode_request(3, &Request::Ping),
            Box::new(move |payload| {
                let _ = tx.send(payload);
            }),
        );
        let (id, resp) = decode_response(&rx.recv().unwrap()).unwrap();
        assert_eq!(id, 3);
        assert_eq!(
            resp,
            Response::Busy {
                retry_after_ms: 123
            }
        );
        // The parked jobs still complete once drained.
        service.drain_pending();
        assert_eq!(service.queue_depth(), 0);
    }

    #[test]
    fn malformed_frames_get_error_responses_with_the_peeked_id() {
        let service = Service::start(ServiceConfig {
            workers: 0,
            ..ServiceConfig::default()
        });
        let mut payload = encode_request(77, &Request::Ping);
        payload.push(0xFF); // trailing garbage
        let (tx, rx) = std::sync::mpsc::channel();
        service.submit(
            payload,
            Box::new(move |p| {
                let _ = tx.send(p);
            }),
        );
        service.drain_pending();
        let (id, resp) = decode_response(&rx.recv().unwrap()).unwrap();
        assert_eq!(id, 77);
        match resp {
            Response::Error { message } => assert!(message.contains("malformed")),
            other => panic!("expected an error, got {other:?}"),
        }
    }

    #[test]
    fn budget_lease_blocks_then_releases() {
        let budget = ResidentBudget::new(Some(100));
        let mut a = BudgetLease::new(&budget);
        a.charge(60);
        // A holder may overdraft on follow-up charges.
        a.charge(60);
        assert_eq!(*budget.used.lock().unwrap(), 120);
        drop(a);
        assert_eq!(*budget.used.lock().unwrap(), 0);
        // An oversized first charge clamps instead of deadlocking.
        let mut b = BudgetLease::new(&budget);
        b.charge(10_000);
        assert_eq!(*budget.used.lock().unwrap(), 10_000);
        drop(b);
        assert_eq!(*budget.used.lock().unwrap(), 0);
    }

    /// An Inspect target that makes `handle_request` panic.
    pub(super) const PANIC_PATH: &str = "\0emmark-test-panic";

    #[test]
    fn handler_panics_are_answered_and_the_pool_still_drains() {
        Telemetry::set_enabled(true);
        let before = SERVICE_PANICS.get();
        let (id, caught) = decode_response(&answer(5, || panic!("boom"))).expect("reply");
        assert_eq!(id, 5);
        assert!(
            matches!(&caught, Response::Error { message } if message.ends_with("panicked: boom")),
            "{caught:?}"
        );
        // One worker: if a panic killed it, nothing would answer the
        // requests that follow.
        let service = Service::start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let req = Request::Inspect {
            target: Blob::Path(PANIC_PATH.to_string()),
        };
        for id in 0..2 {
            match service.request(id, &req) {
                Response::Error { message } => {
                    assert!(message.contains("injected handler panic"), "{message}")
                }
                other => panic!("unexpected response {other:?}"),
            }
        }
        assert_eq!(service.request(2, &Request::Ping), Response::Pong);
        // Shutdown waits for in_flight to drop to itself: it completes
        // only if the panicking jobs released their slots.
        assert_eq!(
            service.request(3, &Request::Shutdown),
            Response::ShutdownComplete
        );
        service.wait_stopped();
        assert_eq!(SERVICE_PANICS.get(), before + 3);
    }

    /// A tiny owner vault's secrets and the fingerprint config the
    /// service tests provision with.
    fn family_fixture() -> (crate::watermark::OwnerSecrets, WatermarkConfig) {
        use emmark_nanolm::config::ModelConfig;
        use emmark_nanolm::TransformerModel;
        use emmark_quant::awq::{awq, AwqConfig};

        let mut model = TransformerModel::new(ModelConfig::tiny_test());
        let calib: Vec<Vec<u32>> = (0..4u32)
            .map(|s| (0..16u32).map(|i| (i * 7 + s) % 31).collect())
            .collect();
        let stats = model.collect_activation_stats(&calib);
        let qm = awq(&model, &stats, &AwqConfig::default());
        let base_cfg = WatermarkConfig {
            bits_per_layer: 4,
            pool_ratio: 10,
            ..Default::default()
        };
        let secrets = crate::watermark::OwnerSecrets::new(qm, stats, base_cfg, 0x5E7);
        let fp_cfg = WatermarkConfig {
            bits_per_layer: 3,
            pool_ratio: 10,
            selection_seed: 0xDE11CE,
            ..Default::default()
        };
        (secrets, fp_cfg)
    }

    #[test]
    fn identify_provision_and_verify_share_one_family_and_one_cache() {
        use crate::fleet::encode_registry;
        use crate::vault::encode_secrets;

        let (secrets, fp_cfg) = family_fixture();
        let oracle = FleetProvisioner::new(secrets.clone(), fp_cfg).expect("provisioner");
        let devices: Vec<_> = ["a", "b"]
            .iter()
            .map(|id| oracle.provision_artifact(id))
            .collect();
        let fingerprints: Vec<_> = devices.iter().map(|d| d.fingerprint.clone()).collect();
        let vault = Blob::Inline(encode_secrets(&secrets).to_vec());
        let service = Service::start(ServiceConfig {
            workers: 0,
            ..ServiceConfig::default()
        });
        // Identify before any provision: it builds the config's
        // provisioner, which the provision and the verify then reuse.
        let identify = Request::IdentifyLeak {
            secrets: vault.clone(),
            registry: Blob::Inline(encode_registry(&fp_cfg, &fingerprints).to_vec()),
            suspect: Blob::Inline(devices[1].artifact.clone()),
            log10_threshold: -6.0,
            linear: false,
        };
        match service.request(1, &identify) {
            Response::Identify {
                matched: Some((fp, _)),
            } => assert_eq!(fp, fingerprints[1]),
            other => panic!("unexpected identify response {other:?}"),
        }
        let provision = Request::Provision {
            secrets: vault.clone(),
            fingerprint_config: fp_cfg,
            device_id: "c".to_string(),
        };
        match service.request(2, &provision) {
            Response::Provision { artifact, .. } => {
                assert_eq!(artifact, oracle.provision_artifact("c").artifact)
            }
            other => panic!("unexpected provision response {other:?}"),
        }
        let verify = Request::Verify {
            secrets: vault,
            suspect: Blob::Inline(devices[0].artifact.clone()),
            log10_threshold: -9.0,
        };
        assert!(matches!(
            service.request(3, &verify),
            Response::Verify { proved: true, .. }
        ));

        let lru = service.inner.cache.lock().unwrap();
        assert_eq!(lru.entries.len(), 1, "one vault, one family entry");
        let entry = built(&lru.entries.values().next().expect("one family").1).unwrap();
        let provisioners = entry.provisioners.lock().unwrap();
        let verifiers = entry.verifiers.lock().unwrap();
        assert_eq!((provisioners.len(), verifiers.len()), (1, 1));
        let provisioner = built(provisioners.values().next().unwrap()).unwrap();
        let cache = provisioner.family_cache();
        let verifier = built(verifiers.values().next().unwrap()).unwrap();
        assert!(
            Arc::ptr_eq(cache, &verifier.cache),
            "the verifier must share its provisioner's family cache"
        );
        assert!(
            Arc::ptr_eq(&cache.family, &entry.family),
            "the cache must extend the entry's located family"
        );
    }

    #[test]
    fn rewriting_a_registry_path_evicts_the_superseded_verifier() {
        use crate::fleet::encode_registry;
        use crate::vault::encode_secrets;

        let (secrets, fp_cfg) = family_fixture();
        let provisioner = FleetProvisioner::new(secrets.clone(), fp_cfg).expect("provisioner");
        let registry_path = std::env::temp_dir().join(format!(
            "emmark-svc-unit-{}-registry.emfr",
            std::process::id()
        ));
        let registry = registry_path.display().to_string();
        let vault = Blob::Inline(encode_secrets(&secrets).to_vec());

        let service = Service::start(ServiceConfig {
            workers: 0,
            ..ServiceConfig::default()
        });
        for (round, size) in [2usize, 3].into_iter().enumerate() {
            let ids: Vec<String> = (0..size).map(|i| format!("r{round}-{i}")).collect();
            let devices: Vec<_> = ids
                .iter()
                .map(|id| provisioner.provision_artifact(id))
                .collect();
            let fingerprints: Vec<_> = devices.iter().map(|d| d.fingerprint.clone()).collect();
            std::fs::write(&registry_path, encode_registry(&fp_cfg, &fingerprints))
                .expect("write registry");
            let req = Request::IdentifyLeak {
                secrets: vault.clone(),
                registry: Blob::Path(registry.clone()),
                suspect: Blob::Inline(devices[1].artifact.clone()),
                log10_threshold: -6.0,
                linear: false,
            };
            match service.request(round as u64, &req) {
                Response::Identify {
                    matched: Some((fp, _)),
                } => assert_eq!(fp.device_id, ids[1], "round {round}"),
                other => panic!("round {round}: unexpected response {other:?}"),
            }
            let lru = service.inner.cache.lock().unwrap();
            let family = built(&lru.entries.values().next().expect("one family").1).unwrap();
            assert_eq!(
                family.verifiers.lock().unwrap().len(),
                1,
                "round {round}: the rewritten registry's old verifier must be evicted"
            );
        }
        let _ = std::fs::remove_file(&registry_path);
    }

    #[test]
    fn provision_replies_equal_the_encoded_response() {
        use crate::vault::encode_secrets;

        let (secrets, fp_cfg) = family_fixture();
        let oracle = FleetProvisioner::new(secrets.clone(), fp_cfg).expect("provisioner");
        let service = Service::start(ServiceConfig {
            workers: 0,
            max_resident_bytes: Some(1 << 30),
            ..ServiceConfig::default()
        });
        let request = Request::Provision {
            secrets: Blob::Inline(encode_secrets(&secrets).to_vec()),
            fingerprint_config: fp_cfg,
            device_id: "edge-9".to_string(),
        };
        let (tx, rx) = std::sync::mpsc::channel();
        service.submit(
            encode_request(31, &request),
            Box::new(move |payload| {
                let _ = tx.send(payload);
            }),
        );
        service.drain_pending();
        let device = oracle.provision_artifact("edge-9");
        let expected = encode_response(
            31,
            &Response::Provision {
                fingerprint: device.fingerprint,
                artifact: device.artifact,
            },
        );
        assert!(rx.recv().expect("reply") == expected, "wire bytes differ");
        assert_eq!(*lock(&service.inner.budget.used), 0, "lease released");
    }

    #[test]
    fn a_poisoned_lock_does_not_wedge_the_service() {
        use crate::vault::encode_secrets;

        let (secrets, fp_cfg) = family_fixture();
        let oracle = FleetProvisioner::new(secrets.clone(), fp_cfg).expect("provisioner");
        let service = Service::start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        // Poison the family cache and the queue state from a thread
        // that panics while holding both.
        let inner = Arc::clone(&service.inner);
        let poisoner = std::thread::spawn(move || {
            let _cache = inner.cache.lock();
            let _state = inner.state.lock();
            panic!("poisoning the service locks");
        });
        assert!(poisoner.join().is_err());
        assert!(service.inner.cache.is_poisoned() && service.inner.state.is_poisoned());
        let vault = Blob::Inline(encode_secrets(&secrets).to_vec());
        let device = oracle.provision_artifact("p");
        let verify = Request::Verify {
            secrets: vault.clone(),
            suspect: Blob::Inline(device.artifact.clone()),
            log10_threshold: -9.0,
        };
        assert!(matches!(
            service.request(1, &verify),
            Response::Verify { proved: true, .. }
        ));
        let provision = Request::Provision {
            secrets: vault,
            fingerprint_config: fp_cfg,
            device_id: "p".to_string(),
        };
        match service.request(2, &provision) {
            Response::Provision { artifact, .. } => assert!(artifact == device.artifact),
            other => panic!("unexpected provision response {other:?}"),
        }
        assert_eq!(
            service.request(3, &Request::Shutdown),
            Response::ShutdownComplete
        );
        service.wait_stopped();
    }

    #[test]
    fn a_suspect_truncated_after_open_is_an_error_not_a_verdict() {
        use crate::fleet::encode_registry;
        use crate::vault::encode_secrets;

        let (secrets, fp_cfg) = family_fixture();
        let provisioner = FleetProvisioner::new(secrets.clone(), fp_cfg).expect("provisioner");
        let device = provisioner.provision_artifact("t");
        let path = std::env::temp_dir().join(format!(
            "emmark-svc-unit-{}-truncated.emqm",
            std::process::id()
        ));
        let vault = Blob::Inline(encode_secrets(&secrets).to_vec());
        let registry = Blob::Inline(
            encode_registry(&fp_cfg, std::slice::from_ref(&device.fingerprint)).to_vec(),
        );
        let suspect_blob = || Blob::Path(path.display().to_string());
        let suspect = suspect_blob();
        let requests = [
            Request::Verify {
                secrets: vault.clone(),
                suspect: suspect.clone(),
                log10_threshold: -9.0,
            },
            Request::IdentifyLeak {
                secrets: vault,
                registry,
                suspect,
                log10_threshold: -6.0,
                linear: true,
            },
        ];
        let service = Service::start(ServiceConfig {
            workers: 0,
            ..ServiceConfig::default()
        });
        let first_grid = SparseArtifact::open(&device.artifact)
            .expect("open")
            .layer_index()[0];
        let cut = || {
            std::fs::OpenOptions::new()
                .write(true)
                .open(&path)
                .and_then(|f| f.set_len((first_grid.q_offset + 1) as u64))
                .expect("truncate");
        };
        // Cut the file inside the first grid between open and the cell
        // probes, through the helper every handler reads suspects with.
        let verifier = provisioner.verifier(vec![device.fingerprint.clone()]);
        for identify in [false, true] {
            std::fs::write(&path, &device.artifact).expect("write suspect");
            let mut lease = BudgetLease::new(&service.inner.budget);
            let outcome = with_suspect(suspect_blob(), &mut lease, |sparse| {
                cut();
                if identify {
                    Ok(verifier.identify_leak_linear(sparse, -6.0)?.is_some())
                } else {
                    Ok(verifier.ownership_report(sparse)?.matched_bits > 0)
                }
            });
            match outcome {
                Err(ServiceError::Store(StoreError::Io { .. })) => {}
                other => panic!("identify {identify}: expected an i/o error, got {other:?}"),
            }
        }
        // Requests against the cut file get error replies.
        for (id, request) in requests.iter().enumerate() {
            match service.request(id as u64, request) {
                Response::Error { .. } => {}
                other => panic!("request {id}: expected an error, got {other:?}"),
            }
        }
        let _ = std::fs::remove_file(&path);
    }
}
