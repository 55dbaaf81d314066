//! The `serve-warm` workload: `emmark serve` on a private Unix socket,
//! driven open-loop over the framed `EMSQ`/`EMSR` protocol.
//!
//! One sender thread writes requests at Poisson arrival times and one
//! receiver thread reads replies, over one connection. Latency is timed
//! from each request's *scheduled* send time, so a stall also charges the
//! requests queued behind it. The mix is 70% verify, 20% identify-leak
//! (manifest as a path blob) and 10% provision; every reply is checked.
//!
//! Untraced runs measure a fixed nominal rate, then walk a rate ladder for
//! the highest rate that still meets the p99 limit. Traced runs measure the
//! nominal rate twice (daemon telemetry off, then on), read the daemon's
//! per-request histograms, and replay the warm stages in-process.

use crate::setup::{cli_fingerprint_config, FLEET_DEVICES};
use crate::trace::{Counts, Trace};
use crate::util::{array, mean, percentile, Args, Json, Rng};
use emmark_core::deploy::SparseArtifact;
use emmark_core::provision::FleetProvisioner;
use emmark_core::registry::load_sharded_registry;
use emmark_core::service::{
    decode_response, encode_request, read_frame, write_frame, Blob, Request, Response,
};
use emmark_core::telemetry::Telemetry;
use emmark_core::vault::decode_secrets;
use emmark_core::watermark::{extract_with_locations, locate_watermark};
use std::io::BufReader;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const WORKERS: usize = 2;
const QUEUE: &str = "64";
const CACHE_FAMILIES: &str = "4";
/// Relative to the daemon's working directory, so the socket path stays
/// under the `sun_path` limit wherever the checkout lives.
const SOCKET: &str = "emmarkd.sock";
/// Offered load of the nominal phase, requests per second. Low enough that
/// the median request (a verify) rarely overlaps an identify: at 70/s its
/// p50 sat between the overlapped and the free case, and moved about three
/// times as much from run to run. Capacity is the ladder's job.
const NOMINAL_RPS: f64 = 35.0;
/// Share of an untraced run spent at the nominal rate; the ladder gets
/// the rest.
const NOMINAL_SHARE: f64 = 0.5;
/// The latency limit a ladder rung must meet at p99 (about ten identify
/// service times: below it the rate is set by overload, not by where a
/// short probe's tail happens to land).
const P99_LIMIT_MS: f64 = 250.0;
/// Ladder rungs are `LADDER_FLOOR_RPS * LADDER_STEP^k`, `k < LADDER_RUNGS`
/// (60 to ~970 requests/s in 4% steps).
const LADDER_FLOOR_RPS: f64 = 60.0;
const LADDER_STEP: f64 = 1.04;
const LADDER_RUNGS: usize = 72;
/// Wire thresholds: the CLI defaults of `verify` and `identify-leak`.
const VERIFY_THRESHOLD: f64 = -9.0;
const IDENTIFY_THRESHOLD: f64 = -6.0;
/// How long a reply may take before the run is declared hung.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    Verify,
    Identify,
    Provision,
}

impl Class {
    const ALL: [Class; 3] = [Class::Verify, Class::Identify, Class::Provision];

    fn name(self) -> &'static str {
        match self {
            Class::Verify => "verify",
            Class::Identify => "identify",
            Class::Provision => "provision",
        }
    }

    /// The daemon's in-worker histogram for this class.
    fn histogram(self) -> &'static str {
        match self {
            Class::Verify => "emmark_service_verify_ns",
            Class::Identify => "emmark_service_identify_ns",
            Class::Provision => "emmark_service_provision_ns",
        }
    }
}

/// One scheduled request: when (from phase start), what, and on which
/// suspect or provision id.
#[derive(Clone, Copy)]
struct Planned {
    at: Duration,
    class: Class,
    target: usize,
}

struct Suspect {
    path: String,
    device: Option<String>,
    bytes: u64,
}

struct ServeId {
    id: String,
    selection_seed: u64,
    signature_seed: u64,
    artifact: Vec<u8>,
}

/// The generated inputs the requests name, and what each reply must be.
struct Inputs {
    vault: String,
    manifest: String,
    manifest_bytes: u64,
    suspects: Vec<Suspect>,
    serve_ids: Vec<ServeId>,
}

fn read_tsv(path: &Path) -> Result<Vec<Vec<String>>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    Ok(text
        .lines()
        .filter(|l| !l.is_empty())
        .map(|l| l.split('\t').map(str::to_string).collect())
        .collect())
}

fn file_len(path: &Path) -> Result<u64, String> {
    std::fs::metadata(path)
        .map(|m| m.len())
        .map_err(|e| format!("reading {}: {e}", path.display()))
}

impl Inputs {
    fn load(dir: &Path) -> Result<Self, String> {
        let manifest = dir.join("fleet").join("fleet.emfm");
        let mut suspects = Vec::new();
        for row in read_tsv(&dir.join("suspects.tsv"))? {
            let path = dir.join("suspects").join(&row[0]);
            suspects.push(Suspect {
                bytes: file_len(&path)?,
                path: path.display().to_string(),
                device: (row[1] != "-").then(|| row[1].clone()),
            });
        }
        let mut serve_ids = Vec::new();
        for row in read_tsv(&dir.join("serve_ids.tsv"))? {
            let path = dir
                .join("expected")
                .join("serve")
                .join(format!("{}.emqm", row[0]));
            serve_ids.push(ServeId {
                id: row[0].clone(),
                selection_seed: row[1].parse().map_err(|_| "bad serve_ids.tsv")?,
                signature_seed: row[2].parse().map_err(|_| "bad serve_ids.tsv")?,
                artifact: std::fs::read(&path)
                    .map_err(|e| format!("reading {}: {e}", path.display()))?,
            });
        }
        Ok(Self {
            vault: dir.join("secrets.emws").display().to_string(),
            manifest_bytes: file_len(&manifest)?,
            manifest: manifest.display().to_string(),
            suspects,
            serve_ids,
        })
    }

    fn request(&self, p: &Planned) -> Request {
        let secrets = Blob::Path(self.vault.clone());
        match p.class {
            Class::Verify => Request::Verify {
                secrets,
                suspect: Blob::Path(self.suspects[p.target].path.clone()),
                log10_threshold: VERIFY_THRESHOLD,
            },
            Class::Identify => Request::IdentifyLeak {
                secrets,
                registry: Blob::Path(self.manifest.clone()),
                suspect: Blob::Path(self.suspects[p.target].path.clone()),
                log10_threshold: IDENTIFY_THRESHOLD,
                linear: false,
            },
            Class::Provision => Request::Provision {
                secrets,
                fingerprint_config: cli_fingerprint_config(),
                device_id: self.serve_ids[p.target].id.clone(),
            },
        }
    }

    /// Whether `resp` is the right answer to `p`: verify proves ownership
    /// with every bit matched, identify names the leaking device (none for
    /// a near miss), provision returns the in-process provisioner's entry
    /// and artifact bytes.
    fn check(&self, p: &Planned, resp: &Response) -> bool {
        match (p.class, resp) {
            (Class::Verify, Response::Verify { report, proved }) => {
                *proved && report.total_bits > 0 && report.matched_bits == report.total_bits
            }
            (Class::Identify, Response::Identify { matched }) => {
                match (&self.suspects[p.target].device, matched) {
                    (Some(want), Some((fp, report))) => {
                        &fp.device_id == want && report.matched_bits == report.total_bits
                    }
                    (None, None) => true,
                    _ => false,
                }
            }
            (
                Class::Provision,
                Response::Provision {
                    fingerprint,
                    artifact,
                },
            ) => {
                let want = &self.serve_ids[p.target];
                fingerprint.device_id == want.id
                    && fingerprint.selection_seed == want.selection_seed
                    && fingerprint.signature_seed == want.signature_seed
                    && *artifact == want.artifact
            }
            _ => false,
        }
    }

    /// Bytes the daemon reads from path blobs for `p` (it re-reads every
    /// blob except the vault, whose stat stamp it caches).
    fn blob_bytes(&self, p: &Planned) -> u64 {
        match p.class {
            Class::Verify => self.suspects[p.target].bytes,
            Class::Identify => self.manifest_bytes + self.suspects[p.target].bytes,
            Class::Provision => 0,
        }
    }

    /// Poisson arrivals at `rps` for `secs`, conditioned on their count:
    /// `rps * secs` uniform arrival times, so runs of one length carry the
    /// same number of requests, in the exact 70/20/10 mix, shuffled.
    fn schedule(&self, rng: &mut Rng, rps: f64, secs: f64) -> Vec<Planned> {
        let n = (rps * secs).round().max(1.0) as usize;
        let mut at: Vec<f64> = (0..n).map(|_| rng.unit() * secs).collect();
        at.sort_by(f64::total_cmp);
        let mut classes: Vec<Class> = (0..n)
            .map(|i| match i * 10 / n {
                0..=6 => Class::Verify,
                7 | 8 => Class::Identify,
                _ => Class::Provision,
            })
            .collect();
        for i in (1..n).rev() {
            classes.swap(i, rng.below(i + 1));
        }
        at.into_iter()
            .zip(classes)
            .map(|(t, class)| Planned {
                at: Duration::from_secs_f64(t),
                class,
                target: rng.below(match class {
                    Class::Provision => self.serve_ids.len(),
                    _ => self.suspects.len(),
                }),
            })
            .collect()
    }
}

fn call(stream: &mut UnixStream, id: u64, req: &Request) -> Result<Response, String> {
    write_frame(&mut *stream, &encode_request(id, req)).map_err(|e| format!("sending: {e}"))?;
    let payload = read_frame(&mut *stream)
        .map_err(|e| format!("reading reply: {e}"))?
        .ok_or("daemon closed the connection")?;
    let (echo, resp) = decode_response(&payload).map_err(|e| format!("decoding reply: {e}"))?;
    if echo != id {
        return Err(format!("reply id {echo} for request {id}"));
    }
    Ok(resp)
}

/// A running `emmark serve`. Dropping it without [`Daemon::shutdown`]
/// kills the process (error paths must not leave it behind).
struct Daemon {
    child: Option<Child>,
}

impl Daemon {
    /// Starts the daemon and waits for its first Pong; returns it with
    /// the start-to-Pong time in seconds.
    fn start(emmark: &Path, telemetry: Option<&Path>) -> Result<(Self, f64), String> {
        let _ = std::fs::remove_file(SOCKET);
        let log = std::fs::File::create("emmarkd.log").map_err(|e| e.to_string())?;
        let begin = Instant::now();
        let mut cmd = Command::new(emmark);
        cmd.args([
            "serve",
            "--socket",
            SOCKET,
            "--workers",
            &WORKERS.to_string(),
            "--queue",
            QUEUE,
            "--cache-families",
            CACHE_FAMILIES,
        ]);
        if let Some(path) = telemetry {
            cmd.arg("--telemetry").arg(path);
        }
        let child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("starting {}: {e}", emmark.display()))?;
        let mut daemon = Daemon { child: Some(child) };
        loop {
            if let Some(status) = daemon.child_mut().try_wait().map_err(|e| e.to_string())? {
                return Err(format!("emmark serve exited early: {status}"));
            }
            if let Ok(mut stream) = UnixStream::connect(SOCKET) {
                match call(&mut stream, 0, &Request::Ping)? {
                    Response::Pong => return Ok((daemon, begin.elapsed().as_secs_f64())),
                    other => return Err(format!("expected Pong, got {other:?}")),
                }
            }
            if begin.elapsed() > REPLY_TIMEOUT {
                return Err("emmark serve never answered a Ping".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    fn child_mut(&mut self) -> &mut Child {
        self.child.as_mut().expect("daemon not yet reaped")
    }

    /// Peak resident set size of the daemon (VmHWM), in MiB.
    fn peak_rss_mib(&mut self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child_mut().id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|kib| kib.parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| format!("no VmHWM in {path}"))
    }

    /// In-protocol Shutdown on a fresh connection (every other client
    /// connection must already be closed: an open idle connection keeps
    /// the daemon's handler blocked in `read_frame`), then requires a
    /// drained exit with status 0.
    fn shutdown(mut self) -> Result<(), String> {
        {
            let mut stream = UnixStream::connect(SOCKET).map_err(|e| format!("connecting: {e}"))?;
            stream
                .set_read_timeout(Some(REPLY_TIMEOUT))
                .map_err(|e| e.to_string())?;
            match call(&mut stream, u64::MAX, &Request::Shutdown)? {
                Response::ShutdownComplete => {}
                other => return Err(format!("expected ShutdownComplete, got {other:?}")),
            }
        }
        let begin = Instant::now();
        let mut child = self.child.take().expect("daemon not yet reaped");
        loop {
            if let Some(status) = child.try_wait().map_err(|e| e.to_string())? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("emmark serve exited with {status} after Shutdown"))
                };
            }
            if begin.elapsed() > REPLY_TIMEOUT {
                let _ = child.kill();
                let _ = child.wait();
                return Err("emmark serve answered Shutdown but did not exit".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// What happened to one scheduled request.
struct Outcome {
    class: Class,
    /// Reply time minus scheduled send time.
    latency_ms: f64,
    ok: bool,
    /// Refused with Busy (counted as failed).
    busy: bool,
}

struct Phase {
    outcomes: Vec<Outcome>,
    /// Actual minus scheduled send time, per request.
    late_ms: Vec<f64>,
    /// `encode_request` + `decode_response`, per request.
    codec_us: Vec<f64>,
    /// Phase start to last reply.
    wall_s: f64,
    /// Last reply minus the last scheduled send.
    drain_ms: f64,
}

impl Phase {
    fn latencies(&self, class: Option<Class>) -> Vec<f64> {
        self.outcomes
            .iter()
            .filter(|o| class.is_none_or(|c| o.class == c))
            .map(|o| o.latency_ms)
            .collect()
    }

    fn failed(&self) -> usize {
        self.outcomes.iter().filter(|o| !o.ok).count()
    }

    fn goodput(&self) -> f64 {
        (self.outcomes.len() - self.failed()) as f64 / self.wall_s
    }
}

/// Runs `plan` open-loop over `stream`; request ids are `base + index`.
fn open_loop(
    stream: &UnixStream,
    inputs: &Inputs,
    plan: &[Planned],
    base: u64,
) -> Result<Phase, String> {
    if plan.is_empty() {
        return Err("empty schedule".into());
    }
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    stream
        .set_read_timeout(Some(REPLY_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let start = Instant::now() + Duration::from_millis(5);
    std::thread::scope(|s| {
        let sender = s.spawn(move || -> Result<(Vec<f64>, Vec<f64>), String> {
            let mut writer = stream;
            let mut late = Vec::with_capacity(plan.len());
            let mut encode = Vec::with_capacity(plan.len());
            for (i, p) in plan.iter().enumerate() {
                let req = inputs.request(p);
                let t = Instant::now();
                let payload = encode_request(base + i as u64, &req);
                encode.push(t.elapsed().as_secs_f64() * 1e6);
                let due = start + p.at;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let sent = Instant::now();
                late.push(sent.saturating_duration_since(due).as_secs_f64() * 1e3);
                write_frame(&mut writer, &payload).map_err(|e| format!("sending: {e}"))?;
            }
            Ok((late, encode))
        });

        let mut outcomes: Vec<Option<Outcome>> = (0..plan.len()).map(|_| None).collect();
        let mut decode = vec![0.0; plan.len()];
        let mut last_reply = start;
        let mut received = 0;
        let mut error = None;
        while received < plan.len() {
            let payload = match read_frame(&mut reader) {
                Ok(Some(p)) => p,
                Ok(None) => {
                    error = Some("daemon closed the connection".to_string());
                    break;
                }
                Err(e) => {
                    error = Some(format!("reading replies: {e}"));
                    break;
                }
            };
            let now = Instant::now();
            let decoded = decode_response(&payload);
            let decode_us = now.elapsed().as_secs_f64() * 1e6;
            let (id, resp) = match decoded {
                Ok(d) => d,
                Err(e) => {
                    error = Some(format!("undecodable reply: {e}"));
                    break;
                }
            };
            let Some(i) = id
                .checked_sub(base)
                .map(|i| i as usize)
                .filter(|&i| i < plan.len())
            else {
                error = Some(format!("reply for unknown request id {id}"));
                break;
            };
            if outcomes[i].is_some() {
                error = Some(format!("second reply for request id {id}"));
                break;
            }
            let p = &plan[i];
            decode[i] = decode_us;
            outcomes[i] = Some(Outcome {
                class: p.class,
                latency_ms: now.saturating_duration_since(start + p.at).as_secs_f64() * 1e3,
                ok: inputs.check(p, &resp),
                busy: matches!(resp, Response::Busy { .. }),
            });
            last_reply = now;
            received += 1;
        }
        let (late_ms, encode_us) = sender.join().expect("sender thread panicked")?;
        if let Some(e) = error {
            return Err(e);
        }
        let last_due = start + plan[plan.len() - 1].at;
        Ok(Phase {
            outcomes: outcomes
                .into_iter()
                .map(|o| o.expect("every reply"))
                .collect(),
            late_ms,
            codec_us: encode_us.iter().zip(&decode).map(|(e, d)| e + d).collect(),
            wall_s: last_reply.duration_since(start).as_secs_f64(),
            drain_ms: last_reply.saturating_duration_since(last_due).as_secs_f64() * 1e3,
        })
    })
}

/// A ladder rung passes when nothing failed, p99 meets the limit, and the
/// backlog did not grow: the last reply came within the limit of the last
/// scheduled send.
fn rung_passes(phase: &Phase) -> bool {
    phase.failed() == 0
        && percentile(&phase.latencies(None), 99.0) <= P99_LIMIT_MS
        && phase.drain_ms <= P99_LIMIT_MS
}

/// What the ladder found.
struct Ladder {
    /// Goodput measured at the highest passing rung.
    sustained_rps: f64,
    /// One JSON object per probe, in probe order.
    probes: Vec<String>,
    /// Replies that were neither right nor Busy (refusals are expected
    /// above capacity; wrong answers never are).
    wrong: usize,
}

/// Bisects the rate ladder for its highest passing rung.
fn ladder(
    stream: &UnixStream,
    inputs: &Inputs,
    rng: &mut Rng,
    probe_secs: f64,
    next_id: &mut u64,
) -> Result<Ladder, String> {
    let rate = |k: usize| LADDER_FLOOR_RPS * LADDER_STEP.powi(k as i32);
    // The ladder is taken to be monotone: rungs below `lo` pass, rung `hi`
    // fails (or is past the top).
    let (mut lo, mut hi) = (0, LADDER_RUNGS);
    let mut out = Ladder {
        sustained_rps: 0.0,
        probes: Vec::new(),
        wrong: 0,
    };
    let mut retried = false;
    while lo < hi {
        let k = lo + (hi - lo) / 2;
        let plan = inputs.schedule(rng, rate(k), probe_secs);
        let phase = open_loop(stream, inputs, &plan, *next_id)?;
        *next_id += plan.len() as u64;
        out.wrong += phase.outcomes.iter().filter(|o| !o.ok && !o.busy).count();
        let pass = rung_passes(&phase);
        out.probes.push(
            Json::default()
                .num("rps", rate(k))
                .bool("pass", pass)
                .num("p99_ms", percentile(&phase.latencies(None), 99.0))
                .num("drain_ms", phase.drain_ms)
                .int("failed", phase.failed() as u64)
                .num("goodput", phase.goodput())
                .finish(),
        );
        if pass {
            out.sustained_rps = phase.goodput();
            lo = k + 1;
        } else if !retried {
            // One stall can sink a short probe: a rung fails only when a
            // second probe at it fails too.
            retried = true;
            continue;
        } else {
            hi = k;
        }
        retried = false;
    }
    Ok(out)
}

/// Span events and final counters from the daemon's `--telemetry` JSONL.
struct DaemonTelemetry {
    /// `(histogram name, ns)` for every span completed after priming.
    spans: Vec<(String, u64)>,
    counters: Vec<(String, u64)>,
}

fn json_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let at = line.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = &line[at..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim_matches('"'))
}

impl DaemonTelemetry {
    /// Priming sends verify, identify, then provision, one at a time, so
    /// every event up to the first provision span belongs to priming.
    fn parse(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let mut spans = Vec::new();
        let mut counters = Vec::new();
        let mut primed = false;
        for line in text.lines() {
            let (Some(kind), Some(name)) = (json_field(line, "type"), json_field(line, "name"))
            else {
                continue;
            };
            match kind {
                "span" => {
                    let ns = json_field(line, "ns")
                        .and_then(|v| v.parse().ok())
                        .unwrap_or(0);
                    if primed {
                        spans.push((name.to_string(), ns));
                    } else if name == Class::Provision.histogram() {
                        primed = true;
                    }
                }
                "counter" => {
                    let v = json_field(line, "value")
                        .and_then(|v| v.parse().ok())
                        .unwrap_or(0);
                    counters.push((name.to_string(), v));
                }
                _ => {}
            }
        }
        Ok(Self { spans, counters })
    }

    fn span_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|(n, _)| n == name)
            .map(|&(_, ns)| ns as f64)
            .collect()
    }

    fn counter(&self, name: &str) -> f64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |&(_, v)| v as f64)
    }
}

/// Sends one request of each class synchronously, so the family, the
/// manifest's verifier and the provisioner are cached before timing.
fn prime(stream: &mut UnixStream, inputs: &Inputs) -> Result<(), String> {
    let leak = inputs
        .suspects
        .iter()
        .position(|s| s.device.is_some())
        .ok_or("no leaked suspect")?;
    for (i, class) in Class::ALL.into_iter().enumerate() {
        let p = Planned {
            at: Duration::ZERO,
            class,
            target: if class == Class::Provision { 0 } else { leak },
        };
        let resp = call(stream, 1 + i as u64, &inputs.request(&p))?;
        if !inputs.check(&p, &resp) {
            return Err(format!("priming {}: wrong reply {resp:?}", class.name()));
        }
    }
    Ok(())
}

/// One daemon lifetime: start (`reps` times, keeping the last), prime,
/// run `body` on a connection, read peak RSS, close, shut down.
fn with_daemon<T>(
    emmark: &Path,
    telemetry: Option<&Path>,
    reps: usize,
    inputs: &Inputs,
    body: impl FnOnce(&UnixStream) -> Result<T, String>,
) -> Result<(T, Vec<f64>, f64), String> {
    let mut starts = Vec::new();
    let mut daemon = None;
    for rep in 0..reps.max(1) {
        let (d, secs) = Daemon::start(emmark, telemetry)?;
        starts.push(secs);
        if rep + 1 < reps {
            d.shutdown()?;
        } else {
            daemon = Some(d);
        }
    }
    let mut daemon = daemon.expect("at least one start");
    let mut stream = UnixStream::connect(SOCKET).map_err(|e| format!("connecting: {e}"))?;
    stream
        .set_read_timeout(Some(REPLY_TIMEOUT))
        .map_err(|e| e.to_string())?;
    prime(&mut stream, inputs)?;
    let out = body(&stream)?;
    let rss = daemon.peak_rss_mib()?;
    drop(stream);
    daemon.shutdown()?;
    Ok((out, starts, rss))
}

fn summary(phase: &Phase) -> Json {
    let all = phase.latencies(None);
    Json::default()
        .num("p50_ms", percentile(&all, 50.0))
        .num("p90_ms", percentile(&all, 90.0))
        .num("p99_ms", percentile(&all, 99.0))
        .num("ops_per_s", phase.goodput())
}

pub fn run(args: &Args) -> Result<(), String> {
    let emmark = PathBuf::from(args.str("emmark")?);
    let inputs = Inputs::load(Path::new(args.str("inputs")?))?;
    let work = PathBuf::from(args.str("work")?);
    let seed: u64 = args.num("seed")?;
    let seconds: f64 = args.num("seconds")?;
    let traced = args.str("trace")? == "1";
    let reps: usize = args.num("setup-reps")?;
    std::fs::create_dir_all(&work).map_err(|e| format!("creating {}: {e}", work.display()))?;
    std::env::set_current_dir(&work).map_err(|e| format!("entering {}: {e}", work.display()))?;
    let mut rng = Rng::new(seed ^ 0x5E12_7E57);

    if !traced {
        let nominal = inputs.schedule(&mut rng, NOMINAL_RPS, seconds * NOMINAL_SHARE);
        // Bisection makes at most ceil(log2(rungs + 1)) probes, plus the
        // retries of failed rungs (about three).
        let probes = (LADDER_RUNGS + 1).next_power_of_two().ilog2() + 3;
        let probe_secs = (seconds * (1.0 - NOMINAL_SHARE) / probes as f64).max(0.5);
        let ((phase, ladder), starts, rss) = with_daemon(&emmark, None, reps, &inputs, |stream| {
            let phase = open_loop(stream, &inputs, &nominal, 1000)?;
            let mut next_id = 1000 + nominal.len() as u64;
            let ladder = ladder(stream, &inputs, &mut rng, probe_secs, &mut next_id)?;
            Ok((phase, ladder))
        })?;
        let metrics = summary(&phase)
            .num("sustained_rps", ladder.sustained_rps)
            .num(
                "ok_ratio",
                1.0 - phase.failed() as f64 / phase.outcomes.len() as f64,
            )
            .num("peak_rss_mib", rss)
            .finish();
        let ladder_json = array(ladder.probes);
        println!(
            "{}",
            Json::default()
                .int("attempted", phase.outcomes.len() as u64)
                .int("failed", (phase.failed() + ladder.wrong) as u64)
                .bool("correct", phase.failed() == 0 && ladder.wrong == 0)
                .raw(
                    "daemon_start_s",
                    &array(starts.iter().map(|s| format!("{s:?}")))
                )
                .raw("metrics", &metrics)
                .num("late_p99_ms", percentile(&phase.late_ms, 99.0))
                .raw("ladder", &ladder_json)
                .finish()
        );
        return Ok(());
    }

    // Traced: the same nominal load with daemon telemetry off, then on.
    let half = seconds * 0.4;
    let plan_off = inputs.schedule(&mut rng, NOMINAL_RPS, half);
    let plan_on = inputs.schedule(&mut rng, NOMINAL_RPS, half);
    let (off, starts, _) = with_daemon(&emmark, None, reps, &inputs, |stream| {
        open_loop(stream, &inputs, &plan_off, 1000)
    })?;
    let telemetry = work.join("emmarkd-telemetry.jsonl");
    let (on, _, _) = with_daemon(&emmark, Some(&telemetry), 1, &inputs, |stream| {
        open_loop(stream, &inputs, &plan_on, 1000)
    })?;
    let daemon = DaemonTelemetry::parse(&telemetry)?;
    let n = on.outcomes.len() as f64;

    let mut in_worker_total = 0.0;
    let mut wait_weighted = 0.0;
    let mut per_class = Json::default();
    for class in Class::ALL {
        let worker_ms: Vec<f64> = daemon
            .span_ns(class.histogram())
            .iter()
            .map(|ns| ns / 1e6)
            .collect();
        in_worker_total += worker_ms.iter().sum::<f64>();
        let client = on.latencies(Some(class));
        let wait = mean(&client) - mean(&worker_ms);
        wait_weighted += wait * client.len() as f64;
        per_class = per_class.num(&format!("service.{}_ms", class.name()), mean(&worker_ms));
    }
    let hits = daemon.counter("emmark_service_family_cache_hits_total");
    let misses = daemon.counter("emmark_service_family_cache_misses_total");
    let pool_ns = daemon
        .span_ns("emmark_scoring_layer_pool_ns")
        .iter()
        .fold(0.0, |a, b| a + b);
    let blob_bytes: f64 = plan_on.iter().map(|p| inputs.blob_bytes(p) as f64).sum();

    let (replay, spans) = warm_replay(&inputs, &plan_on)?;
    let layers = per_class
        .num("service.wait_ms", wait_weighted / n)
        .num(
            "service.worker_busy_ratio",
            in_worker_total / 1e3 / (on.wall_s * WORKERS as f64),
        )
        .num("service.cache_hit_ratio", hits / (hits + misses).max(1.0))
        .num(
            "service.busy_ratio",
            daemon.counter("emmark_service_rejected_total")
                / daemon.counter("emmark_service_requests_total").max(1.0),
        )
        .num("service.blob_bytes_per_req", blob_bytes / n)
        .num("service.codec_us", mean(&on.codec_us))
        .num("harness.late_p99_ms", percentile(&on.late_ms, 99.0))
        .num("scoring.layer_pool_ms", pool_ns / 1e6 / n)
        .num(
            "trace.overhead_ratio",
            percentile(&on.latencies(None), 50.0) / percentile(&off.latencies(None), 50.0),
        )
        .finish();
    let failed = off.failed() + on.failed();
    println!(
        "{}",
        Json::default()
            .int("attempted", (off.outcomes.len() + on.outcomes.len()) as u64)
            .int("failed", failed as u64)
            .raw(
                "daemon_start_s",
                &array(starts.iter().map(|s| format!("{s:?}")))
            )
            .raw("untraced", &summary(&off).finish())
            .raw("traced", &summary(&on).finish())
            .raw("layers", &layers)
            .raw("replay", &replay)
            .raw("spans", &spans)
            .finish()
    );
    Ok(())
}

/// Replays the warm stages of the first requests of `plan` in-process
/// against the state the daemon keeps per family, rebuilt here. Returns
/// the program's counter deltas (JSON) and each op's spans.
fn warm_replay(inputs: &Inputs, plan: &[Planned]) -> Result<(String, String), String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let secrets =
        decode_secrets(&std::fs::read(&inputs.vault).map_err(|e| err(&e))?).map_err(|e| err(&e))?;
    let locations = locate_watermark(&secrets.original, &secrets.stats, &secrets.config)
        .map_err(|e| err(&e))?;
    let manifest = Path::new(&inputs.manifest);
    let dir = manifest.parent().unwrap_or(Path::new("."));
    let registry = load_sharded_registry(&std::fs::read(manifest).map_err(|e| err(&e))?, |n| {
        std::fs::read(dir.join(n))
    })
    .map_err(|e| err(&e))?;
    if registry.devices().len() != FLEET_DEVICES {
        return Err("manifest does not hold the generated fleet".into());
    }
    let verifier = registry
        .into_verifier(secrets.clone())
        .map_err(|e| err(&e))?;
    let provisioner =
        FleetProvisioner::new(secrets.clone(), cli_fingerprint_config()).map_err(|e| err(&e))?;

    Telemetry::set_enabled(true);
    let counts = Counts::start();
    let ops = &plan[..plan.len().min(400)];
    let mut traces = Vec::with_capacity(ops.len());
    let mut suspect_bytes = 0u64;
    for p in ops {
        let mut t = Trace::new();
        match p.class {
            Class::Verify | Class::Identify => {
                if p.class == Class::Identify {
                    t.read(manifest).map_err(|e| err(&e))?;
                }
                let bytes = t
                    .read(Path::new(&inputs.suspects[p.target].path))
                    .map_err(|e| err(&e))?;
                suspect_bytes += bytes.len() as u64;
                let sparse = t
                    .span("deploy.sparse_open", |_| SparseArtifact::open(&bytes))
                    .map_err(|e| err(&e))?;
                if p.class == Class::Verify {
                    t.span("watermark.extract", |_| {
                        extract_with_locations(
                            &sparse,
                            &secrets.original,
                            &locations,
                            &secrets.signature,
                        )
                    })
                    .map_err(|e| err(&e))?;
                } else {
                    t.span("registry.probe", |_| {
                        verifier
                            .identify_leak(&sparse, IDENTIFY_THRESHOLD)
                            .map(|m| m.is_some())
                    })
                    .map_err(|e| err(&e))?;
                }
            }
            Class::Provision => {
                t.span("provision.artifact", |_| {
                    provisioner.provision_artifact(&inputs.serve_ids[p.target].id)
                });
            }
        }
        traces.push(t.to_json());
    }
    let replay = Json::default()
        .int("ops", ops.len() as u64)
        .int("suspect_bytes", suspect_bytes)
        .raw("counts", &counts.to_json())
        .finish();
    Ok((replay, array(traces)))
}
