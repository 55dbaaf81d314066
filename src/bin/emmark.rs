//! `emmark` — command-line front end for the EmMark pipeline.
//!
//! ```text
//! emmark demo --out-dir DIR [--bits N] [--seed S] [--max-resident-mb M]
//!                                                   build a demo: train, quantize,
//!                                                   watermark; writes deployed.emqm,
//!                                                   secrets.emws, original.emqm
//!                                                   (stamped by the streaming
//!                                                   pipeline, one layer
//!                                                   resident at a time)
//! emmark verify --secrets FILE --suspect FILE       ownership proof (Eqs. 6–8);
//!                                                   the artifact is probed sparsely
//! emmark inspect --model FILE [--json]              layer/scheme/bit summary from the
//!                                                   v2 header index; .emfb fleet
//!                                                   bundles get a streamed device/
//!                                                   fingerprint report, .emfr
//!                                                   registries, .emfm manifests
//!                                                   and .emws vaults their own
//!                                                   (machine-readable with --json)
//! emmark attack --model FILE --out FILE --per-layer N [--seed S]
//!                                                   parameter-overwriting attack
//! emmark fleet-provision --secrets FILE --out-dir DIR --devices N
//!                        [--prefix NAME] [--fp-bits N] [--fp-pool N] [--fp-seed S]
//!                        [--jobs N] [--bundle FILE] [--shards N]
//!                        [--max-resident-mb M]
//!                                                   score-once/insert-many batch
//!                                                   provisioning from the vault's
//!                                                   embedded artifact (a keyed
//!                                                   vault is not decoded or
//!                                                   re-located): fingerprint N
//!                                                   device artifacts by splicing
//!                                                   patches into the base
//!                                                   artifact straight to disk
//!                                                   (--jobs files at a time,
//!                                                   serial under a budget), write
//!                                                   the fleet registry (and
//!                                                   optionally one streamed
//!                                                   bundle file); with --shards,
//!                                                   also an EMFM sharded registry
//!                                                   (manifest + registry-NNNNN.emfr
//!                                                   shard files + leak index)
//! emmark fleet-verify --secrets FILE (--registry FILE --artifacts DIR
//!                     | --manifest FILE --artifacts DIR | --bundle FILE)
//!                     [--threshold L] [--jobs N]    parallel batch verification +
//!                                                   leak tracing over a directory
//!                                                   or a provisioned-fleet bundle
//!                                                   (bundles stream through a
//!                                                   bounded ring of artifacts);
//!                                                   --manifest loads a sharded
//!                                                   registry and traces through
//!                                                   its leak index
//! emmark identify-leak --secrets FILE --manifest FILE --suspect FILE
//!                      [--threshold L] [--linear]   trace one leaked artifact to
//!                                                   the responsible device through
//!                                                   the manifest's inverted index
//!                                                   (sublinear in fleet size;
//!                                                   --linear forces the full scan,
//!                                                   verdicts are bit-identical)
//! emmark serve [--socket PATH] [--workers N] [--queue N] [--cache-families N]
//!              [--retry-after-ms MS] [--max-resident-mb M]
//!                                                   emmarkd: long-running service
//!                                                   answering framed verify /
//!                                                   provision / identify-leak /
//!                                                   inspect requests over a Unix
//!                                                   socket (or stdin/stdout),
//!                                                   keeping one family cache warm
//!                                                   per owner vault behind an LRU
//! ```
//!
//! The demo subcommand exists so the whole flow can be driven without
//! writing a line of Rust; `verify` is the command a proprietor would
//! actually run against a seized model file, and `fleet-verify` is its
//! fleet-scale counterpart: every `.emqm` artifact in a directory is
//! checked for the ownership watermark and traced to the registered
//! device that leaked it, in parallel, sharing one location cache.
//!
//! Every pipeline command (demo, verify, fleet-provision, fleet-verify,
//! identify-leak) additionally takes `--telemetry FILE.jsonl` (stream
//! span events + final snapshot as JSON lines) and `--metrics` (dump
//! the snapshot to stderr in Prometheus text format) — see
//! [`emmark::core::telemetry`].

use emmark::attacks::overwrite::{overwrite_attack, OverwriteConfig};
use emmark::core::container::{
    open_container, open_registry, BundleDevice, Container, Input, Registry,
};
use emmark::core::deploy::{decode_model, encode_model, encode_model_into, SparseArtifact};
use emmark::core::fingerprint::Family;
use emmark::core::fleet::{encode_registry, par_map, FleetError, FleetVerdict, FleetVerifier};
use emmark::core::provision::FleetProvisioner;
use emmark::core::registry::{encode_manifest, provision_sharded_into, LeakIndex, ShardManifest};
use emmark::core::service::{read_frame, write_frame, Request, Service, ServiceConfig};
use emmark::core::store::ArtifactSink;
use emmark::core::telemetry::{peak_resident_mib, Snapshot, Telemetry};
use emmark::core::vault::{encode_secrets, FleetBundleStream, KeyAudit};
use emmark::core::watermark::{stream_watermark, OwnerSecrets, WatermarkConfig};
use emmark::nanolm::corpus::{Corpus, Grammar};
use emmark::nanolm::train::{train, TrainConfig};
use emmark::nanolm::{ModelConfig, TransformerModel};
use emmark::quant::awq::{awq, AwqConfig};
use std::collections::HashMap;
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

/// Keeps every thread on glibc's main malloc arena in two cases:
///
/// * Under an address-space cap (`ulimit -v`). glibc reserves 64 MiB of
///   address space for each extra arena; under a smaller cap that
///   reservation fails, and a worker thread then pays one `mmap` — a
///   whole page of address space — per allocation, so a daemon worker
///   holding a few thousand registry entries exhausts a cap the data
///   fits in many times over.
/// * In `serve`. The daemon builds each family, verifier and provisioner
///   once, on whichever worker takes the first request that needs it.
///   With per-thread arenas the multi-megabyte buffers of those builds
///   (the vault read, the base model copy, the encoded base artifact)
///   stay in that worker's arena, so the daemon's peak resident size
///   depended on which worker happened to take which request. On one
///   arena every worker reuses the same freed space.
///
/// Other commands keep glibc's per-thread arenas.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn share_malloc_arena(serve: bool) {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_ARENA_MAX: i32 = -8;
    let capped = std::fs::read_to_string("/proc/self/limits").is_ok_and(|limits| {
        limits
            .lines()
            .any(|l| l.starts_with("Max address space") && !l.contains("unlimited"))
    });
    if serve || capped {
        // SAFETY: mallopt only tunes the allocator, and runs before this
        // process starts any thread.
        unsafe { mallopt(M_ARENA_MAX, 1) };
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn share_malloc_arena(_serve: bool) {}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    share_malloc_arena(args.first().is_some_and(|c| c == "serve"));
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    if matches!(command.as_str(), "--help" | "-h" | "help") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let Some(allowed) = allowed_opts(command) else {
        eprintln!("error: unknown command `{command}`\n\n{USAGE}");
        return ExitCode::FAILURE;
    };
    let opts = match parse_opts(rest, allowed) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let observed = match telemetry_begin(&opts) {
        Ok(observed) => observed,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
    };
    let result = match command.as_str() {
        "demo" => cmd_demo(&opts),
        "verify" => cmd_verify(&opts),
        "inspect" => cmd_inspect(&opts),
        "attack" => cmd_attack(&opts),
        "fleet-provision" => cmd_fleet_provision(&opts),
        "fleet-verify" => cmd_fleet_verify(&opts),
        "identify-leak" => cmd_identify_leak(&opts),
        "serve" => cmd_serve(&opts),
        other => Err(format!("unknown command `{other}`")),
    };
    // Export even on failure — partial counters are exactly what a
    // post-mortem wants — but never let an export error mask the
    // command's own.
    let finish = if observed {
        telemetry_finish(opts.contains_key("metrics"))
    } else {
        Ok(())
    };
    match result.and(finish) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
emmark — watermarking for embedded quantized LLMs (DAC 2024 reproduction)

USAGE:
  emmark demo    --out-dir DIR [--bits N] [--seed S] [--d-model N] [--d-ff N]
                 [--steps N] [--max-resident-mb M]
  emmark verify  --secrets FILE --suspect FILE
  emmark inspect --model FILE [--json]        (.emqm artifacts, .emws vaults,
                                               .emfb bundles, .emfr registries,
                                               .emfm shard manifests)
  emmark attack  --model FILE --out FILE --per-layer N [--seed S]
  emmark fleet-provision --secrets FILE --out-dir DIR --devices N
                         [--prefix NAME] [--fp-bits N] [--fp-pool N] [--fp-seed S]
                         [--jobs N] [--bundle FILE] [--shards N] [--max-resident-mb M]
  emmark fleet-verify    --secrets FILE (--registry FILE --artifacts DIR
                         | --manifest FILE --artifacts DIR | --bundle FILE)
                         [--threshold L] [--jobs N]
  emmark identify-leak   --secrets FILE --manifest FILE --suspect FILE
                         [--threshold L] [--linear]
  emmark serve           [--socket PATH] [--workers N] [--queue N]
                         [--cache-families N] [--retry-after-ms MS]
                         [--max-resident-mb M]

--max-resident-mb fails the run if peak resident memory exceeded the
budget (Linux VmHWM; reported best-effort elsewhere). demo always stamps
through the streaming LayerStore pipeline (score → insert → encode one
layer at a time).

fleet-provision splices every device artifact straight to its file;
--jobs N is how many device files are written at a time, and how many
threads derive the shard registry's entries (default: one per core;
one under --max-resident-mb).

demo, verify, fleet-provision, fleet-verify, identify-leak, and serve
also take
  --telemetry FILE.jsonl   stream span events to FILE and append a final
                           counter/histogram snapshot (one JSON object
                           per line)
  --metrics                dump the final snapshot to stderr in
                           Prometheus text format
Instrumentation is compiled in but costs one atomic load per site when
neither flag is given.";

/// Options that are flags (present or absent), not key-value pairs.
const BOOL_FLAGS: &[&str] = &["json", "linear", "metrics"];

/// The options each subcommand accepts; anything else is rejected by
/// name instead of silently ignored. `None` means the command itself is
/// unknown.
fn allowed_opts(command: &str) -> Option<&'static [&'static str]> {
    Some(match command {
        "demo" => &[
            "out-dir",
            "bits",
            "seed",
            "d-model",
            "d-ff",
            "steps",
            "max-resident-mb",
            "telemetry",
            "metrics",
        ],
        "verify" => &["secrets", "suspect", "telemetry", "metrics"],
        "inspect" => &["model", "json"],
        "attack" => &["model", "out", "per-layer", "seed"],
        "fleet-provision" => &[
            "secrets",
            "out-dir",
            "devices",
            "prefix",
            "fp-bits",
            "fp-pool",
            "fp-seed",
            "jobs",
            "bundle",
            "shards",
            "max-resident-mb",
            "telemetry",
            "metrics",
        ],
        "fleet-verify" => &[
            "secrets",
            "registry",
            "artifacts",
            "manifest",
            "bundle",
            "threshold",
            "jobs",
            "telemetry",
            "metrics",
        ],
        "identify-leak" => &[
            "secrets",
            "manifest",
            "suspect",
            "threshold",
            "linear",
            "telemetry",
            "metrics",
        ],
        "serve" => &[
            "socket",
            "workers",
            "queue",
            "cache-families",
            "retry-after-ms",
            "max-resident-mb",
            "telemetry",
            "metrics",
        ],
        _ => return None,
    })
}

fn parse_opts(args: &[String], allowed: &[&str]) -> Result<HashMap<String, String>, String> {
    let mut opts = HashMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let Some(name) = key.strip_prefix("--") else {
            return Err(format!("expected an option, found `{key}`"));
        };
        if !allowed.contains(&name) {
            return Err(format!("unknown option --{name}"));
        }
        if BOOL_FLAGS.contains(&name) {
            opts.insert(name.to_string(), "true".to_string());
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("option --{name} needs a value"))?;
        opts.insert(name.to_string(), value.clone());
    }
    Ok(opts)
}

/// Enables telemetry when `--telemetry PATH` or `--metrics` is present;
/// with a path, span events stream to the JSONL file as they happen.
/// Returns whether observation is on (so `main` knows to export).
fn telemetry_begin(opts: &HashMap<String, String>) -> Result<bool, String> {
    let jsonl = opts.get("telemetry");
    let metrics = opts.contains_key("metrics");
    if jsonl.is_none() && !metrics {
        return Ok(false);
    }
    match jsonl {
        Some(path) => {
            // The sink opens before the command runs, which may be what
            // creates the directory the file lives in (demo --out-dir).
            if let Some(parent) = Path::new(path)
                .parent()
                .filter(|p| !p.as_os_str().is_empty())
            {
                std::fs::create_dir_all(parent)
                    .map_err(|e| format!("creating {}: {e}", parent.display()))?;
            }
            let file = File::create(path).map_err(|e| format!("creating {path}: {e}"))?;
            Telemetry::install_jsonl_sink(Box::new(BufWriter::new(file)));
        }
        None => Telemetry::set_enabled(true),
    }
    Ok(true)
}

/// Exports what the run recorded: the registry snapshot is appended to
/// the JSONL sink (if `--telemetry` was given) and, under `--metrics`,
/// dumped to stderr in Prometheus text format.
fn telemetry_finish(metrics: bool) -> Result<(), String> {
    let snap = Snapshot::capture();
    if let Some(mut sink) = Telemetry::take_jsonl_sink() {
        snap.write_jsonl(&mut sink)
            .and_then(|()| sink.flush())
            .map_err(|e| format!("writing telemetry JSONL: {e}"))?;
    }
    if metrics {
        eprint!("{}", snap.render_prometheus());
    }
    Ok(())
}

fn required<'o>(opts: &'o HashMap<String, String>, name: &str) -> Result<&'o str, String> {
    opts.get(name)
        .map(String::as_str)
        .ok_or_else(|| format!("missing required option --{name}"))
}

fn parsed<T: std::str::FromStr>(
    opts: &HashMap<String, String>,
    name: &str,
    default: T,
) -> Result<T, String> {
    match opts.get(name) {
        None => Ok(default),
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("--{name}: cannot parse `{raw}`")),
    }
}

fn read_file(path: &str) -> Result<Vec<u8>, String> {
    std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))
}

fn open_file(path: &str) -> Result<File, String> {
    File::open(path).map_err(|e| format!("reading {path}: {e}"))
}

fn write_file(path: &Path, bytes: &[u8]) -> Result<(), String> {
    std::fs::write(path, bytes).map_err(|e| format!("writing {}: {e}", path.display()))
}

fn create_file(path: &Path) -> Result<BufWriter<File>, String> {
    File::create(path)
        .map(BufWriter::new)
        .map_err(|e| format!("creating {}: {e}", path.display()))
}

/// The `--max-resident-mb` budget, if given.
fn memory_budget(opts: &HashMap<String, String>) -> Result<Option<usize>, String> {
    match opts.get("max-resident-mb") {
        None => Ok(None),
        Some(raw) => raw
            .parse()
            .map(Some)
            .map_err(|_| format!("--max-resident-mb: cannot parse `{raw}`")),
    }
}

/// Reports peak resident memory against the `--max-resident-mb` budget
/// and fails the command if it was exceeded (where the platform exposes
/// a high-water mark).
fn enforce_memory_budget(budget: Option<usize>) -> Result<(), String> {
    let Some(cap) = budget else { return Ok(()) };
    match peak_resident_mib() {
        Some(peak) => {
            println!("peak resident memory: {peak:.1} MiB (budget {cap} MiB)");
            if peak > cap as f64 {
                Err(format!(
                    "peak resident memory {peak:.1} MiB exceeded --max-resident-mb {cap}"
                ))
            } else {
                Ok(())
            }
        }
        None => {
            println!("peak resident memory: unavailable on this platform ({cap} MiB budget not enforced)");
            Ok(())
        }
    }
}

fn cmd_demo(opts: &HashMap<String, String>) -> Result<(), String> {
    let out_dir = PathBuf::from(required(opts, "out-dir")?);
    let bits: usize = parsed(opts, "bits", 8)?;
    let seed: u64 = parsed(opts, "seed", 2024)?;
    // Width and training knobs so smoke tests can scale the demo: wider
    // layers make per-layer loads big enough to measure pipeline
    // overlap, fewer steps keep an untrained-but-stampable model cheap.
    let d_model: usize = parsed(opts, "d-model", 32)?;
    let d_ff: usize = parsed(opts, "d-ff", 96)?;
    let steps: u64 = parsed(opts, "steps", 200)?;
    let budget = memory_budget(opts)?;
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("creating {}: {e}", out_dir.display()))?;

    println!("training a nano-LM on SynWiki…");
    let corpus = Corpus::sample(Grammar::synwiki(seed), 12_000, 1_000, 2_000);
    let mut cfg = ModelConfig::tiny_test();
    cfg.vocab_size = corpus.grammar.vocab_size();
    cfg.d_model = d_model;
    cfg.d_ff = d_ff;
    let mut model = TransformerModel::new(cfg);
    train(
        &mut model,
        &corpus,
        &TrainConfig {
            steps,
            batch_size: 8,
            seq_len: 24,
            ..TrainConfig::default()
        },
    );
    println!("quantizing with AWQ INT4 and capturing A_f…");
    let calibration: Vec<Vec<u32>> = corpus
        .valid
        .chunks(24)
        .take(16)
        .map(|c| c.to_vec())
        .collect();
    let stats = model.collect_activation_stats(&calibration);
    let quantized = awq(&model, &stats, &AwqConfig::default());

    println!("inserting the watermark ({bits} bits/layer)…");
    let wm_cfg = WatermarkConfig {
        bits_per_layer: bits,
        pool_ratio: 20,
        ..Default::default()
    };
    let secrets = OwnerSecrets::new(quantized, stats, wm_cfg, seed ^ 0x51C);

    // Score → insert → encode one layer at a time, records flowing
    // straight to disk: neither the watermarked model nor either
    // artifact is ever resident. The stamp reads the just-encoded
    // original back from disk rather than the resident model: real file
    // loads let the pipeline-parallel stamp overlap layer N+1's read with
    // layer N's bump + encode (a borrow of a resident layer has nothing
    // to overlap). The loaded layers are bit-identical, so the deployed
    // artifact is byte-identical to a resident-model stamp.
    let original_path = out_dir.join("original.emqm");
    encode_model_into(&secrets.original, create_file(&original_path)?)
        .map_err(|e| e.to_string())?;
    let original = File::open(&original_path)
        .map_err(|e| format!("reading {}: {e}", original_path.display()))?;
    let store = SparseArtifact::open_file(original).map_err(|e| e.to_string())?;
    stream_watermark(
        &store,
        &secrets.stats,
        &secrets.signature,
        &secrets.config,
        &mut ArtifactSink::new(create_file(&out_dir.join("deployed.emqm"))?),
    )
    .map_err(|e| e.to_string())?;
    write_file(&out_dir.join("secrets.emws"), &encode_secrets(&secrets))?;
    println!(
        "wrote {}/original.emqm, deployed.emqm, secrets.emws ({} watermark bits)",
        out_dir.display(),
        secrets.signature.len()
    );
    println!(
        "try: emmark verify --secrets {0}/secrets.emws --suspect {0}/deployed.emqm",
        out_dir.display()
    );
    enforce_memory_budget(budget)
}

/// Opens the owner vault for verification without decoding it: a keyed
/// vault through its derived key (no Eqs. 2–4), a keyless one with its
/// key derived over the embedded artifact, one record at a time.
fn open_family(path: &str) -> Result<Family, String> {
    Family::open(open_file(path)?).map_err(|e| e.to_string())
}

fn cmd_verify(opts: &HashMap<String, String>) -> Result<(), String> {
    let family = open_family(required(opts, "secrets")?)?;
    let suspect = open_file(required(opts, "suspect")?)?;
    // The artifact is probed sparsely: only the header index, the
    // structure's length words and the few hundred watermark cells are
    // read from the file.
    let sparse = SparseArtifact::open_file(suspect).map_err(|e| e.to_string())?;
    println!(
        "suspect : v2 artifact ({} KiB), sparse random-access extraction",
        sparse.byte_len() / 1024
    );
    let report = family
        .ownership_report(&sparse)
        .map_err(|e| e.to_string())?;
    sparse.check_reads().map_err(|e| e.to_string())?;
    family.check_reads().map_err(|e| e.to_string())?;
    println!(
        "matched {} / {} bits  (WER {:.1}%)",
        report.matched_bits,
        report.total_bits,
        report.wer()
    );
    println!(
        "chance-match probability: 10^{:.1}",
        report.log10_p_chance()
    );
    if report.proves_ownership(-9.0) {
        println!("verdict: OWNERSHIP PROVED (p < 1e-9)");
        Ok(())
    } else {
        Err("verdict: ownership NOT proved".to_string())
    }
}

fn granularity_json(g: emmark::quant::Granularity) -> String {
    match g {
        emmark::quant::Granularity::PerTensor => "per-tensor".to_string(),
        emmark::quant::Granularity::PerOutChannel => "per-out-channel".to_string(),
        emmark::quant::Granularity::Grouped { group_size } => format!("grouped:{group_size}"),
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The `fingerprint:` line of the fleet reports.
fn fingerprint_line(fp: &WatermarkConfig) -> String {
    format!(
        "fingerprint: {} bits/layer, pool ratio {}, selection seed {}",
        fp.bits_per_layer, fp.pool_ratio, fp.selection_seed
    )
}

/// The `"fingerprint"` member of the fleet reports' JSON.
fn fingerprint_json(fp: &WatermarkConfig) -> String {
    format!(
        "\"fingerprint\":{{\"bits_per_layer\":{},\"pool_ratio\":{},\"selection_seed\":{}}}",
        fp.bits_per_layer, fp.pool_ratio, fp.selection_seed
    )
}

/// `emmark inspect`: the container is opened as emmarkd opens it
/// ([`open_container`]); this renders what was found.
fn cmd_inspect(opts: &HashMap<String, String>) -> Result<(), String> {
    let path = required(opts, "model")?;
    let json = opts.contains_key("json");
    match open_container(Input::Path(Path::new(path))).map_err(|e| e.to_string())? {
        Container::Artifact(artifact) => return inspect_artifact(&artifact, json),
        Container::Vault(family) => return inspect_vault(path, &family, json),
        Container::Manifest(manifest) => inspect_manifest(path, &manifest, json),
        Container::Registry(fp_cfg, devices) => {
            inspect_registry(path, &fp_cfg, devices.len(), json)
        }
        Container::Bundle(fp_cfg, devices) => inspect_bundle(path, &fp_cfg, &devices, json),
    }
    Ok(())
}

/// `emmark inspect` over an EMQM artifact: everything comes from the
/// header index without materializing a model, plus one read of each
/// grid for the clamp census.
fn inspect_artifact(sparse: &SparseArtifact<'_>, json: bool) -> Result<(), String> {
    let version = sparse.format_version();
    let (cfg, scheme) = (sparse.config(), sparse.scheme());
    let layers = sparse.layer_index();
    let clamped_per_layer = (0..layers.len())
        .map(|l| sparse.clamped_cells(l))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let total_cells: usize = layers.iter().map(|l| l.cells()).sum();
    let clamped: usize = clamped_per_layer.iter().sum();

    if json {
        let layer_objs: Vec<String> = layers
            .iter()
            .zip(&clamped_per_layer)
            .enumerate()
            .map(|(i, (l, clamped))| {
                format!(
                    "{{\"index\":{i},\"in_features\":{},\"out_features\":{},\"bits\":{},\
                     \"granularity\":\"{}\",\"clamped_cells\":{clamped}}}",
                    l.in_features,
                    l.out_features,
                    l.bits,
                    granularity_json(l.granularity)
                )
            })
            .collect();
        println!(
            "{{\"format_version\":{version},\"model\":\"{}\",\"scheme\":\"{}\",\
             \"d_model\":{},\"n_blocks\":{},\"n_heads\":{},\"d_ff\":{},\"vocab_size\":{},\
             \"total_cells\":{total_cells},\"clamped_cells\":{clamped},\"layers\":[{}]}}",
            json_escape(&cfg.name),
            json_escape(scheme),
            cfg.d_model,
            cfg.n_layers,
            cfg.n_heads,
            cfg.d_ff,
            cfg.vocab_size,
            layer_objs.join(",")
        );
        return Ok(());
    }

    println!("model   : {}", cfg.name);
    println!("format  : v{version}");
    println!("scheme  : {scheme}");
    println!(
        "arch    : d_model {}, {} blocks, {} heads, d_ff {}, vocab {}",
        cfg.d_model, cfg.n_layers, cfg.n_heads, cfg.d_ff, cfg.vocab_size
    );
    println!("layers  : {} quantized", layers.len());
    println!(
        "cells   : {} total, {} at min/max level ({:.1}% unwatermarkable)",
        total_cells,
        clamped,
        100.0 * clamped as f64 / total_cells as f64
    );
    for (i, l) in layers.iter().enumerate().take(4) {
        println!(
            "  layer {i}: {}x{} INT{} {:?}",
            l.in_features, l.out_features, l.bits, l.granularity
        );
    }
    if layers.len() > 4 {
        println!("  … {} more layers", layers.len() - 4);
    }
    Ok(())
}

/// `emmark inspect` over an EMFB fleet bundle, whose entries were walked
/// one artifact resident at a time: the device count, per-device
/// fingerprint signature lengths, and artifact sizes.
fn inspect_bundle(path: &str, fp_cfg: &WatermarkConfig, devices: &[BundleDevice], json: bool) {
    let total_bytes: usize = devices.iter().map(|d| d.artifact_bytes).sum();
    if json {
        let device_objs: Vec<String> = devices
            .iter()
            .map(|d| {
                format!(
                    "{{\"device_id\":\"{}\",\"artifact_bytes\":{},\"layers\":{},\
                     \"fingerprint_bits\":{}}}",
                    json_escape(&d.fingerprint.device_id),
                    d.artifact_bytes,
                    d.layers,
                    fp_cfg.signature_len(d.layers)
                )
            })
            .collect();
        println!(
            "{{\"kind\":\"fleet-bundle\",\"device_count\":{},\"total_artifact_bytes\":{total_bytes},\
             {},\"devices\":[{}]}}",
            devices.len(),
            fingerprint_json(fp_cfg),
            device_objs.join(",")
        );
        return;
    }

    println!("bundle  : {path}");
    println!("devices : {} provisioned", devices.len());
    println!("{}", fingerprint_line(fp_cfg));
    println!(
        "payload : {:.1} KiB of device artifacts",
        total_bytes as f64 / 1024.0
    );
    for d in devices.iter().take(8) {
        println!(
            "  {}: {:.1} KiB artifact, {}-bit fingerprint over {} layers",
            d.fingerprint.device_id,
            d.artifact_bytes as f64 / 1024.0,
            fp_cfg.signature_len(d.layers),
            d.layers
        );
    }
    if devices.len() > 8 {
        println!("  … {} more devices", devices.len() - 8);
    }
}

/// `emmark inspect` over an EMFR fleet registry: its device count and
/// fingerprint parameters.
fn inspect_registry(path: &str, fp_cfg: &WatermarkConfig, devices: usize, json: bool) {
    if json {
        println!(
            "{{\"kind\":\"fleet-registry\",\"device_count\":{devices},{}}}",
            fingerprint_json(fp_cfg)
        );
    } else {
        println!("registry: {path}");
        println!("devices : {devices} registered");
        println!("{}", fingerprint_line(fp_cfg));
    }
}

/// `emmark inspect` over an EMWS owner vault: layers, signature bits,
/// and whether it carries a derived key. For a keyed vault it is the
/// arbiter's audit (paper §4.1): L is recomputed from (W, A_f, α, β, d)
/// and compared with the key; a mismatch fails the command.
fn inspect_vault(path: &str, family: &Family, json: bool) -> Result<(), String> {
    let audit = KeyAudit::of(family).map_err(|e| e.to_string())?;
    let mismatch = audit.first_mismatch();
    let cells: usize = audit.recomputed.iter().map(Vec::len).sum();
    if json {
        let key_matches = match (&audit.key, mismatch) {
            (None, _) => "null".to_string(),
            (Some(_), m) => m.is_none().to_string(),
        };
        println!(
            "{{\"kind\":\"owner-vault\",\"layers\":{},\"signature_bits\":{},\
             \"keyed\":{},\"key_matches\":{key_matches}}}",
            audit.layers,
            audit.signature_bits,
            audit.key.is_some()
        );
    } else {
        println!("vault   : {path}");
        println!("layers  : {} quantized", audit.layers);
        println!("signature: {} bits", audit.signature_bits);
        match (&audit.key, mismatch) {
            (None, _) => println!("key     : none (verification recomputes L, Eqs. 2–4)"),
            (Some(_), None) => println!(
                "key     : {cells} ownership cells; equals L recomputed from (W, A_f, α, β, d)"
            ),
            (Some(_), Some(l)) => println!(
                "key     : {cells} ownership cells; DIFFERS from L recomputed from \
                 (W, A_f, α, β, d) at layer {l}"
            ),
        }
    }
    match mismatch {
        Some(l) => Err(format!(
            "vault key does not match the recomputed locations (first at layer {l})"
        )),
        None => Ok(()),
    }
}

/// `emmark inspect` over an EMFM shard manifest: the shard table and
/// leak-index shape, without touching the shard files themselves.
fn inspect_manifest(path: &str, manifest: &ShardManifest, json: bool) {
    let fp = &manifest.fingerprint_config;
    if json {
        let shard_objs: Vec<String> = manifest
            .shards
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":\"{}\",\"first_device\":{},\"device_count\":{},\
                     \"byte_len\":{},\"checksum\":{}}}",
                    json_escape(&s.name),
                    s.first_device,
                    s.device_count,
                    s.byte_len,
                    s.checksum
                )
            })
            .collect();
        println!(
            "{{\"kind\":\"shard-manifest\",\"total_devices\":{},\"shard_count\":{},\
             \"leak_index_cells\":{},\"pools\":{},{},\"shards\":[{}]}}",
            manifest.total_devices,
            manifest.shards.len(),
            manifest.index.cell_count(),
            manifest.pools.is_some(),
            fingerprint_json(fp),
            shard_objs.join(",")
        );
        return;
    }
    println!("manifest: {path}");
    println!(
        "devices : {} across {} shard(s)",
        manifest.total_devices,
        manifest.shards.len()
    );
    println!("{}", fingerprint_line(fp));
    println!(
        "leak index: {} fingerprint cells (suspect reads per identification)",
        manifest.index.cell_count()
    );
    match &manifest.pools {
        Some(pools) => println!(
            "pools   : {} layers x {} cells persisted (identification skips Eqs. 2–4)",
            pools.cells().len(),
            pools.cells().first().map_or(0, Vec::len)
        ),
        None => println!("pools   : none (v1 manifest; identification recomputes them)"),
    }
    for s in manifest.shards.iter().take(8) {
        println!(
            "  {}: devices {}..{}, {:.1} KiB, checksum {:016x}",
            s.name,
            s.first_device,
            s.first_device + s.device_count,
            s.byte_len as f64 / 1024.0,
            s.checksum
        );
    }
    if manifest.shards.len() > 8 {
        println!("  … {} more shards", manifest.shards.len() - 8);
    }
}

fn cmd_fleet_provision(opts: &HashMap<String, String>) -> Result<(), String> {
    let secrets_path = required(opts, "secrets")?;
    let out_dir = PathBuf::from(required(opts, "out-dir")?);
    let devices_raw = required(opts, "devices")?;
    let devices: usize = devices_raw
        .parse()
        .map_err(|_| format!("--devices: cannot parse `{devices_raw}`"))?;
    let prefix = opts.get("prefix").map(String::as_str).unwrap_or("device");
    let fp_bits: usize = parsed(opts, "fp-bits", 3)?;
    let fp_pool: usize = parsed(opts, "fp-pool", 10)?;
    let fp_seed: u64 = parsed(opts, "fp-seed", 0xDE11CE)?;
    let jobs: usize = parsed(opts, "jobs", 0)?;
    let jobs = if jobs == 0 { None } else { Some(jobs) };
    let budget = memory_budget(opts)?;
    let fp_cfg = WatermarkConfig {
        bits_per_layer: fp_bits,
        pool_ratio: fp_pool,
        selection_seed: fp_seed,
        ..Default::default()
    };

    // Score once: open the vault (a keyed one is read through its key,
    // not decoded or re-located), take the base artifact's bytes and
    // score the fingerprint pools over them. Every device is then the
    // base artifact with its patches spliced in flight straight to its
    // file — O(fingerprint bits) per device, and no device artifact
    // (let alone the fleet) is ever resident. Nothing is written before
    // the vault has been read and checked.
    let start = std::time::Instant::now();
    let provisioner = FleetProvisioner::for_family(Arc::new(open_family(secrets_path)?), fp_cfg)
        .map_err(|e| e.to_string())?;
    let cache_time = start.elapsed();
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("creating {}: {e}", out_dir.display()))?;
    let ids: Vec<String> = (0..devices).map(|i| format!("{prefix}-{i:04}")).collect();

    let jobs = if budget.is_some() {
        if jobs.is_some() {
            println!("note: --jobs is ignored under --max-resident-mb (streaming mode is serial)");
        }
        println!("streaming provisioning (device artifacts spliced straight to disk)…");
        Some(1)
    } else {
        jobs
    };
    // `jobs` workers each splice whole device files; the output does not
    // depend on how many.
    let start = std::time::Instant::now();
    let fingerprints = par_map(&ids, jobs, |id| {
        let path = out_dir.join(format!("{id}.emqm"));
        provisioner
            .provision_artifact_into(id, create_file(&path)?)
            .map_err(|e| format!("writing {}: {e}", path.display()))
    })
    .into_iter()
    .collect::<Result<Vec<_>, _>>()?;
    let batch_time = start.elapsed();
    write_file(
        &out_dir.join("fleet.emfr"),
        &encode_registry(provisioner.fingerprint_config(), &fingerprints),
    )?;
    if let Some(bundle_path) = opts.get("bundle") {
        provisioner
            .provision_bundle_into(&ids, create_file(Path::new(bundle_path))?)
            .map_err(|e| format!("writing {bundle_path}: {e}"))?;
        let streamed = if budget.is_some() { " (streamed)" } else { "" };
        println!("wrote fleet bundle to {bundle_path}{streamed}");
    }
    if let Some(raw) = opts.get("shards") {
        let shard_count: usize = raw
            .parse()
            .map_err(|_| format!("--shards: cannot parse `{raw}`"))?;
        // Sharded registry: device entries split across registry-NNNNN
        // shard files under an EMFM manifest that also persists the
        // fingerprint-cell inverted index. Each shard is written as soon
        // as it is encoded — per-shard memory, not per-fleet.
        let start = std::time::Instant::now();
        let manifest =
            provision_sharded_into(&provisioner, &ids, shard_count, jobs, |name, bytes| {
                std::fs::write(out_dir.join(name), bytes)
            })
            .map_err(|e| e.to_string())?;
        write_file(&out_dir.join("fleet.emfm"), &encode_manifest(&manifest))?;
        println!(
            "wrote sharded registry: {} shard file(s) + fleet.emfm manifest \
             ({} leak-index cells over {} devices) in {:.1} ms",
            manifest.shards.len(),
            manifest.index.cell_count(),
            manifest.total_devices,
            start.elapsed().as_secs_f64() * 1e3
        );
    }
    println!(
        "provisioned {devices} fingerprinted artifacts in {} ({fp_bits} fingerprint bits/layer; \
         score-once cache {:.1} ms, delta-patched batch {:.1} ms)",
        out_dir.display(),
        cache_time.as_secs_f64() * 1e3,
        batch_time.as_secs_f64() * 1e3
    );
    enforce_memory_budget(budget)?;
    println!(
        "try: emmark fleet-verify --secrets SECRETS --registry {0}/fleet.emfr --artifacts {0}",
        out_dir.display()
    );
    Ok(())
}

/// Reads every `.emqm` artifact in a directory, sorted by file name.
fn read_artifacts_dir(dir: &Path) -> Result<(Vec<String>, Vec<Vec<u8>>), String> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("reading {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "emqm"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("no .emqm artifacts in {}", dir.display()));
    }
    let names = paths
        .iter()
        .map(|p| {
            p.file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default()
        })
        .collect();
    let artifacts = paths
        .iter()
        .map(|p| read_file(&p.display().to_string()))
        .collect::<Result<_, _>>()?;
    Ok((names, artifacts))
}

/// Opens a fleet registry file as emmarkd opens one ([`open_registry`]):
/// shard files resolve beside a manifest.
fn load_registry(path: &str) -> Result<Registry, String> {
    let path = Path::new(path);
    open_registry(Input::Path(path), path.parent()).map_err(|e| e.to_string())
}

/// The verification engine over a registry, its leak index attached
/// when it carries one: the family cache is built exactly once.
fn registry_verifier(family: Family, registry: Registry) -> Result<FleetVerifier, String> {
    let verifier = FleetVerifier::for_family(
        family,
        registry.fingerprint_config,
        registry.devices,
        registry.pools.as_ref(),
    )
    .map_err(|e| e.to_string())?;
    match registry.index {
        Some(index) => verifier.with_index(index).map_err(|e| e.to_string()),
        None => Ok(verifier),
    }
}

/// Where the suspect artifacts for `fleet-verify` come from: a
/// provisioned-fleet bundle that is streamed (twice — fingerprints,
/// then artifacts), or a directory of `.emqm` files read up front.
enum FleetSource {
    Bundle(String),
    Dir(Vec<String>, Vec<Vec<u8>>),
}

fn open_bundle(path: &str) -> Result<FleetBundleStream<BufReader<File>>, String> {
    let file = File::open(path).map_err(|e| format!("reading {path}: {e}"))?;
    FleetBundleStream::open(BufReader::new(file)).map_err(|e| e.to_string())
}

fn cmd_fleet_verify(opts: &HashMap<String, String>) -> Result<(), String> {
    let family = open_family(required(opts, "secrets")?)?;
    let threshold: f64 = parsed(opts, "threshold", -6.0)?;
    let jobs: usize = parsed(opts, "jobs", 0)?;
    let jobs = if jobs == 0 { None } else { Some(jobs) };

    // Three sources — a provisioned-fleet bundle, a sharded EMFM
    // manifest, or a flat registry plus a directory of .emqm files —
    // all opened to the same parts (fingerprint config, device list,
    // optional leak index and pools) so the expensive family cache
    // below is built exactly once. A bundle's first pass reads its
    // artifacts and drops them one at a time — never the whole fleet.
    let (registry, source) = match opts.get("bundle") {
        Some(bundle) => (load_registry(bundle)?, FleetSource::Bundle(bundle.clone())),
        None => {
            let registry = match opts.get("manifest") {
                Some(manifest) => load_registry(manifest)?,
                None => load_registry(required(opts, "registry")?)?,
            };
            let (names, artifacts) = read_artifacts_dir(Path::new(required(opts, "artifacts")?))?;
            (registry, FleetSource::Dir(names, artifacts))
        }
    };

    match &registry.index {
        Some(ix) => println!(
            "building the verification cache ({} registered devices, {} leak-index cells)…",
            registry.devices.len(),
            ix.cell_count()
        ),
        None => println!(
            "building the verification cache ({} registered devices)…",
            registry.devices.len()
        ),
    }
    let start = std::time::Instant::now();
    let verifier = registry_verifier(family, registry)?;
    let cache_time = start.elapsed();

    let start = std::time::Instant::now();
    let verdicts: Vec<(String, Result<FleetVerdict, FleetError>)> = match source {
        FleetSource::Bundle(path) => {
            // Pass 2: stream the bundle again, verifying rings of
            // artifacts in parallel.
            let ring = jobs.unwrap_or(4).max(1) * 4;
            let mut stream = open_bundle(&path)?;
            verifier
                .verify_bundle_stream(&mut stream, threshold, jobs, ring)
                .map_err(|e| e.to_string())?
        }
        FleetSource::Dir(names, artifacts) => names
            .into_iter()
            .zip(verifier.verify_batch(&artifacts, threshold, jobs))
            .collect(),
    };
    let verify_time = start.elapsed();
    verifier.check_reads().map_err(|e| e.to_string())?;

    println!(
        "\n{:<28} {:>10} {:>12} {:<18} {:>12}",
        "artifact", "WER (%)", "log10(p)", "traced device", "fp WER (%)"
    );
    let mut owned = 0usize;
    let mut traced = 0usize;
    let mut failed = 0usize;
    for (name, verdict) in &verdicts {
        match verdict {
            Ok(v) => {
                if v.proves_ownership(threshold) {
                    owned += 1;
                }
                let (device, fp_wer) = match &v.attribution {
                    Some((d, r)) => {
                        traced += 1;
                        (d.device_id.clone(), format!("{:.1}", r.wer()))
                    }
                    None => ("-".to_string(), "-".to_string()),
                };
                println!(
                    "{:<28} {:>10.1} {:>12.1} {:<18} {:>12}",
                    name,
                    v.ownership.wer(),
                    v.ownership.log10_p_chance(),
                    device,
                    fp_wer
                );
            }
            Err(e) => {
                failed += 1;
                println!("{name:<28} {e}");
            }
        }
    }
    println!(
        "\n{} artifacts: {owned} prove ownership, {traced} traced to a device, {failed} failed \
         (cache {:.1} ms, verify {:.1} ms; v2 artifacts use sparse random-access reads)",
        verdicts.len(),
        cache_time.as_secs_f64() * 1e3,
        verify_time.as_secs_f64() * 1e3
    );
    if failed > 0 {
        return Err(format!("{failed} artifact(s) failed to verify"));
    }
    Ok(())
}

fn cmd_identify_leak(opts: &HashMap<String, String>) -> Result<(), String> {
    let family = open_family(required(opts, "secrets")?)?;
    let threshold: f64 = parsed(opts, "threshold", -6.0)?;
    let registry = load_registry(required(opts, "manifest")?)?;
    let suspect = open_file(required(opts, "suspect")?)?;
    let linear = opts.contains_key("linear");
    println!(
        "registry: {} devices, {} leak-index cells",
        registry.devices.len(),
        registry.index.as_ref().map_or(0, LeakIndex::cell_count)
    );

    let start = std::time::Instant::now();
    let verifier = registry_verifier(family, registry)?;
    println!(
        "verification cache built in {:.1} ms",
        start.elapsed().as_secs_f64() * 1e3
    );

    // The suspect is probed sparsely: only the indexed fingerprint
    // cells are read.
    let start = std::time::Instant::now();
    let sparse = SparseArtifact::open_file(suspect).map_err(|e| e.to_string())?;
    let traced = if linear {
        verifier.identify_leak_linear(&sparse, threshold)
    } else {
        verifier.identify_leak(&sparse, threshold)
    };
    sparse.check_reads().map_err(|e| e.to_string())?;
    verifier.check_reads().map_err(|e| e.to_string())?;
    let traced = traced
        .map_err(|e| e.to_string())?
        .map(|(d, r)| (d.clone(), r));
    println!(
        "{} identification in {:.2} ms",
        if linear {
            "linear (every device scored)"
        } else {
            "indexed (bucket-narrowed)"
        },
        start.elapsed().as_secs_f64() * 1e3
    );

    match traced {
        Some((device, report)) => {
            println!(
                "traced to {}: {} / {} fingerprint bits (WER {:.1}%), p = 10^{:.1}",
                device.device_id,
                report.matched_bits,
                report.total_bits,
                report.wer(),
                report.log10_p_chance()
            );
            Ok(())
        }
        None => Err(format!(
            "no registered device clears the 10^{threshold} threshold"
        )),
    }
}

fn cmd_serve(opts: &HashMap<String, String>) -> Result<(), String> {
    let defaults = ServiceConfig::default();
    let workers: usize = parsed(opts, "workers", 0)?;
    let cfg = ServiceConfig {
        workers: if workers == 0 {
            defaults.workers
        } else {
            workers
        },
        queue_capacity: parsed(opts, "queue", defaults.queue_capacity)?,
        cache_capacity: parsed(opts, "cache-families", defaults.cache_capacity)?,
        max_resident_bytes: memory_budget(opts)?.map(|mib| mib as u64 * 1024 * 1024),
        retry_after_ms: parsed(opts, "retry-after-ms", defaults.retry_after_ms)?,
    };
    eprintln!(
        "emmarkd: {} workers, queue {}, {} resident model families{}",
        cfg.workers,
        cfg.queue_capacity,
        cfg.cache_capacity,
        match cfg.max_resident_bytes {
            Some(b) => format!(", {} MiB resident budget", b / (1024 * 1024)),
            None => String::new(),
        }
    );
    let service = Service::start(cfg);
    match opts.get("socket") {
        Some(path) => serve_socket(service, path),
        None => serve_stdio(&service),
    }
}

/// Serves framed requests over stdin/stdout: one length-prefixed
/// request frame in, one response frame out (order may differ from the
/// request order — responses carry the request id). EOF on stdin
/// drains the queue and shuts down.
fn serve_stdio(service: &Service) -> Result<(), String> {
    use std::io::Write as _;
    let stdout = std::sync::Arc::new(std::sync::Mutex::new(std::io::stdout()));
    let mut stdin = std::io::stdin().lock();
    loop {
        match read_frame(&mut stdin) {
            Ok(Some(payload)) => {
                let out = std::sync::Arc::clone(&stdout);
                service.submit(
                    payload,
                    Box::new(move |resp| {
                        let mut w = out.lock().unwrap();
                        let _ = write_frame(&mut *w, &resp);
                        let _ = w.flush();
                    }),
                );
            }
            Ok(None) => break,
            Err(e) => return Err(format!("reading request frame: {e}")),
        }
        if service.is_stopped() {
            break;
        }
    }
    // A shutdown request drains in-flight work before stopping; if a
    // client already shut us down this is answered with a harmless
    // "shutting down" error that nobody reads.
    let _ = service.request(u64::MAX, &Request::Shutdown);
    service.wait_stopped();
    eprintln!("emmarkd: drained, exiting");
    Ok(())
}

/// Serves framed requests over a Unix socket, one handler thread per
/// connection. A shutdown request (from any connection) drains the
/// queue, stops the pool, unblocks the accept loop, and closes every
/// connection still open so idle clients cannot keep the daemon alive.
fn serve_socket(service: Service, path: &str) -> Result<(), String> {
    use std::os::unix::fs::FileTypeExt as _;
    use std::os::unix::net::{UnixListener, UnixStream};
    // A stale socket file from a crashed daemon would make bind fail, but
    // only reclaim the path if it really is an abandoned socket: refuse to
    // clobber a non-socket file (likely a mistyped --socket) or to steal
    // the address out from under a daemon that still answers.
    if let Ok(meta) = std::fs::symlink_metadata(path) {
        if !meta.file_type().is_socket() {
            return Err(format!(
                "--socket {path} exists and is not a socket; refusing to remove it"
            ));
        }
        if UnixStream::connect(path).is_ok() {
            return Err(format!(
                "another daemon is already listening on {path}; refusing to replace it"
            ));
        }
        std::fs::remove_file(path).map_err(|e| format!("removing stale socket {path}: {e}"))?;
    }
    let listener = UnixListener::bind(path).map_err(|e| format!("binding {path}: {e}"))?;
    eprintln!("emmarkd: listening on {path}");
    let service = std::sync::Arc::new(service);

    // accept() has no timeout, so a helper thread waits for the pool to
    // stop and then pokes the socket to unblock the final accept.
    let waker = {
        let service = std::sync::Arc::clone(&service);
        let path = path.to_string();
        std::thread::Builder::new()
            .name("emmarkd-waker".into())
            .stack_size(256 * 1024)
            .spawn(move || {
                service.wait_stopped();
                let _ = UnixStream::connect(&path);
            })
            .map_err(|e| format!("spawning waker thread: {e}"))?
    };

    // Each live handler beside a weak handle on its connection, so the
    // drain below can unblock a handler parked in read_frame. Weak, so a
    // handler that ends still closes its end of the socket as before.
    type Handler = (std::thread::JoinHandle<()>, std::sync::Weak<UnixStream>);
    let mut handlers: Vec<Handler> = Vec::new();
    for conn in listener.incoming() {
        if service.is_stopped() {
            break;
        }
        let conn = match conn {
            Ok(c) => c,
            Err(e) => {
                eprintln!("emmarkd: accept failed: {e}");
                continue;
            }
        };
        let conn = std::sync::Arc::new(conn);
        let peer = std::sync::Arc::downgrade(&conn);
        let service = std::sync::Arc::clone(&service);
        let handle = std::thread::Builder::new()
            .name("emmarkd-conn".into())
            .stack_size(512 * 1024)
            .spawn(move || serve_conn(&service, conn))
            .map_err(|e| format!("spawning connection thread: {e}"))?;
        handlers.push((handle, peer));
        // Reap handles whose connections already hung up, so a long-lived
        // daemon holds one JoinHandle per live connection, not per
        // connection ever served.
        let mut i = 0;
        while i < handlers.len() {
            if handlers[i].0.is_finished() {
                let _ = handlers.swap_remove(i).0.join();
            } else {
                i += 1;
            }
        }
    }
    // The pool has stopped, so every reply (ShutdownComplete included)
    // is already written. A client that keeps its connection open would
    // leave its handler blocked in read_frame forever; shutting the
    // connection down makes that read return EOF.
    for (handle, peer) in handlers {
        if let Some(conn) = peer.upgrade() {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
        let _ = handle.join();
    }
    let _ = waker.join();
    let _ = std::fs::remove_file(path);
    eprintln!("emmarkd: drained, exiting");
    Ok(())
}

fn serve_conn(service: &Service, conn: std::sync::Arc<std::os::unix::net::UnixStream>) {
    let writer = match conn.try_clone() {
        Ok(w) => std::sync::Arc::new(std::sync::Mutex::new(w)),
        Err(e) => {
            eprintln!("emmarkd: cloning connection: {e}");
            return;
        }
    };
    let mut reader = BufReader::new(&*conn);
    loop {
        match read_frame(&mut reader) {
            Ok(Some(payload)) => {
                let out = std::sync::Arc::clone(&writer);
                service.submit(
                    payload,
                    Box::new(move |resp| {
                        let mut w = out.lock().unwrap();
                        let _ = write_frame(&mut *w, &resp);
                    }),
                );
            }
            Ok(None) => break,
            Err(e) => {
                eprintln!("emmarkd: dropping connection: {e}");
                break;
            }
        }
        if service.is_stopped() {
            break;
        }
    }
}

fn cmd_attack(opts: &HashMap<String, String>) -> Result<(), String> {
    let mut model =
        decode_model(&read_file(required(opts, "model")?)?).map_err(|e| e.to_string())?;
    let per_layer_raw = required(opts, "per-layer")?;
    let per_layer: usize = per_layer_raw
        .parse()
        .map_err(|_| format!("--per-layer: cannot parse `{per_layer_raw}`"))?;
    let seed: u64 = parsed(opts, "seed", 666)?;
    let touched = overwrite_attack(&mut model, &OverwriteConfig { per_layer, seed });
    let out = required(opts, "out")?;
    write_file(Path::new(out), &encode_model(&model))?;
    println!("overwrote {touched} cells; attacked model written to {out}");
    Ok(())
}
