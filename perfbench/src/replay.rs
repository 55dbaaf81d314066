//! Traced replays of the one-shot commands: the stages `fleet-provision`,
//! `verify` and `identify-leak` run, called in the same order through the
//! same public functions, each wrapped in a span. One replay runs per
//! process, so it starts as cold as the command it mirrors; it prints one
//! JSON line with its spans, the program's counter deltas, and the
//! verdicts (checked like the command's output).

use crate::setup::{cli_device_ids, cli_fingerprint_config};
use crate::trace::{Counts, Trace};
use crate::util::{Args, Json};
use emmark_core::deploy::SparseArtifact;
use emmark_core::provision::FleetProvisioner;
use emmark_core::registry::{encode_manifest, load_sharded_registry, provision_sharded_into};
use emmark_core::telemetry::Telemetry;
use emmark_core::vault::decode_secrets;
use emmark_core::watermark::{extract_with_locations, locate_watermark};
use std::path::Path;

/// The CLI's default `--threshold` for identify-leak.
const IDENTIFY_THRESHOLD: f64 = -6.0;

fn emit(trace: &Trace, counts: &Counts, result: String) {
    println!(
        "{}",
        Json::default()
            .raw("spans", &trace.to_json())
            .raw("counts", &counts.to_json())
            .raw("result", &result)
            .finish()
    );
}

/// `fleet-provision --secrets V --out-dir O --devices N --shards S`.
pub fn provision(args: &Args) -> Result<(), String> {
    let vault = Path::new(args.str("vault")?);
    let out_dir = Path::new(args.str("out-dir")?);
    let devices: usize = args.num("devices")?;
    let shards: usize = args.num("shards")?;
    Telemetry::set_enabled(true);
    let counts = Counts::start();
    let mut t = Trace::new();
    let err = |e: &dyn std::fmt::Display| e.to_string();

    let bytes = t.read(vault).map_err(|e| err(&e))?;
    let secrets = t
        .span("vault.decode", |_| decode_secrets(&bytes))
        .map_err(|e| err(&e))?;
    drop(bytes);
    t.span("io.write", |_| std::fs::create_dir_all(out_dir))
        .map_err(|e| err(&e))?;
    let provisioner = t
        .span("provision.family_build", |_| {
            FleetProvisioner::new(secrets, cli_fingerprint_config())
        })
        .map_err(|e| err(&e))?;
    let ids = cli_device_ids(devices);
    let provisioned = t.span("provision.batch", |_| {
        provisioner.provision_batch(&ids, None)
    });
    for device in &provisioned {
        let path = out_dir.join(format!("{}.emqm", device.fingerprint.device_id));
        t.write(&path, &device.artifact).map_err(|e| err(&e))?;
    }
    let registry = t.span("registry.flat_encode", |_| {
        provisioner.registry(&provisioned)
    });
    t.write(&out_dir.join("fleet.emfr"), &registry)
        .map_err(|e| err(&e))?;
    let manifest = t
        .span("registry.shard", |t| {
            provision_sharded_into(&provisioner, &ids, shards, None, |name, b| {
                t.write(&out_dir.join(name), b)
            })
        })
        .map_err(|e| err(&e))?;
    let manifest_bytes = t.span("registry.manifest_encode", |_| encode_manifest(&manifest));
    t.write(&out_dir.join("fleet.emfm"), &manifest_bytes)
        .map_err(|e| err(&e))?;
    t.span("mem.free", |_| drop((provisioned, provisioner, manifest)));

    emit(
        &t,
        &counts,
        Json::default().int("devices", devices as u64).finish(),
    );
    Ok(())
}

/// `verify --secrets V --suspect S`, then
/// `identify-leak --secrets V --manifest M --suspect S`.
pub fn forensic(args: &Args) -> Result<(), String> {
    let vault = Path::new(args.str("vault")?);
    let manifest = Path::new(args.str("manifest")?);
    let suspect = Path::new(args.str("suspect")?);
    Telemetry::set_enabled(true);
    let counts = Counts::start();
    let mut t = Trace::new();
    let err = |e: &dyn std::fmt::Display| e.to_string();

    // verify
    let bytes = t.read(vault).map_err(|e| err(&e))?;
    let secrets = t
        .span("vault.decode", |_| decode_secrets(&bytes))
        .map_err(|e| err(&e))?;
    drop(bytes);
    let suspect_bytes = t.read(suspect).map_err(|e| err(&e))?;
    let mut suspect_loaded = suspect_bytes.len();
    let sparse = t
        .span("deploy.sparse_open", |_| {
            SparseArtifact::open(&suspect_bytes)
        })
        .map_err(|e| err(&e))?;
    let locations = t
        .span("watermark.locate", |_| {
            locate_watermark(&secrets.original, &secrets.stats, &secrets.config)
        })
        .map_err(|e| err(&e))?;
    let report = t
        .span("watermark.extract", |_| {
            extract_with_locations(&sparse, &secrets.original, &locations, &secrets.signature)
        })
        .map_err(|e| err(&e))?;
    drop(sparse);
    t.span("mem.free", |_| drop((secrets, suspect_bytes, locations)));

    // identify-leak
    let bytes = t.read(vault).map_err(|e| err(&e))?;
    let secrets = t
        .span("vault.decode", |_| decode_secrets(&bytes))
        .map_err(|e| err(&e))?;
    drop(bytes);
    let manifest_bytes = t.read(manifest).map_err(|e| err(&e))?;
    let dir = manifest.parent().unwrap_or(Path::new("."));
    // registry.load carries the bytes it decodes: the manifest's plus
    // every shard's (the shard reads themselves are child spans).
    let registry = t
        .span("registry.load", |t| {
            t.bytes(manifest_bytes.len());
            load_sharded_registry(&manifest_bytes, |name| {
                let shard = t.read(&dir.join(name))?;
                t.bytes(shard.len());
                Ok(shard)
            })
        })
        .map_err(|e| err(&e))?;
    let suspect_bytes = t.read(suspect).map_err(|e| err(&e))?;
    suspect_loaded += suspect_bytes.len();
    let verifier = t
        .span("fleet.build", |_| registry.into_verifier(secrets))
        .map_err(|e| err(&e))?;
    let sparse = t
        .span("deploy.sparse_open", |_| {
            SparseArtifact::open(&suspect_bytes)
        })
        .map_err(|e| err(&e))?;
    let traced = t
        .span("registry.probe", |_| {
            verifier.identify_leak(&sparse, IDENTIFY_THRESHOLD)
        })
        .map_err(|e| err(&e))?
        .map(|(d, r)| (d.device_id.clone(), r));
    drop(sparse);
    t.span("mem.free", |_| {
        drop((verifier, suspect_bytes, manifest_bytes))
    });

    let result = Json::default()
        .int("matched_bits", report.matched_bits as u64)
        .int("total_bits", report.total_bits as u64)
        .int("suspect_bytes", suspect_loaded as u64)
        .str("traced", traced.as_ref().map_or("-", |(id, _)| id.as_str()))
        .finish();
    emit(&t, &counts, result);
    Ok(())
}
