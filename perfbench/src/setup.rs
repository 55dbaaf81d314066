//! Input generation: everything a run needs, derived from the workload
//! seed through the library's public functions. Nothing is trained and
//! nothing is downloaded.
//!
//! Layout under `--dir`:
//!
//! ```text
//! secrets.emws                 owner vault of the w384 family
//! fleet/fleet.emfm             2^15-device manifest + 16 registry shards
//! suspects/leak-K.emqm         leaked device artifacts (device known)
//! suspects/near-0.emqm         base-only artifact: owned, traced to nobody
//! suspects.tsv                 file <TAB> expected device id (or -)
//! expected/provision/...       what `fleet-provision --devices 16 --shards 2` must write
//! expected/serve/<id>.emqm     what a daemon Provision request must return
//! serve_ids.tsv                id <TAB> selection seed <TAB> signature seed
//! ```

use crate::util::{Args, Json, Rng};
use emmark_core::provision::FleetProvisioner;
use emmark_core::registry::{encode_manifest, provision_sharded_into};
use emmark_core::vault::{decode_secrets, encode_secrets};
use emmark_core::watermark::{OwnerSecrets, WatermarkConfig};
use emmark_nanolm::{ModelConfig, TransformerModel};
use emmark_quant::awq::{awq, AwqConfig};
use std::fs;
use std::path::Path;

/// Devices in the forensic fleet, and the shards they are split over.
pub const FLEET_DEVICES: usize = 1 << 15;
pub const FLEET_SHARDS: usize = 16;
/// What one `provision` op asks the CLI for.
pub const PROVISION_DEVICES: usize = 16;
pub const PROVISION_SHARDS: usize = 2;
const LEAKS: usize = 8;
const SERVE_IDS: usize = 8;

/// The CLI's default fingerprint settings (`--fp-bits 3 --fp-pool 10
/// --fp-seed 0xDE11CE`).
pub fn cli_fingerprint_config() -> WatermarkConfig {
    WatermarkConfig {
        bits_per_layer: 3,
        pool_ratio: 10,
        selection_seed: 0xDE11CE,
        ..Default::default()
    }
}

/// The device ids `fleet-provision --devices n` stamps.
pub fn cli_device_ids(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("device-{i:04}")).collect()
}

fn write(path: &Path, bytes: &[u8]) -> Result<(), String> {
    fs::write(path, bytes).map_err(|e| format!("writing {}: {e}", path.display()))
}

fn mkdir(path: &Path) -> Result<(), String> {
    fs::create_dir_all(path).map_err(|e| format!("creating {}: {e}", path.display()))
}

/// The `w384` family: an untrained d_model 384 / d_ff 1152 transformer,
/// AWQ INT4, stamped with the `emmark demo` watermark settings.
fn owner_secrets(rng: &mut Rng) -> OwnerSecrets {
    let mut cfg = ModelConfig::tiny_test();
    cfg.name = "w384".to_string();
    cfg.d_model = 384;
    cfg.d_ff = 1152;
    cfg.init_seed = rng.next_u64();
    let calibration: Vec<Vec<u32>> = (0..16)
        .map(|_| {
            (0..cfg.max_seq)
                .map(|_| rng.below(cfg.vocab_size) as u32)
                .collect()
        })
        .collect();
    let mut model = TransformerModel::new(cfg);
    let stats = model.collect_activation_stats(&calibration);
    let quantized = awq(&model, &stats, &AwqConfig::default());
    let wm_cfg = WatermarkConfig {
        bits_per_layer: 8,
        pool_ratio: 20,
        ..Default::default()
    };
    OwnerSecrets::new(quantized, stats, wm_cfg, rng.next_u64())
}

pub fn run(args: &Args) -> Result<(), String> {
    let seed: u64 = args.num("seed")?;
    let dir = Path::new(args.str("dir")?);
    let mut rng = Rng::new(seed);

    let vault = encode_secrets(&owner_secrets(&mut rng));
    mkdir(dir)?;
    write(&dir.join("secrets.emws"), &vault)?;
    // Everything downstream starts from the decoded vault, exactly as the
    // CLI and the daemon do.
    let secrets = decode_secrets(&vault).map_err(|e| e.to_string())?;
    let cells: usize = secrets
        .original
        .layers
        .iter()
        .map(|l| l.in_features() * l.out_features())
        .sum();
    let layers = secrets.original.layer_count();
    let provisioner =
        FleetProvisioner::new(secrets, cli_fingerprint_config()).map_err(|e| e.to_string())?;

    let fleet_dir = dir.join("fleet");
    mkdir(&fleet_dir)?;
    let fleet_ids = cli_device_ids(FLEET_DEVICES);
    let manifest = provision_sharded_into(
        &provisioner,
        &fleet_ids,
        FLEET_SHARDS,
        None,
        |name, bytes| fs::write(fleet_dir.join(name), bytes),
    )
    .map_err(|e| e.to_string())?;
    write(&fleet_dir.join("fleet.emfm"), &encode_manifest(&manifest))?;

    let suspects_dir = dir.join("suspects");
    mkdir(&suspects_dir)?;
    let mut suspects = String::new();
    let mut leaked: Vec<usize> = Vec::with_capacity(LEAKS);
    while leaked.len() < LEAKS {
        let d = rng.below(FLEET_DEVICES);
        if !leaked.contains(&d) {
            leaked.push(d);
        }
    }
    for (k, &d) in leaked.iter().enumerate() {
        let device = provisioner.provision_artifact(&fleet_ids[d]);
        let name = format!("leak-{k}.emqm");
        write(&suspects_dir.join(&name), &device.artifact)?;
        suspects.push_str(&format!("{name}\t{}\n", fleet_ids[d]));
    }
    write(
        &suspects_dir.join("near-0.emqm"),
        provisioner.base_artifact(),
    )?;
    suspects.push_str("near-0.emqm\t-\n");
    write(&dir.join("suspects.tsv"), suspects.as_bytes())?;

    // The bytes one `provision` op must reproduce, built the way
    // `fleet-provision` builds them.
    let expected = dir.join("expected").join("provision");
    mkdir(&expected)?;
    let ids = cli_device_ids(PROVISION_DEVICES);
    let provisioned = provisioner.provision_batch(&ids, None);
    for device in &provisioned {
        write(
            &expected.join(format!("{}.emqm", device.fingerprint.device_id)),
            &device.artifact,
        )?;
    }
    write(
        &expected.join("fleet.emfr"),
        &provisioner.registry(&provisioned),
    )?;
    let small = provision_sharded_into(&provisioner, &ids, PROVISION_SHARDS, None, |name, b| {
        fs::write(expected.join(name), b)
    })
    .map_err(|e| e.to_string())?;
    write(&expected.join("fleet.emfm"), &encode_manifest(&small))?;

    let serve_dir = dir.join("expected").join("serve");
    mkdir(&serve_dir)?;
    let mut serve_ids = String::new();
    for _ in 0..SERVE_IDS {
        let id = format!("edge-{:06}", rng.below(1_000_000));
        let device = provisioner.provision_artifact(&id);
        write(&serve_dir.join(format!("{id}.emqm")), &device.artifact)?;
        serve_ids.push_str(&format!(
            "{id}\t{}\t{}\n",
            device.fingerprint.selection_seed, device.fingerprint.signature_seed
        ));
    }
    write(&dir.join("serve_ids.tsv"), serve_ids.as_bytes())?;

    println!(
        "{}",
        Json::default()
            .int("seed", seed)
            .int("layers", layers as u64)
            .int("cells", cells as u64)
            .int("fleet_devices", FLEET_DEVICES as u64)
            .int("fleet_shards", FLEET_SHARDS as u64)
            .int("leak_index_cells", manifest.index.cell_count() as u64)
            .finish()
    );
    Ok(())
}
