//! Property-based equivalence of the provisioning engine: across random
//! watermark/fingerprint configurations, device sets, and bit widths,
//!
//! * [`FleetProvisioner`] artifacts are **byte-identical** to running
//!   the serial `Fleet::provision` + `encode_model` path, whether the
//!   provisioner was built from decoded secrets or from the keyed vault
//!   they encode to, and
//! * delta-patched artifacts decode to the same integer grids as full
//!   re-encodes (the patch path can never corrupt a cell the
//!   fingerprint didn't touch).

use emmark::core::deploy::{decode_model, encode_model};
use emmark::core::fingerprint::{Family, Fleet};
use emmark::core::provision::FleetProvisioner;
use emmark::core::vault::encode_secrets;
use emmark::core::watermark::{OwnerSecrets, WatermarkConfig};
use emmark::nanolm::model::ActivationStats;
use emmark::nanolm::{ModelConfig, TransformerModel};
use emmark::quant::awq::{awq, AwqConfig};
use emmark::quant::rtn::quantize_linear_rtn;
use emmark::quant::{ActQuant, Granularity, QuantizedModel};
use proptest::prelude::*;
use std::sync::Arc;

/// A quantized tiny model (with its activation profile) parameterized
/// by bit width and init seed.
fn quantized_setup(bits: u8, seed: u64) -> (QuantizedModel, ActivationStats) {
    let mut cfg = ModelConfig::tiny_test();
    cfg.init_seed = seed;
    let mut model = TransformerModel::new(cfg);
    let calib: Vec<Vec<u32>> = (0..4u32)
        .map(|s| (0..16u32).map(|i| (i * 7 + s) % 31).collect())
        .collect();
    let stats = model.collect_activation_stats(&calib);
    let qm = if bits == 4 {
        awq(&model, &stats, &AwqConfig::default())
    } else {
        QuantizedModel::quantize_with(&model, "rtn-int8", |_, lin| {
            quantize_linear_rtn(lin, 8, Granularity::PerOutChannel, ActQuant::None)
        })
    };
    (qm, stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Provisioned artifacts are byte-identical to the serial
    /// insert+encode path, and the registry entries match, for any
    /// config in the valid domain.
    #[test]
    fn provisioned_artifacts_equal_serial_insert_plus_encode(
        bits in prop::sample::select(vec![4u8, 8]),
        model_seed in 0u64..20,
        base_bits in 2usize..5,
        fp_bits in 1usize..4,
        base_selection_seed in 0u64..1_000_000,
        fp_selection_seed in 0u64..1_000_000,
        signature_seed in 0u64..1_000_000,
        n_devices in 1usize..4,
    ) {
        let (qm, stats) = quantized_setup(bits, model_seed);
        let base_cfg = WatermarkConfig {
            bits_per_layer: base_bits,
            pool_ratio: 10,
            selection_seed: base_selection_seed,
            ..Default::default()
        };
        let fp_cfg = WatermarkConfig {
            bits_per_layer: fp_bits,
            pool_ratio: 10,
            selection_seed: fp_selection_seed,
            ..Default::default()
        };
        let secrets = OwnerSecrets::new(qm, stats, base_cfg, signature_seed);
        let ids: Vec<String> = (0..n_devices).map(|i| format!("dev-{i}")).collect();

        let provisioner = FleetProvisioner::new(secrets.clone(), fp_cfg).expect("cache");
        let provisioned = provisioner.provision_batch(&ids, Some(2));
        let vault = std::env::temp_dir().join(format!("emmark-prov-eq-{}.emws", std::process::id()));
        std::fs::write(&vault, encode_secrets(&secrets)).expect("write vault");
        let family = Family::open(std::fs::File::open(&vault).expect("open")).expect("keyed");
        let _ = std::fs::remove_file(&vault);
        prop_assert!(family.is_keyed());
        let keyed = FleetProvisioner::for_family(Arc::new(family), fp_cfg).expect("keyed");
        prop_assert_eq!(keyed.provision_batch(&ids, Some(2)), provisioned.clone());

        let mut fleet = Fleet::new(secrets, fp_cfg);
        for (id, p) in ids.iter().zip(&provisioned) {
            let serial_model = fleet.provision(id).expect("provision");
            let serial_bytes = encode_model(&serial_model).to_vec();
            // Byte identity of the delta-patched artifact.
            prop_assert_eq!(&p.artifact, &serial_bytes, "device {}", id);
            prop_assert_eq!(
                &p.fingerprint,
                fleet.devices().last().expect("registered"),
                "device {}", id
            );
            // The patched artifact decodes to the same grids as the
            // serially fingerprinted model.
            let decoded = decode_model(&p.artifact).expect("decode");
            prop_assert!(decoded.same_weights(&serial_model), "device {}", id);
        }
    }

    /// Delta patching only moves the fingerprinted cells: every other
    /// cell of a provisioned artifact equals the base-watermarked
    /// model's, and exactly fingerprint-many cells differ by ±1.
    #[test]
    fn delta_patches_touch_exactly_the_fingerprint_cells(
        bits in prop::sample::select(vec![4u8, 8]),
        model_seed in 0u64..20,
        fp_bits in 1usize..4,
        fp_selection_seed in 0u64..1_000_000,
    ) {
        let (qm, stats) = quantized_setup(bits, model_seed);
        let base_cfg = WatermarkConfig {
            bits_per_layer: 3,
            pool_ratio: 10,
            ..Default::default()
        };
        let fp_cfg = WatermarkConfig {
            bits_per_layer: fp_bits,
            pool_ratio: 10,
            selection_seed: fp_selection_seed,
            ..Default::default()
        };
        let secrets = OwnerSecrets::new(qm, stats, base_cfg, 0xB17);
        let provisioner = FleetProvisioner::new(secrets, fp_cfg).expect("cache");
        let base = provisioner.base_deployed();
        let device = provisioner.provision_artifact("prop-device");
        let decoded = decode_model(&device.artifact).expect("decode");
        let mut changed = 0usize;
        for (l, layer) in decoded.layers.iter().enumerate() {
            for f in 0..layer.len() {
                let delta = layer.q_at_flat(f) as i16 - base.layers[l].q_at_flat(f) as i16;
                if delta != 0 {
                    prop_assert!(delta.abs() == 1, "layer {} cell {}: delta {}", l, f, delta);
                    changed += 1;
                }
            }
        }
        prop_assert_eq!(changed, fp_cfg.signature_len(base.layer_count()));
    }
}
