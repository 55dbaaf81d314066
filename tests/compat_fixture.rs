//! Compatibility with files written before vaults carried a derived key
//! and manifests carried fingerprint pools. `tests/fixtures/keyless_v1/`
//! holds a keyless owner vault (`emmark demo --steps 5 --bits 4 --seed
//! 7`), the version 1 manifest and two shards of an 8-device
//! `fleet-provision --shards 2` over it, the artifact of device-0005,
//! and the base-watermarked (ownership only) artifact. The vault opens
//! as a keyed one does, its key derived at open by locating over the
//! embedded artifact; the manifest's pools are scored over the base
//! artifact. `verify` and `identify-leak` must reach the verdicts the
//! release that wrote them printed, and `fleet-provision` must still
//! write the devices and shards that release wrote.

use emmark::core::fingerprint::Family;
use emmark::core::registry::decode_manifest;
use std::fs::File;
use std::path::PathBuf;
use std::process::Output;

fn fixture(name: &str) -> String {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/keyless_v1")
        .join(name)
        .display()
        .to_string()
}

fn emmark(args: &[&str]) -> Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_emmark"))
        .args(args)
        .output()
        .expect("run emmark")
}

/// Stdout without the lines that report timings.
fn verdict_lines(out: &Output) -> Vec<String> {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter(|l| !l.ends_with(" ms"))
        .map(str::to_string)
        .collect()
}

#[test]
fn the_fixture_is_keyless_and_version_1() {
    let family = Family::open(File::open(fixture("secrets.emws")).expect("vault")).expect("open");
    assert!(!family.is_keyed(), "the fixture predates the derived key");
    let manifest = std::fs::read(fixture("fleet.emfm")).expect("manifest");
    assert_eq!(&manifest[4..8], &1u32.to_le_bytes(), "a version 1 manifest");
    assert!(decode_manifest(&manifest).expect("decode").pools.is_none());
    let out = emmark(&["inspect", "--model", &fixture("secrets.emws")]);
    assert!(out.status.success());
    assert!(verdict_lines(&out)
        .iter()
        .any(|l| l.starts_with("key     : none")));
}

#[test]
fn verify_reaches_the_verdicts_the_writing_release_printed() {
    let expected = [
        "suspect : v2 artifact (43 KiB), sparse random-access extraction",
        "matched 52 / 52 bits  (WER 100.0%)",
        "chance-match probability: 10^-15.7",
        "verdict: OWNERSHIP PROVED (p < 1e-9)",
    ];
    for suspect in ["leaked-device-0005.emqm", "near-miss-deployed.emqm"] {
        let out = emmark(&[
            "verify",
            "--secrets",
            &fixture("secrets.emws"),
            "--suspect",
            &fixture(suspect),
        ]);
        assert!(out.status.success(), "{suspect}");
        assert_eq!(verdict_lines(&out), expected, "{suspect}");
    }
}

#[test]
fn identify_leak_reaches_the_verdicts_the_writing_release_printed() {
    let (vault, manifest) = (fixture("secrets.emws"), fixture("fleet.emfm"));
    let identify = |suspect: &str, linear: bool| {
        let suspect = fixture(suspect);
        let mut args = vec![
            "identify-leak",
            "--secrets",
            &vault,
            "--manifest",
            &manifest,
            "--suspect",
            &suspect,
        ];
        if linear {
            args.push("--linear");
        }
        emmark(&args)
    };
    for linear in [false, true] {
        let out = identify("leaked-device-0005.emqm", linear);
        assert!(out.status.success(), "linear: {linear}");
        assert_eq!(
            verdict_lines(&out),
            [
                "registry: 8 devices, 228 leak-index cells",
                "traced to device-0005: 39 / 39 fingerprint bits (WER 100.0%), p = 10^-11.7",
            ],
            "linear: {linear}"
        );
    }
    let out = identify("near-miss-deployed.emqm", false);
    assert!(!out.status.success());
    assert_eq!(
        verdict_lines(&out),
        ["registry: 8 devices, 228 leak-index cells"]
    );
    assert_eq!(
        String::from_utf8_lossy(&out.stderr).trim(),
        "error: no registered device clears the 10^-6 threshold"
    );
}

#[test]
fn fleet_provision_rewrites_the_devices_and_shards_the_writing_release_wrote() {
    let dir = std::env::temp_dir().join(format!("emmark-keyless-v1-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out_dir = dir.display().to_string();
    let out = emmark(&[
        "fleet-provision",
        "--secrets",
        &fixture("secrets.emws"),
        "--out-dir",
        &out_dir,
        "--devices",
        "8",
        "--shards",
        "2",
    ]);
    let read = |path: PathBuf| std::fs::read(&path).expect("read");
    let same = |written: &str, fixture_name: &str| {
        read(dir.join(written)) == read(PathBuf::from(fixture(fixture_name)))
    };
    let ok = out.status.success()
        && same("device-0005.emqm", "leaked-device-0005.emqm")
        && same("registry-00000.emfr", "registry-00000.emfr")
        && same("registry-00001.emfr", "registry-00001.emfr");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(ok, "{}", String::from_utf8_lossy(&out.stderr));
}
