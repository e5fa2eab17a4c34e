//! Fleet subsystem end-to-end and property tests: wire-format round-trips,
//! schedule-independence digests, and population-statistics recovery with
//! fail-safe device exclusion.

use proptest::prelude::*;
use ulp_ldp::datasets::DatasetSpec;
use ulp_ldp::eval::GroundTruth;
use ulp_ldp::fleet::{FleetConfig, FleetDriver, Payload, Report, WireError, FRAME_LEN};

fn arb_report() -> impl Strategy<Value = Report> {
    (
        any::<u32>(),
        any::<u16>(),
        any::<u32>(),
        any::<i32>(),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(device, query, epoch, value, is_rr, bit)| Report {
            device,
            query,
            epoch,
            payload: if is_rr {
                Payload::RrBit(bit)
            } else {
                Payload::Value(value)
            },
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn wire_roundtrip_is_identity(report in arb_report()) {
        let frame = report.encode();
        prop_assert_eq!(frame.len(), FRAME_LEN);
        prop_assert_eq!(Report::decode(&frame).unwrap(), report);
    }

    #[test]
    fn truncated_frames_are_typed_errors(report in arb_report(), keep in 0usize..FRAME_LEN) {
        let frame = report.encode();
        prop_assert_eq!(
            Report::decode(&frame[..keep]),
            Err(WireError::Truncated { got: keep })
        );
    }

    #[test]
    fn corrupted_frames_never_decode_silently(
        report in arb_report(),
        byte in 0usize..FRAME_LEN,
        mask in 1u8..=255,
    ) {
        let mut frame = report.encode();
        frame[byte] ^= mask;
        // The 16-bit checksum can collide (p ≈ 2⁻¹⁶); a "successful"
        // decode must at least never resurrect the original report
        // from different bytes.
        if let Ok(decoded) = Report::decode(&frame) {
            prop_assert_ne!(decoded, report);
        }
    }

    #[test]
    fn future_versions_are_rejected(report in arb_report(), version in 3u8..=255) {
        let mut frame = report.encode();
        frame[1] = version;
        prop_assert_eq!(
            Report::decode(&frame),
            Err(WireError::UnsupportedVersion { found: version })
        );
    }
}

fn digest_cfg() -> FleetConfig {
    FleetConfig {
        chunk: 64,
        ..FleetConfig::paper_default(400, 2, 77)
    }
}

/// Child half of the determinism matrix: prints the digest (and ledger
/// digest) of a fixed fleet run under whatever `ULP_PAR_THREADS` /
/// `ULP_FLEET_INGEST_PATH` the parent set.
#[test]
#[ignore = "helper re-executed by digest_identical_across_threads_and_paths"]
fn thread_digest_child() {
    let out = FleetDriver::new(digest_cfg()).unwrap().run().unwrap();
    println!(
        "FLEET_DIGEST={:016x}:{:016x}",
        out.digest(),
        out.ledger_digest
    );
}

/// `ulp_par::threads()` latches once per process, so thread-count variation
/// needs fresh processes: re-exec this test binary filtered to the child
/// helper across a (threads × ingest path) matrix. Every cell — 1 or 4
/// workers, columnar or scalar-reference ingest — must produce the same
/// outcome digest *and* the same fleet ledger digest bit for bit.
#[test]
fn digest_identical_across_threads_and_paths() {
    let exe = std::env::current_exe().expect("test binary path");
    let digest_at = |threads: &str, path: &str| -> String {
        let output = std::process::Command::new(&exe)
            .args(["thread_digest_child", "--exact", "--ignored", "--nocapture"])
            .env("ULP_PAR_THREADS", threads)
            .env("ULP_FLEET_INGEST_PATH", path)
            .output()
            .expect("re-exec test binary");
        assert!(
            output.status.success(),
            "child run failed at {threads} threads, {path} path: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        // libtest may emit the digest on the same line as its own "test …"
        // prefix, so search for the marker rather than a line prefix.
        let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
        let at = stdout
            .find("FLEET_DIGEST=")
            .expect("child printed a digest");
        stdout[at + "FLEET_DIGEST=".len()..]
            .chars()
            .take_while(|c| c.is_ascii_hexdigit() || *c == ':')
            .collect()
    };
    let baseline = digest_at("1", "reference");
    for (threads, path) in [("1", "columnar"), ("4", "columnar"), ("4", "reference")] {
        assert_eq!(
            digest_at(threads, path),
            baseline,
            "fleet outcome must be bit-identical at {threads} threads, {path} ingest path"
        );
    }
}

#[test]
fn digest_identical_at_1_and_8_shards() {
    let one = FleetDriver::new(FleetConfig {
        shards: 1,
        ..digest_cfg()
    })
    .unwrap()
    .run()
    .unwrap();
    let eight = FleetDriver::new(FleetConfig {
        shards: 8,
        ..digest_cfg()
    })
    .unwrap()
    .run()
    .unwrap();
    assert_eq!(one.canonical_text(), eight.canonical_text());
    assert_eq!(one.digest(), eight.digest());
}

/// 10k devices answer the RR threshold query; the debiased frequency must
/// land within 3 analytic standard errors of the truth, with the
/// health-faulted subset excluded fail-safe (before reporting) and without
/// biasing the estimate relative to the *full* population either.
#[test]
fn rr_frequency_recovered_within_three_se_with_faulted_subset_excluded() {
    let cfg = FleetConfig {
        epochs: 1,
        shards: 4,
        chunk: 512,
        faulty_per_mille: 5,
        ..FleetConfig::paper_default(10_000, 1, 2018)
    };
    let spec = cfg.spec.clone();
    let (seed, threshold, eps_shift) = (cfg.seed, cfg.threshold_code, cfg.eps_shift);
    let out = FleetDriver::new(cfg).unwrap().run().unwrap();

    // ~5‰ of 10k devices wired faulty: all of them (and only them) must be
    // caught by the power-on self-test.
    assert!(
        (20..=90).contains(&out.devices_excluded),
        "expected ≈50 excluded devices, got {}",
        out.devices_excluded
    );
    assert_eq!(out.devices_dropped, 0);
    assert_eq!(out.ingest.rejected, 0);
    assert_eq!(
        out.ingest.accepted,
        2 * (10_000 - out.devices_excluded) as u64
    );
    assert!(out.audit_ok, "fleet privacy ledger must audit clean");

    let est = out.rr_frequency.expect("populated RR estimate");
    let gate = 3.0 * est.stderr;
    assert!(
        (est.value - out.truth_fraction).abs() <= gate,
        "RR frequency {:.4} vs included-population truth {:.4} exceeds 3·SE = {:.4}",
        est.value,
        out.truth_fraction,
        gate
    );

    // Exclusion is value-independent, so the estimate is also unbiased for
    // the full pre-exclusion population.
    let full = GroundTruth::prepare(
        &DatasetSpec {
            entries: 10_000,
            ..spec
        },
        2f64.powi(-i32::from(eps_shift)),
        seed,
    )
    .unwrap();
    let full_truth = full.fraction_at_or_above(threshold);
    assert!(
        (est.value - full_truth).abs() <= gate + 0.01,
        "RR frequency {:.4} vs full-population truth {:.4} exceeds 3·SE + subsample slack",
        est.value,
        full_truth
    );

    // The mean estimator rides along: within its own gate.
    let mean = out.mean.expect("populated mean estimate");
    assert!(
        (mean.value - out.truth_mean).abs() <= 3.0 * mean.stderr + mean.bias_bound,
        "mean {:.3} vs truth {:.3} exceeds 3·SE + bias bound {:.3}",
        mean.value,
        out.truth_mean,
        3.0 * mean.stderr + mean.bias_bound
    );
}
