//! Streaming-service determinism: rollup order-invariance (property) and
//! the cross-process service-digest matrix across worker-thread counts.

use proptest::prelude::*;
use ulp_ldp::fleet::{
    Collector, FleetConfig, FleetDriver, Payload, QueryConfig, QueryKind, Report, Rollup,
    SealedWindow, ServiceConfig,
};
use ulp_ldp::ldp::BudgetLedger;

const NUMERIC: QueryConfig = QueryConfig {
    id: 0,
    kind: QueryKind::Numeric {
        sketch_min_k: -64,
        sketch_max_k: 64,
    },
};
const RR: QueryConfig = QueryConfig {
    id: 1,
    kind: QueryKind::RrBit,
};

/// Drives a real [`ulp_ldp::fleet::FleetService`] through `windows`
/// single-epoch windows — distinct devices and values per epoch, a real
/// per-window ε ledger — and returns the sealed windows.
fn sealed_windows(windows: u32) -> Vec<SealedWindow> {
    let mut service = ulp_ldp::fleet::FleetService::new(
        Collector::new(2, &[NUMERIC, RR]),
        ServiceConfig::new(1, 1 << 12),
        2,
        windows,
    );
    for epoch in 0..windows {
        let mut bytes = Vec::new();
        let mut ledger = BudgetLedger::new();
        let mut charges = Vec::new();
        for d in 0..16u32 {
            let device = epoch * 100 + d;
            Report {
                device,
                query: 0,
                epoch,
                payload: Payload::Value(i32::try_from(device).unwrap() % 7 - 3),
            }
            .encode_into(&mut bytes);
            Report {
                device,
                query: 1,
                epoch,
                payload: Payload::RrBit(device % 3 == 0),
            }
            .encode_into(&mut bytes);
            let charge = 0.25 + f64::from(d) / 64.0;
            ledger
                .record_spend(u64::from(device), u64::from(epoch), charge)
                .expect("distinct devices never double-spend");
            charges.push(charge);
        }
        service.offer((epoch % 2) as usize, &bytes).unwrap();
        assert!(service.seal_due(epoch + 1));
        let sealed = service.seal_active(ledger, charges, 32).unwrap();
        assert!(sealed.seal.is_full());
        assert!(sealed.audit_ok);
    }
    service.sealed_windows().to_vec()
}

/// Deterministic Fisher–Yates driven by a splitmix-style step, so the
/// property samples arbitrary permutations from a plain `u64` seed.
fn permutation(n: usize, mut seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        seed = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(0x243F_6A88_85A3_08D3);
        let j = (seed >> 33) as usize % (i + 1);
        order.swap(i, j);
    }
    order
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Absorbing the same sealed windows in *any* order must finalize to
    /// byte-identical rollup accumulators, ε-ledger, and digest — the
    /// rollup canonicalizes on window index, not arrival order.
    #[test]
    fn rollup_is_invariant_to_absorption_order(seed in any::<u64>(), windows in 2u32..7) {
        let sealed = sealed_windows(windows);

        let mut baseline = Rollup::new();
        for w in &sealed {
            baseline.absorb(w.clone()).unwrap();
        }
        let baseline = baseline.finalize(1.0);

        let mut shuffled = Rollup::new();
        for &i in &permutation(sealed.len(), seed) {
            shuffled.absorb(sealed[i].clone()).unwrap();
        }
        let shuffled = shuffled.finalize(1.0);

        prop_assert_eq!(shuffled.digest, baseline.digest);
        prop_assert_eq!(&shuffled.totals, &baseline.totals);
        prop_assert_eq!(&shuffled.ledger, &baseline.ledger);
        prop_assert_eq!(shuffled.ledger.total().to_bits(), baseline.ledger.total().to_bits());
        prop_assert_eq!(shuffled.audit_ok, baseline.audit_ok);
        prop_assert_eq!(
            (shuffled.windows, shuffled.epoch_lo, shuffled.epoch_hi),
            (baseline.windows, baseline.epoch_lo, baseline.epoch_hi)
        );
    }

    /// Re-absorbing any window index is a typed error, never a silent
    /// double-count.
    #[test]
    fn duplicate_window_absorption_is_rejected(dup in 0usize..4) {
        let sealed = sealed_windows(4);
        let mut rollup = Rollup::new();
        for w in &sealed {
            rollup.absorb(w.clone()).unwrap();
        }
        prop_assert!(rollup.absorb(sealed[dup].clone()).is_err());
    }
}

fn service_cfg() -> (FleetConfig, ServiceConfig) {
    let fleet = FleetConfig {
        chunk: 64,
        ..FleetConfig::paper_default(400, 4, 77)
    };
    (fleet, ServiceConfig::new(2, 1 << 14))
}

/// Child half of the service determinism matrix: prints the service
/// outcome digest, rollup digest, and fleet ledger digest of a fixed
/// multi-window run under whatever `ULP_PAR_THREADS` the parent set.
#[test]
#[ignore = "helper re-executed by service_digest_identical_across_threads"]
fn service_digest_child() {
    let (fleet, svc) = service_cfg();
    let out = FleetDriver::new(fleet).unwrap().run_service(&svc).unwrap();
    println!(
        "SERVICE_DIGEST={:016x}:{:016x}:{:016x}",
        out.digest(),
        out.rollup_digest,
        out.ledger_digest
    );
}

/// `ulp_par::threads()` latches once per process, so the service digest
/// matrix re-execs this test binary filtered to the child helper. Both
/// cells — 1 and 4 workers — must agree on the service outcome digest,
/// the rollup digest, and the ε-ledger digest bit for bit.
#[test]
fn service_digest_identical_across_threads() {
    let exe = std::env::current_exe().expect("test binary path");
    let digest_at = |threads: &str| -> String {
        let output = std::process::Command::new(&exe)
            .args([
                "service_digest_child",
                "--exact",
                "--ignored",
                "--nocapture",
            ])
            .env("ULP_PAR_THREADS", threads)
            .output()
            .expect("re-exec test binary");
        assert!(
            output.status.success(),
            "child run failed at {threads} threads: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
        let at = stdout
            .find("SERVICE_DIGEST=")
            .expect("child printed a digest");
        stdout[at + "SERVICE_DIGEST=".len()..]
            .chars()
            .take_while(|c| c.is_ascii_hexdigit() || *c == ':')
            .collect()
    };
    assert_eq!(
        digest_at("4"),
        digest_at("1"),
        "service outcome must be bit-identical at 1 and 4 threads"
    );
}

/// The service rollup of a windowed run reproduces the batch driver's
/// estimates bit for bit — windowing plus merge loses nothing.
#[test]
fn windowed_rollup_matches_batch_estimates() {
    let (fleet, svc) = service_cfg();
    let batch = FleetDriver::new(fleet.clone()).unwrap().run().unwrap();
    let windowed = FleetDriver::new(fleet).unwrap().run_service(&svc).unwrap();
    assert_eq!(windowed.windows_sealed, 2);
    assert_eq!(windowed.stats.accepted, batch.ingest.accepted);
    assert_eq!(windowed.ledger_digest, batch.ledger_digest);
    let (b, w) = (
        batch.mean.expect("batch mean"),
        windowed.rollup_mean.expect("rollup mean"),
    );
    assert_eq!(w.value.to_bits(), b.value.to_bits());
    assert_eq!(w.stderr.to_bits(), b.stderr.to_bits());
    let (b, w) = (
        batch.rr_frequency.expect("batch RR"),
        windowed.rollup_rr_frequency.expect("rollup RR"),
    );
    assert_eq!(w.value.to_bits(), b.value.to_bits());
}
