//! Chaos-path integration tests: idempotent-ingest fold equivalence under
//! arbitrary duplication + reordering, thread-schedule determinism of a
//! fault-injected fleet run, and the replay-safe retry audit (retries never
//! re-spend privacy budget; malformed senders are quarantined).

use proptest::prelude::*;
use ulp_ldp::fleet::{
    ChaosConfig, Collector, FaultClass, FleetConfig, FleetDriver, IngestStats, Payload,
    QueryConfig, QueryKind, Report, RR_QUERY, VALUE_QUERY,
};

const SKETCH_K: i64 = 64;

fn test_queries() -> [QueryConfig; 2] {
    [
        QueryConfig {
            id: VALUE_QUERY,
            kind: QueryKind::Numeric {
                sketch_min_k: -SKETCH_K,
                sketch_max_k: SKETCH_K,
            },
        },
        QueryConfig {
            id: RR_QUERY,
            kind: QueryKind::RrBit,
        },
    ]
}

/// Reports with unique `(device, query, epoch)` keys, epochs confined to the
/// collector's two-block dedup window so admission is order-insensitive.
fn arb_unique_reports() -> impl Strategy<Value = Vec<Report>> {
    proptest::collection::vec(
        (
            0u32..8,
            0u32..128,
            any::<bool>(),
            -(SKETCH_K as i32)..=SKETCH_K as i32,
            any::<bool>(),
        ),
        1..40,
    )
    .prop_map(|raw| {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for (device, epoch, is_rr, value, bit) in raw {
            let (query, payload) = if is_rr {
                (RR_QUERY, Payload::RrBit(bit))
            } else {
                (VALUE_QUERY, Payload::Value(value))
            };
            if seen.insert((device, query, epoch)) {
                out.push(Report {
                    device,
                    query,
                    epoch,
                    payload,
                });
            }
        }
        out
    })
}

fn ingest_all(reports: &[Report], shards: usize) -> (Collector, IngestStats) {
    let mut collector = Collector::new(shards, &test_queries());
    let bytes: Vec<u8> = reports.iter().flat_map(|r| r.encode()).collect();
    let stats = collector.ingest_frames(&bytes);
    (collector, stats)
}

/// Seeded Fisher–Yates (splitmix64 steps) so shuffles are reproducible from
/// the proptest case alone.
fn shuffle(v: &mut [Report], mut s: u64) {
    for i in (1..v.len()).rev() {
        s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        v.swap(i, (z % (i as u64 + 1)) as usize);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any interleaving of duplicated + reordered frames must fold to the
    /// exact totals of the clean stream: duplicates are absorbed by the
    /// dedup window, reordering by the order-insensitive accumulators.
    #[test]
    fn duplicated_reordered_streams_fold_to_the_clean_digest(
        clean in arb_unique_reports(),
        copies in proptest::collection::vec(0usize..4, 64),
        shuffle_seed in any::<u64>(),
        shards in 1usize..4,
    ) {
        let mut chaotic = Vec::new();
        let mut extra = 0usize;
        for (i, r) in clean.iter().enumerate() {
            let c = copies[i % copies.len()];
            extra += c;
            for _ in 0..=c {
                chaotic.push(*r);
            }
        }
        shuffle(&mut chaotic, shuffle_seed);
        let (reference, _) = ingest_all(&clean, 1);
        let (folded, stats) = ingest_all(&chaotic, shards);
        prop_assert_eq!(folded.totals(VALUE_QUERY), reference.totals(VALUE_QUERY));
        prop_assert_eq!(folded.totals(RR_QUERY), reference.totals(RR_QUERY));
        prop_assert_eq!(folded.reports_ingested(), clean.len() as u64);
        prop_assert_eq!(folded.frames_rejected(), 0);
        prop_assert_eq!(
            stats.duplicates,
            extra as u64,
            "every extra copy must be counted as a duplicate"
        );
    }
}

fn chaos_cfg() -> FleetConfig {
    FleetConfig {
        chunk: 64,
        chaos: Some(ChaosConfig {
            seed: 0xC4A05,
            drop: FaultClass::bursty(0.10, 4.0),
            duplicate: FaultClass::flat(0.10),
            reorder: FaultClass::flat(0.05),
            corrupt: FaultClass::flat(0.05),
            truncate: FaultClass::flat(0.02),
            delay: FaultClass::flat(0.05),
        }),
        malformed_senders: 2,
        ..FleetConfig::paper_default(400, 2, 77)
    }
}

/// Child half of the chaos determinism matrix: prints the digest (and
/// ledger digest) of a fixed fault-injected fleet run under the parent's
/// `ULP_PAR_THREADS` / `ULP_FLEET_INGEST_PATH`.
#[test]
#[ignore = "helper re-executed by chaos_digest_identical_across_threads_and_paths"]
fn chaos_thread_digest_child() {
    let out = FleetDriver::new(chaos_cfg()).unwrap().run().unwrap();
    println!(
        "CHAOS_FLEET_DIGEST={:016x}:{:016x}",
        out.digest(),
        out.ledger_digest
    );
}

/// The fault pattern is a pure function of `(chaos seed, device, attempt)`,
/// so the full outcome — totals, retries, quarantine, seal — must be
/// bit-identical at any worker-thread count, and the columnar ingest path
/// must match the scalar reference path — both even under 10% drop / 10%
/// duplicate / 5% corrupt transport. The ledger digest rides along,
/// pinning per-device ε-spend bit-for-bit across every cell.
#[test]
fn chaos_digest_identical_across_threads_and_paths() {
    let exe = std::env::current_exe().expect("test binary path");
    let digest_at = |threads: &str, path: &str| -> String {
        let output = std::process::Command::new(&exe)
            .args([
                "chaos_thread_digest_child",
                "--exact",
                "--ignored",
                "--nocapture",
            ])
            .env("ULP_PAR_THREADS", threads)
            .env("ULP_FLEET_INGEST_PATH", path)
            .output()
            .expect("re-exec test binary");
        assert!(
            output.status.success(),
            "child run failed at {threads} threads, {path} path: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
        let at = stdout
            .find("CHAOS_FLEET_DIGEST=")
            .expect("child printed a digest");
        stdout[at + "CHAOS_FLEET_DIGEST=".len()..]
            .chars()
            .take_while(|c| c.is_ascii_hexdigit() || *c == ':')
            .collect()
    };
    let baseline = digest_at("1", "reference");
    for (threads, path) in [("1", "columnar"), ("4", "columnar"), ("4", "reference")] {
        assert_eq!(
            digest_at(threads, path),
            baseline,
            "chaotic fleet outcome must be bit-identical at {threads} threads, {path} path"
        );
    }
}

/// End-to-end replay-safety audit: a lossy run spends exactly the budget of
/// the clean run (bitwise, per device), records zero double-spends, and
/// latches the planted malformed senders without touching the estimates.
#[test]
fn retries_never_respend_budget_and_quarantine_latches() {
    let chaotic = FleetDriver::new(chaos_cfg()).unwrap().run().unwrap();
    let quiet = FleetDriver::new(FleetConfig {
        chaos: None,
        ..chaos_cfg()
    })
    .unwrap()
    .run()
    .unwrap();

    // The transport was genuinely hostile...
    assert!(chaotic.retry_attempts > 0, "chaos must force retries");
    assert!(chaotic.ingest.duplicates > 0, "chaos must duplicate frames");
    assert!(
        chaotic.ingest.corrupt_frames > 0,
        "chaos must corrupt frames"
    );

    // ...yet the privacy spend is bitwise the no-fault spend.
    assert_eq!(chaotic.ledger_digest, quiet.ledger_digest);
    assert_eq!(chaotic.ledger_entries, quiet.ledger_entries);
    assert_eq!(chaotic.ledger_total.to_bits(), quiet.ledger_total.to_bits());
    assert_eq!(chaotic.double_spends, 0);
    assert_eq!(quiet.double_spends, 0);
    assert!(chaotic.audit_ok && quiet.audit_ok);

    // The planted malformed senders (ids above the honest population) are
    // latched in both runs; honest devices never are.
    assert_eq!(chaotic.quarantined, vec![400, 401]);
    assert_eq!(quiet.quarantined, vec![400, 401]);
}
