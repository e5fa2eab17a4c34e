//! The three benchmark workloads, generated from the seed alone.

use ulp_fleet::{ChaosConfig, FaultClass, FleetConfig, ServiceConfig, MAX_DELAY_ROUNDS};

/// The seed whose outcome digests are pinned below.
pub const DEFAULT_SEED: u64 = 2018;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 10⁵ devices × 32 epochs in 2-epoch windows on a perfect wire: the
    /// steady-state service path, 16 seals.
    Stream,
    /// 10⁶ devices × 2 epochs in one window: boot/self-test and ground
    /// truth dominate, one large drain and seal.
    Census,
    /// 10⁵ devices × 16 epochs through the chaos transport, planted
    /// malformed senders, a short watermark grace and small queues.
    Hostile,
}

/// Planted malformed senders on `hostile`.
pub const HOSTILE_MALFORMED: usize = 8;

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Stream, Workload::Census, Workload::Hostile];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Stream => "stream",
            Workload::Census => "census",
            Workload::Hostile => "hostile",
        }
    }

    /// The fleet and service configuration for `seed`.
    pub fn config(self, seed: u64) -> (FleetConfig, ServiceConfig) {
        match self {
            Workload::Stream => (
                FleetConfig::paper_default(100_000, 32, seed),
                ServiceConfig::new(2, 1 << 18),
            ),
            Workload::Census => (
                FleetConfig::paper_default(1_000_000, 2, seed),
                ServiceConfig::new(2, 1 << 18),
            ),
            Workload::Hostile => {
                let fleet = FleetConfig {
                    chaos: Some(chaos_mix(seed)),
                    malformed_senders: HOSTILE_MALFORMED,
                    ..FleetConfig::paper_default(100_000, 16, seed)
                };
                // Half the retry + delay slack: some delayed frames land
                // after their window sealed and must surface as `late`.
                let slack = (1u32 << fleet.retry_budget) - 1 + MAX_DELAY_ROUNDS;
                (
                    fleet,
                    ServiceConfig::new(2, 4096).with_watermark_lag(slack / 2),
                )
            }
        }
    }

    /// The `ServiceOutcome` digest at [`DEFAULT_SEED`].
    pub fn pinned_digest(self) -> u64 {
        match self {
            Workload::Stream => 0x3b75_b2b4_294d_da0d,
            Workload::Census => 0xa75f_ce8f_1403_3031,
            Workload::Hostile => 0x9a2b_0473_c0cc_d2e4,
        }
    }

    /// Whether the transport injects faults (windows may degrade).
    pub fn chaotic(self) -> bool {
        matches!(self, Workload::Hostile)
    }
}

/// The `fleet_service` chaos mix: bursty drop and delay, flat duplicate,
/// reorder, corrupt and truncate.
fn chaos_mix(seed: u64) -> ChaosConfig {
    ChaosConfig {
        seed,
        drop: FaultClass::bursty(0.08, 4.0),
        duplicate: FaultClass::flat(0.05),
        reorder: FaultClass::flat(0.05),
        corrupt: FaultClass::flat(0.02),
        truncate: FaultClass::flat(0.01),
        delay: FaultClass::bursty(0.05, 2.0),
    }
}
