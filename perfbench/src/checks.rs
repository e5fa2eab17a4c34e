//! Correctness checks every benchmark run applies to its outcomes.

use ulp_fleet::{Estimate, GateResult, ServiceConfig, ServiceOutcome};

use crate::workload::{Workload, DEFAULT_SEED, HOSTILE_MALFORMED};

/// Standard errors an estimate may stray from the truth (beyond its bias
/// bound) at [`DEFAULT_SEED`]. Its outcome is pinned, so this gate is
/// deterministic.
const PINNED_GATE_SE: f64 = 3.0;
/// The same gate at every other seed. A run holds up to 34 gates and a
/// benchmark campaign runs dozens of seeds; the RR frequency gate has no
/// bias slack, so at 3·SE a correct stream run would fail about one time
/// in 22 (17 Gaussian gates at 0.27% each). At 5·SE a gate fails with
/// probability 5.7e-7, under 0.2% over a few thousand gate evaluations.
const GATE_SE: f64 = 5.0;

/// Checks one `run_service` outcome of `workload` at `seed`. Returns every
/// violated check, or `(worst, over_3se)`: the largest gate ratio
/// `|est−truth| / (3·SE+bias)` seen and how many estimates lay outside
/// `3·SE+bias`.
pub fn check(
    workload: Workload,
    seed: u64,
    svc: &ServiceConfig,
    epochs: u32,
    o: &ServiceOutcome,
) -> Result<(f64, usize), Vec<String>> {
    let mut bad = Vec::new();
    if !o.audit_ok {
        bad.push("ledger audit failed".to_string());
    }
    if o.double_spends != 0 {
        bad.push(format!("{} double spends", o.double_spends));
    }
    let windows = epochs.div_ceil(svc.window_epochs) as usize;
    if o.windows_sealed != windows || o.snapshot.windows.len() != windows {
        bad.push(format!("{} of {windows} windows sealed", o.windows_sealed));
    }

    let z = if seed == DEFAULT_SEED {
        PINNED_GATE_SE
    } else {
        GATE_SE
    };
    let mut worst = 0f64;
    let mut over_3se = 0;
    let mut gate = |what: String, est: Option<Estimate>, truth: f64| match est {
        None => bad.push(format!("{what}: no estimate")),
        Some(e) => {
            let g = GateResult::new(e, truth);
            worst = worst.max(g.abs_err / (3.0 * e.stderr + e.bias_bound));
            over_3se += usize::from(!g.within_gate);
            let limit = z * e.stderr + e.bias_bound;
            if g.abs_err > limit {
                bad.push(format!(
                    "{what}: estimate {:.4} vs truth {truth:.4} exceeds {z}*SE+bias = {limit:.4}",
                    e.value
                ));
            }
        }
    };
    // Transport faults thin and shift individual windows; only fault-free
    // windows carry the per-window gate, the rollup always does.
    if !workload.chaotic() {
        for w in &o.snapshot.windows {
            gate(format!("window {} mean", w.index), w.mean, o.truth_mean);
            gate(
                format!("window {} rr_frequency", w.index),
                w.rr_frequency,
                o.truth_fraction,
            );
        }
    }
    gate("rollup mean".to_string(), o.rollup_mean, o.truth_mean);
    gate(
        "rollup rr_frequency".to_string(),
        o.rollup_rr_frequency,
        o.truth_fraction,
    );

    if workload == Workload::Hostile {
        if o.stats.late == 0 {
            bad.push("no late arrivals under a short watermark grace".to_string());
        }
        if o.backpressure_rejections == 0 {
            bad.push("no Busy backpressure on small queues".to_string());
        }
        let planted = (o.devices_simulated..o.devices_simulated + HOSTILE_MALFORMED)
            .filter(|&id| !o.quarantined.contains(&(id as u32)))
            .count();
        if planted > 0 {
            bad.push(format!("{planted} planted senders not quarantined"));
        }
    }
    if seed == DEFAULT_SEED && o.digest() != workload.pinned_digest() {
        bad.push(format!(
            "digest {:016x} differs from the pinned {:016x}",
            o.digest(),
            workload.pinned_digest()
        ));
    }
    if bad.is_empty() {
        Ok((worst, over_3se))
    } else {
        Err(bad)
    }
}

/// `accepted ÷ (2 · epochs · included devices)`: the share of reports the
/// included population sent that the service accepted.
pub fn accepted_share(o: &ServiceOutcome, epochs: u32) -> f64 {
    let included = (o.devices_simulated - o.devices_excluded) as f64;
    o.stats.accepted as f64 / (2.0 * f64::from(epochs) * included)
}
