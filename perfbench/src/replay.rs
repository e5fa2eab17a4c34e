//! The traced replay: `FleetDriver::run_service`, rebuilt from each layer's
//! public calls so a span can sit around every call.
//!
//! The replay issues the calls `run_service` issues, on the same inputs
//! and in the same order, with one addition: an explicit
//! `FleetService::drain` before every `seal_active`, so ingest and seal
//! are timed apart (the seal's own drain then finds nothing staged). Per
//! chunk, the driver's single emission loop is split into one pass per
//! layer — boot, step, faulty-URNG sidecar, ledger, encode, transmit —
//! each pass walking devices in id order, so every RNG stream, ledger
//! record and delivered byte keeps its order. The replay must end with
//! the same `ServiceOutcome` digest as the untraced run; the caller
//! checks that.

use std::time::Instant;

use dp_box::{
    Command, DeviceArray, DeviceArrayConfig, DpBox, DpBoxConfig, DpBoxError, HealthConfig,
    LaneOutcome, Phase,
};
use ldp_core::{BudgetLedger, CompositionLedger, RandomizedResponse};
use ldp_datasets::DatasetSpec;
use ldp_eval::GroundTruth;
use ulp_fleet::{
    Collector, DeviceChaos, FleetConfig, FleetService, IngestPath, IngestStats, NoiseModel,
    Payload, QueryConfig, QueryKind, Report, ServiceConfig, ServiceOutcome, FRAME_LEN,
    MAX_DELAY_ROUNDS, RR_QUERY, VALUE_QUERY,
};
use ulp_rng::{stream_seed, CorrelatedBits, Taus88};

use crate::trace::{Span, Tracer};

type Frame = [u8; FRAME_LEN];

/// Work counts gathered at the layer boundaries.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    pub devices: u64,
    pub lanes_booted: u64,
    pub lane_epochs: u64,
    pub fresh: u64,
    pub cached: u64,
    pub excluded: u64,
    /// Reports handed to the transport (array lanes and sidecar).
    pub reports_sent: u64,
    pub attempts: u64,
    pub deliveries: u64,
    pub bytes_delivered: u64,
    pub ledger_records: u64,
    pub spend_keys: u64,
    pub double_spends: u64,
    pub offers: u64,
    pub busy: u64,
    pub frames_drained: u64,
    pub wait_frame_rounds: u64,
    pub staged_frames_max: u64,
    pub ingest: IngestStats,
    pub rollup_ledger_entries: u64,
}

impl Counts {
    fn absorb(&mut self, o: &Counts) {
        self.devices += o.devices;
        self.lanes_booted += o.lanes_booted;
        self.lane_epochs += o.lane_epochs;
        self.fresh += o.fresh;
        self.cached += o.cached;
        self.excluded += o.excluded;
        self.reports_sent += o.reports_sent;
        self.attempts += o.attempts;
        self.deliveries += o.deliveries;
        self.bytes_delivered += o.bytes_delivered;
        self.ledger_records += o.ledger_records;
    }
}

/// A finished traced replay.
pub struct Replay {
    pub outcome: ServiceOutcome,
    pub spans: Vec<Span>,
    pub counts: Counts,
    pub wall_ns: u64,
    /// The window ledger audits `seal_active` runs, timed again after the
    /// replay on the sealed windows.
    pub audit_ns: u64,
    /// Wall time of the parallel simulation region, and the summed time
    /// of its tasks.
    pub simulate_wall_ns: u64,
    pub simulate_worker_ns: u64,
}

/// Everything `run_service` derives from one chunk of devices.
struct Chunk {
    frames: Vec<Vec<u8>>,
    spends: Vec<(u32, u32, f64)>,
    excluded: Vec<u32>,
    dropped: usize,
    retry_attempts: u64,
    reports_unacked: u64,
    counts: Counts,
    tracer: Tracer,
}

/// Delivered bytes per round; reordered frames go after the round's
/// in-order bytes, in reverse arrival order (the driver's rule).
struct RoundBuckets {
    normal: Vec<Vec<u8>>,
    displaced: Vec<Vec<Vec<u8>>>,
}

impl RoundBuckets {
    fn new(rounds: usize) -> RoundBuckets {
        RoundBuckets {
            normal: vec![Vec::new(); rounds],
            displaced: vec![Vec::new(); rounds],
        }
    }

    fn deliver(&mut self, round: usize, bytes: &[u8], displaced: bool) {
        if displaced {
            self.displaced[round].push(bytes.to_vec());
        } else {
            self.normal[round].extend_from_slice(bytes);
        }
    }

    fn finalize(self) -> Vec<Vec<u8>> {
        self.normal
            .into_iter()
            .zip(self.displaced)
            .map(|(mut n, d)| {
                for frame in d.into_iter().rev() {
                    n.extend_from_slice(&frame);
                }
                n
            })
            .collect()
    }
}

/// A faulty-URNG device simulated on the scalar `DpBox` sidecar.
enum Sidecar {
    Excluded,
    Ran {
        /// `(epoch, value frame, rr frame)` per reported epoch.
        frames: Vec<(usize, Frame, Frame)>,
        spends: Vec<(u32, u32, f64)>,
        charges: Vec<f64>,
        ledger: BudgetLedger,
        dropped: bool,
    },
}

struct Ctx<'a> {
    cfg: &'a FleetConfig,
    codes_k: &'a [i64],
    rr: RandomizedResponse,
    max_code: i64,
    rounds: usize,
    origin: Instant,
}

fn context<E: std::fmt::Display>(what: &str) -> impl Fn(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

fn health() -> Result<HealthConfig, String> {
    HealthConfig::new(40, 64, 4).map_err(context("health config"))
}

fn is_faulty(cfg: &FleetConfig, id: u32) -> bool {
    stream_seed(cfg.seed, &[u64::from(id), 7]) % 1000 < u64::from(cfg.faulty_per_mille)
}

fn frame(id: u32, query: u16, epoch: usize, payload: Payload) -> Frame {
    Report {
        device: id,
        query,
        epoch: epoch as u32,
        payload,
    }
    .encode()
}

/// The scalar boot and noising sequence for one faulty-URNG device.
fn run_sidecar(ctx: &Ctx, id: u32, x_code: i64) -> Result<Sidecar, String> {
    let cfg = ctx.cfg;
    let urng = CorrelatedBits::new(
        Taus88::from_seed(stream_seed(cfg.seed, &[u64::from(id), 1])),
        1,
        230,
    );
    let mut dev = DpBox::with_urng(
        DpBoxConfig {
            word_bits: cfg.word_bits,
            frac_bits: 0,
            bu: cfg.bu,
            cordic_iterations: 24,
            segment_multiples: cfg.multiples.clone(),
            seed: 0,
        },
        urng,
    )
    .map_err(context("sidecar boot"))?;
    dev.set_health_config(health()?);
    let issue = |dev: &mut DpBox<_>, cmd, v| dev.issue(cmd, v).map_err(context("sidecar command"));
    issue(&mut dev, Command::ResetHealth, 0)?;
    if dev.phase() == Phase::HealthFault {
        return Ok(Sidecar::Excluded);
    }
    issue(&mut dev, Command::SetEpsilon, cfg.budget_raw)?;
    issue(&mut dev, Command::StartNoising, 0)?;
    issue(&mut dev, Command::SetEpsilon, i64::from(cfg.eps_shift))?;
    issue(&mut dev, Command::SetSensorRangeLower, 0)?;
    issue(&mut dev, Command::SetSensorRangeUpper, ctx.max_code)?;
    issue(&mut dev, Command::SetThreshold, 0)?;
    let mut rr_rng = Taus88::from_seed(stream_seed(cfg.seed, &[u64::from(id), 2]));
    let above = x_code >= cfg.threshold_code;
    let mut frames = Vec::new();
    let mut spends = Vec::new();
    let mut dropped = false;
    for epoch in 0..cfg.epochs as usize {
        let before = dev.ledger().len();
        let y = match dev.noise_value(x_code) {
            Ok((y, _cycles)) => y,
            Err(DpBoxError::UrngHealthFault(_)) | Err(DpBoxError::BudgetExhausted) => {
                dropped = true;
                break;
            }
            Err(e) => return Err(format!("sidecar noising: {e}")),
        };
        if dev.ledger().len() > before {
            spends.push((id, epoch as u32, dev.ledger().entries()[before].charge));
        }
        let value = frame(id, VALUE_QUERY, epoch, Payload::Value(y as i32));
        let bit = frame(
            id,
            RR_QUERY,
            epoch,
            Payload::RrBit(ctx.rr.privatize(above, &mut rr_rng)),
        );
        frames.push((epoch, value, bit));
    }
    Ok(Sidecar::Ran {
        frames,
        spends,
        charges: dev.accountant().losses().to_vec(),
        ledger: dev.ledger().clone(),
        dropped,
    })
}

/// First send plus up to `retry_budget` retransmissions of the same
/// bytes under exponential backoff; returns `(extra attempts, acked)`.
fn transmit(
    retry_budget: u32,
    chaos: &mut DeviceChaos,
    frame: &Frame,
    epoch: usize,
    buckets: &mut RoundBuckets,
    counts: &mut Counts,
) -> (u64, bool) {
    let mut extra = 0u64;
    for attempt in 0..=retry_budget {
        if attempt > 0 {
            extra += 1;
        }
        counts.attempts += 1;
        let send_round = epoch + (1usize << attempt) - 1;
        let outcome = chaos.attempt(frame);
        if let Some(d) = outcome.delivery {
            counts.deliveries += 1;
            counts.bytes_delivered += d.bytes.len() as u64;
            buckets.deliver(send_round + d.delay_rounds as usize, &d.bytes, d.displaced);
        }
        if outcome.acked {
            return (extra, true);
        }
    }
    (extra, false)
}

/// One chunk of devices, one pass per layer.
fn simulate_chunk(ctx: &Ctx, start: u32, end: u32) -> Result<Chunk, String> {
    let cfg = ctx.cfg;
    let epochs = cfg.epochs as usize;
    let mut t = Tracer::new(ctx.origin);
    let root = t.enter("fleet.driver", "chunk");
    let mut counts = Counts {
        devices: u64::from(end - start),
        ..Counts::default()
    };

    let n = (end - start) as usize;
    let mut lane_of: Vec<Option<u32>> = vec![None; n];
    let mut seeds = Vec::with_capacity(n);
    for id in start..end {
        if !is_faulty(cfg, id) {
            lane_of[(id - start) as usize] = Some(seeds.len() as u32);
            seeds.push(stream_seed(cfg.seed, &[u64::from(id), 0]));
        }
    }
    let array_cfg = DeviceArrayConfig {
        word_bits: cfg.word_bits,
        frac_bits: 0,
        bu: cfg.bu,
        cordic_iterations: 24,
        segment_multiples: cfg.multiples.clone(),
        health: health()?,
        budget_raw: cfg.budget_raw,
        eps_shift: cfg.eps_shift,
        range_lower: 0,
        range_upper: ctx.max_code,
    };
    let s = t.enter("dpbox.array", "DeviceArray::new");
    let mut array = DeviceArray::new(&array_cfg, &seeds).map_err(context("array boot"))?;
    t.exit(s, seeds.len() as u64);
    counts.lanes_booted = seeds.len() as u64;

    let mut xs = vec![0i64; seeds.len()];
    for id in start..end {
        if let Some(lane) = lane_of[(id - start) as usize] {
            xs[lane as usize] = ctx.codes_k[id as usize];
        }
    }
    let s = t.enter("dpbox.array", "DeviceArray::step_epochs");
    let matrix: Vec<Vec<LaneOutcome>> = array.step_epochs(&xs, epochs);
    t.exit(s, (seeds.len() * epochs) as u64);
    counts.lane_epochs = (seeds.len() * epochs) as u64;

    let s = t.enter("dpbox.device", "DpBox::with_urng+issue");
    let mut sidecars = Vec::new();
    for id in start..end {
        if lane_of[(id - start) as usize].is_none() {
            sidecars.push(run_sidecar(ctx, id, ctx.codes_k[id as usize])?);
        }
    }
    t.exit(s, sidecars.len() as u64);

    // The chunk's ledger, charges and spend list in device order. The
    // service path reads only the spends, but the driver builds all three
    // (`black_box` below keeps the unread two from being optimised away).
    let s = t.enter("ldp.ledger", "BudgetLedger::record");
    let mut ledger = BudgetLedger::new();
    let mut charges = Vec::new();
    let mut spends = Vec::new();
    let mut side = sidecars.iter();
    for id in start..end {
        let Some(lane) = lane_of[(id - start) as usize] else {
            if let Some(Sidecar::Ran {
                spends: s,
                charges: c,
                ledger: l,
                ..
            }) = side.next()
            {
                spends.extend_from_slice(s);
                charges.extend_from_slice(c);
                ledger.merge(l);
                counts.ledger_records += s.len() as u64;
            }
            continue;
        };
        let lane = lane as usize;
        if array.is_excluded(lane) {
            continue;
        }
        for (epoch, col) in matrix.iter().enumerate() {
            match col[lane] {
                LaneOutcome::Fresh { charge, .. } => {
                    spends.push((id, epoch as u32, charge));
                    ledger.record(charge);
                    charges.push(charge);
                    counts.fresh += 1;
                }
                LaneOutcome::Cached { .. } => counts.cached += 1,
                LaneOutcome::Dropped => break,
            }
        }
    }
    counts.ledger_records += counts.fresh;
    t.exit(s, counts.ledger_records);
    std::hint::black_box((&ledger, &charges));

    // Framing. On a perfect wire each report is delivered in its own
    // epoch, so encoding writes straight into the round buckets; under
    // chaos the frames are kept for the transmit pass.
    let mut buckets = RoundBuckets::new(ctx.rounds);
    let mut excluded = Vec::new();
    let mut dropped = 0usize;
    let mut outbox: Vec<(u32, usize, Frame, Frame)> = Vec::new();
    let perfect = cfg.chaos.is_none();
    let mut encoded = 0u64;
    let s = t.enter("fleet.wire", "Report::encode");
    let mut side = sidecars.iter();
    for id in start..end {
        let Some(lane) = lane_of[(id - start) as usize] else {
            match side.next() {
                Some(Sidecar::Ran {
                    frames, dropped: d, ..
                }) => {
                    counts.reports_sent += 2 * frames.len() as u64;
                    for &(epoch, value, bit) in frames {
                        if perfect {
                            buckets.deliver(epoch, &value, false);
                            buckets.deliver(epoch, &bit, false);
                        } else {
                            outbox.push((id, epoch, value, bit));
                        }
                    }
                    dropped += usize::from(*d);
                }
                _ => excluded.push(id),
            }
            continue;
        };
        let lane = lane as usize;
        if array.is_excluded(lane) {
            excluded.push(id);
            continue;
        }
        let x_code = ctx.codes_k[id as usize];
        let mut rr_rng = Taus88::from_seed(stream_seed(cfg.seed, &[u64::from(id), 2]));
        let above = x_code >= cfg.threshold_code;
        for (epoch, col) in matrix.iter().enumerate() {
            let y = match col[lane] {
                LaneOutcome::Fresh { y, .. } | LaneOutcome::Cached { y } => y,
                LaneOutcome::Dropped => {
                    dropped += 1;
                    break;
                }
            };
            let value = frame(id, VALUE_QUERY, epoch, Payload::Value(y as i32));
            let bit = frame(
                id,
                RR_QUERY,
                epoch,
                Payload::RrBit(ctx.rr.privatize(above, &mut rr_rng)),
            );
            encoded += 2;
            counts.reports_sent += 2;
            if perfect {
                buckets.deliver(epoch, &value, false);
                buckets.deliver(epoch, &bit, false);
            } else {
                outbox.push((id, epoch, value, bit));
            }
        }
    }
    if perfect {
        counts.attempts = counts.reports_sent;
        counts.deliveries = counts.reports_sent;
        counts.bytes_delivered = counts.reports_sent * FRAME_LEN as u64;
    }
    t.exit(s, encoded);
    counts.excluded = excluded.len() as u64;

    let mut retry_attempts = 0u64;
    let mut reports_unacked = 0u64;
    if let Some(chaos_cfg) = &cfg.chaos {
        let s = t.enter("fleet.chaos", "DeviceChaos::attempt");
        let mut chaos: Option<(u32, DeviceChaos)> = None;
        for &(id, epoch, value, bit) in &outbox {
            if chaos.as_ref().is_none_or(|(d, _)| *d != id) {
                chaos = Some((id, DeviceChaos::new(chaos_cfg, id)));
            }
            let (_, device) = chaos.as_mut().expect("set above");
            for f in [&value, &bit] {
                let (extra, acked) = transmit(
                    cfg.retry_budget,
                    device,
                    f,
                    epoch,
                    &mut buckets,
                    &mut counts,
                );
                retry_attempts += extra;
                reports_unacked += u64::from(!acked);
            }
        }
        t.exit(s, (outbox.len() * 2) as u64);
    }
    let frames = buckets.finalize();
    t.exit(root, counts.devices);
    Ok(Chunk {
        frames,
        spends,
        excluded,
        dropped,
        retry_attempts,
        reports_unacked,
        counts,
        tracer: t,
    })
}

/// The planted senders' frames per epoch (unregistered query, four per
/// sender per epoch).
fn malformed_rounds(cfg: &FleetConfig) -> Vec<Vec<u8>> {
    (0..cfg.epochs)
        .map(|epoch| {
            let mut bytes = Vec::new();
            for m in 0..cfg.malformed_senders {
                let id = (cfg.devices + m) as u32;
                for burst in 0..4 {
                    Report {
                        device: id,
                        query: 0x7FFF,
                        epoch,
                        payload: Payload::Value(burst),
                    }
                    .encode_into(&mut bytes);
                }
            }
            bytes
        })
        .collect()
}

fn fnv(h: &mut u64, bytes: impl IntoIterator<Item = u8>) {
    for b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

struct Truths {
    mean: f64,
    variance: f64,
    median: f64,
    fraction: f64,
}

/// Ground truth over the devices the self-test kept.
fn included_truths(codes_k: &[i64], excluded: &[u32], threshold: i64) -> Truths {
    let excluded_set: std::collections::HashSet<u32> = excluded.iter().copied().collect();
    let included: Vec<i64> = codes_k
        .iter()
        .enumerate()
        .filter(|(i, _)| !excluded_set.contains(&(*i as u32)))
        .map(|(_, &k)| k)
        .collect();
    let n = included.len().max(1) as f64;
    let mean = included.iter().map(|&k| k as f64).sum::<f64>() / n;
    let variance = included
        .iter()
        .map(|&k| (k as f64 - mean).powi(2))
        .sum::<f64>()
        / n;
    let median = {
        let mut sorted = included.clone();
        sorted.sort_unstable();
        sorted
            .get(sorted.len().saturating_sub(1) / 2)
            .map_or(f64::NAN, |&k| k as f64)
    };
    let fraction = included.iter().filter(|&&k| k >= threshold).count() as f64 / n;
    Truths {
        mean,
        variance,
        median,
        fraction,
    }
}

/// The service side of the replay: the tracer, the service, and the
/// queue bookkeeping behind the per-layer service metrics.
struct Ingest {
    t: Tracer,
    service: FleetService,
    /// `(admission round, frames)` of every batch staged since the last
    /// drain.
    staged: Vec<(u32, u64)>,
    counts: Counts,
}

impl Ingest {
    /// Drains every lane, charging each staged frame the rounds it waited
    /// since admission.
    fn drain(&mut self, round: u32) {
        let frames: u64 = self.staged.iter().map(|&(_, f)| f).sum();
        let s = self.t.enter("fleet.service", "FleetService::drain");
        let delta = self.service.drain();
        self.t.exit(s, frames);
        let c = &mut self.counts;
        c.frames_drained += frames;
        c.staged_frames_max = c.staged_frames_max.max(frames);
        c.wait_frame_rounds += self
            .staged
            .drain(..)
            .map(|(admitted, f)| f * u64::from(round - admitted))
            .sum::<u64>();
        c.ingest.absorb(delta);
    }

    fn offer(&mut self, round: u32, lane: usize, bytes: &[u8]) {
        let frames = bytes.len().div_ceil(FRAME_LEN) as u64;
        let s = self.t.enter("fleet.service", "FleetService::offer");
        let admitted = self.service.offer(lane, bytes);
        self.t.exit(s, frames);
        self.counts.offers += 1;
        if admitted.is_err() {
            // Typed backpressure: drain, then retry the same bytes — an
            // empty lane always admits.
            self.counts.busy += 1;
            self.drain(round);
            let s = self.t.enter("fleet.service", "FleetService::offer");
            self.service
                .offer(lane, bytes)
                .expect("a drained lane admits any batch");
            self.t.exit(s, frames);
            self.counts.offers += 1;
        }
        if frames > 0 {
            self.staged.push((round, frames));
        }
    }

    /// Drains, then seals the active window with its share of the ledger.
    fn seal(
        &mut self,
        round: u32,
        ledger: BudgetLedger,
        charges: Vec<f64>,
        expected: u64,
    ) -> Result<(), String> {
        self.drain(round);
        let s = self.t.enter("fleet.service", "FleetService::seal_active");
        self.service
            .seal_active(ledger, charges, expected)
            .map_err(context("seal"))?;
        self.t.exit(s, 1);
        Ok(())
    }

    /// `(window, round)`: the active window (one past the last once all
    /// have sealed) and the round in progress.
    fn set_trace(&mut self, round: usize) {
        let window = self
            .service
            .active_window()
            .map_or(self.service.windows().len() as u32, |w| w.index());
        self.t.set_trace(Some((window, round as u32)));
    }
}

/// Replays `run_service(svc)` for `cfg` under the tracer. `model` is the
/// noise model `FleetDriver::new` built for `cfg`.
pub fn replay(
    cfg: &FleetConfig,
    svc: &ServiceConfig,
    model: &NoiseModel,
) -> Result<Replay, String> {
    let origin = Instant::now();
    let mut t = Tracer::new(origin);
    let mut counts = Counts::default();
    let max_code = 1i64 << cfg.adc_bits;

    let rr = model.rr().map_err(context("RR mechanism"))?;

    let s = t.enter("eval.setup", "GroundTruth::prepare");
    let truth = GroundTruth::prepare(
        &DatasetSpec {
            entries: cfg.devices,
            ..cfg.spec.clone()
        },
        2f64.powi(-i32::from(cfg.eps_shift)),
        cfg.seed,
    )
    .map_err(context("ground truth"))?;
    t.exit(s, cfg.devices as u64);

    let slack = if cfg.chaos.is_some() {
        (1usize << cfg.retry_budget) - 1 + MAX_DELAY_ROUNDS as usize
    } else {
        0
    };
    let rounds = cfg.epochs as usize + slack;
    let ctx = Ctx {
        cfg,
        codes_k: &truth.codes_k,
        rr,
        max_code,
        rounds,
        origin,
    };

    let region = t.enter("fleet.driver", "simulate");
    let starts: Vec<u32> = (0..cfg.devices as u32).step_by(cfg.chunk).collect();
    let results = ulp_par::par_map(&starts, |&start| {
        let end = (start as usize + cfg.chunk).min(cfg.devices) as u32;
        simulate_chunk(&ctx, start, end)
    });
    let mut chunks = Vec::with_capacity(results.len());
    for r in results {
        chunks.push(r?);
    }
    t.exit(region, cfg.devices as u64);
    let simulate_wall_ns = t.span(region).duration_ns();
    let mut simulate_worker_ns = 0;
    for chunk in &mut chunks {
        let task = std::mem::replace(&mut chunk.tracer, Tracer::new(origin));
        simulate_worker_ns += task.root_ns();
        t.adopt(region, task);
        counts.absorb(&chunk.counts);
    }
    let malformed = malformed_rounds(cfg);

    // Fleet-wide keyed double-spend audit and ε-spend digest.
    let s = t.enter("ldp.ledger", "BudgetLedger::record_spend");
    let mut excluded: Vec<u32> = Vec::new();
    let mut dropped = 0usize;
    let mut retry_attempts = 0u64;
    let mut reports_unacked = 0u64;
    let mut keyed = BudgetLedger::new();
    let mut double_spends = 0u64;
    let mut ledger_digest: u64 = 0xCBF2_9CE4_8422_2325;
    let mut spends = 0u64;
    for chunk in &chunks {
        for &(device, epoch, charge) in &chunk.spends {
            if keyed
                .record_spend(u64::from(device), u64::from(epoch), charge)
                .is_err()
            {
                double_spends += 1;
            }
            fnv(
                &mut ledger_digest,
                device
                    .to_le_bytes()
                    .into_iter()
                    .chain(epoch.to_le_bytes())
                    .chain(charge.to_bits().to_le_bytes()),
            );
        }
        spends += chunk.spends.len() as u64;
        excluded.extend_from_slice(&chunk.excluded);
        dropped += chunk.dropped;
        retry_attempts += chunk.retry_attempts;
        reports_unacked += chunk.reports_unacked;
    }
    t.exit(s, spends);
    counts.ledger_records += spends;
    counts.spend_keys = keyed.len() as u64;
    counts.double_spends = double_spends;
    drop(keyed);

    // Each window's share of the ledger, in (chunk, device, epoch) order.
    let s = t.enter("ldp.ledger", "BudgetLedger::record_spend");
    let spans = ulp_fleet::window_spans(cfg.epochs, svc.window_epochs);
    let mut window_ledgers: Vec<BudgetLedger> = spans.iter().map(|_| BudgetLedger::new()).collect();
    let mut window_charges: Vec<Vec<f64>> = spans.iter().map(|_| Vec::new()).collect();
    for chunk in &chunks {
        for &(device, epoch, charge) in &chunk.spends {
            let w = (epoch / svc.window_epochs) as usize;
            if window_ledgers[w]
                .record_spend(u64::from(device), u64::from(epoch), charge)
                .is_ok()
            {
                window_charges[w].push(charge);
            }
        }
    }
    t.exit(s, spends);
    counts.ledger_records += spends;
    let included = (cfg.devices - excluded.len()) as u64;
    let reports_per_window = |w: usize| {
        let (lo, hi) = spans[w];
        2 * u64::from(hi - lo) * included
    };

    let s = t.enter("fleet.service", "FleetService::new");
    let lanes = chunks.len() + 1;
    let malformed_lane = chunks.len();
    let collector = Collector::new(
        cfg.shards,
        &[
            QueryConfig {
                id: VALUE_QUERY,
                kind: QueryKind::Numeric {
                    sketch_min_k: model.window_lo(),
                    sketch_max_k: model.window_hi(),
                },
            },
            QueryConfig {
                id: RR_QUERY,
                kind: QueryKind::RrBit,
            },
        ],
    )
    .with_ingest_path(IngestPath::from_env().map_err(context("ingest path"))?)
    .with_device_capacity((cfg.devices + cfg.malformed_senders) as u32);
    let service = FleetService::new(collector, svc.clone(), lanes, cfg.epochs);
    t.exit(s, lanes as u64);

    let mut ing = Ingest {
        t,
        service,
        staged: Vec::new(),
        counts,
    };
    let mut windows = window_ledgers.into_iter().zip(window_charges).enumerate();
    let mut seal_next = |ing: &mut Ingest, round: u32| match windows.next() {
        Some((w, (ledger, charges))) => ing.seal(round, ledger, charges, reports_per_window(w)),
        None => Err("no window left to seal".to_string()),
    };
    for round in 0..rounds {
        ing.set_trace(round);
        let r = ing.t.enter("fleet.driver", "round");
        let now = round as u32;
        for (lane, chunk) in chunks.iter().enumerate() {
            ing.offer(now, lane, &chunk.frames[round]);
        }
        if let Some(bytes) = malformed.get(round) {
            ing.offer(now, malformed_lane, bytes);
        }
        while ing.service.seal_due(now + 1) {
            seal_next(&mut ing, now)?;
        }
        ing.t.exit(r, 1);
    }
    // Flush-seal windows whose watermark lies past the last round, then
    // classify anything staged after the last seal (as `late`).
    ing.set_trace(rounds);
    let end = rounds as u32;
    while ing.service.active_window().is_some() {
        seal_next(&mut ing, end)?;
    }
    ing.drain(end);
    let Ingest {
        mut t,
        service,
        mut counts,
        ..
    } = ing;

    let s = t.enter("fleet.service", "FleetService::snapshot");
    let snapshot = service.snapshot(model).map_err(context("snapshot"))?;
    t.exit(s, snapshot.windows.len() as u64);
    let s = t.enter("fleet.window", "Rollup::finalize");
    let rollup = service.rollup().finalize(svc.quorum);
    t.exit(s, rollup.windows as u64);
    counts.rollup_ledger_entries = rollup.ledger.len() as u64;
    let s = t.enter("eval.setup", "included truths");
    let truths = included_truths(&truth.codes_k, &excluded, cfg.threshold_code);
    t.exit(s, included);
    // The fleet registers the numeric query first and the RR query second.
    let s = t.enter("fleet.estimator", "NoiseModel::estimate");
    let values = &rollup.totals[0];
    let bits = &rollup.totals[1];
    let rollup_mean = model.mean(values);
    let rollup_variance = model.variance(values);
    let rollup_median = model.median(values);
    let rollup_rr_frequency = model.rr_frequency(bits).map_err(context("RR estimate"))?;
    t.exit(s, 4);

    let outcome = ServiceOutcome {
        devices_simulated: cfg.devices,
        devices_excluded: excluded.len(),
        devices_dropped: dropped,
        windows_sealed: service.sealed_windows().len(),
        window_digests: service
            .sealed_windows()
            .iter()
            .map(|w| w.digest())
            .collect(),
        window_seals: service.sealed_windows().iter().map(|w| w.seal).collect(),
        snapshot,
        rollup_mean,
        rollup_variance,
        rollup_median,
        rollup_rr_frequency,
        rollup_ledger_total: rollup.ledger.total(),
        rollup_ledger_entries: rollup.ledger.len(),
        rollup_seal: rollup.seal,
        rollup_digest: rollup.digest,
        audit_ok: rollup.audit_ok,
        stats: service.stats(),
        backpressure_rejections: service.backpressure_rejections(),
        max_drain_frames: service.max_drain_frames(),
        ledger_digest,
        double_spends,
        retry_attempts,
        reports_unacked,
        truth_mean: truths.mean,
        truth_variance: truths.variance,
        truth_median: truths.median,
        truth_fraction: truths.fraction,
        quarantined: service.collector().quarantined_devices(),
        n_th_k: model.n_th_k(),
        seal_ns: service.seal_ns().to_vec(),
    };
    // `run_service` frees its working set before it returns.
    drop((chunks, malformed, truth));
    let wall_ns = t.now_ns();
    // What `seal_active` spends on its ledger audit, re-run on the sealed
    // windows after the wall clock stopped: a share of the seal's self
    // time, not a span of its own.
    let probe = Instant::now();
    for w in service.sealed_windows() {
        let mut accountant = CompositionLedger::new();
        for &c in &w.charges {
            accountant.record(c);
        }
        if w.ledger.audit(&accountant).is_err() {
            return Err(format!("window {} ledger audit failed", w.index));
        }
    }
    let audit_ns = probe.elapsed().as_nanos() as u64;
    if counts.ingest != outcome.stats {
        return Err("per-drain ingest stats do not add up to the service totals".to_string());
    }
    Ok(Replay {
        outcome,
        spans: t.into_spans(),
        counts,
        wall_ns,
        audit_ns,
        simulate_wall_ns,
        simulate_worker_ns,
    })
}
