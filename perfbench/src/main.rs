//! ulp-perfbench — one process of the service benchmark.
//!
//! ```text
//! ulp-perfbench setup --workload <w> --seed <n>
//! ulp-perfbench run   --workload <w> --seed <n> --seconds <s>
//! ulp-perfbench trace --workload <w> --seed <n> --seconds <s>
//! ```
//!
//! * `setup` is meant for a fresh process: it times `FleetDriver::new`
//!   plus the process-wide tables the first `run_service` fills lazily.
//! * `run` drives `FleetDriver::run_service` untraced: one warm-up run,
//!   then timed repetitions for `--seconds`.
//! * `trace` alternates untraced runs with the traced replay for
//!   `--seconds`, checks that both end in the same outcome digest, and
//!   writes the last replay's spans under `.bench_out/`.
//!
//! Every outcome is checked (see `checks.rs`); a failed check exits with
//! status 1 before any result is printed. The result is one JSON object
//! on the last line of standard output. `perfbench/run.py` runs these
//! processes and reports the benchmark's metrics.

mod checks;
mod replay;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use ulp_fleet::{FleetConfig, FleetDriver, NoiseModel, ServiceConfig, ServiceOutcome};

use replay::Replay;
use workload::Workload;

struct Args {
    mode: String,
    workload: Workload,
    seed: u64,
    seconds: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mode = it.next().ok_or("missing mode: setup | run | trace")?;
    if !matches!(mode.as_str(), "setup" | "run" | "trace") {
        return Err(format!("unknown mode {mode:?}: setup | run | trace"));
    }
    let (mut workload, mut seed, mut seconds) = (None, None, 10.0);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!(
                    "unknown workload {value:?}: stream | census | hostile"
                ))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .ok_or(format!("bad --seconds {value:?}"))?
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        mode,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
    })
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The workload under test: its configuration and the real entry point.
struct Bench {
    args: Args,
    cfg: FleetConfig,
    svc: ServiceConfig,
    driver: FleetDriver,
    /// Digest of the first run; every later run must reproduce it.
    digest: Option<u64>,
    runs: u64,
}

impl Bench {
    fn new(args: Args) -> Result<Bench, String> {
        let (cfg, svc) = args.workload.config(args.seed);
        let driver = FleetDriver::new(cfg.clone()).map_err(|e| format!("FleetDriver::new: {e}"))?;
        Ok(Bench {
            args,
            cfg,
            svc,
            driver,
            digest: None,
            runs: 0,
        })
    }

    /// Checks an outcome and pins its digest for the rest of the process.
    fn check(&mut self, o: &ServiceOutcome, what: &str) -> Result<(), String> {
        let (worst, over_3se) = checks::check(
            self.args.workload,
            self.args.seed,
            &self.svc,
            self.cfg.epochs,
            o,
        )
        .map_err(|bad| format!("{what}: {}", bad.join("; ")))?;
        match self.digest {
            None => {
                self.digest = Some(o.digest());
                eprintln!(
                    "{} seed {}: digest {:016x}, worst |est-truth|/(3*SE+bias) {worst:.3}, \
                     {over_3se} estimate(s) outside 3*SE+bias",
                    self.args.workload.name(),
                    self.args.seed,
                    o.digest()
                );
            }
            Some(d) if d != o.digest() => {
                return Err(format!(
                    "{what}: digest {:016x} differs from the first run's {d:016x}",
                    o.digest()
                ))
            }
            Some(_) => {}
        }
        Ok(())
    }

    /// One untraced `run_service`: wall seconds and the checked outcome.
    fn run_once(&mut self) -> Result<(f64, ServiceOutcome), String> {
        let start = Instant::now();
        let o = self
            .driver
            .run_service(&self.svc)
            .map_err(|e| format!("run_service: {e}"))?;
        let wall = start.elapsed().as_secs_f64();
        self.runs += 1;
        self.check(&o, "run_service")?;
        Ok((wall, o))
    }
}

/// A fresh process's one-time cost: `FleetDriver::new` plus a one-device
/// `run_service`, which fills every lazily built process-wide table the
/// workload's first real run would otherwise pay for.
fn setup(args: &Args, start: Instant) -> Result<String, String> {
    let (cfg, svc) = args.workload.config(args.seed);
    let tiny = FleetConfig {
        devices: 1,
        epochs: 1,
        malformed_senders: 0,
        ..cfg.clone()
    };
    FleetDriver::new(cfg).map_err(|e| format!("FleetDriver::new: {e}"))?;
    FleetDriver::new(tiny)
        .and_then(|d| d.run_service(&ServiceConfig::new(1, svc.queue_frames)))
        .map_err(|e| format!("one-device run_service: {e}"))?;
    let setup_s = start.elapsed().as_secs_f64();
    Ok(format!("{{\"setup_s\": {setup_s}}}"))
}

fn run(args: Args) -> Result<String, String> {
    let seconds = args.seconds;
    let mut b = Bench::new(args)?;
    // The first run in a process also fills the lazy tables; it is
    // checked but not timed.
    let (_, o) = b.run_once()?;
    let accepted_share = checks::accepted_share(&o, b.cfg.epochs);
    drop(o);
    let mut rps = Vec::new();
    let clock = Instant::now();
    while rps.len() < 3 || clock.elapsed().as_secs_f64() < seconds {
        let (wall, o) = b.run_once()?;
        rps.push(o.stats.accepted as f64 / wall);
    }
    let list: Vec<String> = rps.iter().map(f64::to_string).collect();
    Ok(format!(
        "{{\"runs\": {}, \"reports_per_sec\": [{}], \"accepted_share\": {accepted_share}, \
         \"peak_rss_mb\": {}}}",
        b.runs,
        list.join(", "),
        peak_rss_mb()?
    ))
}

/// Per-layer metrics of one traced replay, `(name, value, unit)`.
fn layer_metrics(
    r: &Replay,
    untraced_ns: u64,
    model_ns: u64,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let own = trace::self_times(&r.spans);
    let mut by_metric: std::collections::BTreeMap<&'static str, u64> = Default::default();
    let mut seals = Vec::new();
    for (s, &ns) in r.spans.iter().zip(&own) {
        *by_metric.entry(metric_of(s.layer, s.op)?).or_default() += ns;
        if s.op == "FleetService::seal_active" {
            seals.push(s.duration_ns() as f64 * 1e-6);
        }
    }
    let covered: u64 = own.iter().sum();
    let single_thread = r.spans.iter().all(|s| s.thread == r.spans[0].thread);
    let roots: u64 = r
        .spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.duration_ns())
        .sum();
    if single_thread && covered != roots {
        return Err(format!(
            "self times sum to {covered} ns, top-level spans to {roots} ns"
        ));
    }
    let unattributed = r.wall_ns.saturating_sub(covered);
    let c = &r.counts;
    let secs = |m: &str| by_metric.get(m).copied().unwrap_or(0) as f64 * 1e-9;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let per = |m: &str, units: u64| {
        if units == 0 {
            0.0
        } else {
            secs(m) * 1e9 / units as f64
        }
    };
    let i = &c.ingest;
    let own_s = |m: &'static str| (m, secs(m), "s");
    let ns_to_s = |ns: u64| ns as f64 * 1e-9;
    Ok(vec![
        ("trace.wall_s", ns_to_s(r.wall_ns), "s"),
        ("trace.unattributed_s", ns_to_s(unattributed), "s"),
        (
            "trace.overhead_s",
            (r.wall_ns as f64 - untraced_ns as f64) * 1e-9,
            "s",
        ),
        ("trace.simulate_wall_s", ns_to_s(r.simulate_wall_ns), "s"),
        (
            "trace.simulate_worker_s",
            ns_to_s(r.simulate_worker_ns),
            "s",
        ),
        own_s("fleet.driver.self_s"),
        own_s("dpbox.boot_s"),
        (
            "dpbox.boot_ns_per_device",
            per("dpbox.boot_s", c.lanes_booted),
            "ns",
        ),
        own_s("dpbox.step_s"),
        (
            "dpbox.step_ns_per_device_epoch",
            per("dpbox.step_s", c.lane_epochs),
            "ns",
        ),
        (
            "dpbox.fresh_share",
            ratio(c.fresh, c.fresh + c.cached),
            "ratio",
        ),
        own_s("dpbox.sidecar_s"),
        (
            "dpbox.excluded_share",
            ratio(c.excluded, c.devices),
            "ratio",
        ),
        own_s("fleet.wire.encode_s"),
        (
            "fleet.wire.bytes_per_report",
            ratio(c.bytes_delivered, i.accepted),
            "B",
        ),
        own_s("fleet.chaos.transmit_s"),
        (
            "fleet.chaos.attempts_per_report",
            ratio(c.attempts, c.reports_sent),
            "ratio",
        ),
        (
            "fleet.chaos.delivered_share",
            ratio(c.deliveries, c.attempts),
            "ratio",
        ),
        own_s("ldp.ledger.record_s"),
        (
            "ldp.ledger.ns_per_spend",
            per("ldp.ledger.record_s", c.ledger_records),
            "ns",
        ),
        ("ldp.ledger.spend_keys", c.spend_keys as f64, "count"),
        ("ldp.ledger.audit_s", ns_to_s(r.audit_ns), "s"),
        ("ldp.ledger.double_spends", c.double_spends as f64, "count"),
        own_s("fleet.service.init_s"),
        own_s("fleet.service.offer_s"),
        ("fleet.service.busy_share", ratio(c.busy, c.offers), "ratio"),
        (
            "fleet.service.queue_wait_rounds_mean",
            ratio(c.wait_frame_rounds, c.frames_drained),
            "rounds",
        ),
        own_s("fleet.service.drain_s"),
        (
            "fleet.service.drain_ns_per_frame",
            per("fleet.service.drain_s", c.frames_drained),
            "ns",
        ),
        (
            "fleet.service.staged_frames_max",
            c.staged_frames_max as f64,
            "frames",
        ),
        own_s("fleet.service.seal_s"),
        ("fleet.service.seal_ms_p50", median(&mut seals), "ms"),
        own_s("fleet.service.snapshot_s"),
        (
            "fleet.collector.accepted_per_frame",
            ratio(i.accepted, c.frames_drained),
            "ratio",
        ),
        ("fleet.collector.duplicates", i.duplicates as f64, "count"),
        ("fleet.collector.rejected", i.rejected as f64, "count"),
        ("fleet.collector.late", i.late as f64, "count"),
        (
            "fleet.collector.corrupt_frames",
            i.corrupt_frames as f64,
            "count",
        ),
        ("fleet.collector.resyncs", i.resyncs as f64, "count"),
        (
            "fleet.collector.quarantined",
            i.quarantine_latched as f64,
            "count",
        ),
        own_s("fleet.window.rollup_s"),
        (
            "fleet.window.rollup_ledger_entries",
            c.rollup_ledger_entries as f64,
            "count",
        ),
        ("fleet.estimator.model_s", ns_to_s(model_ns), "s"),
        own_s("fleet.estimator.estimate_s"),
        own_s("eval.truth_s"),
    ])
}

/// The self-time metric every span's time is credited to.
fn metric_of(layer: &str, op: &str) -> Result<&'static str, String> {
    Ok(match (layer, op) {
        ("fleet.driver", _) => "fleet.driver.self_s",
        ("dpbox.array", "DeviceArray::new") => "dpbox.boot_s",
        ("dpbox.array", "DeviceArray::step_epochs") => "dpbox.step_s",
        ("dpbox.device", _) => "dpbox.sidecar_s",
        ("ldp.ledger", _) => "ldp.ledger.record_s",
        ("fleet.wire", _) => "fleet.wire.encode_s",
        ("fleet.chaos", _) => "fleet.chaos.transmit_s",
        ("fleet.service", "FleetService::new") => "fleet.service.init_s",
        ("fleet.service", "FleetService::offer") => "fleet.service.offer_s",
        ("fleet.service", "FleetService::drain") => "fleet.service.drain_s",
        ("fleet.service", "FleetService::seal_active") => "fleet.service.seal_s",
        ("fleet.service", "FleetService::snapshot") => "fleet.service.snapshot_s",
        ("fleet.window", _) => "fleet.window.rollup_s",
        ("fleet.estimator", _) => "fleet.estimator.estimate_s",
        ("eval.setup", _) => "eval.truth_s",
        _ => return Err(format!("span {layer}/{op} has no metric")),
    })
}

/// Per-(layer, op) self time, span count and work units of one replay.
fn layer_table(r: &Replay) -> String {
    let own = trace::self_times(&r.spans);
    let mut rows: std::collections::BTreeMap<(&str, &str), (u64, u64, u64)> = Default::default();
    for (s, &ns) in r.spans.iter().zip(&own) {
        let row = rows.entry((s.layer, s.op)).or_default();
        row.0 += ns;
        row.1 += 1;
        row.2 += s.units;
    }
    let mut out = String::new();
    for (i, ((layer, op), (ns, spans, units))) in rows.iter().enumerate() {
        let sep = if i + 1 < rows.len() { "," } else { "" };
        writeln!(
            out,
            "    {{\"layer\": \"{layer}\", \"op\": \"{op}\", \"self_s\": {}, \"spans\": {spans}, \
             \"units\": {units}}}{sep}",
            *ns as f64 * 1e-9
        )
        .expect("writing to a String cannot fail");
    }
    out
}

fn trace_mode(args: Args) -> Result<String, String> {
    // The noise model, built first in a fresh process: the cold cost
    // `FleetDriver::new` pays inside `setup_s`.
    let (cfg, _) = args.workload.config(args.seed);
    let start = Instant::now();
    let model = NoiseModel::for_device(
        cfg.bu,
        cfg.word_bits,
        cfg.eps_shift,
        0,
        1i64 << cfg.adc_bits,
        &cfg.multiples,
    )
    .map_err(|e| format!("NoiseModel::for_device: {e}"))?;
    let model_ns = start.elapsed().as_nanos() as u64;
    drop(model);

    let seconds = args.seconds;
    let mut b = Bench::new(args)?;
    b.run_once()?;
    let mut per_replay: Vec<Vec<(&'static str, f64, &'static str)>> = Vec::new();
    let mut last = None;
    let clock = Instant::now();
    while per_replay.is_empty() || clock.elapsed().as_secs_f64() < seconds {
        let (wall, _) = b.run_once()?;
        let r = replay::replay(&b.cfg, &b.svc, b.driver.model())?;
        b.runs += 1;
        b.check(&r.outcome, "traced replay")?;
        per_replay.push(layer_metrics(&r, (wall * 1e9) as u64, model_ns)?);
        last = Some(r);
    }
    let r = last.expect("at least one replay");

    let mut metrics = String::new();
    for (k, &(name, _, unit)) in per_replay[0].iter().enumerate() {
        let mut values: Vec<f64> = per_replay.iter().map(|m| m[k].1).collect();
        let sep = if k + 1 < per_replay[0].len() {
            ", "
        } else {
            ""
        };
        write!(
            metrics,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}{sep}",
            median(&mut values)
        )
        .expect("writing to a String cannot fail");
    }
    let stem = format!(".bench_out/{}-seed{}", b.args.workload.name(), b.args.seed);
    std::fs::create_dir_all(".bench_out").map_err(|e| format!("create .bench_out: {e}"))?;
    std::fs::write(format!("{stem}.spans.jsonl"), trace::to_jsonl(&r.spans))
        .map_err(|e| format!("write spans: {e}"))?;
    std::fs::write(
        format!("{stem}.layers.json"),
        format!(
            "{{\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"replays\": {},\n  \
             \"metrics\": {{{metrics}}},\n  \"wall_s\": {},\n  \"layers\": [\n{}  ]\n}}\n",
            b.args.workload.name(),
            b.args.seed,
            per_replay.len(),
            r.wall_ns as f64 * 1e-9,
            layer_table(&r)
        ),
    )
    .map_err(|e| format!("write layer table: {e}"))?;
    Ok(format!(
        "{{\"runs\": {}, \"metrics\": {{{metrics}}}}}",
        b.runs
    ))
}

fn main() -> ExitCode {
    let start = Instant::now();
    let result = parse_args().and_then(|args| match args.mode.as_str() {
        "setup" => setup(&args, start),
        "run" => run(args),
        _ => trace_mode(args),
    });
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("ulp-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
