//! The serve workloads against a real `rexec-serve` over loopback:
//! set-up, back-to-back throughput, the same stream replayed on the warm
//! daemon, and open-loop phases at two fixed rates. Every response is
//! checked for id and success; a seeded sample is byte-compared with an
//! in-process reference (`PlanService` with the plan cache off, then
//! `render_answer`) on the same request line.

use crate::client::{Conn, Phase};
use crate::gen::{Gen, Lines, Mix, Rng};
use crate::proc::Daemon;
use crate::replay;
use crate::report::Report;
use crate::stats::{backlog_grew, calm, fnv1a, median, median_at, residual, Dist, Steal};
use crate::Ctx;
use rexec_serve::{parse_request, render_answer, render_error, PlanService, ServiceConfig};
use std::io;
use std::time::Instant;

/// Daemons per untraced run, set-ups per daemon, and the length of each
/// paced segment in seconds.
const ROUNDS: usize = 4;
const SETUPS: usize = 3;
const SEGMENT_S: f64 = 0.25;
/// Fresh queries that fill the default 65,536-plan cache (16 shards of
/// 4,096) with margin, so every shard is evicting before `serve_cold`
/// measures.
const COLD_FILL: usize = 80_000;
/// Every `SAMPLE_EVERY`-th request (seeded) is byte-compared.
const SAMPLE_EVERY: u64 = 8;
/// The daemon's latency window spans 3.5–4 s (8 × 0.5 s, whole windows);
/// a traced phase outlasts it, and client percentiles compared with the
/// daemon's use the requests due in its last `WINDOW_S` seconds.
const WINDOW_S: f64 = 3.5;
/// Requests replayed per layer pass in the traced run.
const REPLAY_REQUESTS: usize = 100_000;

/// One serve workload.
pub struct Workload {
    /// Traffic mix.
    pub mix: Mix,
    /// Requests per back-to-back burst.
    pub burst: usize,
    /// Fixed offered rates (requests/s): about 12 % and 24 % of
    /// `serve_hot`'s `qps_max`, 8 % and 20 % of `serve_cold`'s, on a
    /// 2-vCPU x86-64 VM. Busier rates were too unsteady to gate on there:
    /// near saturation the median follows the machine's drifting speed.
    pub light_rate: f64,
    /// See `light_rate`.
    pub busy_rate: f64,
}

/// `serve_hot`: named paper tables, 95 % hot pool.
pub const HOT: Workload = Workload {
    mix: Mix::Hot,
    burst: 30_000,
    light_rate: 20_000.0,
    busy_rate: 40_000.0,
};

/// `serve_cold`: explicit K = 20 tables, every ρ fresh.
pub const COLD: Workload = Workload {
    mix: Mix::Cold,
    burst: 10_000,
    light_rate: 6_000.0,
    busy_rate: 16_000.0,
};

/// Checks a phase: counts its requests, failures and sampled mismatches.
fn tally(report: &mut Report, reference: &Reference, what: &str, lines: &Lines, phase: &Phase) {
    let mismatches = phase
        .sampled
        .iter()
        .filter(|(i, resp)| reference.answer(lines.line(*i)) != *resp)
        .count();
    report.attempt(lines.len() as u64);
    report.fail(
        phase.failed as u64,
        &format!("{what}: failed or missing responses"),
    );
    report.fail(
        mismatches as u64,
        &format!("{what}: responses differ from the reference"),
    );
}

/// The in-process reference: a cache-off service rendering the same line.
struct Reference(PlanService);

impl Reference {
    fn new() -> Reference {
        Reference(PlanService::new(ServiceConfig {
            plan_cache_capacity: 0,
            ..ServiceConfig::default()
        }))
    }

    fn answer(&self, line: &str) -> String {
        let mut out = String::new();
        let (id, spec) = parse_request(line);
        match spec.and_then(|s| {
            self.0
                .plan_spec(&s)
                .map_err(|e| rexec_serve::wire::wire_error_from_spec(&e))
        }) {
            Ok(answer) => render_answer(&mut out, id, &answer),
            Err(e) => render_error(&mut out, id, &e),
        }
        out
    }
}

fn sampler(seed: u64) -> impl Fn(usize) -> bool + Sync {
    move |i| Rng::new(seed, i as u64 + 1000).below(SAMPLE_EVERY) == 0
}

/// A daemon that has answered the warm-up pass, and the time that took.
fn warm_daemon(
    ctx: &Ctx,
    report: &mut Report,
    reference: &Reference,
    warm: &Lines,
    prom: Option<&std::path::Path>,
) -> io::Result<(Daemon, Conn, f64)> {
    let t = Instant::now();
    let daemon = Daemon::spawn(&ctx.serve_bin, prom)?;
    let mut conn = Conn::open(&daemon.addr)?;
    let phase = conn.phase(warm, None, &|_| true)?;
    let setup_s = t.elapsed().as_secs_f64();
    tally(report, reference, "warm-up", warm, &phase);
    Ok((daemon, conn, setup_s))
}

/// For `serve_cold`, fills the daemon's plan cache so every measured
/// insert also evicts; returns the number of requests sent.
fn fill_cold_cache(
    w: &Workload,
    gen: &mut Gen,
    conn: &mut Conn,
    report: &mut Report,
    reference: &Reference,
    sample: &(dyn Fn(usize) -> bool + Sync),
) -> io::Result<usize> {
    if w.mix != Mix::Cold {
        return Ok(0);
    }
    let fill = gen.stream(COLD_FILL);
    let phase = conn.phase(&fill, None, sample)?;
    tally(report, reference, "fill", &fill, &phase);
    Ok(fill.len())
}

/// A paced phase of `seconds` at `rate`.
fn paced(
    gen: &mut Gen,
    conn: &mut Conn,
    rate: f64,
    seconds: f64,
    sample: &(dyn Fn(usize) -> bool + Sync),
) -> io::Result<(Lines, Phase)> {
    let n = (rate * seconds) as usize;
    let due = gen.schedule(n, rate);
    let lines = gen.stream(n);
    let phase = conn.phase(&lines, Some(&due), sample)?;
    Ok((lines, phase))
}

fn note_phase(report: &mut Report, name: &str, lines: &Lines, phase: &Phase) {
    let lat = Dist::of(phase.latency_ms.clone());
    let lag = Dist::of(phase.lag_ms.clone());
    let behind = backlog_grew(lines.len(), phase.last_due_ns, phase.last_answer_ns);
    report.note(format!(
        "{name}: requests={} digest={} p50_ms={:.4} p99_ms={:.4} latency_count={} \
         lag_p99_ms={:.4} lag_count={} backlog_grew={behind}",
        lines.len(),
        fnv1a(&lines.bytes),
        lat.p50,
        lat.p99,
        lat.count,
        lag.p99,
        lag.count
    ));
    if behind {
        eprintln!("perfbench: {name}: answered rate fell behind the offered rate");
    }
}

/// The untraced run: every end-to-end metric. The machine's speed
/// drifts from second to second, so the run takes many short samples of
/// every metric, interleaved over its whole length, and reports for each
/// metric the median of its samples taken while the hypervisor stole no
/// CPU (see [`calm`]; the stolen share is read around each sample).
/// `ROUNDS` freshly spawned daemons are each set up `SETUPS` times (the
/// last one stays), have their plan cache filled (`serve_cold` only), and
/// then, until their share of `--seconds` is spent, are driven through
/// cycles of a back-to-back burst, a replay of that burst, a light segment
/// and a busy segment.
pub fn end_to_end(ctx: &Ctx, w: &Workload, report: &mut Report) -> io::Result<()> {
    let mut gen = Gen::new(w.mix, ctx.seed);
    let reference = Reference::new();
    let sample = sampler(ctx.seed);
    let warm = gen.warmup();
    report.note(format!(
        "warm-up: requests={} digest={}",
        warm.len(),
        fnv1a(&warm.bytes)
    ));
    let round_s = ctx.seconds / ROUNDS as f64;
    // Per set-up and per sample of each cycle metric (`qps_max`,
    // `p50_ms.light`, `p50_ms.busy`, `pipeline_s`, `resume_s`): the
    // sample, and the CPU share stolen while it was taken.
    let (mut setup_stolen, mut setups) = (Vec::new(), Vec::new());
    let (mut m, mut stolen): ([Vec<f64>; 5], [Vec<f64>; 5]) = Default::default();
    let mut rss = Vec::new();
    // Running digest over the digests of every phase offered, in order:
    // two runs with one seed agree on it over their common prefix.
    let mut offered = fnv1a(&warm.bytes);
    let mut phases = 0;
    for _ in 0..ROUNDS {
        let round_started = Instant::now();
        let mut spawned: Option<(Daemon, Conn)> = None;
        for _ in 0..SETUPS {
            if let Some((daemon, conn)) = spawned.take() {
                drop(conn);
                report.fail(u64::from(!daemon.stop()?.ok), "daemon exit status");
            }
            let stolen = Steal::now();
            let (daemon, conn, setup_s) = warm_daemon(ctx, report, &reference, &warm, None)?;
            setup_stolen.push(stolen.share_since());
            setups.push(setup_s);
            spawned = Some((daemon, conn));
        }
        let (daemon, mut conn) = spawned.expect("at least one set-up");
        fill_cold_cache(w, &mut gen, &mut conn, report, &reference, &sample)?;
        let mut cycles = 0;
        while cycles < 2 || round_started.elapsed().as_secs_f64() < round_s {
            cycles += 1;
            let mut taken = |k: &[usize], v: &[f64], since: Steal| {
                let share = since.share_since();
                for (&k, &v) in k.iter().zip(v) {
                    m[k].push(v);
                    stolen[k].push(share);
                }
            };
            let since = Steal::now();
            let burst = gen.stream(w.burst);
            let phase = conn.phase(&burst, None, &sample)?;
            taken(
                &[0, 3],
                &[phase.ok as f64 / phase.elapsed_s, phase.elapsed_s],
                since,
            );
            tally(report, &reference, "back-to-back", &burst, &phase);
            // The same burst again, now answered from the plan cache.
            let since = Steal::now();
            let replay = conn.phase(&burst, None, &sample)?;
            taken(&[4], &[replay.elapsed_s], since);
            tally(report, &reference, "replay", &burst, &replay);
            offered = fnv1a(format!("{offered}{}", fnv1a(&burst.bytes)).as_bytes());
            phases += 1;
            for (k, rate) in [(1, w.light_rate), (2, w.busy_rate)] {
                let since = Steal::now();
                let (lines, phase) = paced(&mut gen, &mut conn, rate, SEGMENT_S, &sample)?;
                taken(&[k], &[median(&phase.latency_ms)], since);
                tally(report, &reference, "paced", &lines, &phase);
                offered = fnv1a(format!("{offered}{}", fnv1a(&lines.bytes)).as_bytes());
                phases += 1;
                note_phase(
                    report,
                    if k == 1 { "light" } else { "busy" },
                    &lines,
                    &phase,
                );
            }
        }
        drop(conn);
        let exit = daemon.stop()?;
        report.fail(u64::from(!exit.ok), "daemon exit status");
        rss.push(exit.peak_rss_mb);
    }
    report.note(format!("offered: phases={phases} digest={offered}"));
    report.put("setup_s", median_at(&setups, &calm(&setup_stolen)));
    let names = [
        "qps_max",
        "p50_ms.light",
        "p50_ms.busy",
        "pipeline_s",
        "resume_s",
    ];
    for ((name, xs), stolen) in names.iter().zip(&m).zip(&stolen) {
        let keep = calm(stolen);
        report.note(format!(
            "calm samples of {name}: {} of {} (median stolen CPU share {:.4})",
            keep.len(),
            stolen.len(),
            median(stolen)
        ));
        report.put(name, median_at(xs, &keep));
    }
    report.put("rss_mb", median(&rss));
    Ok(())
}

/// What the daemon's own exposition says about one phase.
struct Server {
    p50_ms: f64,
    p99_ms: f64,
    count: f64,
    batch_p50: f64,
}

fn read_prom(path: &std::path::Path) -> io::Result<Server> {
    let text = std::fs::read_to_string(path)?;
    let get = |name: &str| {
        text.lines()
            .find_map(|l| {
                l.strip_prefix(name)?
                    .strip_prefix(' ')?
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
            .ok_or_else(|| io::Error::other(format!("{name} missing from {}", path.display())))
    };
    Ok(Server {
        p50_ms: get("rexec_serve_latency_p50")? * 1e3,
        p99_ms: get("rexec_serve_latency_p99")? * 1e3,
        count: get("rexec_serve_latency_per_sec")? * 4.0,
        batch_p50: get("rexec_serve_batch_occupancy{quantile=\"0.5\"}")?,
    })
}

/// Client median over the requests due in the daemon's window (the last
/// `WINDOW_S` seconds of the phase).
fn window_p50(phase: &Phase) -> f64 {
    let from = phase.last_due_ns.saturating_sub((WINDOW_S * 1e9) as u64);
    let xs: Vec<f64> = phase
        .due_ns
        .iter()
        .zip(&phase.latency_ms)
        .filter(|(&d, _)| d >= from)
        .map(|(_, &l)| l)
        .collect();
    median(&xs)
}

fn put_dist(report: &mut Report, name: &str, xs: Vec<f64>) -> Dist {
    let d = Dist::of(xs);
    report.put(name, d.p50);
    report.put(&format!("{name}.p99"), d.p99);
    report.put(&format!("{name}.count"), d.count as f64);
    d
}

/// The traced run's serve part: the daemon's view of each paced phase
/// next to the client's, then the per-layer replay of the busy phase's
/// own request stream, its tracing overhead, and the attribution
/// self-test.
pub fn traced(ctx: &Ctx, w: &Workload, report: &mut Report) -> io::Result<()> {
    let mut gen = Gen::new(w.mix, ctx.seed);
    let reference = Reference::new();
    let sample = sampler(ctx.seed);
    let warm = gen.warmup();
    let seconds = (0.25 * ctx.seconds).max(WINDOW_S + 1.0);
    let mut servers = Vec::new();
    let mut lags = Vec::new();
    let mut sent = 0;
    let mut busy_lines = Lines::default();
    for (name, rate) in [("light", w.light_rate), ("busy", w.busy_rate)] {
        let prom = ctx.work.join(format!("{name}.prom"));
        let (daemon, mut conn, _) = warm_daemon(ctx, report, &reference, &warm, Some(&prom))?;
        let filled = fill_cold_cache(w, &mut gen, &mut conn, report, &reference, &sample)?;
        let (lines, phase) = paced(&mut gen, &mut conn, rate, seconds, &sample)?;
        drop(conn);
        report.fail(u64::from(!daemon.stop()?.ok), "daemon exit status");
        tally(report, &reference, name, &lines, &phase);
        note_phase(report, name, &lines, &phase);
        let server = read_prom(&prom)?;
        let client = Dist::of(phase.latency_ms.clone());
        report.put(&format!("client.p99_ms.{name}"), client.p99);
        report.put(&format!("client.count.{name}"), client.count as f64);
        let behind = backlog_grew(lines.len(), phase.last_due_ns, phase.last_answer_ns);
        report.put(
            &format!("client.behind.{name}"),
            f64::from(u8::from(behind)),
        );
        report.put(
            &format!("server.batch_occupancy.p50.{name}"),
            server.batch_p50,
        );
        report.put(&format!("server.latency_p50_ms.{name}"), server.p50_ms);
        report.put(&format!("server.latency_p99_ms.{name}"), server.p99_ms);
        report.put(&format!("server.latency_count.{name}"), server.count);
        report.put(
            &format!("server.outside_ms.{name}"),
            residual(window_p50(&phase), &[server.p50_ms]),
        );
        lags.extend_from_slice(&phase.lag_ms);
        sent += warm.len() + filled + lines.len();
        servers.push(server);
        if name == "busy" {
            busy_lines = lines;
        }
    }
    let lag = Dist::of(lags);
    report.put("client.lag_p99_ms", lag.p99);
    report.put("client.lag_count", lag.count as f64);
    report.put("client.sent", sent as f64);

    // Replay the busy phase's own stream at the daemon's median batch.
    let n = busy_lines.len().min(REPLAY_REQUESTS);
    let stream = Lines {
        bytes: busy_lines.bytes[..busy_lines.ends[n - 1]].to_vec(),
        ends: busy_lines.ends[..n].to_vec(),
        first_id: busy_lines.first_id,
    };
    let batch = (servers[1].batch_p50.round() as usize).max(1);
    report.note(format!(
        "replay: requests={n} digest={} batch={batch}",
        fnv1a(&stream.bytes)
    ));
    let untimed = replay::layers::<false>(&stream, batch, 0);
    let a = replay::layers::<true>(&stream, batch, 0);
    let injected = replay::layers::<true>(&stream, batch, SELFTEST_NS);
    for l in [&untimed, &a, &injected] {
        report.attempt(n as u64);
        report.fail(l.failed as u64, "replay: request did not parse or resolve");
    }
    report.put(
        "trace.overhead_pct",
        100.0 * (a.wall_s / untimed.wall_s - 1.0),
    );
    selftest(report, &a, &injected);

    let hit_frac = a.hits as f64 / a.lookups.max(1) as f64;
    let per_request = [
        put_dist(report, "wire.parse_us", a.parse).p50,
        put_dist(report, "spec.resolve_us", a.resolve).p50,
        put_dist(report, "quant.key_us", a.key).p50,
        put_dist(
            report,
            "service.plan_batch_us",
            replay::plan_batch_per_request(&stream, batch),
        )
        .p50,
        put_dist(report, "wire.render_us", a.render).p50,
    ];
    put_dist(report, "cache.get_us", a.get);
    put_dist(report, "cache.insert_us", a.insert);
    put_dist(report, "bicrit.build_us", a.build);
    put_dist(report, "bicrit.solve_ns_per_rho", a.solve_ns_per_rho);
    report.put("bicrit.rhos_per_call", median(&a.rhos_per_call));
    report.put("cache.hit_frac", hit_frac);
    report.put("cache.evictions", a.evictions as f64);
    report.put("service.batch_size", batch as f64);
    for (name, server) in ["light", "busy"].iter().zip(&servers) {
        let r = residual(server.p50_ms * 1e3, &per_request);
        report.put(&format!("transport.residual_us.{name}"), r);
        report.fail(u64::from(r < 0.0), "transport.residual_us is negative");
    }
    Ok(())
}

/// The self-test's injected delay inside the `parse_request` wrapper.
const SELFTEST_NS: u64 = 1_000;

/// Medians of the per-request layers over even- and odd-numbered
/// requests: `[parse, resolve, key, get, render]`.
fn halves(l: &replay::Layers) -> [[f64; 5]; 2] {
    let half = |xs: &Vec<f64>, odd: usize| {
        median(&xs.iter().skip(odd).step_by(2).copied().collect::<Vec<_>>())
    };
    [0, 1].map(|odd| [&l.parse, &l.resolve, &l.key, &l.get, &l.render].map(|xs| half(xs, odd)))
}

/// Injecting 1 µs into the parse wrapper of every odd-numbered request
/// must raise that half's `wire.parse_us` by about 1 µs over the even
/// half of the same pass, and move no other layer beyond its spread: the
/// gap between the two halves of the baseline pass times three, but at
/// least a tenth of the injected delay plus a tenth of the layer (clock
/// reads and the spin's after-effects on the next call). Comparing halves
/// of one pass cancels the machine's drift between passes.
fn selftest(report: &mut Report, base: &replay::Layers, inj: &replay::Layers) {
    const LAYERS: [&str; 5] = ["parse", "resolve", "key", "get", "render"];
    let ([be, bo], [ie, io]) = (halves(base), halves(inj));
    let shift = io[0] - ie[0];
    let mut worst: f64 = 0.0;
    let mut moved = Vec::new();
    for k in 1..LAYERS.len() {
        let moved_by = (io[k] - ie[k]).abs();
        let allowed = (3.0 * (bo[k] - be[k]).abs()).max(0.1 + 0.1 * be[k]);
        worst = worst.max(moved_by);
        if moved_by > allowed {
            moved.push(format!(
                "{} moved {moved_by:.3} us (allowed {allowed:.3})",
                LAYERS[k]
            ));
        }
    }
    let ok = (0.7..=1.5).contains(&shift) && moved.is_empty();
    report.note(format!(
        "selftest: parse shift {shift:.3} us for 1 us injected; {}",
        if moved.is_empty() {
            "no other layer moved".to_string()
        } else {
            moved.join(", ")
        }
    ));
    report.put("selftest.parse_shift_us", shift);
    report.put("selftest.other_shift_us", worst);
    report.put("selftest.pass", f64::from(u8::from(ok)));
    report.attempt(1);
    report.fail(u64::from(!ok), "attribution self-test");
}
