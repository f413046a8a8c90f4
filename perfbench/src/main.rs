//! samplehist's benchmark: three closed-loop workloads over the
//! statistics service, each printing the same end-to-end metrics, and a
//! traced mode that splits them into per-layer figures.
//!
//! ```text
//! perfbench --workload analyze|estimate|wire --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. See `perfbench/README.md`.

mod analyze;
mod common;
mod layers;
mod serve;
mod world;

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use samplehist_service::{RefreshTally, ServerOptions, WireServer};

use common::{median, peak_rss_mb, print_span_summary, quantile_sorted, Report, SortedLatencies};
use world::World;

/// Set-up runs this many times per run; `setup_s` is the median.
const SETUP_REPEATS: usize = 3;
/// The estimate and wire catalogs: 4 tenants × 24 tables × 6 columns of
/// 16 Ki rows. 576 column indexes of ~7 KB each exceed a 2 MB L2.
const TENANTS: u64 = 4;
const TABLES: usize = 24;
const COLUMNS: usize = 6;
const ROWS: u64 = 16_384;
const PLANS: usize = 4096;
/// Client threads (or connections) never exceed this, nor the cores.
const MAX_CLIENTS: usize = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !["analyze", "estimate", "wire"].contains(&args.workload.as_str()) {
        return Err("--workload must be analyze, estimate or wire".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload analyze|estimate|wire --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let report = match args.workload.as_str() {
        "analyze" => run_analyze(&args, nproc),
        "estimate" => run_estimate(&args, nproc),
        _ => run_wire(&args, nproc),
    };
    report.print();
    if !report.correct {
        std::process::exit(1);
    }
}

/// Run `build` `SETUP_REPEATS` times, dropping each result before the
/// next; keep the last and report the median duration in seconds.
fn setup_repeated<T>(build: impl Fn() -> T) -> (T, f64) {
    let mut kept = None;
    let mut times = Vec::new();
    for _ in 0..SETUP_REPEATS {
        drop(kept.take());
        let t0 = Instant::now();
        kept = Some(build());
        times.push(t0.elapsed().as_secs_f64());
    }
    (kept.expect("at least one set-up"), median(&times))
}

fn print_config(args: &Args, nproc: usize, clients: usize, server_workers: usize) {
    println!(
        "config workload={} seed={} seconds={} trace={} nproc={nproc} clients={clients} \
         server_workers={server_workers} loop=closed",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
}

fn print_latency(lat: &SortedLatencies) {
    let deciles: Vec<String> =
        (1..10).map(|d| format!("{:.1}", lat.quantile_us(d as f64 / 10.0))).collect();
    println!("latency deciles_us=[{}]", deciles.join(", "));
    println!(
        "latency samples={} p50={:.3} us p99={:.3} us beyond_p99={}",
        lat.len(),
        lat.quantile_us(0.5),
        lat.quantile_us(0.99),
        lat.beyond(0.99)
    );
}

fn p90(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, 0.9)
}

/// The seven end-to-end metrics, shared by every workload.
fn end_to_end(
    report: &mut Report,
    setup_s: f64,
    throughput: f64,
    lat: &SortedLatencies,
    qerror_p90: f64,
) {
    report.metric("setup_s", setup_s, "s");
    report.metric("throughput_per_s", throughput, "1/s");
    report.metric("latency_us", lat.quantile_us(0.5), "us");
    report.metric("latency_p99_us", lat.quantile_us(0.99), "us");
    report.metric("qerror_p90", qerror_p90, "ratio");
    let ok_frac = (report.attempted - report.failed) as f64 / report.attempted.max(1) as f64;
    report.metric("ok_frac", ok_frac, "frac");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

fn total_tally(world: &World) -> RefreshTally {
    let mut t = RefreshTally::default();
    for id in world.registry.ids() {
        let s = world.service(id).tally();
        t.completed += s.completed;
        t.failed += s.failed;
        t.probes += s.probes;
        t.probe_passes += s.probe_passes;
        t.full_reanalyzes += s.full_reanalyzes;
        t.patches += s.patches;
        t.patch_rejects += s.patch_rejects;
        t.rejected += s.rejected;
    }
    t
}

fn run_analyze(args: &Args, nproc: usize) -> Report {
    let (mut aw, setup_s) = setup_repeated(|| analyze::setup(args.seed));
    print_config(args, nproc, 1, 0);
    let mut d = aw.driver();
    let mut report = Report::default();
    let first = aw.run(&mut d, untraced_seconds(args), false);
    report.attempted = first.attempted;
    report.failed = first.failed;
    println!("analyze cycles={} actions={} rows={}", first.cycles, first.attempted, first.rows);
    print_latency(&first.latencies);
    let tally = d.tally.expect("accounted cycles always run");
    println!("ladder {tally:?}");
    if args.trace {
        let traced = aw.run(&mut d, args.seconds / 2.0, true);
        report.attempted += traced.attempted;
        report.failed += traced.failed;
        print_span_summary(&traced.spans);
        let overhead = traced.latencies.quantile_us(0.5) / first.latencies.quantile_us(0.5);
        aw.settle(&d);
        let mut rng = StdRng::seed_from_u64(args.seed);
        aw.world.plans = world::make_plans(&aw.world.registry, &mut aw.world.cols, 512, &mut rng);
        let ctx = layers::Context {
            tally,
            trace_overhead_ratio: overhead,
            plan_rtt_us: None,
            server: None,
        };
        let layers_ok = layers::measure(&aw.world, ctx, &mut report);
        report.correct = layers_ok && report.failed == 0;
    } else {
        let throughput = first.rows as f64 / first.busy.as_secs_f64();
        end_to_end(&mut report, setup_s, throughput, &first.latencies, p90(&d.qerrors));
        report.correct = report.failed == 0;
    }
    report
}

fn run_estimate(args: &Args, nproc: usize) -> Report {
    let (world, setup_s) = setup_repeated(|| {
        world::build_catalog_world(args.seed, TENANTS, TABLES, COLUMNS, ROWS, PLANS)
    });
    run_read(
        args,
        nproc,
        &world,
        setup_s,
        None,
        |_| serve::in_process_client(&world),
        |c, k, i, tr| serve::estimate_step(&world, c, k, i, tr),
    )
}

fn run_wire(args: &Args, nproc: usize) -> Report {
    let ((world, server), setup_s) = setup_repeated(|| {
        let world = world::build_catalog_world(args.seed, TENANTS, TABLES, COLUMNS, ROWS, PLANS);
        let server = WireServer::start(&world.registry, "127.0.0.1:0", ServerOptions::default())
            .expect("start the wire server on loopback");
        (world, server)
    });
    run_read(
        args,
        nproc,
        &world,
        setup_s,
        Some(&server),
        |t| serve::connect(&server, args.seed, t),
        |c, k, i, tr| serve::wire_step(&world, c, k, i, tr),
    )
}

/// The read-path workloads: closed-loop plans, in process or, when a
/// server is given, over the wire.
fn run_read<C>(
    args: &Args,
    nproc: usize,
    world: &World,
    setup_s: f64,
    server: Option<&WireServer>,
    make: impl Fn(usize) -> C + Sync,
    step: impl Fn(&mut C, u64, usize, &mut common::Tracer) -> serve::Step + Sync,
) -> Report {
    let clients = nproc.min(MAX_CLIENTS);
    let workers = server.map_or(0, |_| ServerOptions::default().workers);
    print_config(args, nproc, clients, workers);
    let phase = |seconds: f64, traced: bool| {
        serve::closed_loop(clients, world.plans.len(), seconds, traced, &make, &step)
    };
    let mut report = Report::default();
    let first = phase(untraced_seconds(args), false);
    report.attempted = first.attempted;
    report.failed = first.failed;
    print_latency(&first.latencies);
    let traced = args.trace.then(|| phase(args.seconds / 2.0, true));
    if let Some(t) = &traced {
        report.attempted += t.attempted;
        report.failed += t.failed;
    }
    if let Some(server) = server {
        let below = first.latencies.share_below_us(1000.0);
        println!("wire rtt share below 1 ms={below:.4} at or above 1 ms={:.4}", 1.0 - below);
        let sent: u64 =
            [Some(&first), traced.as_ref()].into_iter().flatten().map(serve::wire_requests).sum();
        let served = server.requests_served();
        if served != sent {
            common::mismatch(format_args!("server served {served} requests, clients sent {sent}"));
            report.failed += 1;
        }
    }
    if let Some(traced) = traced {
        print_span_summary(&traced.spans);
        let ctx = layers::Context {
            tally: total_tally(world),
            trace_overhead_ratio: traced.latencies.quantile_us(0.5)
                / first.latencies.quantile_us(0.5),
            plan_rtt_us: server.map(|_| first.latencies.quantile_us(0.5)),
            server,
        };
        let layers_ok = layers::measure(world, ctx, &mut report);
        report.correct = layers_ok && report.failed == 0;
    } else {
        let throughput = first.estimates as f64 / first.wall.as_secs_f64();
        end_to_end(&mut report, setup_s, throughput, &first.latencies, p90(&world.plan_qerrors()));
        report.correct = report.failed == 0;
    }
    report
}

/// A traced run spends its first half untraced, as the baseline of the
/// tracing overhead.
fn untraced_seconds(args: &Args) -> f64 {
    if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    }
}
