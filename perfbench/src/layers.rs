//! The traced run's per-layer measurements, taken from the benchmark's
//! own files by calling each layer's public functions on the workload's
//! own state: its columns, its snapshots, its plans and its seed.
//!
//! Calls that take milliseconds are timed one by one; calls under a few
//! microseconds are timed in amortized loops (`ns_per_op`), never one
//! by one.

use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use samplehist_core::distinct::{DistinctEstimator, FrequencyProfile, Gee};
use samplehist_core::histogram::{BucketIndex, EquiHeightHistogram};
use samplehist_core::sampling::{cvb, CvbConfig, Reliable, Schedule, ValidationMode};
use samplehist_core::BlockSource;
use samplehist_engine::{
    estimate_cardinality, estimate_cardinality_batch, estimate_equijoin, AnalyzeMode,
    CardinalityEstimate, StatsCatalog, VersionedStats,
};
use samplehist_service::{
    dispatch, rng_stream, run_probe, AdmissionControl, FrameDecoder, RefreshTally, Request,
    Response, ServerOptions, WireServer,
};

use crate::common::{median, mismatch, ns_per_op, Report};
use crate::world::{World, BATCH, SCALARS, WIRE_REQUESTS};

/// Columns whose ANALYZE is replayed layer by layer.
const REPLAY_COLUMNS: usize = 10;
const TRIALS: usize = 5;
const BUDGET: Duration = Duration::from_millis(40);

/// What the workload itself measured, for the metrics that combine it
/// with layer timings.
pub struct Context<'a> {
    pub tally: RefreshTally,
    /// Traced median request latency over untraced median.
    pub trace_overhead_ratio: f64,
    /// Median plan round trip of the wire workload under its own load;
    /// other workloads measure a serial one here.
    pub plan_rtt_us: Option<f64>,
    /// The workload's running server, if it has one.
    pub server: Option<&'a WireServer>,
}

/// Emit every per-layer metric; returns false on a replay mismatch.
pub fn measure(world: &World, ctx: Context, report: &mut Report) -> bool {
    let mut ok = build_path(world, report);
    let t = ctx.tally;
    report.metric("service.ladder.probes", t.probes as f64, "count");
    report.metric("service.ladder.probe_passes", t.probe_passes as f64, "count");
    report.metric("service.ladder.patches", t.patches as f64, "count");
    report.metric("service.ladder.patch_rejects", t.patch_rejects as f64, "count");
    report.metric("service.ladder.full_reanalyzes", t.full_reanalyzes as f64, "count");
    read_path(world, report);
    ok &= wire_path(world, &ctx, report);
    report.metric("trace.overhead_ratio", ctx.trace_overhead_ratio, "ratio");
    ok
}

/// Replay each column's installed ANALYZE call by call: CVB with the
/// service's RNG stream, histogram construction, distinct estimation,
/// index build and catalog install; then a staleness probe of the
/// installed histogram. Every replayed artifact must equal the
/// installed one.
fn build_path(world: &World, report: &mut Report) -> bool {
    let mut ok = true;
    let (mut cvb_ms, mut rounds, mut build_ms, mut distinct_ms, mut probe_ms) =
        (Vec::new(), 0usize, Vec::new(), Vec::new(), Vec::new());
    let (mut pages, mut tuples, mut rows) = (0u64, 0u64, 0u64);
    let mut index_us = Vec::new();
    let mut snaps: Vec<Arc<VersionedStats>> = Vec::new();
    for c in world.cols.iter().take(REPLAY_COLUMNS) {
        let svc = world.service(c.tenant);
        let cfg = *svc.config();
        let snap = svc.catalog().get(&c.table, &c.column).expect("analyzed column");
        let table = svc.table(&c.table).expect("registered table");
        let file = table.column(&c.column).expect("registered column").file();
        let AnalyzeMode::Adaptive { target_f, gamma } = cfg.analyze.mode else {
            panic!("the deterministic service configuration ANALYZEs adaptively");
        };
        let n = file.num_tuples();
        let pages_total = file.num_pages();
        let b = file.avg_tuples_per_block().max(1.0);
        let config = CvbConfig {
            buckets: cfg.analyze.buckets,
            target_f,
            gamma,
            schedule: Schedule::Doubling {
                initial_blocks: (((5.0 * (n as f64).sqrt()) / b).ceil() as usize)
                    .clamp(1, pages_total.max(1)),
            },
            validation: ValidationMode::AllTuples,
            max_block_fraction: 1.0,
        };
        let mut rng = rng_stream(cfg.seed, &c.table, &c.column, "refresh", snap.epoch, 0);
        let t0 = Instant::now();
        let result = cvb::run(file, &config, &mut rng);
        cvb_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        rounds += result.rounds_executed;

        let k = cfg.analyze.buckets;
        let sample = &result.sample_sorted;
        let t0 = Instant::now();
        let histogram = if result.exhausted {
            EquiHeightHistogram::from_sorted(sample, k)
        } else {
            EquiHeightHistogram::from_sorted_sample(sample, k, n)
        };
        build_ms.push(t0.elapsed().as_secs_f64() * 1e3);

        let t0 = Instant::now();
        let profile = FrequencyProfile::from_sorted_sample(sample);
        let distinct = if result.exhausted {
            profile.distinct_in_sample() as f64
        } else {
            Gee.estimate(&profile, n)
        };
        distinct_ms.push(t0.elapsed().as_secs_f64() * 1e3);

        let stats = &snap.stats;
        let same = histogram == stats.histogram
            && distinct.to_bits() == stats.distinct_estimate.to_bits()
            && stats.io.pages_read == result.blocks_sampled as u64
            && stats.io.tuples_read == result.tuples_sampled;
        if !same {
            mismatch(format_args!(
                "layer replay of {}.{} differs from the catalog",
                c.table, c.column
            ));
            ok = false;
        }
        pages += stats.io.pages_read;
        tuples += stats.io.tuples_read;
        rows += n;
        index_us.push(
            ns_per_op(TRIALS, BUDGET / 4, 1, || {
                black_box(BucketIndex::new(black_box(&histogram)));
            }) / 1e3,
        );

        let mut rng =
            rng_stream(cfg.seed, &c.table, &c.column, "probe", snap.epoch, snap.mods_validated());
        let t0 = Instant::now();
        black_box(run_probe(&Reliable(file), &stats.histogram, &cfg.staleness, &mut rng));
        probe_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        snaps.push(snap);
    }
    let replays = snaps.len();
    report.metric("storage.pages_read_per_action", pages as f64 / replays as f64, "pages");
    report.metric("storage.tuples_read_frac", tuples as f64 / rows as f64, "frac");
    report.metric("core.sampling.cvb_ms", mean(&cvb_ms), "ms");
    report.metric("core.sampling.cvb_rounds", rounds as f64 / replays as f64, "count");
    report.metric("core.histogram.build_ms", mean(&build_ms), "ms");
    report.metric("core.histogram.index_build_us", mean(&index_us), "us");
    report.metric("core.distinct.estimate_ms", mean(&distinct_ms), "ms");
    report.metric("engine.catalog.install_us", install_us(&snaps), "us");
    report.metric("service.staleness.probe_ms", mean(&probe_ms), "ms");
    ok
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

/// `StatsCatalog::install` of the replayed columns' statistics into a
/// scratch catalog, with each index prebuilt (its cost is the index
/// metric), amortized over many installs.
fn install_us(snaps: &[Arc<VersionedStats>]) -> f64 {
    const ROUNDS: usize = 64;
    let catalog = StatsCatalog::default();
    let per_trial: Vec<f64> = (0..TRIALS)
        .map(|_| {
            let batch: Vec<_> = (0..ROUNDS)
                .flat_map(|_| snaps.iter())
                .map(|s| {
                    let stats = s.stats.clone();
                    stats.index();
                    stats
                })
                .collect();
            let count = batch.len();
            let t0 = Instant::now();
            for stats in batch {
                black_box(catalog.install(stats, 0, 0));
            }
            t0.elapsed().as_secs_f64() * 1e6 / count as f64
        })
        .collect();
    median(&per_trial)
}

/// The engine's descent against the service's lookup on the workload's
/// own plans and snapshots.
fn read_path(world: &World, report: &mut Report) {
    let plans = &world.plans;
    let snaps: Vec<(Arc<VersionedStats>, Arc<VersionedStats>)> = plans
        .iter()
        .map(|p| {
            let (c, j) = (&world.cols[p.col], &world.cols[p.join_col]);
            let svc = world.service(c.tenant);
            let get = |t: &str, col: &str| svc.catalog().get(t, col).expect("analyzed column");
            (get(&c.table, &c.column), get(&j.table, &j.column))
        })
        .collect();
    let services: Vec<_> = plans.iter().map(|p| world.service(world.cols[p.col].tenant)).collect();
    let n = plans.len();
    let mut out = [CardinalityEstimate { rows: 0.0, selectivity: 0.0 }; BATCH];

    let engine = ns_per_op(TRIALS, BUDGET, n * SCALARS, || {
        for (p, (s, _)) in plans.iter().zip(&snaps) {
            for pred in &p.scalars {
                black_box(estimate_cardinality(&s.stats, pred));
            }
        }
    });
    let engine_batch = ns_per_op(TRIALS, BUDGET, n * BATCH, || {
        for (p, (s, _)) in plans.iter().zip(&snaps) {
            estimate_cardinality_batch(&s.stats, &p.batch, &mut out);
            black_box(&out);
        }
    });
    let join = ns_per_op(TRIALS, BUDGET, n, || {
        for (a, b) in &snaps {
            black_box(estimate_equijoin(&a.stats, &b.stats));
        }
    });
    let get = ns_per_op(TRIALS, BUDGET, n, || {
        for (p, svc) in plans.iter().zip(&services) {
            let c = &world.cols[p.col];
            black_box(svc.catalog().get(&c.table, &c.column));
        }
    });
    let service = ns_per_op(TRIALS, BUDGET, n * SCALARS, || {
        for (p, svc) in plans.iter().zip(&services) {
            let c = &world.cols[p.col];
            for pred in &p.scalars {
                black_box(svc.estimate_cardinality(&c.table, &c.column, pred));
            }
        }
    });
    let service_batch = ns_per_op(TRIALS, BUDGET, n * BATCH, || {
        for (p, svc) in plans.iter().zip(&services) {
            let c = &world.cols[p.col];
            black_box(svc.estimate_cardinality_batch(&c.table, &c.column, &p.batch));
        }
    });
    let record_actual = ns_per_op(TRIALS, BUDGET, n, || {
        for (p, svc) in plans.iter().zip(&services) {
            let c = &world.cols[p.col];
            let (pred, predicted, actual) = p.feedback();
            black_box(svc.record_actual_predicate(&c.table, &c.column, &pred, predicted, actual));
        }
    });
    let record_mods = ns_per_op(TRIALS, BUDGET, n, || {
        for (p, svc) in plans.iter().zip(&services) {
            let c = &world.cols[p.col];
            black_box(svc.record_modifications(&c.table, &c.churn, 1));
        }
    });
    report.metric("engine.estimate_ns", engine, "ns");
    report.metric("engine.estimate_batch_ns_per_pred", engine_batch, "ns");
    report.metric("engine.equijoin_ns", join, "ns");
    report.metric("engine.catalog.get_ns", get, "ns");
    report.metric("service.estimate_ns", service, "ns");
    report.metric("service.estimate_batch_ns_per_pred", service_batch, "ns");
    report.metric("service.overhead_ratio", service / engine, "ratio");
    report.metric("service.record_actual_ns", record_actual, "ns");
    report.metric("service.record_mods_ns", record_mods, "ns");
}

/// Codec, socket-free dispatch, serial ping against the benchmark's own
/// loopback echo, and the plan round trip's unexplained wait.
fn wire_path(world: &World, ctx: &Context, report: &mut Report) -> bool {
    let plans = &world.plans;
    let responses: Vec<Vec<Response>> = plans
        .iter()
        .map(|p| dispatch(&world.registry, &p.wire, &AdmissionControl::default()))
        .collect();
    let frames = plans.len() * WIRE_REQUESTS * 2;
    let encode = ns_per_op(TRIALS, BUDGET, frames, || {
        for (p, r) in plans.iter().zip(&responses) {
            for req in &p.wire {
                black_box(req.encode());
            }
            for resp in r {
                black_box(resp.encode());
            }
        }
    });
    let encoded: Vec<(Vec<u8>, Vec<u8>)> = plans
        .iter()
        .zip(&responses)
        .map(|(p, r)| {
            (p.wire.iter().flat_map(Request::encode).collect(), crate::world::encode_all(r))
        })
        .collect();
    let decode = ns_per_op(TRIALS, BUDGET, frames, || {
        for (req, resp) in &encoded {
            let mut d = FrameDecoder::new();
            d.feed(req);
            while let Ok(Some(f)) = d.next_frame() {
                black_box(Request::decode_payload(f.kind, &f.payload).ok());
            }
            let mut d = FrameDecoder::new();
            d.feed(resp);
            while let Ok(Some(f)) = d.next_frame() {
                black_box(Response::decode_payload(f.kind, &f.payload).ok());
            }
        }
    });
    let ctl = AdmissionControl::default();
    let dispatch_us = ns_per_op(TRIALS, BUDGET, plans.len(), || {
        for p in plans {
            black_box(dispatch(&world.registry, &p.wire, &ctl));
        }
    }) / 1e3;

    let own;
    let server = match ctx.server {
        Some(s) => s,
        None => {
            own = WireServer::start(&world.registry, "127.0.0.1:0", ServerOptions::default())
                .expect("start a loopback server");
            &own
        }
    };
    // Serial calls on one connection, each after the workloads' think
    // time, so each lands at an independent phase of the server's polling.
    let mut conn = crate::serve::connect(server, world.seed, 99);
    let mut ok = true;
    let pings: Vec<f64> = (0..1000)
        .map(|_| {
            let t0 = Instant::now();
            let r = conn.client.call(&Request::Ping);
            let us = t0.elapsed().as_secs_f64() * 1e6;
            ok &= matches!(r, Ok(Response::Pong));
            crate::serve::think(&mut conn.rng);
            us
        })
        .collect();
    let ping_us = median(&pings);
    let plan_rtt_us = ctx.plan_rtt_us.unwrap_or_else(|| {
        let rtts: Vec<f64> = plans
            .iter()
            .cycle()
            .take(500)
            .map(|p| {
                let t0 = Instant::now();
                let r = conn.client.call_many(&p.wire);
                let us = t0.elapsed().as_secs_f64() * 1e6;
                ok &= r.is_ok();
                crate::serve::think(&mut conn.rng);
                us
            })
            .collect();
        median(&rtts)
    });
    drop(conn);
    let echo_us = echo_floor_us();
    let codec_us = (encode + decode) * (WIRE_REQUESTS * 2) as f64 / 1e3;
    report.metric("wire.encode_ns_per_frame", encode, "ns");
    report.metric("wire.decode_ns_per_frame", decode, "ns");
    report.metric("server.dispatch_us_per_plan", dispatch_us, "us");
    report.metric("server.serial_ping_us", ping_us, "us");
    report.metric("net.echo_floor_us", echo_us, "us");
    report.metric("server.ratio_to_echo", ping_us / echo_us, "ratio");
    report.metric("server.wait_us", plan_rtt_us - dispatch_us - codec_us - echo_us, "us");
    if !ok {
        mismatch(format_args!("serial wire calls failed"));
    }
    ok
}

/// Median round trip of an 8-byte message through a blocking loopback
/// echo thread: what the network path costs with no server logic.
fn echo_floor_us() -> f64 {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback echo");
    let addr = listener.local_addr().expect("echo address");
    let echo = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().expect("accept echo client");
        s.set_nodelay(true).ok();
        let mut buf = [0u8; 8];
        while s.read_exact(&mut buf).is_ok() {
            if s.write_all(&buf).is_err() {
                break;
            }
        }
    });
    let mut s = TcpStream::connect(addr).expect("connect loopback echo");
    s.set_nodelay(true).ok();
    let mut buf = [0u8; 8];
    let rtts: Vec<f64> = (0..2000u64)
        .map(|i| {
            let t0 = Instant::now();
            s.write_all(&i.to_le_bytes()).expect("echo write");
            s.read_exact(&mut buf).expect("echo read");
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    drop(s);
    echo.join().expect("echo thread panicked");
    median(&rtts)
}
