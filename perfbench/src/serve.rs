//! The read-path workloads: `estimate` (plans as in-process service
//! calls) and `wire` (the same plans as one pipelined wire call each).
//!
//! Both are closed loops: each client thread sends its next plan only
//! after the previous one is answered. The catalog never changes while
//! they run (deterministic services refresh only on `drain`, which these
//! workloads never call), so every answer has one correct value, fixed
//! in set-up, and every answer is checked against it.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use samplehist_engine::CardinalityEstimate;
use samplehist_engine::{estimate_cardinality, estimate_cardinality_batch, estimate_equijoin};
use samplehist_service::{dispatch, AdmissionControl, StatsService, WireClient, WireServer};

use crate::common::{mismatch, Latencies, SortedLatencies, Span, Tracer};
use crate::world::{encode_all, Plan, World, BATCH, SCALARS, WIRE_REQUESTS};

/// Every N-th plan is also re-derived from an independent path (the
/// engine on a fresh catalog snapshot, or an in-process `dispatch`).
const CROSS_CHECK_EVERY: u64 = 64;

/// One timed phase of a closed loop, merged over client threads.
pub struct Phase {
    pub latencies: SortedLatencies,
    pub attempted: u64,
    pub failed: u64,
    pub estimates: u64,
    pub wall: Duration,
    pub spans: Vec<Span>,
}

/// Outcome of one plan: its latency, whether every answer was right,
/// and how many estimates it answered.
pub struct Step {
    pub elapsed: Duration,
    pub ok: bool,
    pub estimates: u64,
}

/// Run `clients` closed-loop threads for `seconds`. Thread `t` walks the
/// plan list from plan `t` in strides of `clients`.
pub fn closed_loop<C>(
    clients: usize,
    plans: usize,
    seconds: f64,
    traced: bool,
    make: impl Fn(usize) -> C + Sync,
    step: impl Fn(&mut C, u64, usize, &mut Tracer) -> Step + Sync,
) -> Phase {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let outs: Vec<(Latencies, u64, u64, u64, Instant, Vec<Span>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|t| {
                let (make, step) = (&make, &step);
                s.spawn(move || {
                    let mut ctx = make(t);
                    let mut tracer = Tracer::new(traced);
                    let mut lat = Latencies::default();
                    let (mut attempted, mut failed, mut estimates) = (0u64, 0u64, 0u64);
                    let mut i = t;
                    let mut end = Instant::now();
                    while end < deadline {
                        let k = attempted * clients as u64 + t as u64;
                        tracer.next_request(k);
                        let s = step(&mut ctx, k, i % plans, &mut tracer);
                        lat.push(s.elapsed);
                        attempted += 1;
                        failed += u64::from(!s.ok);
                        estimates += s.estimates;
                        i += clients;
                        end = Instant::now();
                    }
                    (lat, attempted, failed, estimates, end, tracer.spans)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let mut latencies = Latencies::default();
    let mut phase = Phase {
        latencies: Latencies::default().finish(),
        attempted: 0,
        failed: 0,
        estimates: 0,
        wall: Duration::ZERO,
        spans: Vec::new(),
    };
    for (lat, attempted, failed, estimates, end, spans) in outs {
        latencies.extend(lat);
        phase.attempted += attempted;
        phase.failed += failed;
        phase.estimates += estimates;
        phase.wall = phase.wall.max(end - start);
        phase.spans.extend(spans);
    }
    phase.latencies = latencies.finish();
    phase
}

/// Client state for the in-process workload: one service handle per
/// tenant, as an embedded optimizer would hold.
pub struct InProcess {
    services: Vec<Arc<StatsService>>,
}

pub fn in_process_client(world: &World) -> InProcess {
    let tenants = world.cols.iter().map(|c| c.tenant.0).max().map_or(0, |m| m + 1);
    InProcess {
        services: (0..tenants).map(|t| world.service(samplehist_service::TenantId(t))).collect(),
    }
}

/// One plan through the service API, timed as a whole; checks follow
/// outside the timed region.
pub fn estimate_step(
    world: &World,
    ctx: &mut InProcess,
    k: u64,
    i: usize,
    tr: &mut Tracer,
) -> Step {
    let p = &world.plans[i];
    let c = &world.cols[p.col];
    let j = &world.cols[p.join_col];
    let svc = &*ctx.services[c.tenant.0 as usize];
    let mut rows = [None; SCALARS + BATCH];
    let t0 = Instant::now();
    let plan_span = tr.start();
    for (r, pred) in rows.iter_mut().zip(&p.scalars) {
        *r = tr.span("service.estimate_cardinality", 1, || {
            svc.estimate_cardinality(&c.table, &c.column, pred)
        });
    }
    let batch = tr.span("service.estimate_cardinality_batch", 1, || {
        svc.estimate_cardinality_batch(&c.table, &c.column, &p.batch)
    });
    let join = p.joins.then(|| {
        tr.span("service.estimate_equijoin", 1, || {
            svc.estimate_equijoin(&c.table, &c.column, &j.table, &j.column)
        })
    });
    let (pred, _, actual) = p.feedback();
    let predicted = rows[1].map_or(0.0, |e| e.rows);
    let q = tr.span("service.record_actual_predicate", 1, || {
        svc.record_actual_predicate(&c.table, &c.column, &pred, predicted, actual)
    });
    let known = tr.span("service.record_modifications", 1, || {
        svc.record_modifications(&c.table, &c.churn, 1)
    });
    tr.end("plan", 0, plan_span);
    let elapsed = t0.elapsed();

    if let Some(b) = &batch {
        for (r, e) in rows[SCALARS..].iter_mut().zip(b) {
            *r = Some(*e);
        }
    }
    let mut ok = q.is_some() && known && batch.as_ref().is_some_and(|b| b.len() == BATCH);
    let answered =
        rows.iter().filter(|r| r.is_some()).count() as u64 + u64::from(join.flatten().is_some());
    let bits: Vec<Option<u64>> = rows.iter().map(|r| r.map(|e| e.rows.to_bits())).collect();
    if bits.iter().zip(p.expected).any(|(b, e)| *b != Some(e))
        || join.map(|j| j.map(f64::to_bits)) != p.joins.then_some(Some(p.expected_join))
    {
        mismatch(format_args!("estimate plan {i}: answers differ from the warm catalog's"));
        ok = false;
    }
    if k.is_multiple_of(CROSS_CHECK_EVERY) && !engine_agrees(svc, world, p, &rows, join) {
        mismatch(format_args!(
            "estimate plan {i}: service differs from the engine on its snapshot"
        ));
        ok = false;
    }
    Step { elapsed, ok, estimates: answered }
}

/// The engine, called directly on the snapshot `StatsCatalog::get`
/// returns now, must give the service's answers bit for bit.
fn engine_agrees(
    svc: &StatsService,
    world: &World,
    p: &Plan,
    rows: &[Option<CardinalityEstimate>],
    join: Option<Option<f64>>,
) -> bool {
    let c = &world.cols[p.col];
    let j = &world.cols[p.join_col];
    let (Some(snap), Some(jsnap)) =
        (svc.catalog().get(&c.table, &c.column), svc.catalog().get(&j.table, &j.column))
    else {
        return false;
    };
    let mut batch = [CardinalityEstimate { rows: 0.0, selectivity: 0.0 }; BATCH];
    estimate_cardinality_batch(&snap.stats, &p.batch, &mut batch);
    let engine = p.scalars.iter().map(|pred| estimate_cardinality(&snap.stats, pred)).chain(batch);
    let same = |a: &CardinalityEstimate, b: &CardinalityEstimate| {
        a.rows.to_bits() == b.rows.to_bits() && a.selectivity.to_bits() == b.selectivity.to_bits()
    };
    engine.zip(rows).all(|(e, r)| r.as_ref().is_some_and(|r| same(&e, r)))
        && join.map(|j| j.map(f64::to_bits))
            == p.joins.then(|| Some(estimate_equijoin(&snap.stats, &jsnap.stats).to_bits()))
}

/// Pause between a connection's plans, in microseconds: the optimizer's
/// own planning work. Drawn per plan from a seeded uniform range about
/// one server poll period wide, so each plan reaches the server at an
/// independent phase of its polling cycle. Without it, whether a worker
/// is still spinning when the next plan arrives decides a run's latency
/// regime, and that flips from run to run.
const THINK_US: std::ops::Range<u64> = 500..1500;

/// A wire client connection with its think-time stream.
pub struct WireConn {
    pub client: WireClient,
    pub rng: StdRng,
}

pub fn think(rng: &mut StdRng) {
    std::thread::sleep(Duration::from_micros(rng.gen_range(THINK_US)));
}

/// One plan as one pipelined wire call, timed as a whole, then the
/// think time (not timed).
pub fn wire_step(world: &World, conn: &mut WireConn, k: u64, i: usize, tr: &mut Tracer) -> Step {
    let step = wire_plan(world, &mut conn.client, k, i, tr);
    think(&mut conn.rng);
    step
}

fn wire_plan(world: &World, client: &mut WireClient, k: u64, i: usize, tr: &mut Tracer) -> Step {
    let p = &world.plans[i];
    let t0 = Instant::now();
    let plan_span = tr.start();
    let answer = tr.span("wire.call_many", 1, || client.call_many(&p.wire));
    tr.end("plan", 0, plan_span);
    let elapsed = t0.elapsed();
    let responses = match answer {
        Ok(r) => r,
        Err(e) => {
            mismatch(format_args!("wire plan {i}: {e}"));
            return Step { elapsed, ok: false, estimates: 0 };
        }
    };
    let bytes = encode_all(&responses);
    let mut ok = bytes == p.wire_expected;
    if !ok {
        mismatch(format_args!("wire plan {i}: responses differ from set-up's dispatch"));
    }
    if k.is_multiple_of(CROSS_CHECK_EVERY) {
        let local = encode_all(&dispatch(&world.registry, &p.wire, &AdmissionControl::default()));
        if local != bytes {
            mismatch(format_args!("wire plan {i}: responses differ from in-process dispatch"));
            ok = false;
        }
    }
    let estimates = if ok { (SCALARS + BATCH) as u64 } else { 0 };
    Step { elapsed, ok, estimates }
}

/// Requests a wire phase sent: one pipeline of `WIRE_REQUESTS` per plan.
pub fn wire_requests(phase: &Phase) -> u64 {
    phase.attempted * WIRE_REQUESTS as u64
}

/// Connection `t` of a run seeded with `seed`.
pub fn connect(server: &WireServer, seed: u64, t: usize) -> WireConn {
    WireConn {
        client: WireClient::connect(server.addr()).expect("connect to the benchmark's own server"),
        rng: StdRng::seed_from_u64(seed ^ (t as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
    }
}
