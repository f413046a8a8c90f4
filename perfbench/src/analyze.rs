//! The `analyze` workload: a fixed, seeded schedule of statistics
//! maintenance, as a DBA (or an auto-update-statistics job) drives it.
//!
//! One cycle refreshes every column through `StatsService::refresh_now`
//! (CVB → construct → index → catalog install), then runs drift rounds:
//! a table is re-registered with drifted data, its churn is recorded,
//! an optimizer read notices the staleness, and `drain(1)` walks the
//! probe → patch → re-ANALYZE ladder. Columns differ in shape and in
//! page layout, which drives CVB to read different numbers of blocks.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use samplehist_core::sampling::Reliable;
use samplehist_engine::{analyze_resilient, estimate_cardinality, qerror, Predicate, Table};
use samplehist_service::{rng_stream, RefreshTally, StatsService, TenantId};
use samplehist_storage::Layout;

use crate::common::{mismatch, Latencies, SortedLatencies, Span, Tracer};
use crate::world::{registry, ColRef, Shape, World, TUPLES_PER_PAGE};

/// Rows per analyzed column.
const ROWS: u64 = 20_000;
/// Cycles whose outcomes (q-errors, ladder tally) are reported; every
/// run completes at least these, so the figures repeat exactly.
const ACCOUNTED_CYCLES: usize = 4;
/// Every N-th refresh is replayed through `analyze_resilient` with the
/// service's RNG stream and must install the same statistics.
const REPLAY_EVERY: u64 = 16;
/// Predicates evaluated against each column after every accounted action.
const EVAL_PREDICATES: usize = 300;

/// (shape, layout) of each analyzed column. Ten columns plus three drift
/// rounds make thirteen actions a cycle, an odd count, so the median
/// action lies inside one action type's cluster rather than between two.
const COLUMNS: [(Shape, Layout); 10] = [
    (Shape::Uniform, Layout::Random),
    (Shape::Zipf, Layout::Random),
    (Shape::HeavyDup, Layout::Random),
    (Shape::Normal, Layout::Random),
    (Shape::Uniform, Layout::PartiallyClustered { clustered_fraction: 0.2 }),
    (Shape::Zipf, Layout::PartiallyClustered { clustered_fraction: 0.2 }),
    (Shape::HeavyDup, Layout::PartiallyClustered { clustered_fraction: 0.2 }),
    (Shape::Uniform, Layout::Clustered),
    (Shape::Zipf, Layout::Clustered),
    (Shape::HeavyDup, Layout::Clustered),
];

/// How a drift round rewrites a column.
#[derive(Clone, Copy)]
enum Drift {
    /// Rows re-drawn from the column's own values: the distribution
    /// holds, so the probe should pass.
    Resample(f64),
    /// Rows moved past the column's maximum: the stored histogram misses
    /// them, and the probe's own sample can patch it.
    Shift(f64),
    /// Rows set to one new value: a spike inside the old domain that the
    /// stored buckets spread thin.
    Spike(f64),
}

/// Drift rounds per cycle: (column, drift).
const DRIFTS: [(usize, Drift); 3] =
    [(0, Drift::Resample(0.05)), (1, Drift::Shift(0.35)), (3, Drift::Spike(0.9))];

struct Version {
    table: Table,
    /// Exact cardinality of each of the column's predicates.
    truth: Vec<f64>,
}

struct Column {
    name: String,
    base: Version,
    drifted: Option<Version>,
    preds: Vec<Predicate>,
}

#[derive(Clone, Copy)]
enum Action {
    Refresh(usize),
    Drift(usize),
}

pub struct AnalyzeWorld {
    pub world: World,
    columns: Vec<Column>,
    schedule: Vec<Action>,
}

fn version(
    name: &str,
    values: Vec<i64>,
    layout: Layout,
    preds: &[Predicate],
    rng: &mut StdRng,
) -> Version {
    let mut sorted = values.clone();
    sorted.sort_unstable();
    let truth = preds.iter().map(|p| p.true_cardinality(&sorted) as f64).collect();
    let table = Table::builder(name)
        .column_with_blocking("v", values, TUPLES_PER_PAGE, layout, rng)
        .build();
    Version { table, truth }
}

/// Datagen, table build (base and drifted versions) and warm ANALYZE.
pub fn setup(seed: u64) -> AnalyzeWorld {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x616e_616c_797a_6500);
    let registry = registry(seed);
    let svc = registry.create(TenantId(0));
    let mut columns = Vec::new();
    let mut cols = Vec::new();
    for (i, &(shape, layout)) in COLUMNS.iter().enumerate() {
        let name = format!("a{i}");
        let values = shape.values(ROWS, &mut rng);
        let mut sorted = values.clone();
        sorted.sort_unstable();
        // Range predicates only: equality on a near-unique column has a
        // true count of 1–3, whose q-errors fall on a coarse lattice and
        // make a p90 jump between lattice points from seed to seed.
        let (lo, hi) = (sorted[0], sorted[sorted.len() - 1]);
        let narrow = ((hi - lo) / 50).max(1);
        let preds: Vec<Predicate> = (0..EVAL_PREDICATES)
            .map(|k| {
                let x = sorted[rng.gen_range(0..sorted.len())];
                let y = sorted[rng.gen_range(0..sorted.len())];
                match k % 3 {
                    0 => Predicate::Le(x),
                    1 => Predicate::Between { low: x.min(y), high: x.max(y) },
                    _ => Predicate::Between { low: x, high: x.saturating_add(narrow) },
                }
            })
            .collect();
        let drifted = DRIFTS.iter().find(|d| d.0 == i).map(|&(_, drift)| {
            let span = (hi - lo).max(1);
            let mut v = values.clone();
            let share = match drift {
                Drift::Resample(s) | Drift::Shift(s) | Drift::Spike(s) => s,
            };
            for x in v.iter_mut() {
                if rng.gen::<f64>() < share {
                    *x = match drift {
                        Drift::Resample(_) => sorted[rng.gen_range(0..sorted.len())],
                        Drift::Shift(_) => hi + 1 + rng.gen_range(0..span),
                        Drift::Spike(_) => lo + span / 3,
                    };
                }
            }
            version(&name, v, layout, &preds, &mut rng)
        });
        let base = version(&name, values, layout, &preds, &mut rng);
        svc.register_table(base.table.clone(), None);
        cols.push(ColRef {
            tenant: TenantId(0),
            table: name.clone(),
            column: "v".into(),
            shape,
            churn: "v".into(),
            sorted,
        });
        columns.push(Column { name, base, drifted, preds });
    }
    crate::world::warm(&registry, &cols);
    let mut schedule: Vec<Action> = (0..columns.len()).map(Action::Refresh).collect();
    schedule.extend(DRIFTS.iter().map(|d| Action::Drift(d.0)));
    let world = World { seed, registry, cols, plans: Vec::new() };
    AnalyzeWorld { world, columns, schedule }
}

pub struct AnalyzeRun {
    pub latencies: SortedLatencies,
    pub attempted: u64,
    pub failed: u64,
    pub rows: u64,
    pub busy: Duration,
    pub cycles: usize,
    pub spans: Vec<Span>,
}

/// State carried across phases of one run.
pub struct Driver {
    svc: std::sync::Arc<StatsService>,
    refreshes: u64,
    pub cycles_done: usize,
    /// q-errors and tally of the accounted cycles.
    pub qerrors: Vec<f64>,
    pub tally: Option<RefreshTally>,
}

impl AnalyzeWorld {
    pub fn driver(&self) -> Driver {
        Driver {
            svc: self.world.service(TenantId(0)),
            refreshes: 0,
            cycles_done: 0,
            qerrors: Vec::new(),
            tally: None,
        }
    }

    /// Run whole cycles until `seconds` have passed (and at least the
    /// accounted cycles are done). Only the actions themselves are timed.
    pub fn run(&self, d: &mut Driver, seconds: f64, traced: bool) -> AnalyzeRun {
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let mut tr = Tracer::new(traced);
        let mut lat = Latencies::default();
        let (mut attempted, mut failed, mut rows) = (0u64, 0u64, 0u64);
        let mut busy = Duration::ZERO;
        let mut cycles = 0;
        while d.cycles_done < ACCOUNTED_CYCLES || Instant::now() < deadline {
            let accounted = d.cycles_done < ACCOUNTED_CYCLES;
            for &action in &self.schedule {
                tr.next_request(attempted);
                let (elapsed, ok) = self.act(d, action, accounted, &mut tr);
                lat.push(elapsed);
                busy += elapsed;
                attempted += 1;
                failed += u64::from(!ok);
                rows += ROWS;
            }
            // Restore the base data for the next cycle (not timed).
            for &(i, _) in &DRIFTS {
                d.svc.register_table(self.columns[i].base.table.clone(), None);
            }
            d.cycles_done += 1;
            cycles += 1;
            if d.cycles_done == ACCOUNTED_CYCLES {
                d.tally = Some(d.svc.tally());
            }
        }
        AnalyzeRun {
            latencies: lat.finish(),
            attempted,
            failed,
            rows,
            busy,
            cycles,
            spans: tr.spans,
        }
    }

    fn act(
        &self,
        d: &mut Driver,
        action: Action,
        accounted: bool,
        tr: &mut Tracer,
    ) -> (Duration, bool) {
        let svc = &*d.svc;
        let before = svc.tally();
        let (i, version) = match action {
            Action::Refresh(i) => (i, &self.columns[i].base),
            Action::Drift(i) => (i, self.columns[i].drifted.as_ref().expect("drift column")),
        };
        let col = &self.columns[i];
        let t = col.name.as_str();
        let prev_epoch = svc.catalog().get(t, "v").map_or(0, |s| s.epoch);
        // Prepared before the clock starts: the drifted table's copy.
        let next_table = matches!(action, Action::Drift(_)).then(|| version.table.clone());
        let t0 = Instant::now();
        let span = tr.start();
        let installed = match next_table {
            None => tr.span("service.refresh_now", 1, || svc.refresh_now(t, "v")).is_ok(),
            Some(table) => {
                tr.span("service.register_table", 1, || svc.register_table(table, None));
                tr.span("service.record_modifications", 1, || {
                    svc.record_modifications(t, "v", ROWS / 4)
                });
                let read = tr.span("service.estimate_cardinality", 1, || {
                    svc.estimate_cardinality(t, "v", &Predicate::Le(0))
                });
                tr.span("service.drain", 1, || svc.drain(1));
                read.is_some()
            }
        };
        tr.end("action", 0, span);
        let elapsed = t0.elapsed();

        let after = svc.tally();
        let snap = svc.catalog().get(t, "v");
        let mut ok = installed && snap.is_some() && after.failed == before.failed;
        match action {
            Action::Refresh(_) => {
                ok &= snap.as_ref().is_some_and(|s| s.epoch == prev_epoch + 1)
                    && after.full_reanalyzes == before.full_reanalyzes + 1;
                d.refreshes += 1;
                if ok && d.refreshes.is_multiple_of(REPLAY_EVERY) {
                    ok &= self.replay_matches(svc, i, snap.as_ref().expect("checked").epoch);
                }
            }
            Action::Drift(_) => {
                ok &= after.completed == before.completed + 1 && svc.queue_depth() == 0;
            }
        }
        if !ok {
            mismatch(format_args!("analyze action on {t}: refresh outcome not as scheduled"));
        }
        if accounted {
            if let Some(snap) = &snap {
                for (p, &truth) in col.preds.iter().zip(&version.truth) {
                    d.qerrors.push(qerror(estimate_cardinality(&snap.stats, p).rows, truth));
                }
            }
        }
        (elapsed, ok)
    }

    /// `analyze_resilient` with the service's own RNG stream must rebuild
    /// exactly the statistics the service installed.
    fn replay_matches(&self, svc: &StatsService, i: usize, epoch: u64) -> bool {
        let col = &self.columns[i];
        let cfg = svc.config();
        let file = col.base.table.column("v").expect("column v").file();
        let mut rng = rng_stream(cfg.seed, &col.name, "v", "refresh", epoch, 0);
        let replay = analyze_resilient(
            &col.name,
            "v",
            &Reliable(file),
            &cfg.analyze,
            &cfg.degradation,
            &mut rng,
        );
        let installed = svc.catalog().get(&col.name, "v");
        let same = match (&replay, &installed) {
            (Ok(r), Some(s)) => r.stats == s.stats,
            _ => false,
        };
        if !same {
            mismatch(format_args!("analyze replay of {} epoch {epoch} differs", col.name));
        }
        same
    }

    /// End with a full refresh of every column on its base data, so each
    /// snapshot is a plain ANALYZE the layer replay can reproduce.
    pub fn settle(&self, d: &Driver) {
        for c in &self.columns {
            d.svc.register_table(c.base.table.clone(), None);
            d.svc.refresh_now(&c.name, "v").expect("refresh of a registered column");
        }
    }
}
