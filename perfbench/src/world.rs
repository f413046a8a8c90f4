//! Seeded inputs: column data, tables, the tenant registry, and the
//! optimizer plans the estimate and wire workloads replay.
//!
//! The program under test sees only what is built here — tables,
//! predicates and feedback — never the seed.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use samplehist_data::DataSpec;
use samplehist_engine::{estimate_cardinality, Predicate, Table};
use samplehist_service::{
    dispatch, AdmissionControl, Request, ServiceConfig, StatsService, TenantId, TenantRegistry,
};
use samplehist_storage::Layout;

/// Tuples per page for every column (8 KB pages of ~80-byte records).
pub const TUPLES_PER_PAGE: usize = 100;
/// Scalar estimates per plan (`<=`, `BETWEEN`, `=`).
pub const SCALARS: usize = 3;
/// Predicates in each plan's batched call.
pub const BATCH: usize = 8;
/// Requests in a plan's wire pipeline: the scalars, one batch, one
/// feedback record, one modification record.
pub const WIRE_REQUESTS: usize = SCALARS + 3;
/// One plan in this many also estimates an equi-join. A join estimate
/// costs about five times the rest of a plan; in every plan it would
/// hide the lookup and descent the read path exists to measure, so the
/// median plan carries none and the join plans sit in the tail.
const JOIN_EVERY: usize = 8;

/// Column value distributions; the paper's accuracy results depend on
/// skew and duplication, so every workload mixes them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shape {
    Uniform,
    Zipf,
    HeavyDup,
    Normal,
}

impl Shape {
    pub fn values(self, n: u64, rng: &mut StdRng) -> Vec<i64> {
        let spec = match self {
            Shape::Uniform => DataSpec::UniformRandom { domain: 4 * n },
            Shape::Zipf => DataSpec::ZipfSampled { z: 1.0, domain: (n / 4) as usize },
            Shape::HeavyDup => DataSpec::UnifDup { copies: 200 },
            Shape::Normal => DataSpec::Normal { mean: 0.0, std_dev: n as f64 / 8.0 },
        };
        spec.generate(n, rng).values
    }
}

/// One estimated column: where it lives and, during set-up, its sorted
/// values (the ground truth for q-errors).
pub struct ColRef {
    pub tenant: TenantId,
    pub table: String,
    pub column: String,
    pub shape: Shape,
    /// Column that plans record modifications against.
    pub churn: String,
    pub sorted: Vec<i64>,
}

/// One optimizer plan: the bundle of service calls made for one query.
pub struct Plan {
    pub col: usize,
    pub join_col: usize,
    /// Whether the in-process plan also estimates `col ⋈ join_col`
    /// (the wire protocol has no join request).
    pub joins: bool,
    pub scalars: [Predicate; SCALARS],
    pub batch: [Predicate; BATCH],
    /// Exact cardinalities of `scalars` then `batch`.
    pub truth: [f64; SCALARS + BATCH],
    /// Bits of the rows the warm catalog answers for `scalars` then
    /// `batch` (the engine's answer on the installed snapshot).
    pub expected: [u64; SCALARS + BATCH],
    pub expected_join: u64,
    /// The plan as one wire pipeline, and the encoded responses an
    /// in-process `dispatch` gave for it during set-up.
    pub wire: Vec<Request>,
    pub wire_expected: Vec<u8>,
}

impl Plan {
    /// The predicate whose observed cardinality the plan feeds back.
    pub fn feedback(&self) -> (Predicate, f64, f64) {
        (self.scalars[1], f64::from_bits(self.expected[1]), self.truth[1])
    }
}

pub struct World {
    pub seed: u64,
    pub registry: Arc<TenantRegistry>,
    pub cols: Vec<ColRef>,
    pub plans: Vec<Plan>,
}

impl World {
    pub fn service(&self, tenant: TenantId) -> Arc<StatsService> {
        self.registry.get(tenant).expect("tenant registered in set-up")
    }

    /// q-errors of every estimate in the plan list, against exact truth.
    pub fn plan_qerrors(&self) -> Vec<f64> {
        self.plans
            .iter()
            .flat_map(|p| {
                p.expected
                    .iter()
                    .zip(p.truth)
                    .map(|(&e, t)| samplehist_engine::qerror(f64::from_bits(e), t))
            })
            .collect()
    }
}

/// A registry of deterministic tenants over `ServiceConfig::deterministic(seed)`.
pub fn registry(seed: u64) -> Arc<TenantRegistry> {
    TenantRegistry::new(ServiceConfig::deterministic(seed))
}

/// The estimate/wire world: `tenants` × `tables` tables of `columns`
/// estimated columns plus one churn column each, all warm-ANALYZEd.
pub fn build_catalog_world(
    seed: u64,
    tenants: u64,
    tables: usize,
    columns: usize,
    rows: u64,
    plans: usize,
) -> World {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7065_7266_6265_6e63);
    let registry = registry(seed);
    let mut cols = Vec::new();
    for t in 0..tenants {
        let tenant = TenantId(t);
        let svc = registry.create(tenant);
        for tb in 0..tables {
            let name = format!("t{tb}");
            let mut builder = Table::builder(name.clone());
            for c in 0..columns {
                let g = cols.len();
                let shape = [Shape::Uniform, Shape::Zipf, Shape::HeavyDup, Shape::Normal][g % 4];
                let layout = if g % 3 == 2 { Layout::paper_partial() } else { Layout::Random };
                let values = shape.values(rows, &mut rng);
                let mut sorted = values.clone();
                sorted.sort_unstable();
                let column = format!("c{c}");
                builder = builder.column_with_blocking(
                    &column,
                    values,
                    TUPLES_PER_PAGE,
                    layout,
                    &mut rng,
                );
                cols.push(ColRef {
                    tenant,
                    table: name.clone(),
                    column,
                    shape,
                    churn: "churn".into(),
                    sorted,
                });
            }
            let churn = vec![0i64; rows as usize];
            builder = builder.column_with_blocking(
                "churn",
                churn,
                TUPLES_PER_PAGE,
                Layout::Clustered,
                &mut rng,
            );
            svc.register_table(builder.build(), None);
        }
    }
    warm(&registry, &cols);
    let plans = make_plans(&registry, &mut cols, plans, &mut rng);
    World { seed, registry, cols, plans }
}

/// Warm ANALYZE: one synchronous refresh per column, as a DBA would run
/// before opening the service to queries.
pub fn warm(registry: &TenantRegistry, cols: &[ColRef]) {
    for c in cols {
        let svc = registry.get(c.tenant).expect("tenant exists");
        svc.refresh_now(&c.table, &c.column).expect("warm ANALYZE of a registered column");
    }
}

/// A random predicate over a column, anchored on stored values so most
/// predicates select rows.
fn predicate(sorted: &[i64], kind: usize, rng: &mut StdRng) -> Predicate {
    let n = sorted.len();
    let i = rng.gen_range(0..n);
    match kind % 3 {
        0 => Predicate::Le(sorted[i]),
        1 => {
            let width = rng.gen_range(1..(n / 10).max(2));
            Predicate::Between { low: sorted[i], high: sorted[(i + width).min(n - 1)] }
        }
        _ => Predicate::Eq(sorted[i]),
    }
}

/// Plans over `cols` with Zipf(0.8) column popularity, their exact
/// truth, and the answers the warm catalog gives. Frees the sorted
/// column copies afterwards.
pub fn make_plans(
    registry: &Arc<TenantRegistry>,
    cols: &mut [ColRef],
    count: usize,
    rng: &mut StdRng,
) -> Vec<Plan> {
    let mut cumulative = Vec::with_capacity(cols.len());
    let mut acc = 0.0;
    for rank in 0..cols.len() {
        acc += 1.0 / ((rank + 1) as f64).powf(0.8);
        cumulative.push(acc);
    }
    let mut plans = Vec::with_capacity(count);
    for n in 0..count {
        let u = rng.gen::<f64>() * acc;
        let col = cumulative.partition_point(|&c| c < u).min(cols.len() - 1);
        let join_col = join_partner(cols, col);
        let c = &cols[col];
        let scalars: [Predicate; SCALARS] = std::array::from_fn(|k| predicate(&c.sorted, k, rng));
        let batch: [Predicate; BATCH] = std::array::from_fn(|k| predicate(&c.sorted, k % 2, rng));
        let mut truth = [0.0; SCALARS + BATCH];
        for (t, p) in truth.iter_mut().zip(scalars.iter().chain(batch.iter())) {
            *t = p.true_cardinality(&c.sorted) as f64;
        }
        let svc = registry.get(c.tenant).expect("tenant exists");
        let snap = svc.catalog().get(&c.table, &c.column).expect("warm column");
        let mut expected = [0u64; SCALARS + BATCH];
        for (e, p) in expected.iter_mut().zip(scalars.iter().chain(batch.iter())) {
            *e = estimate_cardinality(&snap.stats, p).rows.to_bits();
        }
        let partner = &cols[join_col];
        let join_snap = svc.catalog().get(&partner.table, &partner.column).expect("warm column");
        let expected_join =
            samplehist_engine::estimate_equijoin(&snap.stats, &join_snap.stats).to_bits();
        let wire = vec![
            estimate_request(c, scalars[0]),
            estimate_request(c, scalars[1]),
            estimate_request(c, scalars[2]),
            Request::EstimateBatch {
                tenant: c.tenant,
                table: c.table.clone(),
                column: c.column.clone(),
                predicates: batch.to_vec(),
            },
            Request::RecordActual {
                tenant: c.tenant,
                table: c.table.clone(),
                column: c.column.clone(),
                predicate: scalars[1],
                predicted: f64::from_bits(expected[1]),
                actual: truth[1],
            },
            Request::RecordMods {
                tenant: c.tenant,
                table: c.table.clone(),
                column: c.churn.clone(),
                count: 1,
            },
        ];
        plans.push(Plan {
            col,
            join_col,
            joins: n % JOIN_EVERY == 0,
            scalars,
            batch,
            truth,
            expected,
            expected_join,
            wire,
            wire_expected: Vec::new(),
        });
    }
    for c in cols.iter_mut() {
        c.sorted = Vec::new();
    }
    // The in-process dispatch of every pipeline fixes the bytes the wire
    // must return; it also warms each column's feedback ledger.
    let ctl = AdmissionControl::default();
    for p in plans.iter_mut() {
        p.wire_expected = encode_all(&dispatch(registry, &p.wire, &ctl));
    }
    plans
}

/// The join partner of `col`: the next column of the same tenant and
/// shape in another table. A join's cost depends on both histograms, so
/// a fixed partner keeps the join plans' cost, and with it the p99, a
/// property of the column rather than of a random pairing.
fn join_partner(cols: &[ColRef], col: usize) -> usize {
    let c = &cols[col];
    (1..cols.len())
        .map(|d| (col + d) % cols.len())
        .find(|&j| {
            cols[j].tenant == c.tenant && cols[j].shape == c.shape && cols[j].table != c.table
        })
        .unwrap_or(col)
}

fn estimate_request(c: &ColRef, predicate: Predicate) -> Request {
    Request::Estimate {
        tenant: c.tenant,
        table: c.table.clone(),
        column: c.column.clone(),
        predicate,
    }
}

/// Concatenated frames: byte equality means every f64 matched bit for bit.
pub fn encode_all(responses: &[samplehist_service::Response]) -> Vec<u8> {
    responses.iter().flat_map(|r| r.encode()).collect()
}
