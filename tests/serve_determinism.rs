//! Serving determinism: every response the `rtnn-serve` stack produces
//! must be bit-equal to a direct `Index::query` call — regardless of
//! request arrival order, coalescing window, worker thread count, and
//! shard count.
//!
//! This is the contract that makes the serving layer transparent: a
//! client cannot tell (from results) whether its request executed alone
//! on one index or was fused with strangers' traffic on a 5-shard fleet.
//! Range caps are chosen non-truncating and the cloud is a seeded random
//! one (no exact distance ties) — the conditions under which the
//! deterministic shard merge reproduces single-index results exactly (see
//! `rtnn::ShardMerge`).

use rtnn::{EngineConfig, GpusimBackend, Index, PlanSlice, QueryPlan};
use rtnn_data::uniform::{self, UniformParams};
use rtnn_gpusim::Device;
use rtnn_math::Vec3;
use rtnn_serve::{
    poisson_arrivals, run_virtual, QueryService, Request, ServeConfig, ShardedIndex, TickExecutor,
};

fn scene() -> Vec<Vec3> {
    uniform::generate(&UniformParams {
        num_points: 2_500,
        seed: 0x00DE_7E57,
        ..Default::default()
    })
    .points
}

/// A mixed request population: KNN at several (r, k), range with generous
/// caps, and one heterogeneous batch request.
fn requests(points: &[Vec3]) -> Vec<Request> {
    let side = rtnn_math::Aabb::from_points(points).longest_extent();
    let base_r = side * (8.0 / points.len() as f32).cbrt();
    let mut reqs: Vec<Request> = (0..15)
        .map(|i| {
            let queries: Vec<Vec3> = points
                .iter()
                .skip(i * 83)
                .step_by(151 + i * 13)
                .take(8 + i % 5)
                .copied()
                .collect();
            let plan = match i % 4 {
                0 => QueryPlan::knn(base_r, 8),
                1 => QueryPlan::range(base_r * 0.8, 100_000),
                2 => QueryPlan::knn(base_r * 1.4, 3),
                _ => QueryPlan::range(base_r * 1.2, 100_000),
            };
            Request::new(queries, plan)
        })
        .collect();
    // One batch request: two plans over one query set.
    let queries: Vec<Vec3> = points.iter().step_by(211).take(12).copied().collect();
    let n = queries.len() as u32;
    reqs.push(Request::new(
        queries,
        QueryPlan::Batch(vec![
            PlanSlice::new(QueryPlan::knn(base_r, 6), (0..n / 2).collect()),
            PlanSlice::new(QueryPlan::range(base_r, 100_000), (n / 2..n).collect()),
        ]),
    ));
    reqs
}

fn expected_responses(
    backend: &GpusimBackend<'_>,
    points: &[Vec3],
    reqs: &[Request],
) -> Vec<Vec<Vec<u32>>> {
    let mut index = Index::build(backend, points, EngineConfig::default());
    reqs.iter()
        .map(|r| index.query(&r.queries, &r.plan).unwrap().neighbors)
        .collect()
}

/// Drive `executor` through a live service with `client_threads` client
/// threads submitting `reqs` in `order`, asserting every response equals
/// its direct-query reference.
fn serve_and_check<E: TickExecutor>(
    executor: &mut E,
    reqs: &[Request],
    expected: &[Vec<Vec<u32>>],
    config: ServeConfig,
    order: &[usize],
    client_threads: usize,
) {
    let (service, client) = QueryService::new(config);
    std::thread::scope(|s| {
        for chunk in order.chunks(order.len().div_ceil(client_threads)) {
            let client = client.clone();
            s.spawn(move || {
                for &ri in chunk {
                    let response = client.call(reqs[ri].clone());
                    assert_eq!(
                        response.outcome.as_ref().expect("request served"),
                        &expected[ri],
                        "request {ri} must be bit-equal to direct Index::query"
                    );
                }
            });
        }
        drop(client);
        service.run(executor);
    });
}

#[test]
fn responses_are_bit_equal_across_windows_orders_threads_and_shards() {
    let device = Device::rtx_2080();
    let backend = GpusimBackend::new(&device);
    let points = scene();
    let reqs = requests(&points);
    let expected = expected_responses(&backend, &points, &reqs);

    let forward: Vec<usize> = (0..reqs.len()).collect();
    let reversed: Vec<usize> = (0..reqs.len()).rev().collect();
    let interleaved: Vec<usize> = (0..reqs.len()).map(|i| (i * 7 + 3) % reqs.len()).collect();

    let configs = [
        ServeConfig::default().without_coalescing(),
        ServeConfig::default().with_window_us(1),
        ServeConfig::default()
            .with_window_us(3_000)
            .with_max_batch(16),
    ];
    for shards in [0usize, 1, 2, 5] {
        for (ci, config) in configs.iter().enumerate() {
            for (oi, order) in [&forward, &reversed, &interleaved].iter().enumerate() {
                // Fresh executor per run: warm-up must not matter, but a
                // fresh one also proves cold-start determinism.
                let threads = 1 + (ci + oi) % 3 + 1; // 2..=4 client threads
                if shards == 0 {
                    let mut index = Index::build(&backend, &points[..], EngineConfig::default());
                    serve_and_check(&mut index, &reqs, &expected, *config, order, threads);
                } else {
                    let mut sharded =
                        ShardedIndex::build(&backend, &points, EngineConfig::default(), shards);
                    serve_and_check(&mut sharded, &reqs, &expected, *config, order, threads);
                }
            }
        }
    }
}

#[test]
fn sharded_index_matches_direct_queries_outside_the_service() {
    let device = Device::rtx_2080();
    let backend = GpusimBackend::new(&device);
    let points = scene();
    let reqs = requests(&points);
    let expected = expected_responses(&backend, &points, &reqs);
    for shards in [1usize, 2, 5] {
        let mut sharded = ShardedIndex::build(&backend, &points, EngineConfig::default(), shards);
        for (ri, req) in reqs.iter().enumerate() {
            let got = sharded.query(&req.queries, &req.plan).unwrap();
            assert_eq!(
                got.neighbors, expected[ri],
                "{shards} shards, request {ri} (plan {:?})",
                req.plan
            );
        }
    }
}

#[test]
fn virtual_time_replay_is_bit_deterministic() {
    let device = Device::rtx_2080();
    let backend = GpusimBackend::new(&device);
    let points = scene();
    let reqs = requests(&points);
    let arrivals = poisson_arrivals(reqs.len(), 5_000.0, 42);
    let cfg = ServeConfig::default().with_window_us(400);
    let run = |threads: usize| {
        rtnn_parallel::set_num_threads(threads);
        let mut index = Index::build(&backend, &points[..], EngineConfig::default());
        let report = run_virtual(&mut index, &reqs, &arrivals, &cfg);
        rtnn_parallel::set_num_threads(0);
        (
            report.stats.latencies.clone(),
            report.stats.sim_ms,
            report.stats.ticks,
            report.achieved_qps,
        )
    };
    let a = run(1);
    let b = run(4);
    assert_eq!(a, b, "virtual-time replay must not depend on host threads");
}
