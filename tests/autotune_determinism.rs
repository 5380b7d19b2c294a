//! Adaptive-tuning determinism: the `AutoTuner` must be a pure function
//! of its seed and its observation history, and tuning must change *which*
//! pipeline stages run — never the answer.
//!
//! Concretely, across all three backends (gpusim, the OptiX shim, and the
//! brute-force oracle):
//!
//! * the same seed over the same query sequence replays the identical
//!   decision sequence, with bit-equal results;
//! * every auto-tuned round's neighbors are bit-equal to a static
//!   `StageOverrides::for_level` run at the decided level;
//! * a tuner seeded from a *replayed* `ProfileSnapshot` (the continuous
//!   profiler's output) decides identically on every replay;
//! * the tuned serving path (`execute_tick_tuned` over a `ShardedIndex`)
//!   stays bit-equal to direct unsharded queries and records its decision
//!   on every tick.

use rtnn::telemetry::{SignatureProfiler, Telemetry, TelemetryLevel};
use rtnn::{
    AutoTuner, Backend, DecisionSource, EngineConfig, GpusimBackend, Index, OptLevel, QueryPlan,
    StageOverrides, TunerDecision, Tuning,
};
use rtnn_baselines::BruteForceBackend;
use rtnn_data::uniform::{self, UniformParams};
use rtnn_gpusim::Device;
use rtnn_math::{Aabb, Vec3};
use rtnn_serve::{execute_tick, execute_tick_tuned, Request, ShardedIndex};

/// A seeded random cloud: full-mantissa coordinates, no exact distance
/// ties, so bit-equality comparisons are meaningful at every opt level.
/// The tight bounds give ~2 points per unit³, so the fixed radii below
/// find non-trivial neighbor sets.
fn seeded_cloud(n: usize, seed: u64) -> Vec<Vec3> {
    uniform::generate(&UniformParams {
        num_points: n,
        seed,
        bounds: Aabb::new(Vec3::ZERO, Vec3::splat(10.0)),
    })
    .points
}

fn queries_for(points: &[Vec3]) -> Vec<Vec3> {
    points.iter().step_by(11).copied().collect()
}

/// Range results are *set*-equal across opt levels (traversal order
/// differs per rung); sort per query before comparing results produced
/// at potentially different decided levels. KNN stays strictly bit-equal.
fn sorted(neighbors: &[Vec<u32>]) -> Vec<Vec<u32>> {
    neighbors
        .iter()
        .map(|n| {
            let mut n = n.clone();
            n.sort_unstable();
            n
        })
        .collect()
}

/// Alternating KNN / non-truncating range plans: two signatures per run.
fn plan_for(round: usize) -> QueryPlan {
    if round.is_multiple_of(2) {
        QueryPlan::knn(1.5, 8)
    } else {
        QueryPlan::range(1.2, 100_000)
    }
}

/// One auto-tuned session: `rounds` queries on a fresh auto index,
/// returning each round's decision and neighbors.
fn auto_session(
    backend: &dyn Backend,
    points: &[Vec3],
    queries: &[Vec3],
    seed: u64,
    rounds: usize,
) -> Vec<(TunerDecision, Vec<Vec<u32>>)> {
    let config = EngineConfig::default().with_tuning(Tuning::Auto { seed });
    let mut index = Index::build(backend, points, config);
    (0..rounds)
        .map(|round| {
            let results = index
                .query(queries, &plan_for(round))
                .expect("auto session fits the device");
            (
                index.last_decision().expect("auto mode always decides"),
                results.neighbors,
            )
        })
        .collect()
}

#[test]
fn same_seed_replays_identical_decisions_and_bit_equal_results_per_backend() {
    let device = Device::rtx_2080();
    let points = seeded_cloud(2_000, 0xA0_70);
    let queries = queries_for(&points);
    let backends: [(&str, Box<dyn Backend>); 3] = [
        ("gpusim", Box::new(GpusimBackend::new(&device))),
        ("optix-shim", Box::new(GpusimBackend::optix_shim(&device))),
        ("brute-force", Box::new(BruteForceBackend::new(&device))),
    ];
    for (name, backend) in &backends {
        let first = auto_session(backend.as_ref(), &points, &queries, 99, 12);
        let second = auto_session(backend.as_ref(), &points, &queries, 99, 12);
        assert_eq!(first, second, "{name}: same seed must replay exactly");
        // The session got past the cold start and into measured
        // exploitation on each of its two signatures.
        assert_eq!(first[0].0.source, DecisionSource::CostModel);
        assert!(
            first
                .iter()
                .any(|(d, _)| d.source == DecisionSource::Measured),
            "{name}: no measured decision in {} rounds",
            first.len()
        );

        // Every round bit-equal to the *static* execution of the decided
        // level — tuning changes stages, never answers.
        let mut statics = Index::build(backend.as_ref(), &points, EngineConfig::default());
        for (round, (decision, neighbors)) in first.iter().enumerate() {
            let reference = statics
                .query_with(
                    &queries,
                    &plan_for(round),
                    StageOverrides::for_level(decision.level),
                )
                .expect("static reference fits the device");
            assert_eq!(
                neighbors, &reference.neighbors,
                "{name} round {round}: auto at {:?} diverged from its static twin",
                decision.level
            );
        }
    }
}

#[test]
fn different_seeds_may_explore_differently_but_never_change_answers() {
    let device = Device::rtx_2080();
    let backend = GpusimBackend::new(&device);
    let points = seeded_cloud(1_500, 0xBEE);
    let queries = queries_for(&points);
    let a = auto_session(&backend, &points, &queries, 1, 10);
    let b = auto_session(&backend, &points, &queries, 2, 10);
    for (round, ((_, na), (_, nb))) in a.iter().zip(&b).enumerate() {
        // The two sessions may decide different levels at the same round,
        // so range rounds compare as sets.
        if plan_for(round).kind_label() == "range" {
            assert_eq!(
                sorted(na),
                sorted(nb),
                "round {round}: results must be seed-independent"
            );
        } else {
            assert_eq!(na, nb, "round {round}: results must be seed-independent");
        }
    }
}

#[test]
fn replayed_profiles_seed_identical_decisions() {
    let device = Device::rtx_2080();
    let backend = GpusimBackend::new(&device);
    let points = seeded_cloud(1_500, 0x5EED);
    let queries = queries_for(&points);

    // Record a profile under the static default (Full) engine.
    let tel = Telemetry::new(TelemetryLevel::Basic);
    tel.enable_profiler(SignatureProfiler::default());
    Telemetry::scoped(&tel, || {
        let mut index = Index::build(&backend, &points, EngineConfig::default());
        for round in 0..6 {
            index
                .query(&queries, &plan_for(round))
                .expect("profiling run fits the device");
        }
    });
    let snapshot = tel.profile_snapshot().expect("profiler recorded");

    // Two tuners replaying the same snapshot take the same decisions.
    let drive = || -> Vec<TunerDecision> {
        let mut tuner = AutoTuner::new(7);
        tuner.absorb_profile(&snapshot, OptLevel::Full);
        (0..12)
            .map(|round| {
                let kind = if round % 2 == 0 { "knn" } else { "range" };
                let d = tuner.decide(kind, points.len(), "gpusim", queries.len());
                // Feed a fixed observation so later decisions see history.
                tuner.observe(
                    kind,
                    points.len(),
                    "gpusim",
                    d.level,
                    &[
                        ("Schedule", 0.1),
                        ("Partition", 0.1),
                        ("Launch", 2.0),
                        ("Gather", 0.0),
                    ],
                    0.0,
                );
                d
            })
            .collect()
    };
    let first = drive();
    assert_eq!(first, drive(), "replayed profiles must decide identically");
    // The replay took effect: with the Full arm pre-seeded from the
    // profile, the first decision skips the cost-model cold start and
    // bootstraps the remaining arms instead.
    assert_ne!(first[0].source, DecisionSource::CostModel);

    // The integrated path — an auto index created under the recorded
    // telemetry — also starts from the absorbed profile, and stays exact.
    Telemetry::scoped(&tel, || {
        let mut auto = Index::build(
            &backend,
            &points,
            EngineConfig::default().with_tuning(Tuning::auto()),
        );
        let results = auto
            .query(&queries, &QueryPlan::knn(1.5, 8))
            .expect("auto run fits the device");
        let d = auto.last_decision().expect("decided");
        assert_ne!(d.source, DecisionSource::CostModel, "profile was absorbed");
        let mut statics = Index::build(&backend, &points, EngineConfig::default());
        let reference = statics
            .query_with(
                &queries,
                &QueryPlan::knn(1.5, 8),
                StageOverrides::for_level(d.level),
            )
            .unwrap();
        assert_eq!(results.neighbors, reference.neighbors);
    });
}

#[test]
fn sharded_tuned_ticks_stay_bit_equal_and_record_decisions() {
    let device = Device::rtx_2080();
    let backend = GpusimBackend::new(&device);
    let points = seeded_cloud(2_000, 0x54A2D);
    // Mixed request population (non-truncating range caps, as the shard
    // merge contract requires).
    let requests: Vec<Request> = (0..8)
        .map(|i| {
            let queries: Vec<Vec3> = points
                .iter()
                .skip(i * 37)
                .step_by(101 + i * 7)
                .take(10)
                .copied()
                .collect();
            let plan = if i % 2 == 0 {
                QueryPlan::knn(1.4, 6)
            } else {
                QueryPlan::range(1.1, 100_000)
            };
            Request::new(queries, plan)
        })
        .collect();

    // Direct, unsharded, untuned reference per request.
    let mut direct = Index::build(&backend, &points, EngineConfig::default());
    let expected: Vec<Vec<Vec<u32>>> = requests
        .iter()
        .map(|r| direct.query(&r.queries, &r.plan).unwrap().neighbors)
        .collect();

    // Drive tuned ticks over a sharded executor: 2 requests per tick so
    // every tick fuses (one decision per fused batch), several passes so
    // the tuner reaches measured exploitation.
    let session = || -> Vec<Option<TunerDecision>> {
        let mut sharded = ShardedIndex::build(&backend, &points, EngineConfig::default(), 4);
        let mut tuner = AutoTuner::new(11);
        let mut decisions = Vec::new();
        for _pass in 0..3 {
            for (pair, exp) in requests.chunks(2).zip(expected.chunks(2)) {
                let refs: Vec<&Request> = pair.iter().collect();
                let (outcomes, tick) = execute_tick_tuned(&mut sharded, &refs, Some(&mut tuner));
                assert!(tick.tuned.is_some(), "tunable executor: decision recorded");
                for ((outcome, exp), request) in outcomes.iter().zip(exp).zip(pair) {
                    let got = outcome.as_ref().expect("tick served the request");
                    // The tick may run at a different decided level than the
                    // direct (Full) reference: range compares as sets.
                    if request.plan.kind_label() == "range" {
                        assert_eq!(
                            sorted(got),
                            sorted(exp),
                            "tuned sharded tick diverged from the direct query"
                        );
                    } else {
                        assert_eq!(
                            got, exp,
                            "tuned sharded tick diverged from the direct query"
                        );
                    }
                }
                decisions.push(tick.tuned);
            }
        }
        assert!(
            tuner.decisions() >= 12,
            "one decision per tick: got {}",
            tuner.decisions()
        );
        decisions
    };
    let first = session();
    assert_eq!(first, session(), "tuned serving replays deterministically");
    assert!(
        first
            .iter()
            .any(|d| d.map(|d| d.source) == Some(DecisionSource::Measured)),
        "the serving tuner reached measured exploitation"
    );

    // Untuned ticks on the same sharded executor remain decision-free.
    let mut sharded = ShardedIndex::build(&backend, &points, EngineConfig::default(), 4);
    let refs: Vec<&Request> = requests.iter().take(2).collect();
    let (_, tick) = execute_tick(&mut sharded, &refs);
    assert!(tick.tuned.is_none());
}
