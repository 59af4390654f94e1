//! RR / MRR sampling throughput.
//!
//! Supports Table III's "sample time" row: measures single RR-set
//! generation, sequential pool generation, and the parallel speedup.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use oipa_datasets::{lastfm_like, Scale};
use oipa_graph::traverse::BfsScratch;
use oipa_sampler::{sample_rr_set, LiveInEdges, MrrPool, PieceProbs, RrPool};
use oipa_topics::Campaign;
use rand::rngs::{SmallRng, StdRng};
use rand::{Rng, SeedableRng};

fn bench_sampling(c: &mut Criterion) {
    let dataset = lastfm_like(Scale::Full, 7);
    let mut rng = StdRng::seed_from_u64(7);
    let campaign = Campaign::sample_one_hot(&mut rng, dataset.topics, 3);
    let piece = &campaign.piece(0).topics;
    let n = dataset.graph.node_count();

    c.bench_function("rr_set/single_lastfm", |b| {
        let live = LiveInEdges::new(&dataset.graph, &PieceProbs::new(&dataset.table, piece));
        let mut scratch = BfsScratch::new(n);
        let mut out = Vec::new();
        let mut rng = SmallRng::seed_from_u64(1);
        b.iter(|| {
            let root = rng.gen_range(0..n as u32);
            sample_rr_set(&mut rng, &live, root, &mut scratch, &mut out);
            out.len()
        })
    });

    let mut group = c.benchmark_group("pool_generation");
    group.sample_size(10);
    group.bench_function("rr_pool_10k_lastfm", |b| {
        let flat = oipa_sampler::MaterializedProbs(dataset.table.collapse_mean());
        b.iter(|| RrPool::generate(&dataset.graph, &flat, 10_000, 3).theta())
    });
    group.bench_function("mrr_pool_10k_l3_seq1", |b| {
        b.iter(|| {
            MrrPool::generate_parallel(&dataset.graph, &dataset.table, &campaign, 10_000, 3, 1)
                .theta()
        })
    });
    group.bench_function("mrr_pool_10k_l3_par4", |b| {
        b.iter(|| {
            MrrPool::generate_parallel(&dataset.graph, &dataset.table, &campaign, 10_000, 3, 4)
                .theta()
        })
    });
    group.bench_function("mrr_pool_10k_l3_par_all", |b| {
        b.iter(|| MrrPool::generate(&dataset.graph, &dataset.table, &campaign, 10_000, 3).theta())
    });
    group.finish();

    // Headline parallel-sampling speedup: identical workload and seed, 1
    // thread vs min(4, cores) threads, measured directly so the ratio
    // prints without cross-referencing criterion output. (The two pools
    // are bitwise identical; only wall-clock differs.)
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let par_threads = cores.min(4);
    let theta = 60_000;
    let time = |threads: usize| {
        let start = std::time::Instant::now();
        let pool = MrrPool::generate_parallel(
            &dataset.graph,
            &dataset.table,
            &campaign,
            theta,
            3,
            threads,
        );
        assert_eq!(pool.theta(), theta);
        start.elapsed()
    };
    time(1); // warm caches
    let sequential = time(1);
    let parallel = time(par_threads);
    println!(
        "mrr_speedup: theta={theta} l=3  1 thread {:.1} ms  {par_threads} threads {:.1} ms  speedup {:.2}x ({cores} cores available)",
        sequential.as_secs_f64() * 1e3,
        parallel.as_secs_f64() * 1e3,
        sequential.as_secs_f64() / parallel.as_secs_f64(),
    );

    c.bench_function("rr_set/materialized_vs_onthefly", |b| {
        // On-the-fly piece probabilities (sparse dot) vs nothing to
        // compare directly here; this measures the materialization cost.
        b.iter_batched(
            || (),
            |_| dataset.table.materialize(piece).len(),
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(benches, bench_sampling);
criterion_main!(benches);
