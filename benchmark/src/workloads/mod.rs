//! The seven workloads. Each module builds its inputs from the seed
//! (its set-up), runs reps of fixed work, verifies every output and
//! derives its layers' metrics from the spans around its calls.

pub mod serve;
pub mod sparse;
pub mod sync_fine;
pub mod table1;
pub mod translate;

use crate::harness::{Cfg, Checks, Workload};
use romp::sparse::matgen::XorShift64;

/// The workload's PRNG: the run's seed, whitened (consecutive small
/// seeds must not give correlated streams) and split by `stream` so
/// each generated input draws from its own sequence.
pub fn rng(seed: u64, stream: u64) -> XorShift64 {
    // splitmix64 finalizer.
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0xda94_2042_e4dd_58b5))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    XorShift64::new(z ^ (z >> 31))
}

/// Seeded Fisher–Yates shuffle.
pub fn shuffle<T>(items: &mut [T], rng: &mut XorShift64) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.next_below(i + 1));
    }
}

/// Set up the workload `cfg` names.
pub fn build(cfg: &Cfg, checks: &mut Checks) -> Result<Box<dyn Workload>, String> {
    Ok(match cfg.workload.as_str() {
        "table1-compute" => Box::new(table1::Table1::build(cfg, table1::Half::Compute)),
        "table1-memory" => Box::new(table1::Table1::build(cfg, table1::Half::Memory)),
        "sparse-banded" => Box::new(sparse::Sparse::build(cfg, sparse::Pattern::Banded, checks)),
        "sparse-random" => Box::new(sparse::Sparse::build(cfg, sparse::Pattern::Random, checks)),
        "sync-fine" => Box::new(sync_fine::SyncFine::build(cfg)),
        "serve-mixed" => Box::new(serve::Serve::build(cfg)),
        "translate" => Box::new(translate::Translate::build(cfg, checks)),
        other => {
            return Err(format!(
                "unknown workload `{other}` (one of: {})",
                crate::metrics::WORKLOADS.join(", ")
            ))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_and_seed_sensitive() {
        let draw = |seed, stream| {
            let mut r = rng(seed, stream);
            (0..4).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1, 0), draw(1, 0));
        assert_ne!(draw(1, 0), draw(2, 0));
        assert_ne!(draw(1, 0), draw(1, 1));
        let mut a: Vec<u32> = (0..50).collect();
        let mut b = a.clone();
        shuffle(&mut a, &mut rng(7, 0));
        shuffle(&mut b, &mut rng(7, 0));
        assert_eq!(a, b);
        assert_ne!(a, (0..50).collect::<Vec<u32>>());
    }
}
