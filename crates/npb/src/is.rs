//! NPB IS — the Integer Sort benchmark.
//!
//! Ranks `N` integer keys drawn from `[0, MAX_KEY)` by counting sort,
//! ten times (`MAX_ITERATIONS`), mutating two sentinel keys per
//! iteration exactly as `is.c` does. Verification is the official
//! two-part test: *partial verification* checks the ranks of five
//! probe keys against published per-class tables after every iteration,
//! and *full verification* checks the final ranks against a recount of
//! the keys, scatters the keys by them and checks the result ascends.
//!
//! The ranking is the work-array scheme of the OpenMP `is.c` (private
//! histograms over key chunks, then a scan over owned key ranges — see
//! `RankWork::rank`); its prefix array is bitwise the same at every
//! team size.
//!
//! Key generation follows `create_seq`: four consecutive `randlc`
//! uniforms summed, scaled by `MAX_KEY/4` — reproduced bit-exactly by
//! [`crate::rng`], including the parallel version (each thread
//! leapfrogs to its slice of the one global stream, like `is.c`'s
//! `find_my_seed`).

use crate::classes::Class;
use crate::rng::{skip_ahead, Randlc, SEED_CG};
use crate::verify::{KernelResult, Variant};
use romp_core::prelude::*;
use romp_core::slice::SharedSlice;
use romp_runtime::reduction::RedVar;

/// `MAX_ITERATIONS` in `is.c`.
pub const MAX_ITERATIONS: u32 = 10;
/// `TEST_ARRAY_SIZE` in `is.c`.
pub const TEST_ARRAY_SIZE: usize = 5;

/// Per-class probe-key indices (`test_index_array` in `is.c`).
pub fn test_index_array(class: Class) -> [usize; TEST_ARRAY_SIZE] {
    match class {
        Class::S => [48427, 17148, 23627, 62548, 4431],
        Class::W => [357773, 934767, 875723, 898999, 404505],
        Class::A => [2112377, 662041, 5336171, 3642833, 4250760],
        Class::B => [41869, 812306, 5102857, 18232239, 26860214],
        Class::C => [44172927, 72999161, 74326391, 129606274, 21736814],
    }
}

/// Per-class probe-key rank references (`test_rank_array` in `is.c`).
pub fn test_rank_array(class: Class) -> [i64; TEST_ARRAY_SIZE] {
    match class {
        Class::S => [0, 18, 346, 64917, 65463],
        Class::W => [1249, 11698, 1039987, 1043896, 1048018],
        Class::A => [104, 17523, 123928, 8288932, 8388264],
        Class::B => [33422937, 10244, 59149, 33135281, 99],
        Class::C => [61147, 882988, 266290, 133997595, 133525895],
    }
}

/// The per-iteration adjustment `is.c` applies to the reference rank of
/// probe `i` at ranking iteration `iteration`.
pub fn expected_rank(class: Class, probe: usize, iteration: u32) -> i64 {
    let base = test_rank_array(class)[probe];
    let it = iteration as i64;
    match class {
        Class::S | Class::C => {
            if probe <= 2 {
                base + it
            } else {
                base - it
            }
        }
        Class::W => {
            if probe < 2 {
                base + it - 2
            } else {
                base - it
            }
        }
        Class::A => {
            if probe <= 2 {
                base + (it - 1)
            } else {
                base - (it - 1)
            }
        }
        Class::B => {
            if probe == 1 || probe == 2 || probe == 4 {
                base + it
            } else {
                base - it
            }
        }
    }
}

/// Generate the NPB key sequence for a class, bit-exact with
/// `create_seq(314159265, 1220703125)`, in parallel (each chunk skips
/// to its offset in the single global stream).
pub fn generate_keys(class: Class, threads: usize) -> Vec<u32> {
    let (log_n, log_k) = class.is_params();
    let n = 1usize << log_n;
    let k = (1u64 << log_k) / 4;
    let mut keys = vec![0u32; n];
    // Each claimed chunk of the output array is an exclusive `&mut`
    // subslice; 4 uniforms per key means a chunk starting at key `lo`
    // starts 4·lo draws into the one global stream. The result is
    // thread-count- and schedule-invariant by construction.
    par_for(0..n)
        .num_threads(threads)
        .schedule(Schedule::static_block())
        .write_chunks_into(&mut keys, |r, out| {
            let mut rng = Randlc::new(skip_ahead(SEED_CG, 4 * r.start as u64));
            for key in out.iter_mut() {
                let x = rng.next_f64() + rng.next_f64() + rng.next_f64() + rng.next_f64();
                *key = (k as f64 * x) as u32;
            }
        });
    keys
}

/// The work arrays of a run (`key_buff1` and the per-thread
/// `work_buff`s of the OpenMP `is.c`), allocated once and reused by
/// every ranking and by the full verification.
struct RankWork {
    /// Team size to ask for (a fork may deliver fewer, never more).
    threads: usize,
    /// `prefix[k]` = number of keys `<= k`: `key_buff_ptr` after the
    /// scan in `is.c`, the result of a ranking.
    prefix: Vec<u32>,
    /// One private histogram of `MAX_KEY` counters per thread, back to
    /// back.
    hists: Vec<u32>,
    /// Per thread, the number of keys in the key range it scanned.
    totals: Vec<u32>,
}

impl RankWork {
    fn new(class: Class, threads: usize) -> Self {
        let threads = threads.max(1);
        let max_key = 1usize << class.is_params().1;
        RankWork {
            threads,
            prefix: vec![0; max_key],
            hists: vec![0; threads * max_key],
            totals: vec![0; threads],
        }
    }

    /// One ranking pass: leaves the inclusive prefix-summed counts in
    /// `self.prefix` and returns whether the partial verification
    /// passed.
    ///
    /// One fork, two barriers, no atomics, no allocation — the
    /// work-array scheme of the OpenMP `is.c`:
    /// 1. every thread zeroes and fills *its own* histogram over its
    ///    static chunk of the keys;
    /// 2. (barrier) every thread owns a contiguous *key range*, sums
    ///    the team's histograms over it into `prefix` and scans it
    ///    locally;
    /// 3. (barrier) every thread adds the totals of the ranges before
    ///    its own.
    ///
    /// The result does not depend on the team size: integer sums.
    fn rank(&mut self, keys: &mut [u32], class: Class, iteration: u32) -> bool {
        let max_key = self.prefix.len();
        let n = keys.len();

        // The two sentinel mutations of is.c.
        keys[iteration as usize] = iteration;
        keys[(iteration + MAX_ITERATIONS) as usize] = (max_key as u32) - iteration;

        // Capture probe values before ranking.
        let idx = test_index_array(class);
        let probe_vals: [u32; TEST_ARRAY_SIZE] = std::array::from_fn(|i| keys[idx[i]]);

        {
            let keys: &[u32] = keys;
            let prefix = SharedSlice::new(&mut self.prefix);
            let hists = SharedSlice::new(&mut self.hists);
            let totals = SharedSlice::new(&mut self.totals);
            let block = Schedule::static_block();
            parallel().num_threads(self.threads).run(|ctx| {
                let (t, team) = (ctx.thread_num(), ctx.num_threads());
                // SAFETY: histogram `t` is this thread's alone until
                // the barrier below.
                let mine = unsafe { hists.slice_mut(t * max_key..(t + 1) * max_key) };
                mine.fill(0);
                ctx.ws_for_chunks(0..n, block, true, |r| {
                    for &k in &keys[r] {
                        mine[k as usize] += 1;
                    }
                });
                ctx.barrier();
                // A static block schedule hands a thread the same key
                // range here and after the next barrier.
                let mut total = 0u32;
                ctx.ws_for_chunks(0..max_key, block, true, |r| {
                    // SAFETY: `prefix[r]` is this thread's block; the
                    // histograms are read-only between the barriers.
                    let out = unsafe { prefix.slice_mut(r.clone()) };
                    out.copy_from_slice(unsafe { hists.slice(r.clone()) });
                    for u in 1..team {
                        let h = unsafe { hists.slice(u * max_key + r.start..u * max_key + r.end) };
                        for (o, &c) in out.iter_mut().zip(h) {
                            *o += c;
                        }
                    }
                    for o in out {
                        total += *o;
                        *o = total;
                    }
                });
                // SAFETY: slot `t` is this thread's; read after the barrier.
                unsafe { totals.write(t, total) };
                ctx.barrier();
                let before: u32 = (0..t).map(|u| unsafe { totals.read(u) }).sum();
                ctx.ws_for_chunks(0..max_key, block, true, |r| {
                    if before != 0 {
                        // SAFETY: the same block as above.
                        for o in unsafe { prefix.slice_mut(r) } {
                            *o += before;
                        }
                    }
                });
            });
        }
        debug_assert_eq!(self.prefix[max_key - 1] as usize, n);

        // Partial verification.
        let mut ok = true;
        for (i, &pv) in probe_vals.iter().enumerate() {
            let k = pv as usize;
            if (1..n).contains(&k) {
                let key_rank = self.prefix[k - 1] as i64;
                if key_rank != expected_rank(class, i, iteration) {
                    ok = false;
                }
            }
        }
        ok
    }

    /// Full verification of `self.prefix` against `keys`: the prefix
    /// must be exactly the inclusive scan of the keys' histogram (any
    /// key without an entry, any rank that underflows, overshoots or
    /// disagrees with the counts fails it), and the keys scattered by
    /// their ranks must come out ascending, as `is.c` checks.
    ///
    /// The histogram is recounted here, from the keys alone, into the
    /// per-thread work arrays; turned into each thread's first slot per
    /// key (counting-sort offsets) they let every thread scatter its
    /// own chunk of the keys into slots no other thread writes. The
    /// only allocation is the sorted array.
    fn full_verify(&mut self, keys: &[u32]) -> bool {
        let n = keys.len();
        // The key space the prefix covers (a truncated prefix leaves
        // some keys without a rank; that is found below).
        let m = self.prefix.len();
        let mut sorted = vec![0u32; n];
        let consistent = RedVar::new(true, LogAndOp);
        let descents = RedVar::new(0u64, SumOp);
        {
            let prefix: &[u32] = &self.prefix;
            let hists = SharedSlice::new(&mut self.hists);
            let sorted = SharedSlice::new(&mut sorted);
            let block = Schedule::static_block();
            parallel().num_threads(self.threads).run(|ctx| {
                let (t, team) = (ctx.thread_num(), ctx.num_threads());
                // SAFETY (both uses): histogram `t` is this thread's
                // alone outside the check, which runs between the
                // barrier after the count and the reduction's barrier;
                // the borrow is taken anew after them.
                let my_hist = || unsafe { hists.slice_mut(t * m..(t + 1) * m) };
                let mut ok = true;
                let mine = my_hist();
                mine.fill(0);
                ctx.ws_for_chunks(0..n, block, true, |r| {
                    for &k in &keys[r] {
                        match mine.get_mut(k as usize) {
                            Some(c) => *c += 1,
                            None => ok = false,
                        }
                    }
                });
                ctx.barrier();
                // Key-range owner: keys `k` must fill exactly the slots
                // `prefix[k-1]..prefix[k]`; thread `u`'s share of them
                // starts where thread `u-1`'s ends. In u64, so that no
                // corrupt rank can wrap into agreement.
                ctx.ws_for_chunks(0..m, block, true, |r| {
                    let mut start = if r.start == 0 { 0 } else { prefix[r.start - 1] };
                    for k in r {
                        let mut slot = start as u64;
                        for u in 0..team {
                            // SAFETY: between the barriers key `k` of
                            // every histogram belongs to its range owner.
                            let h = unsafe { hists.get_mut(u * m + k) };
                            let count = *h;
                            *h = slot as u32;
                            slot += count as u64;
                        }
                        ok &= slot == prefix[k] as u64;
                        start = prefix[k];
                    }
                });
                // reduction(&&), one barrier: scatter only if the whole
                // prefix checked out.
                if !ctx.reduce_value(LogAndOp, ok) {
                    consistent.contribute(false);
                    return;
                }
                // The same static chunk as the count above, so thread
                // `t` places exactly the keys it counted.
                let mine = my_hist();
                ctx.ws_for_chunks(0..n, block, true, |r| {
                    for &k in &keys[r] {
                        let slot = &mut mine[k as usize];
                        // SAFETY: the check passed for every key, so the
                        // slots of key `k` are `prefix[k-1]..prefix[k]`,
                        // within `0..n` (the counts sum to n), and this
                        // thread's share of them — as many as it
                        // counted, and counts again now — is disjoint
                        // from every other thread's.
                        unsafe { sorted.write(*slot as usize, k) };
                        *slot += 1;
                    }
                });
                ctx.barrier();
                // is.c's check proper: reduction(+) over the descents.
                let mut down = 0u64;
                ctx.ws_for_chunks(1..n, block, true, |r| {
                    // SAFETY: nobody writes `sorted` after the barrier.
                    let pairs = unsafe { sorted.slice(r.start - 1..r.end) }.windows(2);
                    down += pairs.filter(|w| w[0] > w[1]).count() as u64;
                });
                descents.contribute(down);
            });
        }
        consistent.into_inner() && descents.into_inner() == 0
    }
}

fn mops(class: Class, secs: f64) -> f64 {
    let (log_n, _) = class.is_params();
    (MAX_ITERATIONS as f64) * (1u64 << log_n) as f64 / secs / 1e6
}

/// Complete IS run (both configurations share this driver; they differ
/// in how the histogram loop is expressed, which for IS reduces to the
/// same runtime calls — the originals are C, no interop bridge).
fn run_impl(class: Class, threads: usize, variant: Variant) -> KernelResult {
    let mut keys = generate_keys(class, threads);
    let mut work = RankWork::new(class, threads);
    // Untimed warm-up ranking (iteration 1), per NPB timing rules.
    let mut partial_ok = work.rank(&mut keys, class, 1);
    let (_, secs) = romp_runtime::wtime::timed(|| {
        for it in 1..=MAX_ITERATIONS {
            partial_ok &= work.rank(&mut keys, class, it);
        }
    });
    let checksum = work.prefix.last().copied().unwrap_or(0) as f64;
    let full_ok = work.full_verify(&keys);
    KernelResult {
        name: "IS",
        class,
        variant,
        threads,
        time_s: secs,
        mops: mops(class, secs),
        verified: partial_ok && full_ok,
        checksum,
    }
}

/// The romp configuration.
pub mod romp {
    use super::*;

    /// Run IS with `threads` threads.
    pub fn run(class: Class, threads: usize) -> KernelResult {
        run_impl(class, threads, Variant::Romp)
    }
}

/// The reference (C translation) configuration.
pub mod reference {
    use super::*;

    /// Run IS with `threads` threads.
    pub fn run(class: Class, threads: usize) -> KernelResult {
        run_impl(class, threads, Variant::Reference)
    }
}

/// Serial run for speedup baselines.
pub fn run_serial(class: Class) -> KernelResult {
    run_impl(class, 1, Variant::Serial)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_generation_is_thread_count_invariant() {
        let a = generate_keys(Class::S, 1);
        let b = generate_keys(Class::S, 4);
        assert_eq!(a, b, "leapfrogged generation must match serial stream");
    }

    #[test]
    fn keys_are_in_range() {
        let keys = generate_keys(Class::S, 2);
        let (log_n, log_k) = Class::S.is_params();
        assert_eq!(keys.len(), 1 << log_n);
        assert!(keys.iter().all(|&k| (k as usize) < (1 << log_k)));
    }

    #[test]
    fn class_s_verifies_officially() {
        let r = run_serial(Class::S);
        assert!(r.verified, "IS class S verification failed: {r}");
    }

    #[test]
    fn class_s_parallel_verifies() {
        for threads in [2, 4, 8] {
            let r = romp::run(Class::S, threads);
            assert!(r.verified, "threads={threads}: {r}");
        }
    }

    #[test]
    fn expected_rank_adjustments() {
        // Spot-check the adjustment shapes.
        assert_eq!(
            expected_rank(Class::S, 0, 3),
            test_rank_array(Class::S)[0] + 3
        );
        assert_eq!(
            expected_rank(Class::S, 4, 3),
            test_rank_array(Class::S)[4] - 3
        );
        assert_eq!(
            expected_rank(Class::A, 1, 5),
            test_rank_array(Class::A)[1] + 4
        );
        assert_eq!(
            expected_rank(Class::B, 4, 2),
            test_rank_array(Class::B)[4] + 2
        );
    }

    #[test]
    fn ranking_is_thread_count_invariant_and_matches_a_serial_counting_sort() {
        // 3 divides neither the keys nor the key range; 8 oversubscribes.
        for class in [Class::S, Class::W] {
            let max_key = 1usize << class.is_params().1;
            let mut reference: Vec<Vec<u32>> = Vec::new();
            for threads in [1, 2, 3, 4, 8] {
                let mut keys = generate_keys(class, 2);
                let mut work = RankWork::new(class, threads);
                for it in 1..=MAX_ITERATIONS {
                    assert!(
                        work.rank(&mut keys, class, it),
                        "{class:?} T={threads}: partial verification, iteration {it}"
                    );
                    if threads == 1 {
                        // Naive serial counting sort of the same keys.
                        let mut naive = vec![0u32; max_key];
                        for &k in &keys {
                            naive[k as usize] += 1;
                        }
                        for k in 1..max_key {
                            naive[k] += naive[k - 1];
                        }
                        assert_eq!(work.prefix, naive, "{class:?} iteration {it}");
                        reference.push(naive);
                    } else {
                        assert!(
                            work.prefix == reference[it as usize - 1],
                            "{class:?} T={threads}: prefix differs at iteration {it}"
                        );
                    }
                }
                assert!(work.full_verify(&keys), "{class:?} T={threads}");
            }
        }
    }

    #[test]
    fn full_verify_detects_corruption() {
        for threads in [1, 3] {
            let mut keys = generate_keys(Class::S, 2);
            let mut work = RankWork::new(Class::S, threads);
            assert!(work.rank(&mut keys, Class::S, 1));
            let good = work.prefix.clone();
            assert!(work.full_verify(&keys));
            // A key that occurs, so its rank is used.
            let k = keys[1000] as usize;
            assert!(good[k] > good[k - 1] && good[k + 1] > good[k]);

            // Decremented rank: one slot is written twice, one never.
            work.prefix[k] -= 1;
            assert!(!work.full_verify(&keys), "T={threads}: decremented rank");
            // Swapped ranks: the prefix is no longer monotone.
            work.prefix.clone_from(&good);
            work.prefix.swap(k, k + 1);
            assert!(!work.full_verify(&keys), "T={threads}: swapped ranks");
            // A rank of zero under a key that occurs: `*p -= 1` underflows.
            work.prefix.clone_from(&good);
            work.prefix[k] = 0;
            assert!(!work.full_verify(&keys), "T={threads}: zeroed rank");
            // A rank beyond the array: the scatter would leave it.
            work.prefix.clone_from(&good);
            work.prefix[k] = u32::MAX;
            assert!(!work.full_verify(&keys), "T={threads}: overshooting rank");
            // Truncated prefix: the upper keys have no rank at all.
            work.prefix.clone_from(&good);
            work.prefix.truncate(good.len() / 2);
            assert!(!work.full_verify(&keys), "T={threads}: truncated prefix");
            // Same minimum, right length, but not the keys that were
            // ranked: the histograms differ.
            work.prefix.clone_from(&good);
            let mut other = keys.clone();
            other[1000] += 1;
            assert!(!work.full_verify(&other), "T={threads}: different keys");

            work.prefix.clone_from(&good);
            assert!(work.full_verify(&keys), "T={threads}: restored");
        }
    }
}
