//! `omp atomic` support for floating-point types.
//!
//! OpenMP's `atomic` construct covers `x += expr` on doubles, which has
//! no native hardware atomic on most ISAs; implementations lower it to a
//! compare-exchange loop on the bit pattern. [`AtomicF64`] provides that
//! lowering, so romp code can write the idiomatic translation of
//! `#pragma omp atomic` without a critical section.

use std::sync::atomic::{AtomicU64, Ordering};

/// An `f64` with atomic read-modify-write operations, via CAS on the
/// bit representation.
#[derive(Debug, Default)]
pub struct AtomicF64 {
    bits: AtomicU64,
}

impl AtomicF64 {
    /// New atomic double.
    pub fn new(v: f64) -> Self {
        AtomicF64 {
            bits: AtomicU64::new(v.to_bits()),
        }
    }

    /// Atomic load.
    #[inline]
    pub fn load(&self, order: Ordering) -> f64 {
        f64::from_bits(self.bits.load(order))
    }

    /// Atomic store.
    #[inline]
    pub fn store(&self, v: f64, order: Ordering) {
        self.bits.store(v.to_bits(), order);
    }

    /// Atomic read-modify-write with an arbitrary pure update function;
    /// returns the previous value. The CAS loop retries under
    /// contention, so `f` may run multiple times.
    #[inline]
    pub fn fetch_update_with(&self, f: impl Fn(f64) -> f64) -> f64 {
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            let new = f(f64::from_bits(cur)).to_bits();
            match self
                .bits
                .compare_exchange_weak(cur, new, Ordering::AcqRel, Ordering::Relaxed)
            {
                Ok(prev) => return f64::from_bits(prev),
                Err(seen) => cur = seen,
            }
        }
    }

    /// `#pragma omp atomic` `x += v`; returns the previous value.
    #[inline]
    pub fn fetch_add(&self, v: f64) -> f64 {
        self.fetch_update_with(|x| x + v)
    }

    /// `x *= v`.
    #[inline]
    pub fn fetch_mul(&self, v: f64) -> f64 {
        self.fetch_update_with(|x| x * v)
    }

    /// `x = min(x, v)`.
    #[inline]
    pub fn fetch_min(&self, v: f64) -> f64 {
        self.fetch_update_with(|x| x.min(v))
    }

    /// `x = max(x, v)`.
    #[inline]
    pub fn fetch_max(&self, v: f64) -> f64 {
        self.fetch_update_with(|x| x.max(v))
    }

    /// Consume and return the value.
    pub fn into_inner(self) -> f64 {
        f64::from_bits(self.bits.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{fork, ForkSpec};
    use crate::sched::Schedule;

    #[test]
    fn basic_ops() {
        let a = AtomicF64::new(1.5);
        assert_eq!(a.load(Ordering::SeqCst), 1.5);
        assert_eq!(a.fetch_add(2.0), 1.5);
        assert_eq!(a.load(Ordering::SeqCst), 3.5);
        assert_eq!(a.fetch_mul(2.0), 3.5);
        assert_eq!(a.load(Ordering::SeqCst), 7.0);
        a.fetch_min(5.0);
        assert_eq!(a.load(Ordering::SeqCst), 5.0);
        a.fetch_max(6.5);
        assert_eq!(a.into_inner(), 6.5);
    }

    #[test]
    fn store_overwrites() {
        let a = AtomicF64::new(0.0);
        a.store(-3.25, Ordering::SeqCst);
        assert_eq!(a.load(Ordering::SeqCst), -3.25);
    }

    #[test]
    fn concurrent_adds_do_not_lose_updates() {
        let acc = AtomicF64::new(0.0);
        fork(ForkSpec::with_num_threads(4), |ctx| {
            ctx.ws_for(0..10_000, Schedule::dynamic_chunk(64), false, |_i| {
                acc.fetch_add(0.5);
            });
        });
        assert_eq!(acc.load(Ordering::SeqCst), 5_000.0);
    }

    #[test]
    fn concurrent_max_finds_global_max() {
        let data: Vec<f64> = (0..5000).map(|i| ((i * 7919) % 4999) as f64).collect();
        let m = AtomicF64::new(f64::NEG_INFINITY);
        fork(ForkSpec::with_num_threads(4), |ctx| {
            ctx.ws_for(0..data.len(), Schedule::static_block(), false, |i| {
                m.fetch_max(data[i]);
            });
        });
        let expect = data.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(m.load(Ordering::SeqCst), expect);
    }
}
