//! The `reduction` clause machinery.
//!
//! OpenMP reductions give every thread a private copy initialized to the
//! operator's identity; at the end of the construct the private copies
//! are combined into the original variable in a thread-safe way. We model
//! this with:
//!
//! * [`ReduceOp`] — the operator lattice (`+ * min max & | ^ && ||`),
//!   with identities, implemented for the integer and float primitive
//!   types that OpenMP's C binding supports, and element by element for
//!   tuples of them, so one contribution carries every variable of a
//!   clause;
//! * [`RedVar`] — a shared reduction variable: threads call
//!   [`RedVar::contribute`] with their private partial; the combine is
//!   serialized by an [`OmpLock`]. The per-thread partial accumulation is
//!   unsynchronized (that is the whole point of a reduction), only the
//!   final fold takes the lock — once per thread, not once per iteration.
//!
//! Every `reduction` takes one of two shapes. A combined construct
//! (`omp_parallel_for!`, `ParFor::reduce`) folds each thread's tuple of
//! partials into a [`RedVar`] seeded with the incoming values, and the
//! fork's join publishes it: no barrier. An in-region construct
//! (`omp_for!`, orphaned code) makes one
//! [`ThreadCtx::reduce_value`](crate::ThreadCtx::reduce_value) call over
//! the tuple, which pays one team barrier. This is how the paper's Zig
//! implementation lowers its `reduction` clause onto the LLVM runtime's
//! combine path.

use crate::lock::OmpLock;
use std::cell::UnsafeCell;

/// A reduction operator with an identity element.
///
/// Laws (checked by property tests in `romp-core`):
/// `combine(identity(), x) == x`, and `combine` is associative and
/// commutative for every provided implementation.
pub trait ReduceOp<T>: Copy + Send + Sync {
    /// The operator's identity (`0` for `+`, `1` for `*`, `T::MAX` for
    /// `min`, …).
    fn identity(&self) -> T;
    /// Fold two values.
    fn combine(&self, a: T, b: T) -> T;
}

/// `reduction(+ : …)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct SumOp;
/// `reduction(* : …)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProdOp;
/// `reduction(min : …)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct MinOp;
/// `reduction(max : …)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct MaxOp;
/// `reduction(& : …)` (integer bit-and).
#[derive(Debug, Clone, Copy, Default)]
pub struct BitAndOp;
/// `reduction(| : …)` (integer bit-or).
#[derive(Debug, Clone, Copy, Default)]
pub struct BitOrOp;
/// `reduction(^ : …)` (integer bit-xor).
#[derive(Debug, Clone, Copy, Default)]
pub struct BitXorOp;
/// `reduction(&& : …)` (logical and over `bool`).
#[derive(Debug, Clone, Copy, Default)]
pub struct LogAndOp;
/// `reduction(|| : …)` (logical or over `bool`).
#[derive(Debug, Clone, Copy, Default)]
pub struct LogOrOp;

macro_rules! impl_arith_ops {
    ($($t:ty),*) => {$(
        impl ReduceOp<$t> for SumOp {
            #[inline] fn identity(&self) -> $t { 0 as $t }
            #[inline] fn combine(&self, a: $t, b: $t) -> $t { a + b }
        }
        impl ReduceOp<$t> for ProdOp {
            #[inline] fn identity(&self) -> $t { 1 as $t }
            #[inline] fn combine(&self, a: $t, b: $t) -> $t { a * b }
        }
    )*};
}

macro_rules! impl_minmax_int {
    ($($t:ty),*) => {$(
        impl ReduceOp<$t> for MinOp {
            #[inline] fn identity(&self) -> $t { <$t>::MAX }
            #[inline] fn combine(&self, a: $t, b: $t) -> $t { a.min(b) }
        }
        impl ReduceOp<$t> for MaxOp {
            #[inline] fn identity(&self) -> $t { <$t>::MIN }
            #[inline] fn combine(&self, a: $t, b: $t) -> $t { a.max(b) }
        }
    )*};
}

macro_rules! impl_bit_ops {
    ($($t:ty),*) => {$(
        impl ReduceOp<$t> for BitAndOp {
            #[inline] fn identity(&self) -> $t { !0 }
            #[inline] fn combine(&self, a: $t, b: $t) -> $t { a & b }
        }
        impl ReduceOp<$t> for BitOrOp {
            #[inline] fn identity(&self) -> $t { 0 }
            #[inline] fn combine(&self, a: $t, b: $t) -> $t { a | b }
        }
        impl ReduceOp<$t> for BitXorOp {
            #[inline] fn identity(&self) -> $t { 0 }
            #[inline] fn combine(&self, a: $t, b: $t) -> $t { a ^ b }
        }
    )*};
}

impl_arith_ops!(i8, i16, i32, i64, i128, isize, u8, u16, u32, u64, u128, usize, f32, f64);
impl_minmax_int!(i8, i16, i32, i64, i128, isize, u8, u16, u32, u64, u128, usize);
impl_bit_ops!(i8, i16, i32, i64, i128, isize, u8, u16, u32, u64, u128, usize);

impl ReduceOp<f32> for MinOp {
    #[inline]
    fn identity(&self) -> f32 {
        f32::INFINITY
    }
    #[inline]
    fn combine(&self, a: f32, b: f32) -> f32 {
        a.min(b)
    }
}
impl ReduceOp<f32> for MaxOp {
    #[inline]
    fn identity(&self) -> f32 {
        f32::NEG_INFINITY
    }
    #[inline]
    fn combine(&self, a: f32, b: f32) -> f32 {
        a.max(b)
    }
}
impl ReduceOp<f64> for MinOp {
    #[inline]
    fn identity(&self) -> f64 {
        f64::INFINITY
    }
    #[inline]
    fn combine(&self, a: f64, b: f64) -> f64 {
        a.min(b)
    }
}
impl ReduceOp<f64> for MaxOp {
    #[inline]
    fn identity(&self) -> f64 {
        f64::NEG_INFINITY
    }
    #[inline]
    fn combine(&self, a: f64, b: f64) -> f64 {
        a.max(b)
    }
}
impl ReduceOp<bool> for LogAndOp {
    #[inline]
    fn identity(&self) -> bool {
        true
    }
    #[inline]
    fn combine(&self, a: bool, b: bool) -> bool {
        a && b
    }
}
impl ReduceOp<bool> for LogOrOp {
    #[inline]
    fn identity(&self) -> bool {
        false
    }
    #[inline]
    fn combine(&self, a: bool, b: bool) -> bool {
        a || b
    }
}

/// `ReduceOp` over a tuple: identity and combine element by element, so
/// `reduction(+ : a, b)` is one `(A, B)` contribution.
macro_rules! impl_tuple_op {
    ($(($($t:ident $i:tt),+))*) => {$(
        impl<Op, $($t),+> ReduceOp<($($t,)+)> for Op
        where
            Op: Copy + Send + Sync $(+ ReduceOp<$t>)+,
        {
            #[inline]
            fn identity(&self) -> ($($t,)+) {
                ($(ReduceOp::<$t>::identity(self),)+)
            }
            #[inline]
            fn combine(&self, a: ($($t,)+), b: ($($t,)+)) -> ($($t,)+) {
                ($(ReduceOp::<$t>::combine(self, a.$i, b.$i),)+)
            }
        }
    )*};
}

impl_tuple_op! {
    (A 0)
    (A 0, B 1)
    (A 0, B 1, C 2)
    (A 0, B 1, C 2, D 3)
    (A 0, B 1, C 2, D 3, E 4)
    (A 0, B 1, C 2, D 3, E 4, F 5)
    (A 0, B 1, C 2, D 3, E 4, F 5, G 6)
    (A 0, B 1, C 2, D 3, E 4, F 5, G 6, H 7)
    (A 0, B 1, C 2, D 3, E 4, F 5, G 6, H 7, I 8)
    (A 0, B 1, C 2, D 3, E 4, F 5, G 6, H 7, I 8, J 9)
    (A 0, B 1, C 2, D 3, E 4, F 5, G 6, H 7, I 8, J 9, K 10)
    (A 0, B 1, C 2, D 3, E 4, F 5, G 6, H 7, I 8, J 9, K 10, L 11)
}

/// A shared reduction variable.
///
/// Create it with the pre-construct value of the reduction variable, have
/// every team thread [`contribute`](RedVar::contribute) its private
/// partial exactly once, then, once the fork has joined, take the
/// combined value back with [`RedVar::into_inner`].
#[derive(Debug)]
pub struct RedVar<T, Op> {
    lock: OmpLock,
    value: UnsafeCell<T>,
    op: Op,
}

// SAFETY: all access to `value` is serialized through `lock`.
unsafe impl<T: Send, Op: Send> Send for RedVar<T, Op> {}
unsafe impl<T: Send, Op: Sync> Sync for RedVar<T, Op> {}

impl<T: Clone, Op: ReduceOp<T>> RedVar<T, Op> {
    /// Wrap the incoming value of the reduction variable.
    pub fn new(initial: T, op: Op) -> Self {
        RedVar {
            lock: OmpLock::new(),
            value: UnsafeCell::new(initial),
            op,
        }
    }

    /// The identity a thread should initialize its private copy to.
    pub fn identity(&self) -> T {
        self.op.identity()
    }

    /// Fold a thread's private partial into the shared value
    /// (serialized; call once per thread per construct).
    pub fn contribute(&self, partial: T) {
        self.lock.with(|| {
            // SAFETY: inside the lock.
            let v = unsafe { &mut *self.value.get() };
            *v = self.op.combine(v.clone(), partial);
        });
    }

    /// Unwrap the final value.
    pub fn into_inner(self) -> T {
        self.value.into_inner()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn identities() {
        assert_eq!(<SumOp as ReduceOp<i32>>::identity(&SumOp), 0);
        assert_eq!(<ProdOp as ReduceOp<i64>>::identity(&ProdOp), 1);
        assert_eq!(<MinOp as ReduceOp<u32>>::identity(&MinOp), u32::MAX);
        assert_eq!(<MaxOp as ReduceOp<i8>>::identity(&MaxOp), i8::MIN);
        assert_eq!(<MinOp as ReduceOp<f64>>::identity(&MinOp), f64::INFINITY);
        assert_eq!(<BitAndOp as ReduceOp<u8>>::identity(&BitAndOp), 0xFF);
        assert!(<LogAndOp as ReduceOp<bool>>::identity(&LogAndOp));
        assert!(!<LogOrOp as ReduceOp<bool>>::identity(&LogOrOp));
    }

    #[test]
    fn identity_is_neutral() {
        for x in [-5i64, 0, 3, 1_000_000] {
            assert_eq!(SumOp.combine(SumOp.identity(), x), x);
            assert_eq!(ProdOp.combine(ProdOp.identity(), x), x);
            assert_eq!(MinOp.combine(ReduceOp::<i64>::identity(&MinOp), x), x);
            assert_eq!(MaxOp.combine(ReduceOp::<i64>::identity(&MaxOp), x), x);
        }
    }

    #[test]
    fn tuples_reduce_element_by_element() {
        let id: (u64, f64, i8) = SumOp.identity();
        assert_eq!(id, (0, 0.0, 0));
        assert_eq!(SumOp.combine((1u64, 0.5f64), (2, 0.25)), (3, 0.75));
        let lo: (u32, f64) = MinOp.identity();
        assert_eq!(lo, (u32::MAX, f64::INFINITY));
        assert_eq!(MaxOp.combine((1i32,), (-4,)), (1,));
    }

    #[test]
    fn redvar_combines_concurrent_contributions() {
        let acc = Arc::new(RedVar::new(100i64, SumOp));
        let mut handles = vec![];
        for t in 0..8i64 {
            let acc = acc.clone();
            handles.push(std::thread::spawn(move || {
                // Each thread folds 1000 values privately, contributes once.
                let mut partial = acc.identity();
                for i in 0..1000 {
                    partial += t * 1000 + i;
                }
                acc.contribute(partial);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let expect: i64 = 100 + (0..8000i64).sum::<i64>();
        let acc = Arc::into_inner(acc).expect("every contributor joined");
        assert_eq!(acc.into_inner(), expect);
    }

    #[test]
    fn redvar_preserves_initial_value() {
        // OpenMP: the original variable's value participates in the final
        // combine.
        let acc = RedVar::new(41i32, SumOp);
        acc.contribute(1);
        assert_eq!(acc.into_inner(), 42);
    }

    #[test]
    fn redvar_min_max_float() {
        let acc = RedVar::new(f64::INFINITY, MinOp);
        acc.contribute(3.5);
        acc.contribute(-2.0);
        acc.contribute(10.0);
        assert_eq!(acc.into_inner(), -2.0);
    }
}
