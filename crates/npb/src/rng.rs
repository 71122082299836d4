//! The NPB pseudorandom number generator.
//!
//! NPB defines the linear congruential generator
//! `x_{k+1} = a · x_k  (mod 2^46)` with `a = 5^13 = 1220703125`, and
//! derives uniform doubles `r_k = x_k · 2^-46 ∈ (0, 1)`. The Fortran
//! `randlc` computes the 46-bit product with double-precision splitting
//! tricks; 46 bits fit comfortably in integer arithmetic, so we compute
//! the *same* sequence exactly with a 128-bit multiply — bit-identical
//! results, considerably faster.
//!
//! [`skip_ahead`] jumps the generator `n` steps in O(log n) (square-and-
//! multiply on the multiplier), which is how the parallel EP and IS
//! implementations give each thread an independent, *deterministically
//! placed* slice of the global stream — the same leapfrogging the NPB
//! reference codes do with their `randlc(t2, t2)` doubling loops.
//!
//! The same leapfrog, at stride `L = FILL_CHAINS` (4) instead of a block,
//! drives [`Randlc::fill`] (`vranlc`) and [`Randlc::fill_symbols`] (the
//! integer quantizer behind the SW sequences and the FS haystack): `L`
//! chains stepping by `A^L`
//! produce the values `x_{j+1}, x_{j+1+L}, …` interleaved, which is the
//! serial sequence itself, so a batch fill costs `L` overlapping
//! multiplies per `L` values instead of `L` dependent ones.

/// The NPB multiplier, `5^13`.
pub const A: u64 = 1_220_703_125;
/// Default seed used by CG and IS (`314159265`).
pub const SEED_CG: u64 = 314_159_265;
/// Seed used by EP (`271828183`).
pub const SEED_EP: u64 = 271_828_183;

const MOD_MASK: u64 = (1 << 46) - 1;
const R46: f64 = 1.0 / (1u64 << 46) as f64;

/// Interleaved generator chains in [`Randlc::fill`].
const FILL_CHAINS: usize = 4;
/// The chain stride multiplier `A^FILL_CHAINS mod 2^46`.
const A_FILL: u64 = pow_mod46(A, FILL_CHAINS as u64);

/// A state as the uniform `x · 2^-46`. States are below 2^46, so the
/// conversion is exact and the signed one (a single instruction) gives
/// the same bits as the unsigned one.
#[inline]
fn to_unit(x: u64) -> f64 {
    x as i64 as f64 * R46
}

/// The generator state (the Fortran code keeps this in a `DOUBLE
/// PRECISION` variable; we keep the integer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Randlc {
    x: u64,
}

impl Randlc {
    /// Start from a seed (must be odd and < 2^46, like NPB's seeds).
    pub fn new(seed: u64) -> Self {
        Randlc { x: seed & MOD_MASK }
    }

    /// Current raw state.
    pub fn state(&self) -> u64 {
        self.x
    }

    /// Advance once and return the uniform double in (0,1) —
    /// the `randlc(x, a)` call.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        self.x = mul_mod46(self.x, A);
        to_unit(self.x)
    }

    /// Advance once with an arbitrary multiplier (used by the seed
    /// jumping loops in the Fortran codes).
    #[inline]
    pub fn next_with(&mut self, mult: u64) -> f64 {
        self.x = mul_mod46(self.x, mult);
        to_unit(self.x)
    }

    /// Fill `out` with consecutive uniforms — the `vranlc` call.
    ///
    /// The values are produced by `L = FILL_CHAINS` interleaved LCG
    /// chains: chain `j` starts at `x_{j+1}` and steps by the multiplier
    /// `A^L` (`x_{k+L} = x_k · A^L mod 2^46`), so chain `j` writes
    /// `out[j], out[j+L], …`. The chains are independent, so their
    /// multiplies overlap instead of forming one serial dependency; the
    /// integer sequence — and hence every output bit and the state left
    /// behind — is exactly that of calling [`Randlc::next_f64`]
    /// `out.len()` times.
    pub fn fill(&mut self, out: &mut [f64]) {
        self.fill_map(out, to_unit);
    }

    /// Fill `out` with consecutive symbols of a `2^bits`-letter alphabet
    /// (`bits` in `1..=8`): the top `bits` bits of each state,
    /// `x >> (46 − bits)`, produced by the same interleaved chains as
    /// [`Randlc::fill`].
    ///
    /// Each symbol is exactly the float quantizer
    /// `((next_f64() · 2^bits) as u8).min(2^bits − 1)`: the state is
    /// below 2^46, so `x · 2^-46` and its product with the power of two
    /// `2^bits` are exact, and the product's floor is `x >> (46 − bits)`,
    /// which is already below `2^bits`, so the clamp never applies.
    pub fn fill_symbols(&mut self, bits: u32, out: &mut [u8]) {
        assert!((1..=8).contains(&bits), "{bits}-bit symbols");
        self.fill_map(out, |x| (x >> (46 - bits)) as u8);
    }

    /// The next `out.len()` states, each mapped through `f`, by
    /// `FILL_CHAINS` interleaved chains (see [`Randlc::fill`]).
    #[inline(always)]
    fn fill_map<T>(&mut self, out: &mut [T], f: impl Fn(u64) -> T) {
        let mut chains = [0u64; FILL_CHAINS];
        let mut x = self.x;
        for c in chains.iter_mut() {
            x = mul_mod46(x, A);
            *c = x;
        }
        let mut blocks = out.chunks_exact_mut(FILL_CHAINS);
        for block in &mut blocks {
            for (v, c) in block.iter_mut().zip(chains.iter_mut()) {
                *v = f(*c);
                *c = mul_mod46(*c, A_FILL);
            }
        }
        for (v, &c) in blocks.into_remainder().iter_mut().zip(&chains) {
            *v = f(c);
        }
        self.skip(out.len() as u64);
    }

    /// Jump the stream forward by `n` steps in O(log n).
    pub fn skip(&mut self, n: u64) {
        self.x = mul_mod46(self.x, pow_mod46(A, n));
    }
}

/// `(a * b) mod 2^46` exactly.
#[inline]
pub const fn mul_mod46(a: u64, b: u64) -> u64 {
    ((a as u128 * b as u128) & MOD_MASK as u128) as u64
}

/// `a^n mod 2^46` by square-and-multiply.
pub const fn pow_mod46(a: u64, mut n: u64) -> u64 {
    let mut base = a & MOD_MASK;
    let mut acc: u64 = 1;
    while n > 0 {
        if n & 1 == 1 {
            acc = mul_mod46(acc, base);
        }
        base = mul_mod46(base, base);
        n >>= 1;
    }
    acc
}

/// The state after jumping `n` steps from `seed` (without constructing
/// intermediate states).
pub fn skip_ahead(seed: u64, n: u64) -> u64 {
    mul_mod46(seed & MOD_MASK, pow_mod46(A, n))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference `randlc` transcribed from the NPB Fortran double-split
    /// implementation, used to prove our integer version bit-identical.
    fn randlc_fortran(x: &mut f64, a: f64) -> f64 {
        let r23 = 1.0 / 8388608.0; // 2^-23
        let r46 = r23 * r23;
        let t23 = 8388608.0;
        let t46 = t23 * t23;
        // Break A into two parts: A = 2^23 * A1 + A2.
        let t1 = r23 * a;
        let a1 = t1.trunc();
        let a2 = a - t23 * a1;
        // Break X into two parts, compute Z = A1*X2 + A2*X1 (mod 2^23),
        // then X = 2^23*Z + A2*X2 (mod 2^46).
        let t1 = r23 * *x;
        let x1 = t1.trunc();
        let x2 = *x - t23 * x1;
        let t1 = a1 * x2 + a2 * x1;
        let t2 = (r23 * t1).trunc();
        let z = t1 - t23 * t2;
        let t3 = t23 * z + a2 * x2;
        let t4 = (r46 * t3).trunc();
        *x = t3 - t46 * t4;
        r46 * *x
    }

    #[test]
    fn integer_randlc_matches_fortran_double_trick() {
        let mut ours = Randlc::new(SEED_EP);
        let mut theirs = SEED_EP as f64;
        for i in 0..10_000 {
            let a = ours.next_f64();
            let b = randlc_fortran(&mut theirs, A as f64);
            assert_eq!(a.to_bits(), b.to_bits(), "diverged at step {i}");
            assert_eq!(ours.state(), theirs as u64);
        }
    }

    #[test]
    fn outputs_are_in_unit_interval() {
        let mut r = Randlc::new(SEED_CG);
        for _ in 0..1000 {
            let v = r.next_f64();
            assert!(v > 0.0 && v < 1.0);
        }
    }

    #[test]
    fn skip_equals_stepping() {
        for n in [0u64, 1, 2, 7, 100, 12345] {
            let mut stepped = Randlc::new(SEED_EP);
            for _ in 0..n {
                stepped.next_f64();
            }
            let mut skipped = Randlc::new(SEED_EP);
            skipped.skip(n);
            assert_eq!(stepped.state(), skipped.state(), "n={n}");
        }
    }

    #[test]
    fn skip_ahead_composes() {
        let s1 = skip_ahead(SEED_CG, 1000);
        let s2 = skip_ahead(s1, 2345);
        assert_eq!(s2, skip_ahead(SEED_CG, 3345));
    }

    #[test]
    fn pow_mod46_basics() {
        assert_eq!(pow_mod46(A, 0), 1);
        assert_eq!(pow_mod46(A, 1), A);
        assert_eq!(pow_mod46(A, 2), mul_mod46(A, A));
    }

    #[test]
    fn fill_matches_individual_draws() {
        const L: usize = FILL_CHAINS;
        for len in [0, 1, L - 1, L, L + 1, 2 * L + 3, 257] {
            let mut a = Randlc::new(SEED_EP);
            let mut b = Randlc::new(SEED_EP);
            let mut buf = vec![0.0; len];
            a.fill(&mut buf);
            for (i, &v) in buf.iter().enumerate() {
                assert_eq!(v.to_bits(), b.next_f64().to_bits(), "len {len}, index {i}");
            }
            assert_eq!(a.state(), b.state(), "state after len {len}");
            // A second fill continues the stream where the first stopped.
            let mut more = [0.0; 3];
            a.fill(&mut more);
            for &v in &more {
                assert_eq!(v.to_bits(), b.next_f64().to_bits(), "after len {len}");
            }
        }
    }

    #[test]
    fn fill_symbols_equals_the_float_quantizer() {
        for bits in [2, 4] {
            let top = (1u8 << bits) - 1;
            let mut ints = Randlc::new(SEED_EP);
            let mut floats = Randlc::new(SEED_EP);
            // Not a multiple of the chain count: the remainder path too.
            let mut syms = vec![0u8; 1_000_003];
            ints.fill_symbols(bits, &mut syms);
            for (i, &s) in syms.iter().enumerate() {
                let want = ((floats.next_f64() * f64::from(1u32 << bits)) as u8).min(top);
                assert_eq!(s, want, "bits {bits}, draw {i}");
            }
            assert_eq!(ints.state(), floats.state());
        }
    }

    #[test]
    fn known_first_value() {
        // x1 = a * seed mod 2^46 for the EP seed; sanity-pin the stream.
        let mut r = Randlc::new(SEED_EP);
        let v = r.next_f64();
        let expect = mul_mod46(SEED_EP, A) as f64 / (1u64 << 46) as f64;
        assert_eq!(v, expect);
    }
}
