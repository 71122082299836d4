//! NPB problem classes and per-benchmark parameter tables.
//!
//! The numbers are the official NPB 3.x parameters; the verification
//! constants live with each kernel. Class C is what the paper measures
//! (Table 1); S and W are the laptop-scale classes the test suite uses.

use std::fmt;
use std::str::FromStr;
use std::sync::OnceLock;

/// NPB problem class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    /// Sample (smallest).
    S,
    /// Workstation.
    W,
    /// Standard class A.
    A,
    /// Standard class B.
    B,
    /// Standard class C (the paper's size).
    C,
}

impl fmt::Display for Class {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Class::S => "S",
            Class::W => "W",
            Class::A => "A",
            Class::B => "B",
            Class::C => "C",
        })
    }
}

impl FromStr for Class {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_uppercase().as_str() {
            "S" => Ok(Class::S),
            "W" => Ok(Class::W),
            "A" => Ok(Class::A),
            "B" => Ok(Class::B),
            "C" => Ok(Class::C),
            other => Err(format!("unknown NPB class `{other}` (use S, W, A, B or C)")),
        }
    }
}

/// A value computed at most once per class — the memo behind each
/// kernel's verification value. A first caller computes; concurrent
/// first callers of the same class wait for it instead of computing
/// again, and every later call is one atomic load.
pub struct PerClass<T>([OnceLock<T>; 5]);

impl<T> PerClass<T> {
    /// An empty memo (usable in a `static`).
    pub const fn new() -> Self {
        PerClass([const { OnceLock::new() }; 5])
    }

    /// The value for `class`, computing it with `init` on first use.
    pub fn get_or_init(&self, class: Class, init: impl FnOnce() -> T) -> &T {
        self.0[class as usize].get_or_init(init)
    }
}

impl<T> Default for PerClass<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// CG parameters (`cg.f` / `npbparams.h`).
#[derive(Debug, Clone, Copy)]
pub struct CgParams {
    /// Matrix order. The matrix is stored with `INTEGER*4` indices (12
    /// bytes per nonzero: class A is ~22 MB, class C ~440 MB), which
    /// every class fits with room to spare.
    pub na: usize,
    /// Nonzeros per generated row vector.
    pub nonzer: usize,
    /// Outer (power-method) iterations.
    pub niter: usize,
    /// Eigenvalue shift.
    pub shift: f64,
    /// Reference ζ for verification.
    pub zeta_verify: f64,
}

impl Class {
    /// CG parameter table.
    pub fn cg(self) -> CgParams {
        match self {
            Class::S => CgParams {
                na: 1400,
                nonzer: 7,
                niter: 15,
                shift: 10.0,
                zeta_verify: 8.5971775078648,
            },
            Class::W => CgParams {
                na: 7000,
                nonzer: 8,
                niter: 15,
                shift: 12.0,
                zeta_verify: 10.362595087124,
            },
            Class::A => CgParams {
                na: 14000,
                nonzer: 11,
                niter: 15,
                shift: 20.0,
                zeta_verify: 17.130235054029,
            },
            Class::B => CgParams {
                na: 75000,
                nonzer: 13,
                niter: 75,
                shift: 60.0,
                zeta_verify: 22.712745482631,
            },
            Class::C => CgParams {
                na: 150000,
                nonzer: 15,
                niter: 75,
                shift: 110.0,
                zeta_verify: 28.973605592845,
            },
        }
    }

    /// EP: `log2` of the number of Gaussian pairs (`M` in `ep.f`).
    pub fn ep_m(self) -> u32 {
        match self {
            Class::S => 24,
            Class::W => 25,
            Class::A => 28,
            Class::B => 30,
            Class::C => 32,
        }
    }

    /// IS: `(log2 total keys, log2 max key)` from `npbparams.h`.
    pub fn is_params(self) -> (u32, u32) {
        match self {
            Class::S => (16, 11),
            Class::W => (20, 16),
            Class::A => (23, 19),
            Class::B => (25, 21),
            Class::C => (27, 23),
        }
    }

    /// Mandelbrot grid edge for the paper's non-NPB benchmark, scaled
    /// so class C is a few seconds of work per the paper's Table 1.
    pub fn mandelbrot_size(self) -> (usize, usize, u32) {
        // (width, height, max_iter)
        match self {
            Class::S => (256, 256, 2_000),
            Class::W => (512, 512, 3_000),
            Class::A => (1024, 1024, 5_000),
            Class::B => (2048, 2048, 8_000),
            Class::C => (4096, 4096, 10_000),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_parses_case_insensitive() {
        assert_eq!("a".parse::<Class>().unwrap(), Class::A);
        assert_eq!(" C ".parse::<Class>().unwrap(), Class::C);
        assert!("Z".parse::<Class>().is_err());
    }

    #[test]
    fn display_round_trips() {
        for c in [Class::S, Class::W, Class::A, Class::B, Class::C] {
            assert_eq!(c.to_string().parse::<Class>().unwrap(), c);
        }
    }

    #[test]
    fn cg_tables_monotone() {
        let classes = [Class::S, Class::W, Class::A, Class::B, Class::C];
        for w in classes.windows(2) {
            assert!(w[0].cg().na < w[1].cg().na);
            assert!(w[0].ep_m() < w[1].ep_m());
            assert!(w[0].is_params().0 < w[1].is_params().0);
        }
    }

    #[test]
    fn per_class_memo_computes_once_per_class() {
        static MEMO: PerClass<usize> = PerClass::new();
        let calls = std::sync::atomic::AtomicUsize::new(0);
        let get = |c: Class| {
            *MEMO.get_or_init(c, || {
                calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                c as usize * 10
            })
        };
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    for c in [Class::S, Class::W, Class::C, Class::S] {
                        assert_eq!(get(c), c as usize * 10);
                    }
                });
            }
        });
        assert_eq!(calls.into_inner(), 3, "S, W and C once each");
    }

    #[test]
    fn cg_class_c_matches_paper_scale() {
        let c = Class::C.cg();
        assert_eq!(c.na, 150_000);
        assert_eq!(c.nonzer, 15);
        assert_eq!(c.niter, 75);
    }
}
