//! The "linker": name mangling, by-reference arguments, symbol registry.

use parking_lot::RwLock;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Apply the f77 name-mangling rule the paper uses: lowercase the name
/// and append an underscore (`CONJ_GRAD` → `conj_grad_`).
pub fn mangle(name: &str) -> String {
    let mut s = name.to_ascii_lowercase();
    s.push('_');
    s
}

/// An owned scalar that can be passed by reference, Fortran-style.
/// Fortran passes *everything* by reference, so even an integer literal
/// argument needs an addressable home.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArgVal {
    /// `INTEGER*4`
    I32(i32),
    /// `INTEGER*8`
    I64(i64),
    /// `DOUBLE PRECISION`
    F64(f64),
}

impl ArgVal {
    /// Borrow this value as a by-reference argument.
    pub fn by_ref(&self) -> ArgRef<'_> {
        match self {
            ArgVal::I32(v) => ArgRef::I32(v),
            ArgVal::I64(v) => ArgRef::I64(v),
            ArgVal::F64(v) => ArgRef::F64(v),
        }
    }

    /// Borrow mutably (for `INTENT(OUT)`/`INTENT(INOUT)` arguments).
    pub fn by_ref_mut(&mut self) -> ArgRef<'_> {
        match self {
            ArgVal::I32(v) => ArgRef::I32Mut(v),
            ArgVal::I64(v) => ArgRef::I64Mut(v),
            ArgVal::F64(v) => ArgRef::F64Mut(v),
        }
    }
}

/// A by-reference argument, the only kind a "Fortran" procedure accepts.
#[derive(Debug)]
pub enum ArgRef<'a> {
    /// `INTEGER*4`, read-only.
    I32(&'a i32),
    /// `INTEGER*4`, writable.
    I32Mut(&'a mut i32),
    /// `INTEGER*8`, read-only.
    I64(&'a i64),
    /// `INTEGER*8`, writable.
    I64Mut(&'a mut i64),
    /// `DOUBLE PRECISION`, read-only.
    F64(&'a f64),
    /// `DOUBLE PRECISION`, writable.
    F64Mut(&'a mut f64),
    /// `DOUBLE PRECISION` array, read-only.
    F64Slice(&'a [f64]),
    /// `DOUBLE PRECISION` array, writable.
    F64SliceMut(&'a mut [f64]),
    /// `INTEGER*4` array, read-only (a default-kind `integer a(n)`).
    I32Slice(&'a [i32]),
    /// `INTEGER*8` array, read-only.
    I64Slice(&'a [i64]),
    /// `INTEGER*8` array, writable.
    I64SliceMut(&'a mut [i64]),
}

impl ArgRef<'_> {
    /// Read an integer argument (either width).
    pub fn as_i64(&self) -> i64 {
        match self {
            ArgRef::I32(v) => **v as i64,
            ArgRef::I32Mut(v) => **v as i64,
            ArgRef::I64(v) => **v,
            ArgRef::I64Mut(v) => **v,
            other => panic!("Fortran argument type mismatch: expected INTEGER, got {other:?}"),
        }
    }

    /// Read a double-precision argument.
    pub fn as_f64(&self) -> f64 {
        match self {
            ArgRef::F64(v) => **v,
            ArgRef::F64Mut(v) => **v,
            other => {
                panic!("Fortran argument type mismatch: expected DOUBLE PRECISION, got {other:?}")
            }
        }
    }

    /// Write through a writable scalar argument.
    pub fn set_f64(&mut self, value: f64) {
        match self {
            ArgRef::F64Mut(v) => **v = value,
            other => panic!("Fortran argument not writable DOUBLE PRECISION: {other:?}"),
        }
    }

    /// Write through a writable integer argument.
    pub fn set_i64(&mut self, value: i64) {
        match self {
            ArgRef::I64Mut(v) => **v = value,
            ArgRef::I32Mut(v) => **v = value as i32,
            other => panic!("Fortran argument not writable INTEGER: {other:?}"),
        }
    }

    /// Read-only view of a double array argument.
    pub fn as_f64_slice(&self) -> &[f64] {
        match self {
            ArgRef::F64Slice(v) => v,
            ArgRef::F64SliceMut(v) => v,
            other => panic!("Fortran argument type mismatch: expected REAL*8 array, got {other:?}"),
        }
    }

    /// Writable view of a double array argument.
    pub fn as_f64_slice_mut(&mut self) -> &mut [f64] {
        match self {
            ArgRef::F64SliceMut(v) => v,
            other => panic!("Fortran argument not a writable REAL*8 array: {other:?}"),
        }
    }

    /// Read-only view of an `INTEGER*4` array argument. Array widths do
    /// not coerce (unlike scalars): the callee indexes the caller's
    /// storage in place.
    pub fn as_i32_slice(&self) -> &[i32] {
        match self {
            ArgRef::I32Slice(v) => v,
            other => {
                panic!("Fortran argument type mismatch: expected INTEGER*4 array, got {other:?}")
            }
        }
    }

    /// Read-only view of an integer array argument.
    pub fn as_i64_slice(&self) -> &[i64] {
        match self {
            ArgRef::I64Slice(v) => v,
            ArgRef::I64SliceMut(v) => v,
            other => {
                panic!("Fortran argument type mismatch: expected INTEGER*8 array, got {other:?}")
            }
        }
    }

    /// Writable view of an integer array argument.
    pub fn as_i64_slice_mut(&mut self) -> &mut [i64] {
        match self {
            ArgRef::I64SliceMut(v) => v,
            other => panic!("Fortran argument not a writable INTEGER*8 array: {other:?}"),
        }
    }
}

/// A "Fortran" procedure body.
pub type Proc = Arc<dyn for<'a, 'b> Fn(&'a mut [ArgRef<'b>]) + Send + Sync>;

/// Errors from [`Registry::call`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallError {
    /// The mangled name is not registered — the moral equivalent of an
    /// `undefined reference to `name_'` link error.
    UnresolvedSymbol(String),
    /// The caller used an unmangled name; real linkers would not find it
    /// either, but we give a friendlier diagnostic.
    MissingMangling(String),
}

impl fmt::Display for CallError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CallError::UnresolvedSymbol(n) => write!(f, "undefined reference to `{n}'"),
            CallError::MissingMangling(n) => write!(
                f,
                "undefined reference to `{n}' (hint: Fortran symbols are lowercase with a \
                 trailing underscore; did you mean `{}`?)",
                mangle(n)
            ),
        }
    }
}

impl std::error::Error for CallError {}

/// A symbol table of "Fortran" procedures.
#[derive(Default)]
pub struct Registry {
    symbols: RwLock<HashMap<String, Proc>>,
}

impl Registry {
    /// Empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Register a procedure under its *Fortran source* name; it becomes
    /// callable under the mangled name only.
    pub fn register<F>(&self, name: &str, body: F)
    where
        F: for<'a, 'b> Fn(&'a mut [ArgRef<'b>]) + Send + Sync + 'static,
    {
        self.symbols.write().insert(mangle(name), Arc::new(body));
    }

    /// Is a mangled symbol present?
    pub fn resolves(&self, mangled: &str) -> bool {
        self.symbols.read().contains_key(mangled)
    }

    /// Call a procedure by its **mangled** name with by-reference
    /// arguments.
    pub fn call(&self, mangled: &str, args: &mut [ArgRef<'_>]) -> Result<(), CallError> {
        let proc = {
            let map = self.symbols.read();
            match map.get(mangled) {
                Some(p) => p.clone(),
                None => {
                    return Err(if map.contains_key(&mangle(mangled)) {
                        CallError::MissingMangling(mangled.to_string())
                    } else {
                        CallError::UnresolvedSymbol(mangled.to_string())
                    });
                }
            }
        };
        proc(args);
        Ok(())
    }

    /// Number of registered symbols.
    pub fn len(&self) -> usize {
        self.symbols.read().len()
    }

    /// Is the registry empty?
    pub fn is_empty(&self) -> bool {
        self.symbols.read().is_empty()
    }
}

/// The process-wide registry ("the Fortran object files we linked in").
/// The BLAS-ish kernels in [`crate::blas`] are pre-registered.
pub fn global_registry() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let r = Registry::new();
        crate::blas::register_all(&r);
        r
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mangling_rule() {
        assert_eq!(mangle("CONJ_GRAD"), "conj_grad_");
        assert_eq!(mangle("daxpy"), "daxpy_");
        assert_eq!(mangle("MixedCase"), "mixedcase_");
    }

    #[test]
    fn register_and_call_by_mangled_name() {
        let r = Registry::new();
        r.register("TWICE", |args| {
            let v = args[0].as_f64();
            args[1].set_f64(2.0 * v);
        });
        assert!(r.resolves("twice_"));
        assert!(!r.resolves("TWICE"));
        let x = ArgVal::F64(21.0);
        let mut out = ArgVal::F64(0.0);
        r.call("twice_", &mut [x.by_ref(), out.by_ref_mut()])
            .unwrap();
        assert_eq!(out, ArgVal::F64(42.0));
    }

    #[test]
    fn unmangled_call_fails_with_hint() {
        let r = Registry::new();
        r.register("SAXPY", |_| {});
        let err = r.call("SAXPY", &mut []).unwrap_err();
        match &err {
            CallError::MissingMangling(n) => assert_eq!(n, "SAXPY"),
            other => panic!("unexpected: {other:?}"),
        }
        let msg = r.call("saxpy", &mut []).unwrap_err().to_string();
        assert!(
            msg.contains("saxpy_"),
            "hint should suggest mangled name: {msg}"
        );
    }

    #[test]
    fn unresolved_symbol_reads_like_a_link_error() {
        let r = Registry::new();
        let msg = r.call("nope_", &mut []).unwrap_err().to_string();
        assert!(msg.contains("undefined reference"), "{msg}");
    }

    #[test]
    fn scalar_roundtrip_by_reference() {
        let mut v = ArgVal::I64(7);
        {
            let mut r = v.by_ref_mut();
            assert_eq!(r.as_i64(), 7);
            r.set_i64(9);
        }
        assert_eq!(v, ArgVal::I64(9));
    }

    #[test]
    fn i32_width_coercion() {
        let v = ArgVal::I32(-5);
        assert_eq!(v.by_ref().as_i64(), -5);
        let mut w = ArgVal::I32(0);
        w.by_ref_mut().set_i64(123);
        assert_eq!(w, ArgVal::I32(123));
    }

    #[test]
    fn i32_array_is_passed_in_place() {
        let r = Registry::new();
        // ISUM(N, IA(N), SUM, ADDR): the callee sees the caller's storage.
        r.register("ISUM", |args| {
            let n = args[0].as_i64() as usize;
            let ia = args[1].as_i32_slice();
            let sum: i64 = ia[..n].iter().map(|&v| v as i64).sum();
            let addr = ia.as_ptr() as i64;
            args[2].set_i64(sum);
            args[3].set_i64(addr);
        });
        let ia = [3i32, -1, 40];
        let n = ArgVal::I32(3);
        let (mut sum, mut addr) = (ArgVal::I64(0), ArgVal::I64(0));
        r.call(
            "isum_",
            &mut [
                n.by_ref(),
                ArgRef::I32Slice(&ia),
                sum.by_ref_mut(),
                addr.by_ref_mut(),
            ],
        )
        .unwrap();
        assert_eq!(sum, ArgVal::I64(42));
        assert_eq!(addr, ArgVal::I64(ia.as_ptr() as i64), "no copy was made");
    }

    #[test]
    #[should_panic(expected = "expected INTEGER*4 array")]
    fn i32_array_does_not_coerce_from_i64() {
        let wide = [1i64, 2];
        ArgRef::I64Slice(&wide).as_i32_slice();
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn type_mismatch_panics() {
        let v = ArgVal::F64(1.0);
        v.by_ref().as_i64();
    }

    #[test]
    fn global_registry_has_blas() {
        let g = global_registry();
        for sym in ["daxpy_", "ddot_", "dnrm2_", "dscal_", "dgemv_", "dcopy_"] {
            assert!(g.resolves(sym), "missing pre-registered symbol {sym}");
        }
    }
}
