//! Capability / preference / requirement flags.
//!
//! Mirrors the `BEAGLE_FLAG_*` bitmask of the C API: a client describes what
//! it *requires* and what it *prefers*, and the implementation manager picks
//! the best matching back-end. Implementations report the flags they actually
//! honoured in [`crate::api::InstanceDetails`].

use std::fmt;
use std::ops::{BitAnd, BitOr, BitOrAssign};

/// A set of capability flags (bitmask newtype).
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Flags(pub u64);

macro_rules! flags {
    ($($(#[$doc:meta])* $name:ident = $bit:expr;)*) => {
        impl Flags {
            $( $(#[$doc])* pub const $name: Flags = Flags(1 << $bit); )*

            /// Name/value table for formatting.
            const TABLE: &'static [(&'static str, u64)] = &[
                $( (stringify!($name), 1 << $bit), )*
            ];
        }
    };
}

flags! {
    /// Single-precision (f32) computation.
    PRECISION_SINGLE = 0;
    /// Double-precision (f64) computation.
    PRECISION_DOUBLE = 1;
    /// Runs on a conventional CPU.
    PROCESSOR_CPU = 2;
    /// Runs on a GPU device.
    PROCESSOR_GPU = 3;
    /// Runs on a manycore (Xeon Phi class) processor.
    PROCESSOR_PHI = 4;
    /// Uses the (simulated) CUDA framework.
    FRAMEWORK_CUDA = 5;
    /// Uses the (simulated) OpenCL framework.
    FRAMEWORK_OPENCL = 6;
    /// Plain host code, no external framework.
    FRAMEWORK_CPU = 7;
    /// No vectorization.
    VECTOR_NONE = 8;
    /// SSE-style short-vector arithmetic.
    VECTOR_SSE = 9;
    /// Single-threaded execution.
    THREADING_NONE = 10;
    /// C++-threads style: asynchronous futures, one per tree operation.
    THREADING_FUTURES = 11;
    /// C++-threads style: threads created and joined per API call.
    THREADING_THREAD_CREATE = 12;
    /// C++-threads style: persistent thread pool (the paper's winner).
    THREADING_THREAD_POOL = 13;
    /// Manual per-operation rescaling is available.
    SCALING_MANUAL = 14;
    /// Implementation may pad patterns to a work-group multiple.
    PATTERN_PADDING = 15;
    /// Eager execution: every API call runs to completion before returning
    /// (the default). Mutually exclusive with `COMPUTATION_ASYNCH`.
    COMPUTATION_SYNCH = 16;
    /// Asynchronous execution, as in the C API. Accepted for compatibility
    /// and run eager: the implementation manager strips it before
    /// selection, so it selects, computes and reports exactly like
    /// `COMPUTATION_SYNCH`.
    COMPUTATION_ASYNCH = 17;
    /// AVX2+FMA wide-vector arithmetic (runtime-detected).
    VECTOR_AVX2 = 18;
    /// Collect per-kernel timing/counter statistics and an event journal
    /// for this instance (see `crate::obs`). Handled at creation by the
    /// implementation manager and factories, not a hardware capability.
    INSTANCE_STATS = 19;
    /// Pin this instance to the scalar kernel path, bypassing SIMD
    /// dispatch (A/B comparisons, numerical triage). The typed form of the
    /// `BEAGLE_FORCE_SCALAR` environment variable, which still overrides it
    /// when set (see `crate::spec` for the precedence rules). Handled at
    /// creation like `INSTANCE_STATS`: forwarded to factories, never
    /// ranked or filtered on.
    KERNEL_SCALAR = 20;
}

impl Flags {
    /// The empty flag set.
    pub const NONE: Flags = Flags(0);

    /// True if every bit of `other` is present in `self`.
    pub fn contains(self, other: Flags) -> bool {
        self.0 & other.0 == other.0
    }

    /// True if any bit of `other` is present in `self`.
    pub fn intersects(self, other: Flags) -> bool {
        self.0 & other.0 != 0
    }

    /// Number of set bits (used for preference scoring).
    pub fn bit_count(self) -> u32 {
        self.0.count_ones()
    }

    /// True if no flags are set.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The set difference: every bit of `self` that is not in `other`.
    pub fn without(self, other: Flags) -> Flags {
        Flags(self.0 & !other.0)
    }
}

impl BitOr for Flags {
    type Output = Flags;
    fn bitor(self, rhs: Flags) -> Flags {
        Flags(self.0 | rhs.0)
    }
}

impl BitOrAssign for Flags {
    fn bitor_assign(&mut self, rhs: Flags) {
        self.0 |= rhs.0;
    }
}

impl BitAnd for Flags {
    type Output = Flags;
    fn bitand(self, rhs: Flags) -> Flags {
        Flags(self.0 & rhs.0)
    }
}

impl fmt::Debug for Flags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "NONE");
        }
        let mut first = true;
        for &(name, bit) in Flags::TABLE {
            if self.0 & bit != 0 {
                if !first {
                    write!(f, "|")?;
                }
                write!(f, "{name}")?;
                first = false;
            }
        }
        Ok(())
    }
}

impl fmt::Display for Flags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contains_and_intersects() {
        let f = Flags::PROCESSOR_CPU | Flags::PRECISION_DOUBLE;
        assert!(f.contains(Flags::PROCESSOR_CPU));
        assert!(f.contains(Flags::PROCESSOR_CPU | Flags::PRECISION_DOUBLE));
        assert!(!f.contains(Flags::PROCESSOR_GPU));
        assert!(f.intersects(Flags::PROCESSOR_GPU | Flags::PRECISION_DOUBLE));
        assert!(!f.intersects(Flags::PROCESSOR_GPU));
    }

    #[test]
    fn empty_set_behaviour() {
        assert!(Flags::NONE.is_empty());
        assert!(Flags::PROCESSOR_CPU.contains(Flags::NONE));
        assert!(!Flags::NONE.intersects(Flags::PROCESSOR_CPU));
    }

    #[test]
    fn debug_lists_names() {
        let f = Flags::FRAMEWORK_OPENCL | Flags::PROCESSOR_GPU;
        let s = format!("{f:?}");
        assert!(s.contains("FRAMEWORK_OPENCL") && s.contains("PROCESSOR_GPU"));
        assert_eq!(format!("{:?}", Flags::NONE), "NONE");
    }

    #[test]
    fn all_flags_distinct() {
        let mut seen = std::collections::BTreeSet::new();
        for &(_, bit) in Flags::TABLE {
            assert!(seen.insert(bit), "duplicate flag bit {bit}");
        }
    }
}
