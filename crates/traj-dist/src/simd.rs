//! Run-time ISA dispatch for the lane-blocked kernels.
//!
//! SSPD's and Hausdorff's point loops and the lockstep wavefront are
//! branch-free loops over independent `f64` lanes, written once in
//! portable code. [`widest`] runs such a loop compiled for AVX2 where the
//! CPU has it: the closure is inlined into one
//! `#[target_feature(enable = "avx2")]` function, so LLVM emits packed
//! instructions for the identical IEEE expressions. Rust never contracts
//! to FMA, so both instantiations return the same bits; each kernel's
//! `portable_and_avx2_*_agree_bit_for_bit` test compares
//! `widest(|| k(..))` with `k(..)` on an AVX2 host.

/// Whether the CPU supports AVX2 (never, off x86_64).
pub(crate) fn has_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Runs `f` compiled for the widest ISA the CPU supports. The kernels `f`
/// calls are `#[inline(always)]`, so the whole loop nest, not a call,
/// lands in the AVX2 instantiation. `f` should capture only inputs and
/// let the kernel own its scratch and output buffers: see
/// `matrix::wavefront::lockstep` for the cost of capturing `&mut` ones.
#[inline(always)]
#[allow(unsafe_code)]
pub(crate) fn widest<R>(f: impl FnOnce() -> R) -> R {
    #[cfg(target_arch = "x86_64")]
    if has_avx2() {
        // SAFETY: `avx2`'s one precondition, that the CPU supports AVX2,
        // was just detected at run time; its body is safe code.
        return unsafe { avx2(f) };
    }
    f()
}

/// `f()` with AVX2 enabled for everything inlined into it. Calling it is
/// `unsafe` because its instructions fault on a CPU without AVX2:
/// callers check [`has_avx2`] first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn avx2<R>(f: impl FnOnce() -> R) -> R {
    f()
}
