//! One kernel source, compiled once per target.
//!
//! The portable sweeps ([`crate::soa`], [`crate::sparse`], the portable
//! in-place paths of [`crate::inplace`]) are written as plain
//! autovectorizable Rust. The crate-internal `multiversion!` macro
//! compiles each such body twice:
//!
//! * a **baseline** instance for the crate's default target (x86-64:
//!   SSE2, no FMA), and
//! * an **AVX2+FMA** instance — the same body inlined into an `unsafe fn`
//!   under `#[target_feature(enable = "avx2", enable = "fma")]`, so LLVM
//!   vectorizes it with 256-bit lanes and lowers every `f64::mul_add` to a
//!   `vfmadd` instruction.
//!
//! A safe entry point selects the instance once per call from
//! [`Instance::host`] (`is_x86_feature_detected!` caches its answer).
//!
//! # Why both instances are bitwise identical
//!
//! `f64::mul_add` is the IEEE correctly rounded fused multiply–add in both
//! instances; LLVM never contracts a plain `a * b + c` into an FMA (Rust
//! emits no fast-math flags), and the split-loop bodies are element-wise,
//! so vectorization reorders no reduction. The two instances therefore
//! perform the same rounded operations per cell and produce the same bits.
//!
//! On hosts without FMA the baseline instance runs, and each `mul_add`
//! becomes a call into the software `fma` of `compiler_builtins`/libm:
//! slow (the loops stop vectorizing), but still correctly rounded, so a
//! run on such a host is bitwise equal to one on an AVX2+FMA host.

/// A compiled instance of a multiversioned sweep.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum Instance {
    /// Compiled for the crate's baseline target; runs on every host.
    Baseline,
    /// Compiled with AVX2 and FMA enabled; needs a CPU with both.
    Avx2Fma,
}

impl Instance {
    /// The instance the safe entry points run on this host.
    pub(crate) fn host() -> Instance {
        if crate::avx::available() {
            Instance::Avx2Fma
        } else {
            Instance::Baseline
        }
    }

    /// Whether the running CPU can execute this instance.
    pub(crate) fn supported(self) -> bool {
        match self {
            Instance::Baseline => true,
            Instance::Avx2Fma => crate::avx::available(),
        }
    }

    /// Short lowercase label, as printed by tests and reports.
    pub(crate) fn label(self) -> &'static str {
        match self {
            Instance::Baseline => "baseline",
            Instance::Avx2Fma => "avx2-fma",
        }
    }
}

/// Compiles one sweep body per [`Instance`] and emits two functions:
///
/// ```text
/// multiversion! {
///     /// docs
///     pub fn name, name_on(arg: Ty, ...) -> Ret { body }
/// }
/// ```
///
/// `name(args)` runs the host's instance; the crate-visible
/// `name_on(instance, args)` runs an explicit one and panics if the host
/// cannot execute it (used by the bitwise instance tests). Helpers the body calls must be
/// `#[inline(always)]`, or they are compiled for the baseline target only.
macro_rules! multiversion {
    (
        $(#[$attr:meta])*
        $vis:vis fn $name:ident, $name_on:ident ($($arg:ident : $ty:ty),* $(,)?) -> $ret:ty
        $body:block
    ) => {
        $(#[$attr])*
        $vis fn $name($($arg: $ty),*) -> $ret {
            $name_on($crate::multiversion::Instance::host(), $($arg),*)
        }

        /// The sweep above on an explicit compiled instance; panics if the
        /// host cannot run it.
        pub(crate) fn $name_on(instance: $crate::multiversion::Instance, $($arg: $ty),*) -> $ret {
            #[inline(always)]
            fn body($($arg: $ty),*) -> $ret $body

            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx2", enable = "fma")]
            unsafe fn avx2_fma($($arg: $ty),*) -> $ret {
                body($($arg),*)
            }

            match instance {
                $crate::multiversion::Instance::Baseline => body($($arg),*),
                // SAFETY: `supported` checked AVX2 and FMA at run time.
                #[cfg(target_arch = "x86_64")]
                $crate::multiversion::Instance::Avx2Fma if instance.supported() => unsafe {
                    avx2_fma($($arg),*)
                },
                _ => panic!("the {} instance cannot run on this host", instance.label()),
            }
        }
    };
}

pub(crate) use multiversion;

#[cfg(test)]
mod tests {
    use super::Instance;
    use crate::{inplace, soa, sparse};
    use trillium_field::{
        CellFlags, FlagField, FlagOps, PdfField, RowIntervals, Shape, SoaPdfField,
    };
    use trillium_lattice::{Relaxation, D3Q19, MAGIC_TRT};

    /// Rows of 131 cells: not a multiple of the 4 AVX2 lanes, and longer
    /// than one scratch segment (`soa::ROW_CHUNK`).
    fn shape() -> Shape {
        Shape::new(131, 3, 4, 1)
    }

    fn perturbed(shape: Shape) -> SoaPdfField<D3Q19> {
        let mut f = SoaPdfField::<D3Q19>::new(shape);
        f.fill_equilibrium(1.0, [0.03, -0.01, 0.02]);
        for (x, y, z) in shape.with_ghosts().iter() {
            for q in 0..19 {
                let v = f.get(x, y, z, q)
                    + 1e-4 * (((x * 7 + y * 13 + z * 29 + q as i32 * 31) % 17) as f64 - 8.0);
                f.set(x, y, z, q, v);
            }
        }
        f
    }

    /// Runs `sweep` once per instance and asserts bitwise equal fields;
    /// on a host without AVX2+FMA only the baseline exists, so the check
    /// is skipped with a note.
    fn instances_agree(name: &str, sweep: impl Fn(Instance) -> SoaPdfField<D3Q19>) {
        println!("{name}: host runs the {} instance", Instance::host().label());
        if !Instance::Avx2Fma.supported() {
            println!("{name}: skipped, this host has no AVX2+FMA instance to compare");
            return;
        }
        let base = sweep(Instance::Baseline);
        let fma = sweep(Instance::Avx2Fma);
        assert!(
            base.data().iter().zip(fma.data()).all(|(a, b)| a.to_bits() == b.to_bits()),
            "{name}: the avx2-fma instance deviates from the baseline"
        );
    }

    #[test]
    fn soa_trt_instances_are_bitwise_identical() {
        let src = perturbed(shape());
        let rel = Relaxation::trt_from_tau(0.81, MAGIC_TRT);
        instances_agree("soa trt", |inst| {
            let mut dst = SoaPdfField::<D3Q19>::new(shape());
            soa::stream_collide_trt_region_on(inst, &src, &mut dst, rel, &shape().interior());
            dst
        });
    }

    #[test]
    fn soa_srt_instances_are_bitwise_identical() {
        let src = perturbed(shape());
        let rel = Relaxation::srt_from_tau(0.93);
        instances_agree("soa srt", |inst| {
            let mut dst = SoaPdfField::<D3Q19>::new(shape());
            soa::stream_collide_srt_region_on(inst, &src, &mut dst, rel, &shape().interior());
            dst
        });
    }

    #[test]
    fn sparse_row_interval_instances_are_bitwise_identical() {
        let shape = shape();
        let mut flags = FlagField::new(shape);
        for (x, y, z) in shape.interior().iter() {
            // Spans of varied length and offset, one longer than a segment.
            if (x + 3 * y + 5 * z) % 11 != 0 || y == 1 {
                flags.set_flags(x, y, z, CellFlags::FLUID);
            }
        }
        let intervals = RowIntervals::build(&flags);
        let src = perturbed(shape);
        let rel = Relaxation::trt_from_tau(0.77, MAGIC_TRT);
        instances_agree("sparse row intervals", |inst| {
            let mut dst = SoaPdfField::<D3Q19>::new(shape);
            sparse::stream_collide_trt_row_intervals_region_on(
                inst,
                &src,
                &mut dst,
                &intervals,
                rel,
                &shape.interior(),
            );
            dst
        });
    }

    #[test]
    fn inplace_instances_are_bitwise_identical_at_both_parities() {
        let src = perturbed(shape());
        let trt = Relaxation::trt_from_tau(0.79, MAGIC_TRT);
        let srt = Relaxation::srt_from_tau(0.88);
        for parity in [false, true] {
            instances_agree(&format!("inplace trt, parity {parity}"), |inst| {
                let mut f = src.clone();
                f.set_parity(parity);
                inplace::scalar::stream_collide_trt_on(inst, &mut f, trt, &shape().interior());
                f
            });
            instances_agree(&format!("inplace srt, parity {parity}"), |inst| {
                let mut f = src.clone();
                f.set_parity(parity);
                inplace::scalar::stream_collide_srt_on(inst, &mut f, srt, &shape().interior());
                f
            });
        }
    }
}
