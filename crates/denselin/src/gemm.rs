//! Packed, register-blocked general matrix-matrix multiplication.
//!
//! This is the BLAS-3 substitute used by every LU implementation in the
//! workspace. It follows the classic BLIS/GotoBLAS decomposition:
//!
//! * the operands are cut into `(mc, kc, nc)` cache blocks
//!   ([`GemmBlocking::tuned`]: the `DENSELIN_GEMM_BLOCK=mc,kc,nc`
//!   environment override, else persisted per-host tuning via
//!   [`crate::tune`], else [`GemmBlocking::default`]),
//! * `A` blocks are packed into column-major `mr`-row micro-panels and `B`
//!   blocks into row-major `nr`-column micro-panels of the selected
//!   microkernel's geometry, so the innermost loop streams both operands
//!   contiguously,
//! * a register-blocked `mr x nr` microkernel keeps a full tile of `C` in
//!   registers across the whole `kc` reduction. The kernels form a
//!   macro-generated family registered in [`microkernels`]: portable
//!   shapes (4x4, 8x4, 6x8, 8x8) whose bodies LLVM autovectorizes for the
//!   baseline target, the same shapes re-compiled with AVX2+FMA codegen
//!   (runtime feature detection), and a hand-unrolled 8x16 zmm-register
//!   AVX-512 kernel (explicit `_mm512_fmadd_pd` intrinsics, software
//!   prefetch of the packed `A` stream): the wider tile halves the
//!   packed-`A` bandwidth per flop, which is the binding constraint once
//!   the panel no longer fits L1. Dispatch consults [`selected_kernel`]
//!   (forced variant > `DENSELIN_GEMM_KERNEL` env override > persisted
//!   tuning record > fastest supported ISA default).
//!
//! Fringe tiles smaller than `mr x nr` are handled by zero-padding the
//! packed panels and a generic-size edge writeback.
//!
//! Every variant shares one arithmetic contract — per-element accumulation
//! order depends only on the `kc` split and the variant's fused/unfused
//! reduction class, never on the register or cache tiling — so the scalar
//! [`gemm_emulated`] oracle predicts each variant's output bitwise and the
//! parity test layer (`tests/microkernels.rs`) pins every table entry to
//! it exhaustively.
//!
//! One driver, [`gemm_with`], takes the threads, blocking and microkernel
//! explicitly; [`gemm`] (serial) and [`gemm_auto`] (threads by problem
//! size) resolve them once and call it. Parallelism is a work-stealing tile
//! queue: the `(mc, nc)` macro-tiles of `C` form a shared queue (an atomic
//! counter) drained by the persistent [`crate::pool`] worker threads
//! (parked between calls, so a blocked factorization pays one pool wakeup
//! per trailing update instead of one thread spawn per call). Each tile
//! performs its own full-`k` reduction in the same block order as the
//! serial path, so parallel results are bitwise identical to serial ones.
//!
//! Internally the packing and tile-update machinery operates on *strided
//! views* (`MatView`) rather than owned [`Matrix`] values, so in-place
//! consumers (the lookahead LU in [`lu_parallel`][mod@crate::lu_parallel]) can run trailing
//! updates directly on submatrices of the factored buffer without block
//! copies.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use crate::matrix::Matrix;
use crate::pool;

/// A read-only strided view of a row-major block, the operand form of the
/// packing routines. Carries a raw pointer so disjoint regions of one live
/// buffer can be viewed while another region is concurrently written (the
/// lookahead LU pipeline does exactly that); every read is `unsafe` and the
/// creator vouches that the viewed region stays immutable for the view's
/// whole use.
#[derive(Clone, Copy)]
pub(crate) struct MatView {
    ptr: *const f64,
    ld: usize,
    rows: usize,
    cols: usize,
}

// SAFETY: a MatView is a bundle of pointer + dims; the creator guarantees
// the viewed region is not mutated while any thread reads through it.
unsafe impl Send for MatView {}
unsafe impl Sync for MatView {}

impl MatView {
    /// View an entire matrix.
    pub(crate) fn of(m: &Matrix) -> MatView {
        MatView {
            ptr: m.as_slice().as_ptr(),
            ld: m.cols().max(1),
            rows: m.rows(),
            cols: m.cols(),
        }
    }

    /// View a `rows x cols` region of an `ld`-strided row-major buffer.
    ///
    /// # Safety
    /// `ptr` must point at the region's top-left element of a live buffer
    /// with row stride `ld`, the region must stay in-bounds, and no thread
    /// may write any element inside the region while the view is in use.
    pub(crate) unsafe fn from_raw(ptr: *const f64, ld: usize, rows: usize, cols: usize) -> MatView {
        MatView {
            ptr,
            ld,
            rows,
            cols,
        }
    }

    /// Columns of the viewed region.
    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    /// Row `i` of the region as a slice.
    ///
    /// # Safety
    /// `i < self.rows()`, plus the region-immutability contract of the
    /// view's constructor.
    #[inline]
    unsafe fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.rows);
        std::slice::from_raw_parts(self.ptr.add(i * self.ld), self.cols)
    }
}

/// Rows of `C` held in registers by the default (8x4) microkernel shape.
/// Individual [`Microkernel`] variants carry their own `mr`.
pub const MR: usize = 8;
/// Columns of `C` held in registers by the default (8x4) microkernel
/// shape; the AVX-512 kernel widens to [`NR_AVX512`]. Individual
/// [`Microkernel`] variants carry their own `nr`.
pub const NR: usize = 4;
/// Columns of `C` per microkernel invocation for the AVX-512 kernel: two
/// zmm vectors wide, so sixteen zmm accumulators cover the 8x16 tile.
pub const NR_AVX512: usize = 16;

/// CPU features a [`Microkernel`] needs before it may be dispatched.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelRequirement {
    /// Runs on the baseline target; always dispatchable.
    Baseline,
    /// Needs runtime-detected AVX2 and FMA (x86/x86-64 only).
    Avx2Fma,
    /// Needs runtime-detected AVX-512F (x86-64 only).
    Avx512f,
}

/// Uniform microkernel entry point: accumulate the `kc`-deep reduction of
/// one packed-`A` panel times one packed-`B` panel into the `mr_eff x
/// nr_eff` tile of `C` at `ctile` as `C += alpha * (A_panel * B_panel)`.
///
/// Safety contract (every registered kernel): `ap`/`bp` must hold at least
/// `kc*mr` / `kc*nr` elements of the kernel's own (mr, nr) geometry, rows
/// `0..mr_eff` x columns `0..nr_eff` of the `ldc`-strided `ctile` must be
/// in-bounds with no concurrent access, and the host must support the
/// kernel's [`KernelRequirement`].
type UkernelFn = unsafe fn(usize, *const f64, *const f64, *mut f64, usize, f64, usize, usize);

/// One register-blocked microkernel variant in the generated family. The
/// packer and the blocking sweep read `(mr, nr)` so tile geometry always
/// follows the selected variant; `fused` records the reduction's rounding
/// class (fused multiply-add vs separate mul+add), which is all
/// [`gemm_emulated`] needs to predict the variant's output bitwise.
#[derive(Debug)]
pub struct Microkernel {
    /// Stable identifier, e.g. `portable_8x4`, `avx2_8x8`, `avx512_8x16`.
    pub name: &'static str,
    /// Rows of `C` per register tile.
    pub mr: usize,
    /// Columns of `C` per register tile (= packed-`B` micro-panel width).
    pub nr: usize,
    /// CPU features the kernel needs at runtime.
    pub requires: KernelRequirement,
    /// Whether the `kc` reduction fuses multiply-add (one rounding per
    /// step) or rounds the product and the sum separately.
    pub fused: bool,
    func: UkernelFn,
}

impl Microkernel {
    /// Whether this kernel may be dispatched on the current host.
    pub fn supported(&self) -> bool {
        match self.requires {
            KernelRequirement::Baseline => true,
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            KernelRequirement::Avx2Fma => {
                std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma")
            }
            #[cfg(target_arch = "x86_64")]
            KernelRequirement::Avx512f => std::arch::is_x86_feature_detected!("avx512f"),
            #[allow(unreachable_patterns)]
            _ => false,
        }
    }

    /// Look a variant up by its stable name.
    pub fn by_name(name: &str) -> Option<&'static Microkernel> {
        microkernels().iter().find(|k| k.name == name)
    }

    /// Invoke the kernel (see [`UkernelFn`] for the safety contract).
    ///
    /// # Safety
    /// As documented on [`UkernelFn`]; additionally [`Self::supported`]
    /// must be true.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    pub(crate) unsafe fn run(
        &self,
        kc: usize,
        ap: *const f64,
        bp: *const f64,
        ctile: *mut f64,
        ldc: usize,
        alpha: f64,
        mr_eff: usize,
        nr_eff: usize,
    ) {
        (self.func)(kc, ap, bp, ctile, ldc, alpha, mr_eff, nr_eff)
    }
}

/// aarch64 has FMA (`fmla`) in its baseline ISA, so portable kernels fuse
/// unconditionally there; elsewhere plain mul+add avoids a libm `fma` call
/// on targets without hardware FMA.
const PORTABLE_FUSED: bool = cfg!(target_arch = "aarch64");

/// Generates one microkernel shape: the register-blocked reduction body
/// (generic over the fuse flag), a portable entry point, and an AVX2+FMA
/// re-compilation of the same body (x86/x86-64 only; LLVM autovectorizes
/// the accumulator block into ymm FMAs). The literal `mr`/`nr` keep the
/// accumulator a true fixed-size register tile.
macro_rules! define_microkernel_shape {
    ($body:ident, $portable:ident, $avx2:ident, $mr:literal, $nr:literal) => {
        #[inline(always)]
        fn $body<const FUSE: bool>(kc: usize, ap: &[f64], bp: &[f64]) -> [f64; $mr * $nr] {
            debug_assert!(ap.len() >= kc * $mr && bp.len() >= kc * $nr);
            let mut acc = [0.0f64; $mr * $nr];
            for kk in 0..kc {
                let av = &ap[kk * $mr..kk * $mr + $mr];
                let bv = &bp[kk * $nr..kk * $nr + $nr];
                for r in 0..$mr {
                    let ar = av[r];
                    for cc in 0..$nr {
                        let t = acc[r * $nr + cc];
                        acc[r * $nr + cc] = if FUSE {
                            ar.mul_add(bv[cc], t)
                        } else {
                            ar * bv[cc] + t
                        };
                    }
                }
            }
            acc
        }

        /// SAFETY: per the [`UkernelFn`] contract.
        #[allow(clippy::too_many_arguments)]
        unsafe fn $portable(
            kc: usize,
            ap: *const f64,
            bp: *const f64,
            ctile: *mut f64,
            ldc: usize,
            alpha: f64,
            mr_eff: usize,
            nr_eff: usize,
        ) {
            let ap = std::slice::from_raw_parts(ap, kc * $mr);
            let bp = std::slice::from_raw_parts(bp, kc * $nr);
            let acc = $body::<PORTABLE_FUSED>(kc, ap, bp);
            writeback_dyn(ctile, ldc, mr_eff, nr_eff, alpha, &acc, $nr);
        }

        /// SAFETY: per the [`UkernelFn`] contract; host must have AVX2+FMA.
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        #[target_feature(enable = "avx2", enable = "fma")]
        #[allow(clippy::too_many_arguments)]
        unsafe fn $avx2(
            kc: usize,
            ap: *const f64,
            bp: *const f64,
            ctile: *mut f64,
            ldc: usize,
            alpha: f64,
            mr_eff: usize,
            nr_eff: usize,
        ) {
            let ap = std::slice::from_raw_parts(ap, kc * $mr);
            let bp = std::slice::from_raw_parts(bp, kc * $nr);
            let acc = $body::<true>(kc, ap, bp);
            writeback_dyn(ctile, ldc, mr_eff, nr_eff, alpha, &acc, $nr);
        }
    };
}

define_microkernel_shape!(body_4x4, portable_4x4_uk, avx2_4x4_uk, 4, 4);
define_microkernel_shape!(body_8x4, portable_8x4_uk, avx2_8x4_uk, 8, 4);
define_microkernel_shape!(body_6x8, portable_6x8_uk, avx2_6x8_uk, 6, 8);
define_microkernel_shape!(body_8x8, portable_8x8_uk, avx2_8x8_uk, 8, 8);

/// The registered microkernel family: every generated portable shape, the
/// AVX2+FMA re-compilations (x86/x86-64), and the hand-unrolled AVX-512
/// 8x16 kernel (x86-64). The table is the single source of truth the
/// tuner's sweep, the dispatcher, the parity tests, and the verifier's
/// forced-dispatch scenarios all iterate.
pub fn microkernels() -> &'static [Microkernel] {
    static TABLE: OnceLock<Vec<Microkernel>> = OnceLock::new();
    TABLE.get_or_init(|| {
        macro_rules! entry {
            ($name:literal, $mr:literal, $nr:literal, $req:expr, $fused:expr, $func:ident) => {
                Microkernel {
                    name: $name,
                    mr: $mr,
                    nr: $nr,
                    requires: $req,
                    fused: $fused,
                    func: $func,
                }
            };
        }
        use KernelRequirement::*;
        let mut t = vec![
            entry!(
                "portable_4x4",
                4,
                4,
                Baseline,
                PORTABLE_FUSED,
                portable_4x4_uk
            ),
            entry!(
                "portable_8x4",
                8,
                4,
                Baseline,
                PORTABLE_FUSED,
                portable_8x4_uk
            ),
            entry!(
                "portable_6x8",
                6,
                8,
                Baseline,
                PORTABLE_FUSED,
                portable_6x8_uk
            ),
            entry!(
                "portable_8x8",
                8,
                8,
                Baseline,
                PORTABLE_FUSED,
                portable_8x8_uk
            ),
        ];
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        t.extend([
            entry!("avx2_4x4", 4, 4, Avx2Fma, true, avx2_4x4_uk),
            entry!("avx2_8x4", 8, 4, Avx2Fma, true, avx2_8x4_uk),
            entry!("avx2_6x8", 6, 8, Avx2Fma, true, avx2_6x8_uk),
            entry!("avx2_8x8", 8, 8, Avx2Fma, true, avx2_8x8_uk),
        ]);
        #[cfg(target_arch = "x86_64")]
        t.push(entry!(
            "avx512_8x16",
            8,
            16,
            Avx512f,
            true,
            microkernel_avx512
        ));
        t
    })
}

/// Names of every registered variant, for diagnostics.
fn kernel_names() -> Vec<&'static str> {
    microkernels().iter().map(|k| k.name).collect()
}

/// The fastest-ISA default when neither an override nor a persisted tuning
/// record selects a kernel. Public so the `tune` bench bin can measure the
/// default configuration the persisted winner must beat.
pub fn default_isa_kernel() -> &'static Microkernel {
    for name in ["avx512_8x16", "avx2_8x4", "portable_8x4"] {
        if let Some(k) = Microkernel::by_name(name) {
            if k.supported() {
                return k;
            }
        }
    }
    &microkernels()[0]
}

/// Index into [`microkernels`] of the process-wide forced variant, or
/// `usize::MAX` when no force is active.
static FORCED_KERNEL: AtomicUsize = AtomicUsize::new(usize::MAX);
/// Serializes forcers: at most one [`KernelForce`] guard exists at a time.
static FORCE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// RAII guard from [`force_kernel`]: while alive, every dispatch that
/// consults [`selected_kernel`] uses the forced variant; dropping it
/// restores the default selection. At most one guard exists at a time
/// (a second [`force_kernel`] call blocks), so differential tests that
/// force variants serialize against each other.
pub struct KernelForce {
    _lock: std::sync::MutexGuard<'static, ()>,
}

impl std::fmt::Debug for KernelForce {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KernelForce")
            .field("kernel", &selected_kernel().name)
            .finish()
    }
}

impl Drop for KernelForce {
    fn drop(&mut self) {
        FORCED_KERNEL.store(usize::MAX, Ordering::Release);
    }
}

/// Force every subsequent [`selected_kernel`] consultation to the named
/// variant until the returned guard drops. Errors on unknown names and on
/// variants the host cannot run (callers degrade gracefully, e.g. the
/// verifier records a skip). Do not call re-entrantly from one thread —
/// the serializing lock would self-deadlock.
pub fn force_kernel(name: &str) -> Result<KernelForce, String> {
    let idx = microkernels()
        .iter()
        .position(|k| k.name == name)
        .ok_or_else(|| {
            format!(
                "unknown microkernel `{name}` (registered: {})",
                kernel_names().join(", ")
            )
        })?;
    if !microkernels()[idx].supported() {
        return Err(format!(
            "microkernel `{name}` is not supported on this host"
        ));
    }
    let lock = FORCE_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    FORCED_KERNEL.store(idx, Ordering::Release);
    Ok(KernelForce { _lock: lock })
}

/// The microkernel [`gemm`] and [`gemm_auto`] dispatch right now: an active
/// [`force_kernel`] guard wins, then the cached default — the
/// `DENSELIN_GEMM_KERNEL` env override if valid, else the persisted
/// per-host tuning record, else the fastest supported ISA default.
pub fn selected_kernel() -> &'static Microkernel {
    selected_kernel_with_source().0
}

/// [`selected_kernel`] plus where the decision came from (the reload gate
/// of the `tune` bench bin asserts the persisted path is actually taken).
pub fn selected_kernel_with_source() -> (&'static Microkernel, crate::tune::TuneSource) {
    let forced = FORCED_KERNEL.load(Ordering::Acquire);
    if forced != usize::MAX {
        return (&microkernels()[forced], crate::tune::TuneSource::Forced);
    }
    static DEFAULT: OnceLock<(&'static Microkernel, crate::tune::TuneSource)> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        if let Ok(raw) = std::env::var("DENSELIN_GEMM_KERNEL") {
            let name = raw.trim();
            match Microkernel::by_name(name) {
                Some(k) if k.supported() => return (k, crate::tune::TuneSource::EnvOverride),
                Some(_) => eprintln!(
                    "denselin: DENSELIN_GEMM_KERNEL=`{name}` is not supported on this host; \
                     falling back"
                ),
                None => eprintln!(
                    "denselin: unknown DENSELIN_GEMM_KERNEL `{name}` (registered: {}); \
                     falling back",
                    kernel_names().join(", ")
                ),
            }
        }
        if let Some(rec) = crate::tune::persisted() {
            if let Some(k) = Microkernel::by_name(&rec.kernel) {
                if k.supported() {
                    return (k, crate::tune::TuneSource::Persisted);
                }
            }
            eprintln!(
                "denselin: persisted tuning names kernel `{}` unavailable here; using ISA default",
                rec.kernel
            );
        }
        (default_isa_kernel(), crate::tune::TuneSource::Heuristic)
    })
}

/// Cache-blocking parameters for [`gemm`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GemmBlocking {
    /// Rows of `A`/`C` per macro-tile (packed-`A` panel height).
    pub mc: usize,
    /// Inner (reduction) dimension per block (packed panel depth).
    pub kc: usize,
    /// Columns of `B`/`C` per macro-tile (packed-`B` panel width).
    pub nc: usize,
}

impl Default for GemmBlocking {
    fn default() -> Self {
        // ~L2-resident packed A (mc*kc*8 = 256 KB) and an L3-resident
        // packed B panel; sensible on commodity x86-64 and aarch64.
        Self {
            mc: 128,
            kc: 256,
            nc: 512,
        }
    }
}

impl GemmBlocking {
    /// The blocking used by [`gemm`]: the `DENSELIN_GEMM_BLOCK=mc,kc,nc`
    /// environment override if valid, otherwise the persisted per-host
    /// tuning record when one exists ([`crate::tune`]), otherwise
    /// [`GemmBlocking::default`]. Nothing is timed, so every process on a
    /// host resolves the same blocking (and, because the accumulation
    /// order follows `kc`, the same bits). Cached for the process lifetime
    /// — the env override is validated *before* the cache fills, so a
    /// malformed value is reported (once, to stderr) instead of silently
    /// latching the fallback.
    pub fn tuned() -> Self {
        Self::tuned_with_source().0
    }

    /// [`Self::tuned`] plus where the decision came from, so the `tune`
    /// bench bin's reload gate can assert the persisted file is consulted.
    pub fn tuned_with_source() -> (Self, crate::tune::TuneSource) {
        static TUNED: OnceLock<(GemmBlocking, crate::tune::TuneSource)> = OnceLock::new();
        *TUNED.get_or_init(|| {
            match Self::from_env_checked() {
                Ok(Some(blk)) => return (blk, crate::tune::TuneSource::EnvOverride),
                Ok(None) => {}
                Err(msg) => eprintln!(
                    "denselin: ignoring invalid DENSELIN_GEMM_BLOCK ({msg}); falling back to \
                     persisted/default blocking"
                ),
            }
            if let Some(rec) = crate::tune::persisted() {
                return (rec.blocking, crate::tune::TuneSource::Persisted);
            }
            (Self::default(), crate::tune::TuneSource::Heuristic)
        })
    }

    /// Parse the `DENSELIN_GEMM_BLOCK=mc,kc,nc` override: `Ok(None)` when
    /// unset, `Err` with a description when set but not three positive
    /// comma-separated integers, so callers can warn instead of silently
    /// ignoring a user's override.
    pub fn from_env_checked() -> Result<Option<Self>, String> {
        let raw = match std::env::var("DENSELIN_GEMM_BLOCK") {
            Ok(raw) => raw,
            Err(_) => return Ok(None),
        };
        let mut it = raw.split(',').map(|s| s.trim().parse::<usize>());
        match (it.next(), it.next(), it.next(), it.next()) {
            (Some(Ok(mc)), Some(Ok(kc)), Some(Ok(nc)), None) if mc > 0 && kc > 0 && nc > 0 => {
                Ok(Some(Self { mc, kc, nc }))
            }
            _ => Err(format!(
                "expected three positive comma-separated integers `mc,kc,nc`, got `{raw}`"
            )),
        }
    }
}

/// `C <- alpha * A * B + beta * C` (serial, packed + register-blocked).
///
/// ```
/// use denselin::{gemm::gemm, matrix::Matrix};
/// let a = Matrix::identity(3);
/// let b = Matrix::from_fn(3, 3, |i, j| (i * 3 + j) as f64);
/// let mut c = Matrix::zeros(3, 3);
/// gemm(&mut c, 1.0, &a, &b, 0.0);
/// assert!(c.allclose(&b, 1e-12));
/// ```
///
/// # Panics
/// Panics if the shapes are not conformant.
pub fn gemm(c: &mut Matrix, alpha: f64, a: &Matrix, b: &Matrix, beta: f64) {
    let (blk, krn) = (GemmBlocking::tuned(), selected_kernel());
    gemm_with(c, alpha, a, b, beta, 1, blk, krn);
}

/// `C[r0..r0+m, c0..c0+n] += alpha * A * B` for an `m x k` `A` and a
/// `k x n` `B`: an accumulating GEMM into a sub-block of a larger `C`,
/// serial, through the same packed path and dispatch as [`gemm`]. Every
/// element outside the block keeps its bits. Each block element receives
/// one `c + alpha*acc` writeback per `kc` slice of the reduction, so with
/// `k <= kc` the result is bitwise `C + alpha * (A*B)`: the same bits as
/// computing the product into a zeroed temporary and adding it.
///
/// ```
/// use denselin::{gemm::gemm_update_block, matrix::Matrix};
/// let mut c = Matrix::zeros(4, 5);
/// let a = Matrix::from_fn(2, 1, |i, _| (i + 1) as f64);
/// let b = Matrix::from_fn(1, 3, |_, _| 1.0);
/// gemm_update_block(&mut c, 1, 2, -1.0, &a, &b);
/// assert_eq!(c[(2, 4)], -2.0);
/// assert_eq!(c[(0, 2)], 0.0);
/// ```
///
/// # Panics
/// Panics if the inner dimensions differ or the block does not fit in `C`.
pub fn gemm_update_block(c: &mut Matrix, r0: usize, c0: usize, alpha: f64, a: &Matrix, b: &Matrix) {
    let (m, k) = a.shape();
    let (kb, n) = b.shape();
    assert_eq!(k, kb, "gemm: inner dimensions must match");
    assert!(
        r0 <= c.rows() && m <= c.rows() - r0 && c0 <= c.cols() && n <= c.cols() - c0,
        "gemm_update_block: {m} x {n} block at ({r0}, {c0}) exceeds the {} x {} output",
        c.rows(),
        c.cols()
    );
    if alpha == 0.0 || m == 0 || n == 0 || k == 0 {
        return;
    }
    let ldc = c.cols();
    // SAFETY: the block was bounds-checked above, so the offset pointer and
    // its `ldc`-strided `m x n` region lie inside `c`, which is exclusively
    // borrowed; `a`/`b` are shared borrows, not mutated during the call.
    unsafe {
        serial_update(
            c.as_mut_slice().as_mut_ptr().add(r0 * ldc + c0),
            ldc,
            alpha,
            MatView::of(a),
            MatView::of(b),
            GemmBlocking::tuned(),
            selected_kernel(),
        );
    }
}

/// Serial macro-loop: `C += alpha * A * B` over the `(mc, nc)` tiles of the
/// `a.rows() x b.cols()` region at `cptr`.
///
/// # Safety
/// `cptr` must point at a live `ldc`-strided region covering that block
/// with no concurrent access, and the views must satisfy their
/// region-immutability contract for the call.
unsafe fn serial_update(
    cptr: *mut f64,
    ldc: usize,
    alpha: f64,
    av: MatView,
    bv: MatView,
    blk: GemmBlocking,
    krn: &Microkernel,
) {
    let (m, n) = (av.rows, bv.cols);
    let mut abuf = Vec::new();
    let mut bbuf = Vec::new();
    for i0 in (0..m).step_by(blk.mc) {
        let mh = blk.mc.min(m - i0);
        for j0 in (0..n).step_by(blk.nc) {
            let nw = blk.nc.min(n - j0);
            packed_tile_update(
                cptr, ldc, alpha, av, bv, i0, mh, j0, nw, blk, krn, &mut abuf, &mut bbuf,
            );
        }
    }
}

/// The pre-rewrite scalar macro-kernel path, kept as the reference
/// implementation: property tests compare the packed kernel against it and
/// `perfsmoke` reports the packed-vs-reference speedup.
pub fn gemm_reference(c: &mut Matrix, alpha: f64, a: &Matrix, b: &Matrix, beta: f64) {
    let (m, k) = a.shape();
    let (kb, n) = b.shape();
    assert_eq!(k, kb, "gemm: inner dimensions must match");
    assert_eq!(c.shape(), (m, n), "gemm: output shape must be (m, n)");

    scale_in_place(c, beta);
    if alpha == 0.0 || m == 0 || n == 0 || k == 0 {
        return;
    }
    let blk = GemmBlocking {
        mc: 64,
        kc: 128,
        nc: 256,
    };
    for kk in (0..k).step_by(blk.kc) {
        let kend = (kk + blk.kc).min(k);
        for ii in (0..m).step_by(blk.mc) {
            let iend = (ii + blk.mc).min(m);
            for jj in (0..n).step_by(blk.nc) {
                let jend = (jj + blk.nc).min(n);
                reference_macro_kernel(c, alpha, a, b, ii..iend, kk..kend, jj..jend);
            }
        }
    }
}

/// Scalar per-element oracle for the packed paths: predicts the exact
/// bits every registered [`Microkernel`] produces, because a C element's
/// accumulation order depends only on the `kc` split (ascending blocks,
/// ascending `k` within a block, one `c += alpha * acc` writeback per
/// block) and on whether the reduction fuses multiply-add — never on the
/// `(mr, nr)` register tiling or the `(mc, nc)` macro-tiling. Pass the
/// blocking's `kc` and the variant's `fused` flag; the parity test layer
/// asserts [`gemm_with`] matches this bit for bit at every thread count.
pub fn gemm_emulated(
    c: &mut Matrix,
    alpha: f64,
    a: &Matrix,
    b: &Matrix,
    beta: f64,
    kc: usize,
    fused: bool,
) {
    let (m, k) = a.shape();
    let (kb, n) = b.shape();
    assert_eq!(k, kb, "gemm: inner dimensions must match");
    assert_eq!(c.shape(), (m, n), "gemm: output shape must be (m, n)");
    assert!(kc > 0, "gemm_emulated: kc must be positive");

    scale_in_place(c, beta);
    if alpha == 0.0 || m == 0 || n == 0 || k == 0 {
        return;
    }
    for i in 0..m {
        for j in 0..n {
            let mut pc = 0;
            while pc < k {
                let kcb = kc.min(k - pc);
                let mut acc = 0.0f64;
                for kk in pc..pc + kcb {
                    acc = if fused {
                        a[(i, kk)].mul_add(b[(kk, j)], acc)
                    } else {
                        a[(i, kk)] * b[(kk, j)] + acc
                    };
                }
                c[(i, j)] += alpha * acc;
                pc += kcb;
            }
        }
    }
}

/// `C <- alpha * A * B + beta * C` with explicit threads, blocking and
/// microkernel: the one packed GEMM driver every other entry point calls.
///
/// At `threads == 1`, or below `64^3` multiply-adds, it runs the serial
/// macro-loop over the `(mc, nc)` tiles of `C`. Otherwise those tiles form
/// a shared queue (an atomic counter) drained by `threads` workers of the
/// persistent process-wide [`crate::pool`], never more workers than tiles.
/// Each tile performs its full `k` reduction in the same `kc`-block order
/// as the serial loop, so the result is bitwise identical at every thread
/// count, and bitwise [`gemm_emulated`] with `blk.kc` and `krn.fused`.
///
/// # Panics
/// Panics if the shapes are not conformant or `krn` is unsupported here.
#[allow(clippy::too_many_arguments)]
pub fn gemm_with(
    c: &mut Matrix,
    alpha: f64,
    a: &Matrix,
    b: &Matrix,
    beta: f64,
    threads: usize,
    blk: GemmBlocking,
    krn: &Microkernel,
) {
    let (m, k) = a.shape();
    let (kb, n) = b.shape();
    assert_eq!(k, kb, "gemm: inner dimensions must match");
    assert_eq!(c.shape(), (m, n), "gemm: output shape must be (m, n)");
    assert!(
        krn.supported(),
        "microkernel `{}` unsupported here",
        krn.name
    );

    scale_in_place(c, beta);
    if alpha == 0.0 || m == 0 || n == 0 || k == 0 {
        return;
    }
    let cptr = pool::SyncPtr(c.as_mut_slice().as_mut_ptr());
    let (av, bv) = (MatView::of(a), MatView::of(b));
    if threads <= 1 || m * n * k < 64 * 64 * 64 {
        // SAFETY: `c` is exactly `m x n` with row stride `n`, exclusively
        // borrowed; `a`/`b` are shared borrows, not mutated during the call.
        unsafe { serial_update(cptr.get(), n, alpha, av, bv, blk, krn) };
        return;
    }

    let ntiles = n.div_ceil(blk.nc);
    let tiles = m.div_ceil(blk.mc) * ntiles;
    let next = AtomicUsize::new(0);
    pool::global().run(threads.min(tiles), &|_| {
        let mut abuf = Vec::new();
        let mut bbuf = Vec::new();
        loop {
            let t = next.fetch_add(1, Ordering::Relaxed);
            if t >= tiles {
                break;
            }
            let i0 = t / ntiles * blk.mc;
            let j0 = t % ntiles * blk.nc;
            // SAFETY: the atomic counter hands each tile index to exactly
            // one worker, tile (i0..i0+mh, j0..j0+nw) regions are pairwise
            // disjoint, and cptr/views borrow `c`/`a`/`b` which outlive the
            // pool job (`run` blocks until every worker retires).
            unsafe {
                packed_tile_update(
                    cptr.get(),
                    n,
                    alpha,
                    av,
                    bv,
                    i0,
                    blk.mc.min(m - i0),
                    j0,
                    blk.nc.min(n - j0),
                    blk,
                    krn,
                    &mut abuf,
                    &mut bbuf,
                );
            }
        }
    });
}

/// `C <- alpha * A * B + beta * C`, picking serial vs tile-queue-parallel
/// automatically: large problems fan out over [`auto_threads`] workers
/// (overridable via `DENSELIN_THREADS`), small ones stay serial.
///
/// This is the entry point the blocked factorizations and the distributed
/// drivers' local updates go through.
pub fn gemm_auto(c: &mut Matrix, alpha: f64, a: &Matrix, b: &Matrix, beta: f64) {
    let threads = if a.rows() * b.cols() * a.cols() >= 128 * 128 * 128 {
        auto_threads()
    } else {
        1
    };
    let (blk, krn) = (GemmBlocking::tuned(), selected_kernel());
    gemm_with(c, alpha, a, b, beta, threads, blk, krn);
}

/// Thread count used by [`gemm_auto`], [`lu_parallel`][mod@crate::lu_parallel] and the
/// parallel TRSM paths: the `DENSELIN_THREADS` override if set (the knob CI
/// pins for deterministic scaling gates), else the machine's available
/// parallelism. Cached per process.
pub fn auto_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::env::var("DENSELIN_THREADS")
            .ok()
            .and_then(|raw| raw.trim().parse::<usize>().ok())
            .map_or_else(
                || std::thread::available_parallelism().map_or(1, |p| p.get()),
                |t| t.max(1),
            )
    })
}

/// Convenience: allocate and return `A * B`.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    gemm(&mut c, 1.0, a, b, 0.0);
    c
}

fn scale_in_place(c: &mut Matrix, beta: f64) {
    if beta == 1.0 {
        return;
    }
    if beta == 0.0 {
        c.as_mut_slice().fill(0.0);
    } else {
        for x in c.as_mut_slice() {
            *x *= beta;
        }
    }
}

/// Accumulate `C[i0..i0+mh, j0..j0+nw] += alpha * A[i0.., :] * B[:, j0..]`
/// over the full reduction dimension, packing `kc`-deep panels of `A` and
/// `B` and driving the register-blocked microkernel. `beta` must already be
/// applied to `C`. `i0`/`j0` are relative to the C region `cptr` points at,
/// which may itself be an `ldc`-strided submatrix of a larger buffer.
///
/// # Safety
/// `cptr` must point at a live `ldc`-strided row-major region covering the
/// tile, no other thread may concurrently touch rows `i0..i0+mh` columns
/// `j0..j0+nw` of it, and the `a`/`b` views must satisfy their
/// region-immutability contract for the duration of the call.
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn packed_tile_update(
    cptr: *mut f64,
    ldc: usize,
    alpha: f64,
    a: MatView,
    b: MatView,
    i0: usize,
    mh: usize,
    j0: usize,
    nw: usize,
    blk: GemmBlocking,
    krn: &Microkernel,
    abuf: &mut Vec<f64>,
    bbuf: &mut Vec<f64>,
) {
    let k = a.cols();
    let (mr, nr) = (krn.mr, krn.nr);
    let mut pc = 0;
    while pc < k {
        let kc = blk.kc.min(k - pc);
        pack_b(b, pc, j0, kc, nw, nr, bbuf);
        pack_a(a, i0, pc, mh, kc, mr, abuf);
        let mpanels = mh.div_ceil(mr);
        let npanels = nw.div_ceil(nr);
        // Row panels outer: C is walked along its rows, `mr` sequential
        // streams the hardware prefetcher follows, instead of down a
        // column strip that touches a new page every row. That matters
        // most for shallow reductions (a rank-v update, k = v), where the
        // C traffic dominates the microkernel's work.
        for ip in 0..mpanels {
            let ap = &abuf[ip * mr * kc..(ip + 1) * mr * kc];
            let mr_eff = mr.min(mh - ip * mr);
            for jp in 0..npanels {
                let bp = &bbuf[jp * nr * kc..(jp + 1) * nr * kc];
                let nr_eff = nr.min(nw - jp * nr);
                let ctile = cptr.add((i0 + ip * mr) * ldc + j0 + jp * nr);
                krn.run(
                    kc,
                    ap.as_ptr(),
                    bp.as_ptr(),
                    ctile,
                    ldc,
                    alpha,
                    mr_eff,
                    nr_eff,
                );
            }
        }
        pc += kc;
    }
}

/// Pack the `mh x kc` block of `A` at `(i0, p0)` into `ceil(mh/mr)`
/// micro-panels of the selected kernel's row height. Panel `ip` stores its
/// `mr` rows column-major (`kc` groups of `mr` consecutive values); rows
/// past `mh` are zero-padded so the microkernel always reads full groups.
///
/// # Safety
/// The block `(i0..i0+mh, p0..p0+kc)` must be in-bounds of the view and the
/// view's region-immutability contract must hold for the call.
unsafe fn pack_a(
    a: MatView,
    i0: usize,
    p0: usize,
    mh: usize,
    kc: usize,
    mr: usize,
    buf: &mut Vec<f64>,
) {
    let panels = mh.div_ceil(mr);
    let len = panels * mr * kc;
    // Every slot is written below (values or explicit padding), so reuse
    // the buffer without the O(len) zero-fill a `resize` from empty costs.
    if buf.len() != len {
        buf.clear();
        buf.resize(len, 0.0);
    }
    for ip in 0..panels {
        let base = ip * mr * kc;
        let rmax = mr.min(mh - ip * mr);
        for r in 0..rmax {
            let arow = &a.row(i0 + ip * mr + r)[p0..p0 + kc];
            for (kk, &v) in arow.iter().enumerate() {
                buf[base + kk * mr + r] = v;
            }
        }
        for r in rmax..mr {
            for kk in 0..kc {
                buf[base + kk * mr + r] = 0.0;
            }
        }
    }
}

/// Pack the `kc x nw` block of `B` at `(p0, j0)` into `ceil(nw/nr)`
/// micro-panels. Panel `jp` stores its `nr` columns row-major (`kc` groups
/// of `nr` consecutive values); columns past `nw` are zero-padded. The
/// panel width `nr` matches the active microkernel's tile width.
///
/// # Safety
/// The block `(p0..p0+kc, j0..j0+nw)` must be in-bounds of the view and the
/// view's region-immutability contract must hold for the call.
unsafe fn pack_b(
    b: MatView,
    p0: usize,
    j0: usize,
    kc: usize,
    nw: usize,
    nr: usize,
    buf: &mut Vec<f64>,
) {
    let panels = nw.div_ceil(nr);
    let len = panels * nr * kc;
    // As in `pack_a`: all slots written below, skip the redundant zero-fill.
    if buf.len() != len {
        buf.clear();
        buf.resize(len, 0.0);
    }
    for kk in 0..kc {
        let brow = &b.row(p0 + kk)[j0..j0 + nw];
        for jp in 0..panels {
            let base = jp * nr * kc + kk * nr;
            let cmax = nr.min(nw - jp * nr);
            for cc in 0..cmax {
                buf[base + cc] = brow[jp * nr + cc];
            }
            for cc in cmax..nr {
                buf[base + cc] = 0.0;
            }
        }
    }
}

/// Scatter `alpha * acc` into the `mr_eff x nr_eff` tile of `C`, where
/// `acc` is an `nrv`-column-major accumulator tile (full tiles and
/// zero-padded fringes alike). The `c + alpha*acc` rounding here (separate
/// mul then add) is uniform across every registered kernel — it is part of
/// the arithmetic contract [`gemm_emulated`] predicts.
///
/// # Safety
/// Rows `0..mr_eff`, columns `0..nr_eff` of the `ldc`-strided buffer at
/// `ctile` must be in-bounds, with no concurrent access to them.
#[inline(always)]
unsafe fn writeback_dyn(
    ctile: *mut f64,
    ldc: usize,
    mr_eff: usize,
    nr_eff: usize,
    alpha: f64,
    acc: &[f64],
    nrv: usize,
) {
    for r in 0..mr_eff {
        let crow = std::slice::from_raw_parts_mut(ctile.add(r * ldc), nr_eff);
        for (cc, cv) in crow.iter_mut().enumerate() {
            *cv += alpha * acc[r * nrv + cc];
        }
    }
}

/// The 8x16 AVX-512 microkernel: sixteen zmm accumulators hold the full
/// `MR x NR_AVX512` tile of `C` across the `kc` reduction; each step does
/// one two-vector load of packed `B`, eight scalar broadcasts of packed `A`
/// (prefetched a cache line ahead), and sixteen `vfmadd`s. The writeback is
/// a vectorized (but deliberately unfused) `C + alpha*acc` so its rounding
/// matches every other registered kernel; fringe tiles spill `acc` to a
/// scratch tile and take the generic edge loop.
///
/// # Safety
/// Caller must ensure AVX-512F support, `ap`/`bp` panels of at least
/// `kc*MR` / `kc*NR_AVX512` elements, and exclusive in-bounds access to
/// rows `0..mr_eff` x columns `0..nr_eff` of the `ldc`-strided `ctile`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
unsafe fn microkernel_avx512(
    kc: usize,
    ap: *const f64,
    bp: *const f64,
    ctile: *mut f64,
    ldc: usize,
    alpha: f64,
    mr_eff: usize,
    nr_eff: usize,
) {
    use std::arch::x86_64::*;
    let mut acc0 = [_mm512_setzero_pd(); MR];
    let mut acc1 = [_mm512_setzero_pd(); MR];
    let mut a = ap;
    let mut b = bp;
    for _ in 0..kc {
        let bv0 = _mm512_loadu_pd(b);
        let bv1 = _mm512_loadu_pd(b.add(8));
        _mm_prefetch::<_MM_HINT_T0>(a.add(64) as *const i8);
        let a0 = _mm512_set1_pd(*a.add(0));
        acc0[0] = _mm512_fmadd_pd(a0, bv0, acc0[0]);
        acc1[0] = _mm512_fmadd_pd(a0, bv1, acc1[0]);
        let a1 = _mm512_set1_pd(*a.add(1));
        acc0[1] = _mm512_fmadd_pd(a1, bv0, acc0[1]);
        acc1[1] = _mm512_fmadd_pd(a1, bv1, acc1[1]);
        let a2 = _mm512_set1_pd(*a.add(2));
        acc0[2] = _mm512_fmadd_pd(a2, bv0, acc0[2]);
        acc1[2] = _mm512_fmadd_pd(a2, bv1, acc1[2]);
        let a3 = _mm512_set1_pd(*a.add(3));
        acc0[3] = _mm512_fmadd_pd(a3, bv0, acc0[3]);
        acc1[3] = _mm512_fmadd_pd(a3, bv1, acc1[3]);
        let a4 = _mm512_set1_pd(*a.add(4));
        acc0[4] = _mm512_fmadd_pd(a4, bv0, acc0[4]);
        acc1[4] = _mm512_fmadd_pd(a4, bv1, acc1[4]);
        let a5 = _mm512_set1_pd(*a.add(5));
        acc0[5] = _mm512_fmadd_pd(a5, bv0, acc0[5]);
        acc1[5] = _mm512_fmadd_pd(a5, bv1, acc1[5]);
        let a6 = _mm512_set1_pd(*a.add(6));
        acc0[6] = _mm512_fmadd_pd(a6, bv0, acc0[6]);
        acc1[6] = _mm512_fmadd_pd(a6, bv1, acc1[6]);
        let a7 = _mm512_set1_pd(*a.add(7));
        acc0[7] = _mm512_fmadd_pd(a7, bv0, acc0[7]);
        acc1[7] = _mm512_fmadd_pd(a7, bv1, acc1[7]);
        a = a.add(MR);
        b = b.add(NR_AVX512);
    }
    if mr_eff == MR && nr_eff == NR_AVX512 {
        // Unfused `C + alpha*acc` (mul, then add) so the writeback rounding
        // matches writeback_dyn bitwise: every registered kernel shares one
        // writeback class and gemm_emulated predicts all of them.
        let av = _mm512_set1_pd(alpha);
        for r in 0..MR {
            let p = ctile.add(r * ldc);
            _mm512_storeu_pd(
                p,
                _mm512_add_pd(_mm512_loadu_pd(p), _mm512_mul_pd(av, acc0[r])),
            );
            let p8 = p.add(8);
            _mm512_storeu_pd(
                p8,
                _mm512_add_pd(_mm512_loadu_pd(p8), _mm512_mul_pd(av, acc1[r])),
            );
        }
    } else {
        let mut scratch = [0.0f64; MR * NR_AVX512];
        for r in 0..MR {
            let s = scratch.as_mut_ptr().add(r * NR_AVX512);
            _mm512_storeu_pd(s, acc0[r]);
            _mm512_storeu_pd(s.add(8), acc1[r]);
        }
        for r in 0..mr_eff {
            let crow = std::slice::from_raw_parts_mut(ctile.add(r * ldc), nr_eff);
            for (cc, cv) in crow.iter_mut().enumerate() {
                *cv += alpha * scratch[r * NR_AVX512 + cc];
            }
        }
    }
}

/// Rank-update of the `C[ii, jj]` block with `A[ii, kk] * B[kk, jj]` — the
/// pre-packing scalar kernel, retained as the reference path.
fn reference_macro_kernel(
    c: &mut Matrix,
    alpha: f64,
    a: &Matrix,
    b: &Matrix,
    irange: std::ops::Range<usize>,
    krange: std::ops::Range<usize>,
    jrange: std::ops::Range<usize>,
) {
    let (j0, j1) = (jrange.start, jrange.end);
    for i in irange {
        let arow = a.row(i);
        // Unroll the reduction dimension by 4 to cut loop overhead.
        let mut kk = krange.start;
        while kk + 4 <= krange.end {
            let (a0, a1, a2, a3) = (
                alpha * arow[kk],
                alpha * arow[kk + 1],
                alpha * arow[kk + 2],
                alpha * arow[kk + 3],
            );
            let b0 = &b.row(kk)[j0..j1];
            let b1 = &b.row(kk + 1)[j0..j1];
            let b2 = &b.row(kk + 2)[j0..j1];
            let b3 = &b.row(kk + 3)[j0..j1];
            let crow = &mut c.row_mut(i)[j0..j1];
            for j in 0..crow.len() {
                crow[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
            }
            kk += 4;
        }
        while kk < krange.end {
            let aik = alpha * arow[kk];
            if aik != 0.0 {
                let brow = &b.row(kk)[j0..j1];
                let crow = &mut c.row_mut(i)[j0..j1];
                for j in 0..crow.len() {
                    crow[j] += aik * brow[j];
                }
            }
            kk += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    fn naive(a: &Matrix, b: &Matrix) -> Matrix {
        a.matmul(b)
    }

    #[test]
    fn gemm_matches_naive_square() {
        let mut rng = SplitMix64::new(10);
        let a = Matrix::random(&mut rng, 33, 33);
        let b = Matrix::random(&mut rng, 33, 33);
        let mut c = Matrix::zeros(33, 33);
        gemm(&mut c, 1.0, &a, &b, 0.0);
        assert!(c.allclose(&naive(&a, &b), 1e-10));
    }

    #[test]
    fn gemm_matches_naive_rectangular() {
        let mut rng = SplitMix64::new(11);
        let a = Matrix::random(&mut rng, 17, 65);
        let b = Matrix::random(&mut rng, 65, 9);
        let mut c = Matrix::zeros(17, 9);
        gemm(&mut c, 1.0, &a, &b, 0.0);
        assert!(c.allclose(&naive(&a, &b), 1e-10));
    }

    #[test]
    fn gemm_alpha_beta() {
        let mut rng = SplitMix64::new(12);
        let a = Matrix::random(&mut rng, 8, 8);
        let b = Matrix::random(&mut rng, 8, 8);
        let c0 = Matrix::random(&mut rng, 8, 8);
        let mut c = c0.clone();
        gemm(&mut c, 2.0, &a, &b, -1.0);
        let expect = naive(&a, &b).scale(2.0).sub(&c0);
        assert!(c.allclose(&expect, 1e-10));
    }

    #[test]
    fn gemm_beta_zero_overwrites_garbage() {
        let mut rng = SplitMix64::new(13);
        let a = Matrix::random(&mut rng, 5, 5);
        let b = Matrix::random(&mut rng, 5, 5);
        let mut c = Matrix::from_fn(5, 5, |_, _| f64::NAN);
        gemm(&mut c, 1.0, &a, &b, 0.0);
        assert!(c.allclose(&naive(&a, &b), 1e-10));
    }

    #[test]
    fn gemm_alpha_zero_scales_only() {
        let mut rng = SplitMix64::new(14);
        let a = Matrix::random(&mut rng, 4, 4);
        let b = Matrix::random(&mut rng, 4, 4);
        let c0 = Matrix::random(&mut rng, 4, 4);
        let mut c = c0.clone();
        gemm(&mut c, 0.0, &a, &b, 0.5);
        assert!(c.allclose(&c0.scale(0.5), 1e-12));
    }

    #[test]
    fn gemm_tiny_blocking_matches() {
        let mut rng = SplitMix64::new(15);
        let a = Matrix::random(&mut rng, 23, 31);
        let b = Matrix::random(&mut rng, 31, 19);
        let mut c = Matrix::zeros(23, 19);
        let blk = GemmBlocking {
            mc: 3,
            kc: 5,
            nc: 7,
        };
        let krn = selected_kernel();
        gemm_with(&mut c, 1.0, &a, &b, 0.0, 1, blk, krn);
        assert!(c.allclose(&naive(&a, &b), 1e-10));
    }

    #[test]
    fn packed_matches_naive_awkward_shapes() {
        // Property coverage over shapes that stress every fringe case:
        // sub-microkernel tiles, exact MR/NR multiples, one-past multiples.
        let sizes = [1usize, 2, 3, 5, 7, 8, 9, 13, 16, 17, 31, 33];
        let mut rng = SplitMix64::new(40);
        let (blk, krn) = (GemmBlocking::default(), selected_kernel());
        for &m in &sizes {
            for &n in &sizes {
                for &k in &sizes {
                    let a = Matrix::random(&mut rng, m, k);
                    let b = Matrix::random(&mut rng, k, n);
                    let mut c = Matrix::zeros(m, n);
                    gemm_with(&mut c, 1.0, &a, &b, 0.0, 1, blk, krn);
                    assert!(
                        c.allclose(&naive(&a, &b), 1e-10),
                        "packed gemm mismatch at m={m} n={n} k={k}"
                    );
                }
            }
        }
    }

    #[test]
    fn packed_fringe_smaller_than_microkernel() {
        // Whole problems smaller than one MR x NR register tile.
        let mut rng = SplitMix64::new(41);
        let (blk, krn) = (GemmBlocking::default(), selected_kernel());
        for (m, n, k) in [
            (1, 1, 1),
            (2, 3, 2),
            (MR - 1, NR - 1, 5),
            (MR + 1, NR + 1, 3),
        ] {
            let a = Matrix::random(&mut rng, m, k);
            let b = Matrix::random(&mut rng, k, n);
            let c0 = Matrix::random(&mut rng, m, n);
            let mut c = c0.clone();
            gemm_with(&mut c, 1.5, &a, &b, -0.5, 1, blk, krn);
            let mut expect = c0.clone();
            gemm_reference(&mut expect, 1.5, &a, &b, -0.5);
            assert!(c.allclose(&expect, 1e-12), "m={m} n={n} k={k}");
        }
    }

    #[test]
    fn packed_matches_reference_alpha_beta_grid() {
        let mut rng = SplitMix64::new(42);
        let a = Matrix::random(&mut rng, 37, 29);
        let b = Matrix::random(&mut rng, 29, 41);
        let (blk, krn) = (GemmBlocking::default(), selected_kernel());
        for &alpha in &[0.0, 1.0, -1.0, 2.5] {
            for &beta in &[0.0, 1.0, -1.0, 0.5] {
                let c0 = Matrix::random(&mut rng, 37, 41);
                let mut c_packed = c0.clone();
                gemm_with(&mut c_packed, alpha, &a, &b, beta, 1, blk, krn);
                let mut c_ref = c0.clone();
                gemm_reference(&mut c_ref, alpha, &a, &b, beta);
                assert!(
                    c_packed.allclose(&c_ref, 1e-10),
                    "alpha={alpha} beta={beta}"
                );
            }
        }
    }

    #[test]
    fn beta_zero_overwrites_nan_in_packed_and_parallel_paths() {
        let mut rng = SplitMix64::new(43);
        let a = Matrix::random(&mut rng, 70, 70);
        let b = Matrix::random(&mut rng, 70, 70);
        let expect = naive(&a, &b);
        let mut c = Matrix::from_fn(70, 70, |_, _| f64::NAN);
        let (blk, krn) = (GemmBlocking::default(), selected_kernel());
        gemm_with(&mut c, 1.0, &a, &b, 0.0, 1, blk, krn);
        assert!(c.allclose(&expect, 1e-10));
        let mut cp = Matrix::from_fn(70, 70, |_, _| f64::INFINITY);
        gemm_with(&mut cp, 1.0, &a, &b, 0.0, 3, GemmBlocking::tuned(), krn);
        assert!(cp.allclose(&expect, 1e-10));
    }

    #[test]
    fn gemm_parallel_matches_serial() {
        let mut rng = SplitMix64::new(16);
        let a = Matrix::random(&mut rng, 130, 70);
        let b = Matrix::random(&mut rng, 70, 90);
        let c0 = Matrix::random(&mut rng, 130, 90);
        let mut c_serial = c0.clone();
        gemm(&mut c_serial, 1.5, &a, &b, 0.5);
        let mut c_par = c0.clone();
        let (blk, krn) = (GemmBlocking::tuned(), selected_kernel());
        gemm_with(&mut c_par, 1.5, &a, &b, 0.5, 4, blk, krn);
        assert!(c_par.allclose(&c_serial, 1e-10));
    }

    #[test]
    fn gemm_parallel_bitwise_identical_to_serial() {
        // Tiles reduce in the same kc-block order as the serial loop, so
        // the parallel path must agree bit for bit, not just to tolerance.
        let mut rng = SplitMix64::new(44);
        let a = Matrix::random(&mut rng, 193, 85);
        let b = Matrix::random(&mut rng, 85, 131);
        let c0 = Matrix::random(&mut rng, 193, 131);
        let mut c_serial = c0.clone();
        gemm(&mut c_serial, -1.25, &a, &b, 0.75);
        let mut c_par = c0.clone();
        let (blk, krn) = (GemmBlocking::tuned(), selected_kernel());
        gemm_with(&mut c_par, -1.25, &a, &b, 0.75, 5, blk, krn);
        assert_eq!(c_serial.as_slice(), c_par.as_slice());
    }

    #[test]
    fn tile_queue_load_balance() {
        // m chosen so a row-band split (div_ceil) would leave an empty band:
        // the tile queue must still cover every tile exactly once, which
        // shows as bitwise agreement with the scalar oracle.
        let mut rng = SplitMix64::new(45);
        let (blk, krn) = (GemmBlocking::tuned(), selected_kernel());
        let m = 3 * blk.mc + 1;
        let n = 2 * blk.nc + 3;
        let k = 80;
        let a = Matrix::random(&mut rng, m, k);
        let b = Matrix::random(&mut rng, k, n);
        let mut c = Matrix::zeros(m, n);
        gemm_with(&mut c, 1.0, &a, &b, 0.0, 4, blk, krn);
        let mut e = Matrix::zeros(m, n);
        gemm_emulated(&mut e, 1.0, &a, &b, 0.0, blk.kc, krn.fused);
        assert_eq!(c.as_slice(), e.as_slice());
    }

    #[test]
    fn more_workers_than_tiles_is_clamped() {
        // one tile, sixteen requested workers
        let mut rng = SplitMix64::new(46);
        let (blk, krn) = (GemmBlocking::tuned(), selected_kernel());
        let (m, n, k) = (blk.mc, blk.nc, 70);
        let a = Matrix::random(&mut rng, m, k);
        let b = Matrix::random(&mut rng, k, n);
        let mut c = Matrix::zeros(m, n);
        gemm_with(&mut c, 1.0, &a, &b, 0.0, 16, blk, krn);
        let mut e = Matrix::zeros(m, n);
        gemm_emulated(&mut e, 1.0, &a, &b, 0.0, blk.kc, krn.fused);
        assert_eq!(c.as_slice(), e.as_slice());
    }

    #[test]
    fn gemm_auto_matches_serial() {
        let mut rng = SplitMix64::new(47);
        let a = Matrix::random(&mut rng, 140, 140);
        let b = Matrix::random(&mut rng, 140, 140);
        let c0 = Matrix::random(&mut rng, 140, 140);
        let mut c1 = c0.clone();
        gemm(&mut c1, 1.0, &a, &b, 1.0);
        let mut c2 = c0.clone();
        gemm_auto(&mut c2, 1.0, &a, &b, 1.0);
        assert_eq!(c1.as_slice(), c2.as_slice());
    }

    #[test]
    fn blocking_env_parse() {
        // from_env_checked reads the live environment; exercise the parser
        // via a guarded set/remove (tests in this binary run in-process).
        std::env::set_var("DENSELIN_GEMM_BLOCK", "32, 64,128");
        assert_eq!(
            GemmBlocking::from_env_checked(),
            Ok(Some(GemmBlocking {
                mc: 32,
                kc: 64,
                nc: 128
            }))
        );
        // Malformed values must be *reported* (Err), not silently dropped:
        // tuned() warns on this instead of latching the fallback quietly.
        std::env::set_var("DENSELIN_GEMM_BLOCK", "bogus");
        assert!(GemmBlocking::from_env_checked()
            .unwrap_err()
            .contains("bogus"));
        for bad in ["1,2", "0,2,3", "1,2,3,4"] {
            std::env::set_var("DENSELIN_GEMM_BLOCK", bad);
            assert!(GemmBlocking::from_env_checked().is_err(), "{bad}");
        }
        // Unset is Ok(None), not an error.
        std::env::remove_var("DENSELIN_GEMM_BLOCK");
        assert_eq!(GemmBlocking::from_env_checked(), Ok(None));
    }

    #[test]
    fn kernel_table_is_well_formed() {
        let table = microkernels();
        assert!(table.len() >= 4, "at least the four portable shapes");
        let mut names = std::collections::HashSet::new();
        for k in table {
            assert!(names.insert(k.name), "duplicate kernel name {}", k.name);
            assert!(k.mr > 0 && k.nr > 0);
            assert_eq!(
                k.name,
                format!("{}_{}x{}", k.name.split('_').next().unwrap(), k.mr, k.nr)
            );
            assert!(std::ptr::eq(Microkernel::by_name(k.name).unwrap(), k));
            if k.requires == KernelRequirement::Baseline {
                assert!(
                    k.supported(),
                    "baseline kernel {} must run anywhere",
                    k.name
                );
                assert_eq!(k.fused, PORTABLE_FUSED);
            }
        }
        for shape in ["4x4", "8x4", "6x8", "8x8"] {
            assert!(names.contains(format!("portable_{shape}").as_str()));
        }
        assert!(Microkernel::by_name("no_such_kernel").is_none());
    }

    #[test]
    fn every_supported_kernel_matches_emulator_bitwise() {
        // Quick in-crate parity check (the exhaustive sweep with fringes,
        // NaN/beta grids and thread counts lives in tests/microkernels.rs):
        // each supported variant through an awkward shape must equal the
        // scalar emulator bit for bit.
        let mut rng = SplitMix64::new(48);
        let a = Matrix::random(&mut rng, 29, 23);
        let b = Matrix::random(&mut rng, 23, 33);
        let c0 = Matrix::random(&mut rng, 29, 33);
        let blk = GemmBlocking {
            mc: 16,
            kc: 7,
            nc: 24,
        };
        for krn in microkernels().iter().filter(|k| k.supported()) {
            let mut c = c0.clone();
            gemm_with(&mut c, -1.5, &a, &b, 0.25, 1, blk, krn);
            let mut e = c0.clone();
            gemm_emulated(&mut e, -1.5, &a, &b, 0.25, blk.kc, krn.fused);
            assert_eq!(c.as_slice(), e.as_slice(), "kernel {}", krn.name);
        }
    }

    #[test]
    fn force_kernel_guard_overrides_and_restores() {
        // Force the kernel that is already selected: exercises the guard's
        // store/restore without perturbing concurrently running in-process
        // tests that rely on a stable kernel selection.
        let name = selected_kernel().name;
        {
            let guard = force_kernel(name).unwrap();
            assert_eq!(selected_kernel().name, name);
            drop(guard);
        }
        assert_eq!(selected_kernel().name, name);
        let err = force_kernel("no_such_kernel").unwrap_err();
        assert!(err.contains("unknown microkernel"), "{err}");
    }

    #[test]
    fn gemm_empty_dims() {
        let a = Matrix::zeros(0, 3);
        let b = Matrix::zeros(3, 4);
        let mut c = Matrix::zeros(0, 4);
        gemm(&mut c, 1.0, &a, &b, 0.0);
        assert!(c.is_empty());
    }

    #[test]
    fn matmul_convenience() {
        let a = Matrix::identity(6);
        let mut rng = SplitMix64::new(17);
        let b = Matrix::random(&mut rng, 6, 6);
        assert!(matmul(&a, &b).allclose(&b, 1e-12));
    }
}
