//! Corruption and bad-override fallback: a truncated/garbage tuning file
//! plus an invalid `DENSELIN_GEMM_BLOCK` must degrade to the defaults —
//! warn, never panic, never a wrong result.
//!
//! One test per binary: the selection caches are process-wide.

use denselin::gemm::{selected_kernel, selected_kernel_with_source, GemmBlocking};
use denselin::tune::{persisted, TuneSource};
use denselin::{gemm, gemm_emulated, Matrix, SplitMix64};

#[test]
fn corrupt_file_and_invalid_block_env_fall_back_to_heuristics() {
    let dir = std::env::temp_dir().join(format!("denselin-tune-corrupt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("tuning.toml");
    // A truncated record: required fields missing, so parse() errors.
    std::fs::write(
        &path,
        "version = 1\n\n[[gemm]]\nhost = \"h\"\nkernel = \"k\"\nmc = 64\n",
    )
    .unwrap();
    std::env::set_var("DENSELIN_TUNING_FILE", &path);
    // Satellite-4 regression: the invalid override must be *reported and
    // ignored*, not silently cached as "no override".
    std::env::set_var("DENSELIN_GEMM_BLOCK", "bogus");
    std::env::remove_var("DENSELIN_GEMM_KERNEL");

    assert!(
        persisted().is_none(),
        "corrupt file must not yield a record"
    );

    let (blk, src) = GemmBlocking::tuned_with_source();
    assert_eq!(src, TuneSource::Heuristic);
    assert_eq!(blk, GemmBlocking::default());

    let (krn, ksrc) = selected_kernel_with_source();
    assert_eq!(ksrc, TuneSource::Heuristic);
    assert!(krn.supported());

    // And the degraded configuration still computes the exact result the
    // selected kernel's reduction class predicts.
    let mut rng = SplitMix64::new(42);
    let a = Matrix::random(&mut rng, 19, 11);
    let b = Matrix::random(&mut rng, 11, 23);
    let c0 = Matrix::random(&mut rng, 19, 23);
    let mut c = c0.clone();
    gemm(&mut c, 1.25, &a, &b, -0.5);
    let mut e = c0.clone();
    gemm_emulated(&mut e, 1.25, &a, &b, -0.5, blk.kc, selected_kernel().fused);
    assert_eq!(c.as_slice(), e.as_slice());

    let _ = std::fs::remove_dir_all(&dir);
}
