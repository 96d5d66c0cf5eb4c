//! A tuning file keyed to a *different* host must be ignored (default
//! fallback), not misapplied. One test per binary: the selection caches
//! are process-wide.

use denselin::gemm::{selected_kernel_with_source, GemmBlocking};
use denselin::tune::{persisted, TuneSource, TuningFile, TuningRecord};

#[test]
fn record_for_another_host_is_ignored() {
    let dir = std::env::temp_dir().join(format!("denselin-tune-wronghost-{}", std::process::id()));
    let path = dir.join("tuning.toml");
    std::env::set_var("DENSELIN_TUNING_FILE", &path);
    std::env::remove_var("DENSELIN_GEMM_BLOCK");
    std::env::remove_var("DENSELIN_GEMM_KERNEL");

    let mut file = TuningFile::default();
    file.upsert(TuningRecord {
        host: "museum-vax-c1-l1d0-l20-l30".to_string(),
        kernel: "portable_4x4".to_string(),
        blocking: GemmBlocking {
            mc: 7,
            kc: 7,
            nc: 7,
        },
        threads: 1,
        gflops: 0.001,
    });
    file.store(&path).unwrap();

    assert!(persisted().is_none(), "wrong-host record must not apply");

    let (blk, src) = GemmBlocking::tuned_with_source();
    assert_eq!(src, TuneSource::Heuristic);
    assert_eq!(blk, GemmBlocking::default());
    assert_ne!(
        blk,
        GemmBlocking {
            mc: 7,
            kc: 7,
            nc: 7
        }
    );

    let (_, ksrc) = selected_kernel_with_source();
    assert_eq!(ksrc, TuneSource::Heuristic);

    let _ = std::fs::remove_dir_all(&dir);
}
