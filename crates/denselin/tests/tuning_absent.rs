//! With no tuning file and no override, a process runs the built-in
//! defaults: `GemmBlocking::default()` and the fastest supported ISA
//! kernel, both reported as `TuneSource::Heuristic`. Nothing is timed, so
//! every such process on a host picks the same blocking. One test per
//! binary: the selection caches are process-wide.

use denselin::default_isa_kernel;
use denselin::gemm::{selected_kernel_with_source, GemmBlocking};
use denselin::tune::{persisted, TuneSource};

#[test]
fn no_file_and_no_override_select_the_defaults() {
    let path = std::env::temp_dir()
        .join(format!("denselin-tune-absent-{}", std::process::id()))
        .join("tuning.toml");
    assert!(!path.exists());
    std::env::set_var("DENSELIN_TUNING_FILE", &path);
    std::env::remove_var("DENSELIN_GEMM_BLOCK");
    std::env::remove_var("DENSELIN_GEMM_KERNEL");

    assert!(persisted().is_none());
    assert_eq!(
        GemmBlocking::tuned_with_source(),
        (GemmBlocking::default(), TuneSource::Heuristic)
    );
    let (krn, ksrc) = selected_kernel_with_source();
    assert_eq!(ksrc, TuneSource::Heuristic);
    assert_eq!(krn.name, default_isa_kernel().name);
}
