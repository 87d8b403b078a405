//! Records the build configuration (rustflags, compiled target features,
//! profile) so every result carries the flags it was built with.

fn main() {
    for var in [
        "CARGO_ENCODED_RUSTFLAGS",
        "CARGO_CFG_TARGET_FEATURE",
        "PROFILE",
    ] {
        println!("cargo:rerun-if-env-changed={var}");
    }
    let rustflags = std::env::var("CARGO_ENCODED_RUSTFLAGS")
        .unwrap_or_default()
        .replace('\x1f', " ");
    let features = std::env::var("CARGO_CFG_TARGET_FEATURE").unwrap_or_default();
    let profile = std::env::var("PROFILE").unwrap_or_default();
    println!("cargo:rustc-env=PERFBENCH_RUSTFLAGS={rustflags}");
    println!("cargo:rustc-env=PERFBENCH_TARGET_FEATURES={features}");
    println!("cargo:rustc-env=PERFBENCH_PROFILE={profile}");
}
