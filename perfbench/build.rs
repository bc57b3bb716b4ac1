//! Records how the benchmark was built, for the provenance it prints.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(&rustc)
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let env = |key: &str| std::env::var(key).unwrap_or_default();
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_TARGET={}", env("TARGET"));
    println!("cargo:rustc-env=PERFBENCH_PROFILE={}", env("PROFILE"));
    // Flags as space-separated words (CARGO_ENCODED_RUSTFLAGS uses 0x1f).
    println!(
        "cargo:rustc-env=PERFBENCH_RUSTFLAGS={}",
        env("CARGO_ENCODED_RUSTFLAGS").replace('\x1f', " ")
    );
    println!("cargo:rerun-if-env-changed=RUSTFLAGS");
    println!("cargo:rerun-if-changed=build.rs");
}
